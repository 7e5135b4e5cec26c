"""Self-check suites: closed forms against brute-force references.

Each suite draws seeded random instances, computes one family of quantities
along two independent routes, and records both values with absolute and
relative errors per instance, plus the error the suite judges against its
tolerance: the absolute error divided by a scale the suite chooses.  Suites are deterministic
functions of (instances, seed): reruns produce identical records, byte for
byte, whatever the thread count, because instances are independent and
results are collected in instance order.

Suite names: heine, partition, correlations, janossy, resolvent, dyson-mehta,
marginal.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .chain_ensemble import ChainEnsemble, marginal_ensemble, partition_function
from .errors import SingularOperatorError
from .janossy import (
    JanossyKernel,
    count_distribution,
    janossy_kernel_explicit,
)
from .kernels import (
    RestrictedOperator,
    complex_pair,
    correlation_function,
    correlation_kernel,
    dyson_mehta_check,
    fredholm_det,
    resolvent_kernel,
    restrict,
)
from .measure_space import WindowFamily, _is_int, _is_number
from .models import build_random
from .oracle import (
    DEFAULT_BUDGET,
    _holding,
    brute_count_distribution,
    enumerate_density,
)

DEFAULT_SEED = 1234
DEFAULT_INSTANCES = 50

TOLERANCES = {
    "heine": 1e-10,
    "partition": 1e-10,
    "correlations": 1e-10,
    "janossy": 1e-10,
    "resolvent": 1e-8,
    "dyson-mehta": 1e-10,
    "marginal": 1e-10,
}

# conditioning gate used when a suite must invert window-restricted matrices;
# 1e4 keeps inversion noise around 1e-12, well under the 1e-10 suite bars
WINDOW_COND_GATE = 1e4
# window draws per instance before draw_conditioned_windows gives up
WINDOW_ATTEMPTS = 64

# instance draws redraw their sub-seed until the pairing matrix clears this;
# small random Gram matrices go near-singular often enough that unconditioned
# draws would make 1e-10 agreement bars meaningless rather than strict
INSTANCE_COND_GATE = 3e3


def _record(instance: int, desc: dict, quantity: str, oracle, closed,
            tolerance: float, scale: float = 1.0) -> dict:
    """One comparison; ``judged_error`` is what the tolerance bounds: the
    absolute error divided by ``scale``."""
    a, b = complex(oracle), complex(closed)
    abs_err = abs(a - b)
    rel_err = abs_err / max(abs(a), abs(b), 1e-300)
    judged = abs_err / scale
    return {
        "instance": instance,
        "description": desc,
        "quantity": quantity,
        "oracle": complex_pair(a),
        "closed_form": complex_pair(b),
        "abs_error": float(abs_err),
        "rel_error": float(rel_err),
        "judged_error": float(judged),
        "status": "pass" if judged <= tolerance else "fail",
    }


def _note(instance: int, desc: dict, quantity: str,
          status: str = "expected-error", **extra) -> dict:
    """A record that compares nothing: a skip, a probe, a diagnostic."""
    return dict({
        "instance": instance, "description": desc, "quantity": quantity,
        "oracle": [0.0, 0.0], "closed_form": [0.0, 0.0],
        "abs_error": 0.0, "rel_error": 0.0, "judged_error": None,
        "status": status,
    }, **extra)


@dataclass
class SuiteReport:
    """Outcome of one verify suite run."""

    suite: str
    instances: int
    seed: int
    tolerance: float
    passed: bool
    max_abs_error: float
    max_rel_error: float
    records: list = field(default_factory=list)

    def to_json(self) -> dict:
        return dict(vars(self))

    def pass_lines(self) -> list[str]:
        lines = []
        for r in self.records:
            lines.append(
                f"{self.suite} instance {r['instance']:03d} "
                f"[{r['quantity']}]: {r['status']} "
                f"(abs {r['abs_error']:.3e}, rel {r['rel_error']:.3e})"
            )
        return lines


def _worst(oracle: np.ndarray, closed: np.ndarray):
    """The pair (oracle[i], closed[i]) farthest apart, by |a - b|.

    The first such pair on ties; None when the arrays are empty.
    """
    if not oracle.size:
        return None
    i = int(np.abs(oracle - closed).argmax())
    return oracle[i], closed[i]


SUITES: dict = {}


def _suite(name: str):
    """Register a per-instance record function as the suite ``name``.

    The function maps ``(instance, seed, budget, tolerance)`` to its list
    of records; ``SUITES[name]`` runs it over a whole suite (run_suite).
    """
    def register(instance_records):
        SUITES[name] = functools.partial(run_suite, name, instance_records)
        return instance_records
    return register


def run_suite(name: str, instance_records, instances: int, seed: int,
              budget: int, threads: int,
              tolerance: float | None) -> SuiteReport:
    """Run ``instance_records`` on instances 0..instances-1, on a thread
    pool when ``threads`` > 1, and collect the records in instance order,
    so reports do not depend on the thread count."""
    tol = TOLERANCES[name] if tolerance is None else float(tolerance)
    work = functools.partial(instance_records, seed=seed, budget=budget,
                             tol=tol)
    if threads <= 1 or instances <= 1:
        nested = [work(i) for i in range(instances)]
    else:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            nested = list(pool.map(work, range(instances)))
    records = [r for chunk in nested for r in chunk]
    compared = [r for r in records if r["status"] != "expected-error"]
    return SuiteReport(
        suite=name, instances=instances, seed=seed, tolerance=tol,
        passed=all(r["status"] == "pass" for r in compared),
        max_abs_error=max((r["abs_error"] for r in compared), default=0.0),
        max_rel_error=max((r["rel_error"] for r in compared), default=0.0),
        records=records)


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

def draw_ensemble(seed: int, index: int, floors: int | None = None):
    """Seeded random instance plus a JSON-friendly description.

    Instance #index draws deterministic desk-scale dimensions and a
    sub-seed, then redraws the sub-seed until the pairing matrix condition
    number clears INSTANCE_COND_GATE, so agreement bars measure
    algorithmic error rather than the luck of a nearly singular draw.
    """
    rng = np.random.default_rng((seed, index))
    P = int(rng.integers(2, 6))
    n = min(int(rng.integers(1, 3)), P)
    M = int(rng.integers(1, 4)) if floors is None else int(floors)
    sub_seed = int(rng.integers(0, 2 ** 31))
    for _ in range(64):
        ens = build_random(sub_seed, P, n, M)
        if ens.gram_cond <= INSTANCE_COND_GATE:
            break
        sub_seed = int(rng.integers(0, 2 ** 31))
    desc = {"nodes": P, "particles": n, "floors": M, "seed": sub_seed}
    return ens, desc, rng


def draw_conditioned_windows(
        ens: ChainEnsemble, rng: np.random.Generator
) -> tuple[WindowFamily, JanossyKernel, RestrictedOperator] | None:
    """Random windows conditioned on well-posed restricted inversions.

    A floor whose draw would leave fewer than n complement nodes gets an
    empty window instead: the closed-form window construction needs the
    complement to support the rank-n pairing, so such draws lie outside its
    domain rather than being hard instances of it.  A draw is kept only when
    the complement pairing matrix and Id minus the restricted kernel both
    pass their rcond gate with condition number at most the gate (the
    second is the operator's cached ``gate``).  Returns the accepted windows
    with their closed-form Janossy kernel and the correlation kernel
    restricted to them, or None when all WINDOW_ATTEMPTS draws fail
    (recorded by callers as a skip).
    """
    kernel = correlation_kernel(ens)
    P = ens.space.size
    for _ in range(WINDOW_ATTEMPTS):
        masks = []
        for _ in range(ens.floors):
            mask = rng.random(P) < 0.4
            if P - int(mask.sum()) < ens.n:
                mask = np.zeros(P, dtype=bool)
            masks.append(mask)
        wf = WindowFamily(tuple(ens.space.window(m) for m in masks))
        try:
            jk = janossy_kernel_explicit(ens, wf)
        except SingularOperatorError:
            continue
        if jk.gram_cond > WINDOW_COND_GATE:
            continue
        op = restrict(kernel, wf)
        try:
            if op.size and op.gate[0] > WINDOW_COND_GATE:
                continue
        except SingularOperatorError:
            continue
        return wf, jk, op
    return None


def count_vectors(n: int, floors: int, total_max: int):
    """All per-floor count vectors with entries <= n and total in
    1..total_max."""
    return [v for v in itertools.product(range(min(n, total_max) + 1),
                                         repeat=floors)
            if 1 <= sum(v) <= total_max]


def point_grid(dist, vectors, domains, free, matrix):
    """Oracle densities and kernel determinants at every point set with
    counts[l-1] points on floor l, each ranging over domains[l-1], for
    every count vector in ``vectors``.

    The oracle builds one state factor per floor and point count, the other
    floor-l particles lying in free[l-1] (see brute_density_grid), and takes
    one chain sum per count vector; the closed form takes one batched
    determinant of the kernel matrix ``matrix()`` at rows (l-1) P + node,
    and calls ``matrix`` only when some point set exists.  Both arrays
    follow the count vectors, then the row-major order of the point axes.
    """
    P = dist.ensemble.space.size
    holding = functools.cache(
        lambda l, k: _holding(dist, [domains[l]] * k, free[l]))
    oracle, grids = [], []
    for counts in vectors:
        oracle.append(dist.chain_sum([holding(l, k) for l, k
                                      in enumerate(counts)]).reshape(-1))
        r = np.meshgrid(*[l * P + domains[l] for l, k in enumerate(counts)
                          for _ in range(k)], indexing="ij")
        grids.append(np.stack(r, axis=-1).reshape(-1, sum(counts)))
    oracle = np.concatenate(oracle) / dist.z_states
    if not oracle.size:
        return oracle, oracle
    m = matrix()
    return oracle, np.concatenate([np.linalg.det(m[r[:, :, None], r[:, None]])
                                   for r in grids])


# ---------------------------------------------------------------------------
# suites: one function per suite, from (instance, seed, budget, tolerance)
# to that instance's records
# ---------------------------------------------------------------------------

@_suite("heine")
def verify_heine(i: int, seed: int, budget: int, tol: float) -> list[dict]:
    """(1/n!) sum_tuples det psi det chi prod(w) against det of pairings."""
    rng = np.random.default_rng((seed, i, 7))
    P = int(rng.integers(2, 6))
    n = min(int(rng.integers(1, 4)), P)
    w = rng.uniform(0.2, 1.2, P)
    psi = rng.uniform(-1.0, 1.0, (n, P))
    chi = rng.uniform(-1.0, 1.0, (n, P))
    tuples = np.indices((P,) * n).reshape(n, -1).T
    lhs = np.sum(np.linalg.det(psi[:, tuples].transpose(1, 0, 2))
                 * np.linalg.det(chi[:, tuples].transpose(1, 0, 2))
                 * np.prod(w[tuples], axis=1)) / math.factorial(n)
    return [_record(i, {"nodes": P, "functions": n}, "pairing identity",
                    lhs, np.linalg.det((psi * w[None, :]) @ chi.T), tol)]


@_suite("partition")
def verify_partition(i: int, seed: int, budget: int,
                     tol: float) -> list[dict]:
    """Raw configuration sum against (n!)^M det A, relative error."""
    ens, desc, _ = draw_ensemble(seed, i)
    z_raw = enumerate_density(ens, budget=budget).z_raw
    z = partition_function(ens)
    return [_record(i, desc, "partition function", z_raw, z, tol,
                    scale=max(abs(z_raw), abs(z), 1e-300))]


@_suite("correlations")
def verify_correlations(i: int, seed: int, budget: int,
                        tol: float) -> list[dict]:
    """Kernel determinants against brute correlation sums, all point sets
    with at most three points."""
    ens, desc, _ = draw_ensemble(seed, i)
    dist = enumerate_density(ens, budget=budget)
    kernel = correlation_kernel(ens)
    allnodes = [np.arange(ens.space.size)] * ens.floors
    oracle, closed = point_grid(dist, count_vectors(ens.n, ens.floors, 3),
                                allnodes, allnodes, lambda: kernel.matrix)
    return [_record(i, dict(desc, point_sets=oracle.size),
                    "correlation determinants (worst point set)",
                    *_worst(oracle, closed), tol)]


@_suite("janossy")
def verify_janossy(i: int, seed: int, budget: int, tol: float) -> list[dict]:
    """Janossy closed forms against brute sums: gaps, densities on every
    in-window point set with at most two points, counts."""
    ens, desc, rng = draw_ensemble(seed, i)
    drawn = draw_conditioned_windows(ens, rng)
    if drawn is None:
        return [_note(i, desc, "window conditioning")]
    wf, jk, op = drawn
    desc = dict(desc, windows=[w.count for w in wf.windows])
    dist = enumerate_density(ens, budget=budget)
    brute_law = brute_count_distribution(dist, wf)
    out = [_record(i, desc, "gap probability (fredholm vs brute)",
                   brute_law[(0,) * ens.floors], fredholm_det(op), tol)]
    inside = [w.node_indices for w in wf.windows]
    outside = [np.flatnonzero(m) for m in ~wf.masks]
    # the kernel is built only when some in-window point set exists
    oracle, dets = point_grid(dist, count_vectors(ens.n, ens.floors, 2),
                              inside, outside, lambda: jk.kernel.matrix)
    if oracle.size:
        out.append(_record(i, desc, "janossy densities (worst point set)",
                           *_worst(oracle, jk.const * dets), tol))
    # count probabilities: every count vector against the oracle
    law = count_distribution(ens, wf)
    out.append(_record(i, desc, "count probabilities (worst count "
                       "vector, generating function vs brute)",
                       *_worst(brute_law.reshape(-1), law.reshape(-1)), tol))
    # closure holds by construction: the entries sum to p(1) = 1
    out.append(_record(i, desc, "count closure", 1.0, law.sum(), tol,
                       scale=10.0))
    return out


@_suite("resolvent")
def verify_resolvent(i: int, seed: int, budget: int,
                     tol: float) -> list[dict]:
    """Closed-form window kernel against the resolvent of the restriction.

    Instance 0 deliberately uses full windows, where the construction must
    fail with a singular complement pairing matrix; it is recorded as an
    expected error.  Other instances condition their window draw on
    well-posed inversions.
    """
    ens, desc, rng = draw_ensemble(seed, i)
    if i == 0:
        wf = WindowFamily(tuple(ens.space.full_window()
                                for _ in range(ens.floors)))
        try:
            janossy_kernel_explicit(ens, wf)
            status = "fail"
        except SingularOperatorError:
            status = "expected-error"
        return [_note(i, dict(desc, windows="full"), "full windows reject",
                      status)]
    drawn = draw_conditioned_windows(ens, rng)
    if drawn is None:
        return [_note(i, desc, "window conditioning")]
    wf, jk, op = drawn
    desc = dict(desc, windows=[w.count for w in wf.windows])
    a, b = resolvent_kernel(op), jk.kernel.matrix_at(op.index)
    scale, pair = 1.0, (0.0 + 0.0j, 0.0 + 0.0j)
    if a.size:
        pos = np.unravel_index(int(np.abs(a - b).argmax()), a.shape)
        scale, pair = 1.0 + float(np.abs(a).max()), (a[pos], b[pos])
    return [_record(i, desc, "window kernel (resolvent vs closed form)",
                    pair[0], pair[1], tol, scale=scale)]


@_suite("dyson-mehta")
def verify_dyson_mehta(i: int, seed: int, budget: int,
                       tol: float) -> list[dict]:
    """Reproducing-identity residuals per floor pair, scaled by max(1, max|W|).

    One record per floor pair (k, m), carrying the intermediate floor l
    with the largest residual; see kernels.dyson_mehta_check.
    """
    ens, desc, _ = draw_ensemble(seed, i)
    residual, scale = dyson_mehta_check(correlation_kernel(ens))
    out = []
    for k in range(1, ens.floors + 1):
        for m in range(1, ens.floors + 1):
            l = int(residual[k - 1, :, m - 1].argmax())
            out.append(_record(i, dict(desc, worst_l=l + 1),
                               f"reproducing identity k={k} m={m}",
                               0.0, residual[k - 1, l, m - 1], tol,
                               scale=scale))
    return out


@_suite("marginal")
def verify_marginal(i: int, seed: int, budget: int, tol: float) -> list[dict]:
    """Marginal-chain correlations against the parent chain, M = 3."""
    ens, desc, rng = draw_ensemble(seed, i, floors=3)
    kernel = correlation_kernel(ens)
    P = ens.space.size
    # one-point values on every floor and node: the kernel's diagonal
    one_point = np.diagonal(kernel.matrix).reshape(ens.floors, P)
    out = []
    for floors in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]:
        marg = marginal_ensemble(ens, list(floors))
        km = correlation_kernel(marg)
        gram_err = float(np.abs(marg.tables.gram - ens.tables.gram).max())
        parent = [one_point[l - 1] for l in floors]
        child = [np.diagonal(km.matrix)]
        # one cross-floor pair when available
        if len(floors) == 2:
            x, y = int(rng.integers(P)), int(rng.integers(P))
            parent.append([correlation_function(
                kernel, [(floors[0], x), (floors[1], y)])])
            child.append([correlation_function(km, [(1, x), (2, y)])])
        a, b = _worst(np.concatenate(parent), np.concatenate(child))
        d = dict(desc, floors_kept=list(floors), gram_error=gram_err)
        # relative above unit scale, absolute below: one-point values of
        # signed ensembles may pass near zero, where a pure ratio lies
        scale = max(abs(complex(a)), abs(complex(b)), 1.0)
        out.append(_record(i, d, f"marginal correlations {floors}", a, b, tol,
                           scale=scale))
    return out


def verify_suite(name: str, instances: int = DEFAULT_INSTANCES,
                 seed: int = DEFAULT_SEED, budget: int = DEFAULT_BUDGET,
                 threads: int = 1,
                 tolerance: float | None = None) -> SuiteReport:
    """Run one named suite; see SUITES for the catalogue.  Comparisons
    are judged against ``tolerance``, by default ``TOLERANCES[name]``.
    Arguments are checked before any instance runs."""
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}"
        )
    for what, value, least in (("instances", instances, 0), ("seed", seed, 0),
                               ("budget", budget, 1), ("threads", threads, 1)):
        if not _is_int(value) or value < least:
            raise ValueError(f"{what} {value!r} is not an integer >= {least}")
    if tolerance is not None and not (_is_number(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance {tolerance!r} is not a positive finite "
                         "number")
    return SUITES[name](int(instances), int(seed), int(budget), int(threads),
                        tolerance)
