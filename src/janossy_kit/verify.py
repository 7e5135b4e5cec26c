"""Self-check suites: closed forms against brute-force references.

Each suite draws seeded random instances, computes one family of quantities
along two independent routes, and records both values with absolute and
relative errors per instance, plus the error the suite judges (absolute,
relative or scaled) against its tolerance.  Suites are deterministic
functions of (instances, seed): reruns produce identical records, byte for
byte, whatever the thread count, because instances are independent and
results are collected in instance order.

Suite names: heine, partition, correlations, janossy, resolvent, dyson-mehta,
marginal.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .chain_ensemble import ChainEnsemble, marginal_ensemble, partition_function
from .errors import SingularOperatorError
from .janossy import (
    complement_tables,
    count_distribution,
    janossy_density,
    janossy_kernel_explicit,
)
from .kernels import (
    complex_pair,
    correlation_function,
    correlation_kernel,
    dyson_mehta_check,
    fredholm_det,
    pair_index,
    resolvent_kernel,
    restrict,
)
from .measure_space import WindowFamily, make_discrete
from .models import build_random
from .oracle import (
    DEFAULT_BUDGET,
    brute_correlation,
    brute_count_probability,
    brute_janossy,
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

# instance draws redraw their sub-seed until the pairing matrix clears this;
# small random Gram matrices go near-singular often enough that unconditioned
# draws would make 1e-10 agreement bars meaningless rather than strict
INSTANCE_COND_GATE = 3e3


def _record(instance: int, desc: dict, quantity: str, oracle, closed,
            tolerance: float, relative: bool = False,
            scale: float = 1.0) -> dict:
    """One comparison; ``judged_error`` is what the tolerance bounds.

    The judged error is the relative error when ``relative``, else the
    absolute error divided by ``scale``.
    """
    a, b = complex(oracle), complex(closed)
    abs_err = abs(a - b)
    rel_err = abs_err / max(abs(a), abs(b), 1e-300)
    judged = rel_err if relative else abs_err / scale
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
        return {
            "suite": self.suite,
            "instances": self.instances,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "max_abs_error": self.max_abs_error,
            "max_rel_error": self.max_rel_error,
            "records": self.records,
        }

    def rejudge(self, tolerance: float) -> None:
        """Judge every comparison again against another tolerance.

        Records that compare nothing (``judged_error`` None) keep their
        status.
        """
        for r in self.records:
            if r["judged_error"] is not None:
                r["status"] = ("pass" if r["judged_error"] <= tolerance
                               else "fail")
        self.tolerance = tolerance
        self.passed = _all_pass(self.records)

    def pass_lines(self) -> list[str]:
        lines = []
        for r in self.records:
            lines.append(
                f"{self.suite} instance {r['instance']:03d} "
                f"[{r['quantity']}]: {r['status']} "
                f"(abs {r['abs_error']:.3e}, rel {r['rel_error']:.3e})"
            )
        return lines


def _all_pass(records: list) -> bool:
    return all(r["status"] in ("pass", "expected-error") for r in records)


def _finish(suite: str, instances: int, seed: int, tolerance: float,
            records: list) -> SuiteReport:
    passed = _all_pass(records)
    max_abs = max((r["abs_error"] for r in records
                   if r["status"] != "expected-error"), default=0.0)
    max_rel = max((r["rel_error"] for r in records
                   if r["status"] != "expected-error"), default=0.0)
    return SuiteReport(suite=suite, instances=instances, seed=seed,
                       tolerance=tolerance, passed=passed,
                       max_abs_error=max_abs, max_rel_error=max_rel,
                       records=records)


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

def draw_dimensions(seed: int, index: int, floors: int | None = None):
    """Deterministic desk-scale dimensions and sub-seed for instance #index."""
    rng = np.random.default_rng((seed, index))
    P = int(rng.integers(2, 6))
    n = min(int(rng.integers(1, 3)), P)
    M = int(rng.integers(1, 4)) if floors is None else int(floors)
    sub_seed = int(rng.integers(0, 2 ** 31))
    return P, n, M, sub_seed, rng


def draw_ensemble(seed: int, index: int, floors: int | None = None):
    """Seeded random instance plus a JSON-friendly description.

    Redraws the sub-seed until the pairing matrix condition number clears
    INSTANCE_COND_GATE, so agreement bars measure algorithmic error rather
    than the luck of a nearly singular draw.
    """
    P, n, M, sub_seed, rng = draw_dimensions(seed, index, floors)
    for _ in range(64):
        ens = build_random(sub_seed, P, n, M)
        if ens.gram_cond <= INSTANCE_COND_GATE:
            break
        sub_seed = int(rng.integers(0, 2 ** 31))
    desc = {"nodes": P, "particles": n, "floors": M, "seed": sub_seed}
    return ens, desc, rng


def draw_conditioned_windows(ens: ChainEnsemble, rng: np.random.Generator,
                             attempts: int = 64) -> WindowFamily | None:
    """Random windows conditioned on well-posed restricted inversions.

    A floor whose draw would leave fewer than n complement nodes gets an
    empty window instead: the closed-form window construction needs the
    complement to support the rank-n pairing, so such draws lie outside its
    domain rather than being hard instances of it.  A draw is kept only when
    the complement pairing matrix and Id minus the restricted kernel both
    have condition number at most the gate.  Returns None when every attempt
    fails (recorded by callers as a skip).
    """
    kernel = correlation_kernel(ens)
    P = ens.space.size
    for _ in range(attempts):
        masks = []
        for _ in range(ens.floors):
            mask = rng.random(P) < 0.4
            if P - int(mask.sum()) < ens.n:
                mask = np.zeros(P, dtype=bool)
            masks.append(mask)
        wf = WindowFamily(tuple(ens.space.window(m) for m in masks))
        if np.linalg.cond(complement_tables(ens, wf).gram) > WINDOW_COND_GATE:
            continue
        op = restrict(kernel, wf)
        if op.size:
            t = np.eye(op.size, dtype=np.complex128) - op.matrix
            if np.linalg.cond(t) > WINDOW_COND_GATE:
                continue
        return wf
    return None


def _map_instances(worker, count: int, threads: int) -> list:
    indices = list(range(count))
    if threads <= 1 or count <= 1:
        return [worker(i) for i in indices]
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        return list(pool.map(worker, indices))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def verify_heine(instances: int = DEFAULT_INSTANCES, seed: int = DEFAULT_SEED,
                 budget: int = DEFAULT_BUDGET, threads: int = 1) -> SuiteReport:
    """(1/n!) sum_tuples det psi det chi prod(w) against det of pairings."""
    tol = TOLERANCES["heine"]

    def worker(i: int) -> dict:
        rng = np.random.default_rng((seed, i, 7))
        P = int(rng.integers(2, 6))
        n = min(int(rng.integers(1, 4)), P)
        w = rng.uniform(0.2, 1.2, P)
        psi = rng.uniform(-1.0, 1.0, (n, P))
        chi = rng.uniform(-1.0, 1.0, (n, P))
        lhs = 0.0
        for tup in itertools.product(range(P), repeat=n):
            idx = list(tup)
            lhs += (np.linalg.det(psi[:, idx]) * np.linalg.det(chi[:, idx])
                    * np.prod(w[idx]))
        lhs /= float(math.factorial(n))
        return _record(i, {"nodes": P, "functions": n}, "pairing identity",
                       lhs, np.linalg.det((psi * w[None, :]) @ chi.T), tol)

    records = _map_instances(worker, instances, threads)
    return _finish("heine", instances, seed, tol, records)


def verify_partition(instances: int = DEFAULT_INSTANCES,
                     seed: int = DEFAULT_SEED, budget: int = DEFAULT_BUDGET,
                     threads: int = 1) -> SuiteReport:
    """Raw configuration sum against (n!)^M det A, relative error."""
    tol = TOLERANCES["partition"]

    def worker(i: int) -> dict:
        ens, desc, _ = draw_ensemble(seed, i)
        dist = enumerate_density(ens, budget=budget)
        return _record(i, desc, "partition function", dist.z_raw,
                       partition_function(ens), tol, relative=True)

    records = _map_instances(worker, instances, threads)
    return _finish("partition", instances, seed, tol, records)


def count_vectors(n: int, floors: int, total_max: int, total_min: int = 1):
    """All per-floor count vectors with entries <= n and bounded total."""
    out = []
    for v in itertools.product(range(min(n, total_max) + 1), repeat=floors):
        if total_min <= sum(v) <= total_max:
            out.append(v)
    return out


def _all_point_sets(ens: ChainEnsemble, counts) -> list[list[tuple[int, int]]]:
    """Every ordered assignment of nodes realizing a count vector."""
    P = ens.space.size
    per_floor = []
    for l, k in enumerate(counts, start=1):
        per_floor.append(
            [[(l, x) for x in tup]
             for tup in itertools.product(range(P), repeat=k)]
        )
    sets = []
    for combo in itertools.product(*per_floor):
        sets.append([p for chunk in combo for p in chunk])
    return sets


def verify_correlations(instances: int = DEFAULT_INSTANCES,
                        seed: int = DEFAULT_SEED, budget: int = DEFAULT_BUDGET,
                        threads: int = 1, total_max: int = 3) -> SuiteReport:
    """Kernel determinants against brute correlation sums, all point sets."""
    tol = TOLERANCES["correlations"]

    def worker(i: int) -> dict:
        ens, desc, _ = draw_ensemble(seed, i)
        dist = enumerate_density(ens, budget=budget)
        kernel = correlation_kernel(ens)
        worst = 0.0
        worst_pair = (0.0 + 0.0j, 0.0 + 0.0j)
        checked = 0
        for counts in count_vectors(ens.n, ens.floors, total_max):
            for points in _all_point_sets(ens, counts):
                det_form = correlation_function(kernel, points)
                brute = brute_correlation(dist, points)
                err = abs(det_form - brute)
                checked += 1
                if err > worst:
                    worst, worst_pair = err, (brute, det_form)
        desc = dict(desc, point_sets=checked)
        return _record(i, desc, "correlation determinants (worst point set)",
                       worst_pair[0], worst_pair[1], tol)

    records = _map_instances(worker, instances, threads)
    return _finish("correlations", instances, seed, tol, records)


def verify_janossy(instances: int = DEFAULT_INSTANCES,
                   seed: int = DEFAULT_SEED, budget: int = DEFAULT_BUDGET,
                   threads: int = 1, total_max: int = 2) -> SuiteReport:
    """Janossy closed forms against brute sums: densities, gaps, counts."""
    tol = TOLERANCES["janossy"]

    def worker(i: int) -> list[dict]:
        ens, desc, rng = draw_ensemble(seed, i)
        wf = draw_conditioned_windows(ens, rng)
        if wf is None:
            return [_note(i, desc, "window conditioning")]
        desc = dict(desc, windows=[w.count for w in wf.windows])
        dist = enumerate_density(ens, budget=budget)
        kernel = correlation_kernel(ens)
        jk = janossy_kernel_explicit(ens, wf)
        out = []
        # gap probability: three routes pairwise
        gap_fred = fredholm_det(restrict(kernel, wf))
        gap_brute = brute_count_probability(dist, wf, [0] * ens.floors)
        out.append(_record(i, desc, "gap probability (fredholm vs brute)",
                           gap_brute, gap_fred, tol))
        out.append(_record(i, desc, "gap probability (const vs fredholm)",
                           gap_fred, jk.const, tol))
        # densities on every in-window point set with small total
        worst, pair = -1.0, (0.0 + 0.0j, 0.0 + 0.0j)
        for counts in count_vectors(ens.n, ens.floors, total_max):
            per_floor = [
                [[(l, int(x)) for x in tup] for tup in
                 itertools.product(wf.window(l).node_indices.tolist(), repeat=k)]
                for l, k in enumerate(counts, start=1)
            ]
            for combo in itertools.product(*per_floor):
                points = [p for chunk in combo for p in chunk]
                a = brute_janossy(dist, wf, points)
                b = janossy_density(jk, points)
                err = abs(a - b)
                if err > worst:
                    worst, pair = err, (a, b)
        if worst >= 0.0:
            out.append(_record(i, desc, "janossy densities (worst point set)",
                               pair[0], pair[1], tol))
        # count probabilities: every count vector against the oracle
        law = count_distribution(ens, wf)
        worst, pair = -1.0, (0.0 + 0.0j, 0.0 + 0.0j)
        for counts in itertools.product(range(ens.n + 1), repeat=ens.floors):
            a, b = brute_count_probability(dist, wf, counts), law[counts]
            if abs(a - b) > worst:
                worst, pair = abs(a - b), (a, b)
        out.append(_record(i, desc, "count probabilities (worst count "
                           "vector, generating function vs brute)",
                           pair[0], pair[1], tol))
        # closure holds by construction: the entries sum to p(1) = 1
        out.append(_record(i, desc, "count closure", 1.0, law.sum(), tol,
                           scale=10.0))
        return out

    nested = _map_instances(worker, instances, threads)
    records = [r for chunk in nested for r in chunk]
    return _finish("janossy", instances, seed, tol, records)


def verify_resolvent(instances: int = DEFAULT_INSTANCES,
                   seed: int = DEFAULT_SEED, budget: int = DEFAULT_BUDGET,
                   threads: int = 1) -> SuiteReport:
    """Closed-form window kernel against the resolvent of the restriction.

    Instance 0 deliberately uses full windows, where the construction must
    fail with a singular complement pairing matrix; it is recorded as an
    expected error.  Other instances condition their window draw on
    well-posed inversions.
    """
    tol = TOLERANCES["resolvent"]

    def worker(i: int) -> dict:
        ens, desc, rng = draw_ensemble(seed, i)
        kernel = correlation_kernel(ens)
        if i == 0:
            wf = WindowFamily(tuple(ens.space.full_window()
                                    for _ in range(ens.floors)))
            try:
                janossy_kernel_explicit(ens, wf)
                status = "fail"
            except SingularOperatorError:
                status = "expected-error"
            return _note(i, dict(desc, windows="full"), "full windows reject",
                         status)
        wf = draw_conditioned_windows(ens, rng)
        if wf is None:
            return _note(i, desc, "window conditioning")
        desc = dict(desc, windows=[w.count for w in wf.windows])
        jk = janossy_kernel_explicit(ens, wf)
        res = resolvent_kernel(kernel, wf)
        idx = pair_index(wf.points())
        a, b = res.blocks[idx], jk.kernel.blocks[idx]
        scale, pair = 1.0, (0.0 + 0.0j, 0.0 + 0.0j)
        if a.size:
            pos = np.unravel_index(int(np.abs(a - b).argmax()), a.shape)
            scale, pair = 1.0 + float(np.abs(a).max()), (a[pos], b[pos])
        return _record(i, desc, "window kernel (resolvent vs closed form)",
                       pair[0], pair[1], tol, scale=scale)

    records = _map_instances(worker, instances, threads)
    return _finish("resolvent", instances, seed, tol, records)


def verify_dyson_mehta(instances: int = DEFAULT_INSTANCES,
                       seed: int = DEFAULT_SEED, budget: int = DEFAULT_BUDGET,
                       threads: int = 1) -> SuiteReport:
    """Reproducing-identity residuals per floor pair, scaled by max(1, max|W|).

    One record per floor pair (k, m), carrying the intermediate floor l
    with the largest residual; see kernels.dyson_mehta_check.
    """
    tol = TOLERANCES["dyson-mehta"]

    def worker(i: int) -> list[dict]:
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

    nested = _map_instances(worker, instances, threads)
    records = [r for chunk in nested for r in chunk]
    return _finish("dyson-mehta", instances, seed, tol, records)


def verify_marginal(instances: int = DEFAULT_INSTANCES,
                    seed: int = DEFAULT_SEED, budget: int = DEFAULT_BUDGET,
                    threads: int = 1) -> SuiteReport:
    """Marginal-chain correlations against the parent chain, M = 3."""
    tol = TOLERANCES["marginal"]

    def worker(i: int) -> list[dict]:
        ens, desc, rng = draw_ensemble(seed, i, floors=3)
        kernel = correlation_kernel(ens)
        P = ens.space.size
        out = []
        subsets = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
        for floors in subsets:
            marg = marginal_ensemble(ens, list(floors))
            km = correlation_kernel(marg)
            gram_err = float(np.abs(marg.tables.gram - ens.tables.gram).max())
            worst, pair = -1.0, (0.0 + 0.0j, 0.0 + 0.0j)
            # one-point values on every floor and node
            for j, parent_floor in enumerate(floors, start=1):
                for x in range(P):
                    a = correlation_function(kernel, [(parent_floor, x)])
                    b = correlation_function(km, [(j, x)])
                    if abs(a - b) > worst:
                        worst, pair = abs(a - b), (a, b)
            # one cross-floor pair when available
            if len(floors) == 2:
                x, y = int(rng.integers(P)), int(rng.integers(P))
                a = correlation_function(
                    kernel, [(floors[0], x), (floors[1], y)])
                b = correlation_function(km, [(1, x), (2, y)])
                if abs(a - b) > worst:
                    worst, pair = abs(a - b), (a, b)
            d = dict(desc, floors_kept=list(floors), gram_error=gram_err)
            # relative above unit scale, absolute below: one-point values of
            # signed ensembles may pass near zero, where a pure ratio lies
            scale = max(abs(complex(pair[0])), abs(complex(pair[1])), 1.0)
            out.append(_record(i, d, f"marginal correlations {floors}",
                               pair[0], pair[1], tol, scale=scale))
        return out

    nested = _map_instances(worker, instances, threads)
    records = [r for chunk in nested for r in chunk]
    return _finish("marginal", instances, seed, tol, records)


SUITES = {
    "heine": verify_heine,
    "partition": verify_partition,
    "correlations": verify_correlations,
    "janossy": verify_janossy,
    "resolvent": verify_resolvent,
    "dyson-mehta": verify_dyson_mehta,
    "marginal": verify_marginal,
}


def verify_suite(name: str, instances: int = DEFAULT_INSTANCES,
                 seed: int = DEFAULT_SEED, budget: int = DEFAULT_BUDGET,
                 threads: int = 1) -> SuiteReport:
    """Run one named suite; see SUITES for the catalogue."""
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}"
        )
    return SUITES[name](instances=instances, seed=seed, budget=budget,
                        threads=threads)
