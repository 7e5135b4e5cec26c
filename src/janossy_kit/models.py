"""Ready-made ensembles: unitary-type, coupled chains, non-intersecting paths.

Builders return ordinary ChainEnsemble objects; nothing downstream knows
where an ensemble came from.  ``build_model`` reads the model object of a
JSON config, which names one of the builders or passes explicit sampled
arrays.

Potentials are accepted either as callables ``V(x) -> array`` or as
polynomial coefficient lists in ascending order (``[0, 0, 1]`` is x^2).
Every polynomial basis is the rows p_k(x) exp(-V(x)/2), k < n, of the
orthonormal polynomials of exp(-V) on the space's nodes and weights, from
the discretized Stieltjes recurrence (Gautschi 2004, section 2.2), times
the geometric mean of the monic norms: det[f_i(x_j)] stays the weighted
monomial determinant, so the partition function is the true normalization,
and one floor's pairing matrix is a multiple of the identity.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .chain_ensemble import HARD_RCOND, ChainEnsemble
from .errors import ConfigError, SingularOperatorError
from .measure_space import (
    DiscretizedSpace,
    _check_numbers,
    _is_int,
    make_discrete,
    make_quadrature,
)

KM_DEFAULT_ORDER = 120
KM_PADDING_SIGMAS = 6.0

Potential = Callable[[np.ndarray], np.ndarray]


def as_potential(spec) -> Potential:
    """Callable potential from a callable or ascending coefficient list."""
    if callable(spec):
        return spec
    coeffs = np.asarray(spec, dtype=float)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValueError("potential coefficients must be a non-empty list")
    return lambda x: np.polynomial.polynomial.polyval(x, coeffs)


@np.errstate(over="raise")
def _orthonormal_rows(space: DiscretizedSpace, n: int,
                      potential: Potential) -> np.ndarray:
    """Rows p_k(x) exp(-V(x)/2), k < n, scaled to the monomial determinant.

    Step k orthogonalizes v = x p_{k-1} exp(-V/2) (exp(-V/2) at k = 0)
    against the two rows before; what is left has norm^2 beta_k, and the
    monic norms are ||pi_k||^2 = beta_0 ... beta_k.  Keeping less than
    HARD_RCOND of |v| loses a dimension: SingularOperatorError.  A weight
    exp(-V/2), or its square, beyond float64 is FloatingPointError.
    """
    x, w = space.nodes, space.weights
    rows = np.zeros((n + 1, x.size))  # rows[-1] is the zero row p_{-1}
    v = u = np.exp(-0.5 * np.asarray(potential(x), dtype=float))
    log_norms = 0.0
    for k in range(n):
        nu, beta = float(w @ (v * v)), float(w @ (u * u))
        rcond = math.sqrt(beta / nu) if nu > 0 else 0.0
        if not rcond >= HARD_RCOND:
            raise SingularOperatorError(
                "orthogonal polynomial recurrence", rcond,
                f"step {k} of {n} on {x.size} nodes")
        rows[k] = u / math.sqrt(beta)
        log_norms += 0.5 * (n - k) * math.log(beta)
        v = x * rows[k]
        u = v - (w @ (v * rows[k])) * rows[k] - math.sqrt(beta) * rows[k - 1]
    return rows[:n] * math.exp(log_norms / n)


def build_unitary(potential, n: int, space: DiscretizedSpace) -> ChainEnsemble:
    """Single floor with rows = columns = p_k(x) exp(-V(x)/2), k < n.

    The associated density is proportional to the squared Vandermonde times
    exp(-sum V(x_i)): the one-floor coupled chain.
    """
    return build_coupled_chain(n, 1, [potential], [], space)


def build_coupled_chain(n: int, floors: int, potentials: Sequence,
                        couplings: Sequence[float],
                        space: DiscretizedSpace) -> ChainEnsemble:
    """Chain of coupled floors with exponential cross terms.

    The joint weight is exp of minus (half the end potentials, the full
    interior ones) plus sum_l c_l x^l x^{l+1}, times the Vandermonde factors
    of the end floors.  Row functions carry exp(-V_1/2), column functions
    exp(-V_M/2); each interior potential attaches wholly to the transfer
    kernel on its left, so the product of factors reproduces the weight.
    """
    if not 1 <= n <= space.size:
        raise ValueError(f"need 1 to {space.size} particles, got {n}")
    if floors < 1:
        raise ValueError("need at least one floor")
    if len(potentials) != floors:
        raise ValueError(f"need {floors} potentials, got {len(potentials)}")
    if len(couplings) != floors - 1:
        raise ValueError(f"need {floors - 1} couplings, got {len(couplings)}")
    pots = [as_potential(p) for p in potentials]
    x = space.nodes
    f = _orthonormal_rows(space, n, pots[0])
    phi = _orthonormal_rows(space, n, pots[-1])
    g = []
    for l in range(1, floors):
        block = np.exp(float(couplings[l - 1]) * np.outer(x, x))
        if l < floors - 1:
            # interior floor l+1 carries its full potential on the right slot
            block = block * np.exp(-np.asarray(pots[l](x), dtype=float))[None, :]
        g.append(block)
    return ChainEnsemble(space, f, phi, g)


def heat_kernel(s: float, t: float, x, y) -> np.ndarray:
    """Gaussian transition density from time s to time t.

    Values below the smallest normal float, ``np.finfo(float).tiny``, are
    returned as exact zeros: far-apart nodes would otherwise give subnormal
    transfer entries, and every product with such a transfer runs several
    times slower.  Values at or above it are the plain formula's.
    """
    dt = float(t) - float(s)
    if dt <= 0:
        raise ValueError("times must be strictly increasing")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g = np.exp(-((y - x) ** 2) / (2.0 * dt)) / math.sqrt(2.0 * math.pi * dt)
    # [()] keeps a scalar call's result a scalar
    return np.where(g < np.finfo(float).tiny, 0.0, g)[()]


def build_karlin_mcgregor(times: Sequence[float], start: Sequence[float],
                          end: Sequence[float], n: int | None = None,
                          order: int | None = None,
                          space: DiscretizedSpace | None = None) -> ChainEnsemble:
    """Non-intersecting Brownian paths pinned at both ends.

    ``times`` lists t_0 < t_1 < ... < t_{M+1}; the paths start at the
    ``start`` positions at t_0, are observed at the M interior times, and
    end at the ``end`` positions.  Row functions are transitions from the
    starts into the first observed floor, transfers are transitions between
    consecutive observed floors, column functions are transitions into the
    ends.  Without an explicit space, a Gauss-Legendre rule of the given
    order (default 120) covers the endpoint range padded by 6 sqrt(total
    time); an order given together with a space is a ValueError.
    """
    times = [float(t) for t in times]
    if len(times) < 3:
        raise ValueError("need t_0, at least one interior time, and t_{M+1}")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    start = [float(v) for v in start]
    end = [float(v) for v in end]
    if n is None:
        n = len(start)
    if len(start) != n or len(end) != n:
        raise ValueError(f"start and end must each list {n} positions")
    if any(b <= a for a, b in zip(start, start[1:])) or \
            any(b <= a for a, b in zip(end, end[1:])):
        raise ValueError("start and end positions must be strictly increasing")
    if space is None:
        span = math.sqrt(times[-1] - times[0]) * KM_PADDING_SIGMAS
        lo = min(min(start), min(end)) - span
        hi = max(max(start), max(end)) + span
        space = make_quadrature(
            (lo, hi), KM_DEFAULT_ORDER if order is None else order)
    elif order is not None:
        raise ValueError("a quadrature order and a space exclude each other")
    nodes = space.nodes
    f = np.array([heat_kernel(times[0], times[1], a, nodes) for a in start])
    phi = np.array([heat_kernel(times[-2], times[-1], nodes, b) for b in end])
    g = [heat_kernel(times[l], times[l + 1], nodes[:, None], nodes[None, :])
         for l in range(1, len(times) - 2)]
    return ChainEnsemble(space, f, phi, g)


def build_random(seed: int, nodes: int, n: int, floors: int) -> ChainEnsemble:
    """Seeded random ensemble on a discrete space, for cross-checks.

    Node positions are 0..P-1; masses and every function/transfer entry are
    drawn uniformly from [0.2, 1.2].  The same seed reproduces the ensemble
    bit for bit.  The density is signed in general: these instances exercise
    the algebraic identities, not positivity.
    """
    if nodes < 1 or n < 1 or floors < 1:
        raise ValueError("nodes, n and floors must be positive")
    if nodes < n:
        raise ValueError(f"{n} particles on {nodes} nodes cannot be distinct")
    rng = np.random.default_rng(seed)
    space = make_discrete(np.arange(nodes, dtype=float),
                          rng.uniform(0.2, 1.2, nodes))
    f = rng.uniform(0.2, 1.2, (n, nodes))
    phi = rng.uniform(0.2, 1.2, (n, nodes))
    g = [rng.uniform(0.2, 1.2, (nodes, nodes)) for _ in range(floors - 1)]
    return ChainEnsemble(space, f, phi, g)


# ---------------------------------------------------------------------------
# JSON-facing model descriptions
# ---------------------------------------------------------------------------

# the fields each variant reads, besides "variant"
VARIANTS = {"unitary": {"potential", "particles", "space"},
            "coupled-chain": {"particles", "floors", "potentials",
                              "couplings", "space"},
            "karlin-mcgregor": {"times", "start", "end", "particles",
                                "order", "space"},
            "random": {"seed", "nodes", "particles", "floors"},
            "explicit": {"space", "f", "phi", "g"}}


def _require(params: dict, *names: str) -> list:
    missing = [k for k in names if k not in params]
    if missing:
        raise ConfigError(f"model lacks required fields: {', '.join(missing)}")
    return [params[k] for k in names]


def _check_ints(params: dict, *names: str) -> None:
    """Integer model fields, where present, must be JSON integers."""
    bad = [k for k in names if k in params and not _is_int(params[k])]
    if bad:
        raise ConfigError(f"model fields must be integers: {', '.join(bad)}")


def build_model(doc: dict) -> ChainEnsemble:
    """Instantiate the ensemble a config's model object describes.

    ``doc["variant"]`` names one of ``VARIANTS``, and every other key must
    be a field that variant reads.  An invalid object, variant or field is
    a ConfigError.
    """
    if not isinstance(doc, dict):
        raise ConfigError("model section must be an object")
    variant = doc.get("variant")
    if not isinstance(variant, str) or variant not in VARIANTS:
        raise ConfigError(
            f"unknown model variant {variant!r}; known: {', '.join(VARIANTS)}"
        )
    p = {k: v for k, v in doc.items() if k != "variant"}
    unknown = set(p) - VARIANTS[variant]
    if unknown:
        raise ConfigError(f"a {variant} model reads no {sorted(unknown)}")
    _check_ints(p, "particles", "floors", "nodes", "seed", "order")
    try:
        # every field but the space is a number or (nested) list of them
        for name, value in p.items():
            if name != "space":
                _check_numbers(value, f"model field {name!r}")
        if variant == "unitary":
            potential, n, space_doc = _require(p, "potential", "particles", "space")
            return build_unitary(potential, n,
                                 DiscretizedSpace.from_json(space_doc))
        if variant == "coupled-chain":
            n, floors, pots, coups, space_doc = _require(
                p, "particles", "floors", "potentials", "couplings", "space")
            return build_coupled_chain(n, floors, pots, coups,
                                       DiscretizedSpace.from_json(space_doc))
        if variant == "karlin-mcgregor":
            times, start, end = _require(p, "times", "start", "end")
            space = (DiscretizedSpace.from_json(p["space"])
                     if "space" in p else None)
            return build_karlin_mcgregor(times, start, end,
                                         n=p.get("particles"),
                                         order=p.get("order"), space=space)
        if variant == "random":
            seed, nodes, n, floors = _require(
                p, "seed", "nodes", "particles", "floors")
            return build_random(seed, nodes, n, floors)
        space_doc, f, phi = _require(p, "space", "f", "phi")  # explicit
        space = DiscretizedSpace.from_json(space_doc)
        return ChainEnsemble(space, np.asarray(f, dtype=float),
                             np.asarray(phi, dtype=float),
                             [np.asarray(gl, dtype=float)
                              for gl in p.get("g", [])])
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {variant} model: {exc}") from exc
