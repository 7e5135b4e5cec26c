"""Brute-force oracles: literal summation of the joint density.

Everything here evaluates the normalized chain density

    p(x^1, ..., x^M) = det f_i(x^1_j) * prod_l det g(x^l_i, x^{l+1}_j)
                       * det phi_j(x^M_i) / Z

configuration by configuration and sums, never through the determinantal
kernel identities the rest of the package implements.  These routines are the
reference the closed forms are tested against, so they must stay independent:
no correlation kernels, no Fredholm determinants, no pairing-matrix algebra
beyond the single normalization Z (which is itself cross-checked against raw
summation).

Sums are organized floor by floor (distributivity only: the per-floor
determinant factors are tabulated once and the configuration sum folds
across floors), which keeps desk-scale budgets fast without changing a
single term of the sum.  ``EnumeratedDistribution.config_masses`` exposes
the plain lazy iteration over every ordered configuration.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from .chain_ensemble import ChainEnsemble, partition_function
from .errors import BudgetExceededError
from .measure_space import WindowFamily

DEFAULT_BUDGET = 10 ** 6

# imaginary residue, relative to max(1, |real part|), allowed on a
# probability before it is reported real
IMAG_RESIDUE = 1e-10


def real_probability(value) -> float:
    """A probability as a float; ArithmeticError when its imaginary part
    exceeds IMAG_RESIDUE relative to max(1, |real part|)."""
    value = complex(value)
    if abs(value.imag) > IMAG_RESIDUE * max(1.0, abs(value.real)):
        raise ArithmeticError(
            f"probability has imaginary residue {value.imag:.3e}"
        )
    return float(value.real)


def _batch_det(mats: np.ndarray) -> np.ndarray:
    """Determinants over the last two axes; cofactor forms for n <= 3."""
    n = mats.shape[-1]
    if n == 1:
        return mats[..., 0, 0].copy()
    if n == 2:
        return (mats[..., 0, 0] * mats[..., 1, 1]
                - mats[..., 0, 1] * mats[..., 1, 0])
    if n == 3:
        return (
            mats[..., 0, 0] * (mats[..., 1, 1] * mats[..., 2, 2]
                               - mats[..., 1, 2] * mats[..., 2, 1])
            - mats[..., 0, 1] * (mats[..., 1, 0] * mats[..., 2, 2]
                                 - mats[..., 1, 2] * mats[..., 2, 0])
            + mats[..., 0, 2] * (mats[..., 1, 0] * mats[..., 2, 1]
                                 - mats[..., 1, 1] * mats[..., 2, 0])
        )
    return np.linalg.det(mats)


def _grid(domains, weighted, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat tuple-space indices and node-weight products of a slot grid.

    Slot j ranges over ``domains[j]``; its node weight enters the product
    only when ``weighted[j]``.
    """
    idx = np.zeros(1, dtype=np.int64)
    acc = np.ones(1, dtype=float)
    for d, use in zip(domains, weighted):
        d = np.asarray(d, dtype=np.int64)
        part = w[d] if use else np.ones(d.size, dtype=float)
        idx = (idx[:, None] * w.size + d[None, :]).reshape(-1)
        acc = (acc[:, None] * part[None, :]).reshape(-1)
    return idx, acc


class EnumeratedDistribution:
    """Per-configuration masses of a chain ensemble on a discrete space.

    Tabulates the per-floor determinant factors over the P^n ordered node
    tuples of one floor, from which any configuration's mass is a product.
    Construction refuses to proceed when the full configuration count
    P^(M*n) exceeds the budget.
    """

    def __init__(self, ensemble: ChainEnsemble, budget: int = DEFAULT_BUDGET):
        P = ensemble.space.size
        n, M = ensemble.n, ensemble.floors
        required = P ** (M * n)
        if required > budget:
            raise BudgetExceededError(required, int(budget))
        self.ensemble = ensemble
        self.budget = int(budget)
        tuples = np.array(list(itertools.product(range(P), repeat=n)),
                          dtype=np.int64)
        self.tuples = tuples
        T = tuples.shape[0]
        # det f_i(x_j): matrix [i, j] = f[i, tuple[j]]
        self.det_f = _batch_det(
            ensemble.f[:, tuples].transpose(1, 0, 2)
        )
        self.det_phi = _batch_det(
            ensemble.phi[:, tuples].transpose(1, 0, 2)
        )
        self.pair = [
            _batch_det(gl[tuples[:, None, :, None], tuples[None, :, None, :]])
            for gl in ensemble.g
        ]
        self.tuple_weight = np.prod(ensemble.space.weights[tuples], axis=1)
        self.z_det = partition_function(ensemble)
        full = [np.arange(P, dtype=np.int64)] * n
        self.z_raw = self.folded_sum([full] * M, [[True] * n] * M)
        self.total_mass = self.z_raw / self.z_det

    # -- raw access ---------------------------------------------------------

    def flat_index(self, floor_tuple: Sequence[int]) -> int:
        P = self.ensemble.space.size
        idx = 0
        for t in floor_tuple:
            t = int(t)
            if not 0 <= t < P:
                raise ValueError(f"node index {t} outside 0..{P - 1}")
            idx = idx * P + t
        return idx

    def mass_of(self, config) -> complex:
        """Probability mass of one ordered configuration.

        ``config`` is a per-floor sequence of n node indices.  Repeated
        nodes inside a floor are legal and carry zero mass.
        """
        n, M = self.ensemble.n, self.ensemble.floors
        config = [tuple(floor) for floor in config]
        if len(config) != M or any(len(c) != n for c in config):
            raise ValueError(f"config must be {M} floors of {n} node indices")
        flat = [self.flat_index(c) for c in config]
        val = self.det_f[flat[0]]
        for l in range(M - 1):
            val = val * self.pair[l][flat[l], flat[l + 1]]
        val = val * self.det_phi[flat[-1]]
        for c in flat:
            val = val * self.tuple_weight[c]
        return complex(val / self.z_det)

    def config_masses(self) -> Iterator[tuple[tuple, complex]]:
        """Lazy iteration over every ordered configuration and its mass."""
        T = self.tuples.shape[0]
        M = self.ensemble.floors
        for flat in itertools.product(range(T), repeat=M):
            val = self.det_f[flat[0]]
            for l in range(M - 1):
                val = val * self.pair[l][flat[l], flat[l + 1]]
            val = val * self.det_phi[flat[-1]]
            for c in flat:
                val = val * self.tuple_weight[c]
            config = tuple(tuple(int(i) for i in self.tuples[c]) for c in flat)
            yield config, complex(val / self.z_det)

    # -- folded summation ----------------------------------------------------

    def folded_sum(self, slot_domains, slot_weighted) -> complex:
        """Sum of unnormalized masses over a grid of per-slot node domains.

        ``slot_domains[l][j]`` lists the node indices slot j of floor l+1
        ranges over; ``slot_weighted[l][j]`` says whether that slot's node
        weight enters the product (fixed evaluation points do not).  This is
        the plain configuration sum, folded floor by floor.
        """
        M = self.ensemble.floors
        w = self.ensemble.space.weights
        sel, wv = zip(*(_grid(d, u, w)
                        for d, u in zip(slot_domains, slot_weighted)))
        if any(s.size == 0 for s in sel):
            return 0.0 + 0.0j
        u = self.det_f[sel[0]] * wv[0]
        for l in range(M - 1):
            u = (u @ self.pair[l][np.ix_(sel[l], sel[l + 1])]) * wv[l + 1]
        return complex(u @ self.det_phi[sel[M - 1]])


def enumerate_density(ensemble: ChainEnsemble,
                      budget: int = DEFAULT_BUDGET) -> EnumeratedDistribution:
    """Enumerate the chain density on a discrete space.

    The distribution records Z both ways: the closed form used for
    normalization and the raw configuration sum (``z_raw``), whose ratio
    ``total_mass`` should be 1 for a correctly normalized density.
    """
    return EnumeratedDistribution(ensemble, budget)


def _group_points(ensemble: ChainEnsemble, pts) -> list[list[int]]:
    """Per-floor fixed node lists from validated (floor, node) pairs."""
    per_floor: list[list[int]] = [[] for _ in range(ensemble.floors)]
    for floor, node in pts:
        per_floor[floor - 1].append(node)
    for l, fixed in enumerate(per_floor, start=1):
        if len(fixed) > ensemble.n:
            raise ValueError(
                f"{len(fixed)} points on floor {l} but only {ensemble.n} particles"
            )
    return per_floor


def _fixed_point_sum(dist: EnumeratedDistribution, per_floor,
                     free) -> complex:
    """Density at fixed nodes, every other slot summed over a free domain.

    Fixes each floor's listed nodes in its leading coordinate slots, sums
    the normalized density over the remaining slots of floor l, each
    ranging over ``free[l-1]``, and multiplies by the ordered-tuple count
    n!/(n-k_l)! per floor.  Node weights of the fixed points are not
    included: the value is a density against them.
    """
    n = dist.ensemble.n
    domains, weighted, factor = [], [], 1.0
    for fixed, nodes in zip(per_floor, free):
        k = len(fixed)
        domains.append([np.array([x], dtype=np.int64) for x in fixed]
                       + [nodes] * (n - k))
        weighted.append([False] * k + [True] * (n - k))
        factor *= math.factorial(n) / math.factorial(n - k)
    return complex(factor * dist.folded_sum(domains, weighted) / dist.z_det)


def brute_correlation(dist: EnumeratedDistribution, points) -> complex:
    """Correlation density at (floor, node) points by direct summation.

    The free coordinates of every floor range over all nodes; see
    _fixed_point_sum.
    """
    ens = dist.ensemble
    allnodes = np.arange(ens.space.size, dtype=np.int64)
    return _fixed_point_sum(dist, _group_points(ens, ens.check_points(points)),
                            [allnodes] * ens.floors)


def brute_janossy(dist: EnumeratedDistribution, windows: WindowFamily,
                  points) -> complex:
    """Janossy density at points inside windows, by direct summation.

    Same as brute_correlation except the free coordinates of each floor are
    confined to the complement of that floor's window: the value is the
    density of seeing exactly the listed in-window particles and no others
    inside the windows.
    """
    ens = dist.ensemble
    wf = ens.check_windows(windows)
    per_floor = _group_points(ens, ens.check_window_points(wf, points))
    return _fixed_point_sum(dist, per_floor,
                            [np.flatnonzero(m) for m in wf.complement_masks()])


def brute_count_probability(dist: EnumeratedDistribution,
                            windows: WindowFamily, counts) -> complex:
    """Probability of exactly counts[l] floor-(l+1) particles in window l+1.

    Sums the masses of all configurations realizing the counts.  The
    per-floor symmetry of the density lets the sum run over configurations
    whose leading k_l coordinates are the in-window ones, times C(n, k_l).
    """
    ens = dist.ensemble
    wf = ens.check_windows(windows)
    counts = ens.check_counts(counts)
    n = ens.n
    domains, weighted, factor = [], [], 1.0
    for l, k in enumerate(counts, start=1):
        inside = wf.window(l).node_indices.astype(np.int64)
        outside = np.flatnonzero(~wf.window(l).mask).astype(np.int64)
        domains.append([inside] * k + [outside] * (n - k))
        weighted.append([True] * n)
        factor *= math.comb(n, k)
    return complex(factor * dist.folded_sum(domains, weighted) / dist.z_det)


def quad_oracle_m1(ensemble: ChainEnsemble, s: float, k: int) -> float:
    """Pr(exactly k particles at or above s) for a single-floor ensemble.

    Sums the joint density over the region with exactly k coordinates >= s,
    each coordinate resolved at node granularity by the space's own rule
    (consistent with how windows truncate), and normalizes by the same raw
    sum over the whole space.  n is capped at 3; no kernel identities are
    used anywhere.
    """
    if ensemble.floors != 1:
        raise ValueError("quad_oracle_m1 needs a single-floor ensemble")
    n = ensemble.n
    if n > 3:
        raise ValueError("quad_oracle_m1 supports at most 3 particles")
    k = int(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > n:
        return 0.0
    P = ensemble.space.size
    w = ensemble.space.weights
    above = np.flatnonzero(ensemble.space.nodes >= float(s)).astype(np.int64)
    below = np.flatnonzero(ensemble.space.nodes < float(s)).astype(np.int64)

    def region_sum(domains) -> complex:
        if any(len(d) == 0 for d in domains):
            return 0.0 + 0.0j
        grids = np.meshgrid(*domains, indexing="ij")
        tuples = np.stack([g.reshape(-1) for g in grids], axis=-1)
        det_f = _batch_det(ensemble.f[:, tuples].transpose(1, 0, 2))
        det_phi = _batch_det(ensemble.phi[:, tuples].transpose(1, 0, 2))
        wprod = np.prod(w[tuples], axis=1)
        return complex(np.sum(det_f * det_phi * wprod))

    allnodes = np.arange(P, dtype=np.int64)
    total = region_sum([allnodes] * n)
    part = math.comb(n, k) * region_sum([above] * k + [below] * (n - k))
    return real_probability(part / total)
