"""Brute-force oracles: literal summation of the joint density.

Everything here evaluates the normalized chain density

    p(x^1, ..., x^M) = det f_i(x^1_j) * prod_l det g(x^l_i, x^{l+1}_j)
                       * det phi_j(x^M_i) / Z

configuration by configuration and sums, never through the determinantal
kernel identities the rest of the package implements.  These routines are the
reference the closed forms are tested against, so they stay independent: no
correlation kernels, no Fredholm determinants, no pairing matrices.  Z is the
raw sum of the density over every ordered configuration, ``z_raw``.

All sums read one table, ``EnumeratedDistribution.density``: the
unweighted density of every ordered configuration, one axis of P nodes per
particle slot, built by broadcasting the per-floor determinant factors.  Its
P^(M*n) entries are what the enumeration budget bounds.  A check is one pass
over the slots: a summed slot is contracted with its node weights over its
domain, an evaluation point stays an output axis over its domain (so one
sum gives a density on a whole grid of point sets), and a counted slot is
summed once inside and once outside its floor's window into that floor's
count axis.  ``EnumeratedDistribution.config_masses`` is the plain lazy
iteration over every ordered configuration, built from the per-floor
factors without the table.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

from .chain_ensemble import ChainEnsemble
from .errors import BudgetExceededError
from .measure_space import WindowFamily, _is_int

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


class EnumeratedDistribution:
    """Per-configuration masses of a chain ensemble on a discrete space.

    Tabulates the per-floor determinant factors over the P^n ordered node
    tuples of one floor, and from them ``density``: the unweighted,
    unnormalized density of every ordered configuration, one axis of P
    nodes per particle slot (floor-major, then slot), and its weighted sum
    ``z_raw``, which normalizes every mass.  Construction refuses to
    proceed when the table's P^(M*n) entries exceed the budget.
    """

    def __init__(self, ensemble: ChainEnsemble, budget: int = DEFAULT_BUDGET):
        P = ensemble.space.size
        n, M = ensemble.n, ensemble.floors
        required = P ** (M * n)
        if required > budget:
            raise BudgetExceededError(required, int(budget),
                                      "configurations for the oracle table")
        self.ensemble = ensemble
        self.budget = int(budget)
        tuples = np.array(list(itertools.product(range(P), repeat=n)),
                          dtype=np.int64)
        self.tuples = tuples
        # det f_i(x_j): matrix [i, j] = f[i, tuple[j]]
        self.det_f = np.linalg.det(ensemble.f[:, tuples].transpose(1, 0, 2))
        self.det_phi = np.linalg.det(
            ensemble.phi[:, tuples].transpose(1, 0, 2))
        self.pair = [
            np.linalg.det(gl[tuples[:, None, :, None],
                             tuples[None, :, None, :]])
            for gl in ensemble.g
        ]
        self.tuple_weight = np.prod(ensemble.space.weights[tuples], axis=1)
        # density[x^1, ..., x^M] over floor tuples x^l, one axis per slot
        density = self.det_f
        for pair in self.pair:
            density = density[..., None] * pair
        self.density = (density * self.det_phi).reshape((P,) * (M * n))
        full = [np.arange(P, dtype=np.int64)] * n
        self.z_raw = complex(self.folded_sum([full] * M, [[True] * n] * M))

    # -- raw access ---------------------------------------------------------

    def mass_of(self, config) -> complex:
        """Probability mass of one ordered configuration.

        ``config`` is a per-floor sequence of n node indices.  Repeated
        nodes inside a floor are legal and carry zero mass.
        """
        ens = self.ensemble
        n, M, P = ens.n, ens.floors, ens.space.size
        config = [tuple(floor) for floor in config]
        if len(config) != M or any(len(c) != n for c in config):
            raise ValueError(f"config must be {M} floors of {n} node indices")
        nodes = [t for floor in config for t in floor]
        if not all(_is_int(t) and 0 <= t < P for t in nodes):
            raise ValueError(f"node indices must be integers in 0..{P - 1}")
        weight = np.prod(ens.space.weights[nodes])
        return complex(self.density[tuple(nodes)] * weight / self.z_raw)

    def config_masses(self) -> Iterator[tuple[tuple, complex]]:
        """Lazy iteration over every ordered configuration and its mass.

        The literal product of the per-floor factors, independent of the
        ``density`` table.
        """
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
            yield config, complex(val / self.z_raw)

    # -- summation over the table ------------------------------------------

    def folded_sum(self, slot_domains, slot_weighted) -> np.ndarray:
        """Unnormalized masses summed over weighted slots, on a grid of
        evaluation points.

        ``slot_domains[l][j]`` lists the node indices slot j of floor l+1
        ranges over.  A weighted slot (``slot_weighted[l][j]``) is summed
        over its domain with its node weight in the product.  An unweighted
        slot is an evaluation point: it carries no weight and becomes one
        output axis over its domain, axes ordered by floor, then slot.  With
        no unweighted slot the result is 0-d.  One pass over the slots of
        ``density``, in order.
        """
        w = self.ensemble.space.weights
        u, axis = self.density, 0
        for d, weighted in zip(itertools.chain(*slot_domains),
                               itertools.chain(*slot_weighted)):
            d = np.asarray(d, dtype=np.int64)
            u = u.take(d, axis=axis)
            if weighted:
                u = np.moveaxis(u, axis, -1) @ w[d]
            else:
                axis += 1
        return u


def enumerate_density(ensemble: ChainEnsemble,
                      budget: int = DEFAULT_BUDGET) -> EnumeratedDistribution:
    """Enumerate the chain density on a discrete space, normalized by its
    own raw configuration sum ``z_raw``."""
    return EnumeratedDistribution(ensemble, budget)


def brute_density_grid(dist: EnumeratedDistribution, point_domains,
                       free) -> np.ndarray:
    """Density on a grid of point sets, by direct summation.

    Floor l holds one evaluation point per entry of ``point_domains[l-1]``,
    each ranging over the node indices that entry lists; the result has one
    axis per point, floors in order.  The other slots of floor l are
    summed over ``free[l-1]``, and floor l contributes the ordered-tuple
    count n!/(n-k_l)! of its k_l points.  Node weights of the points are
    not included: values are densities against them.
    """
    n = dist.ensemble.n
    domains, weighted, factor = [], [], 1.0
    for l, (points, nodes) in enumerate(zip(point_domains, free), start=1):
        k = len(points)
        if k > n:
            raise ValueError(f"{k} points on floor {l} but only {n} particles")
        domains.append(list(points) + [nodes] * (n - k))
        weighted.append([False] * k + [True] * (n - k))
        factor *= math.factorial(n) / math.factorial(n - k)
    return factor * dist.folded_sum(domains, weighted) / dist.z_raw


def _at_points(dist: EnumeratedDistribution, pts, free) -> complex:
    """brute_density_grid at one list of validated (floor, node) pairs."""
    per_floor: list[list] = [[] for _ in range(dist.ensemble.floors)]
    for floor, node in pts:
        per_floor[floor - 1].append([node])
    return complex(brute_density_grid(dist, per_floor, free).item())


def brute_correlation(dist: EnumeratedDistribution, points) -> complex:
    """Correlation density at (floor, node) points by direct summation.

    The free coordinates of every floor range over all nodes; see
    brute_density_grid.
    """
    ens = dist.ensemble
    return _at_points(dist, ens.check_points(points),
                      [np.arange(ens.space.size)] * ens.floors)


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
    return _at_points(dist, ens.check_window_points(wf, points),
                      [np.flatnonzero(m) for m in wf.complement_masks()])


def brute_count_distribution(dist: EnumeratedDistribution,
                             windows: WindowFamily) -> np.ndarray:
    """Law of the per-floor window counts, by direct summation.

    Entry ``[k_1, ..., k_M]`` is the probability of exactly k_l floor-l
    particles in window l, an (n+1)^M array.  One pass over the slots of
    the density table: each slot is summed with its node weight once over
    its floor's window and once over the complement, and the window part
    moves that floor's count axis up by one.
    """
    ens = dist.ensemble
    wf = ens.check_windows(windows)
    n, w = ens.n, ens.space.weights
    u = dist.density
    for l in range(1, ens.floors + 1):
        inside = wf.window(l).mask
        # a new count axis, last, holding everything at count 0
        u = u[..., None] * (np.arange(n + 1) == 0)
        for _ in range(n):
            slot = np.moveaxis(u, 0, -1)
            u = slot @ (w * ~inside)
            u[..., 1:] += (slot @ (w * inside))[..., :-1]
    return u / dist.z_raw


def brute_count_probability(dist: EnumeratedDistribution,
                            windows: WindowFamily, counts) -> complex:
    """Probability of exactly counts[l] floor-(l+1) particles in window l+1:
    one entry of brute_count_distribution."""
    ens = dist.ensemble
    wf = ens.check_windows(windows)
    counts = ens.check_counts(counts)
    return complex(brute_count_distribution(dist, wf)[tuple(counts)])


def quad_oracle_m1(ensemble: ChainEnsemble, s: float, k: int) -> float:
    """Pr(exactly k particles at or above s) for a single-floor ensemble.

    The count probability of the window of nodes >= s by direct summation
    (brute_count_probability), each coordinate resolved at node granularity
    by the space's own rule (consistent with how windows truncate), and
    normalized by the raw sum over the whole space.  n is capped at 3, and
    the P^n node tuples at the default enumeration budget; no kernel
    identities are used anywhere.
    """
    if ensemble.floors != 1:
        raise ValueError("quad_oracle_m1 needs a single-floor ensemble")
    n = ensemble.n
    if n > 3:
        raise ValueError("quad_oracle_m1 supports at most 3 particles")
    if not _is_int(k) or k < 0:
        raise ValueError(f"k {k!r} is not a nonnegative integer")
    if k > n:
        return 0.0
    dist = enumerate_density(ensemble)
    space = ensemble.space
    wf = WindowFamily((space.window(space.nodes >= float(s)),))
    return real_probability(brute_count_probability(dist, wf, [k]))
