"""Brute-force oracles: literal summation of the joint density.

Everything here evaluates the chain density

    p(S_1, ..., S_M) = det f(S_1) w(S_1) * prod_l det g_l(S_l, S_{l+1})
                       w(S_{l+1}) * det phi(S_M) / Z

state by state and sums, never through the determinantal kernel identities
the rest of the package implements.  These routines are the reference the
closed forms are tested against, so they stay independent: no correlation
kernels, no Fredholm determinants, no pairing matrices.

A state S_l is the sorted n-subset of nodes that floor l holds: det f(S) is
det f_i(s_j), det g_l(S, T) the minor of g_l on rows S and columns T, and
w(S) the product of the nodes' weights.  The sum over states is the sum over
ordered configurations divided by (n!)^M: reordering a floor's particles
flips the sign of both determinants that floor enters, and a repeated node
makes them vanish.  Z is the state sum itself, ``z_states``; ``z_raw`` is
the raw sum over every ordered configuration, (n!)^M Z.

Summed floor by floor, the states form one chain of M - 1 minor matrices of
size C(P, n) x C(P, n), ``EnumeratedDistribution.chain_sum``.  Every brute
quantity is one such sum under a factor per floor and state: a count law
puts the one-hot count |S ∩ I_l| on an output axis of floor l, and a density
grid keeps the states that hold the floor's points, one output axis per
point over its domain, every other particle in the floor's free nodes.  The
enumeration budget bounds the (M - 1) C(P, n)^2 + C(P, n) entries of the
minor matrices and the per-state factors.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .chain_ensemble import ChainEnsemble
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


class EnumeratedDistribution:
    """The states of a chain ensemble on a discrete space and their factors.

    ``states`` lists the C(P, n) sorted n-subsets of nodes; ``det_f``,
    ``det_phi`` and ``weight`` hold det f(S), det phi(S) and w(S) per
    state, and ``minors[l-1]`` the C x C minors det g_l(S, T).
    ``z_states`` is the chain summed over every state, ``z_raw`` the raw
    sum over ordered configurations, (n!)^M ``z_states``.  Construction
    refuses to proceed when the (M - 1) C^2 + C entries exceed the budget.
    """

    def __init__(self, ensemble: ChainEnsemble, budget: int = DEFAULT_BUDGET):
        P = ensemble.space.size
        n, M = ensemble.n, ensemble.floors
        C = math.comb(P, n)
        required = (M - 1) * C * C + C
        if required > budget:
            raise BudgetExceededError(required, int(budget),
                                      "entries for the oracle's state chain")
        self.ensemble = ensemble
        states = np.array(list(itertools.combinations(range(P), n)),
                          dtype=np.int64).reshape(C, n)
        self.states = states
        # det f_i(s_j): matrix [i, j] = f[i, state[j]]
        self.det_f = np.linalg.det(ensemble.f[:, states].transpose(1, 0, 2))
        self.det_phi = np.linalg.det(
            ensemble.phi[:, states].transpose(1, 0, 2))
        self.weight = np.prod(ensemble.space.weights[states], axis=1)
        self.minors = [np.linalg.det(gl[states[:, None, :, None],
                                        states[None, :, None, :]])
                       for gl in ensemble.g]
        self.z_states = complex(self.chain_sum([np.ones(C)] * M))
        self.z_raw = math.factorial(n) ** M * self.z_states

    def chain_sum(self, factors) -> np.ndarray:
        """Unnormalized density summed over the states of every floor, the
        state S of floor l weighted by ``factors[l-1][..., S]``.

        ``factors[l-1]`` has shape ``batch_l + (C,)``; the result has shape
        ``batch_1 + ... + batch_M``, each floor's batch axes in floor order.
        """
        u = self.det_f
        for l, factor in enumerate(factors):
            if l:
                u = u @ self.minors[l - 1]
            factor = np.asarray(factor) * self.weight
            u = u.reshape(u.shape[:-1] + (1,) * (factor.ndim - 1)
                          + u.shape[-1:]) * factor
        return u @ self.det_phi


def enumerate_density(ensemble: ChainEnsemble,
                      budget: int = DEFAULT_BUDGET) -> EnumeratedDistribution:
    """Enumerate the chain density on a discrete space, normalized by its
    own state sum ``z_states``."""
    return EnumeratedDistribution(ensemble, budget)


def _holding(dist: EnumeratedDistribution, points, free) -> np.ndarray:
    """One floor's state factor on a grid of point sets: 1/w(X) where the
    state holds the distinct points X and its other particles lie in
    ``free``, else 0.  One axis per point over its domain, then the state
    axis."""
    S, w = dist.states, dist.ensemble.space.weights
    k = len(points)
    tuples = list(itertools.product(*points))
    grid = np.array(tuples, dtype=np.int64).reshape(len(tuples), k)
    in_free = np.zeros(w.size, dtype=bool)
    in_free[np.asarray(free, dtype=np.int64)] = True
    # matched[s, p, i]: node i of state s is one of the points of set p;
    # k matched nodes means k distinct points, all held
    matched = (S[:, None, :, None] == grid[None, :, None, :]).any(axis=3)
    keep = ((matched.sum(axis=2) == k)
            & (matched | in_free[S][:, None, :]).all(axis=2))
    factor = keep / np.prod(w[grid], axis=1)
    return factor.T.reshape(tuple(len(d) for d in points) + (len(S),))


def brute_density_grid(dist: EnumeratedDistribution, point_domains,
                       free) -> np.ndarray:
    """Density on a grid of point sets, by direct summation.

    Floor l holds one evaluation point per entry of ``point_domains[l-1]``,
    each ranging over the node indices that entry lists; the result has one
    axis per point, floors in order.  The other particles of floor l lie
    in ``free[l-1]``.  Node weights of the points are not included: values
    are densities against them.
    """
    n = dist.ensemble.n
    for l, points in enumerate(point_domains, start=1):
        if len(points) > n:
            raise ValueError(
                f"{len(points)} points on floor {l} but only {n} particles")
    return dist.chain_sum([_holding(dist, points, nodes) for points, nodes
                           in zip(point_domains, free)]) / dist.z_states


def _at_points(dist: EnumeratedDistribution, pts, free) -> complex:
    """brute_density_grid at one list of validated (floor, node) pairs."""
    per_floor: list[list] = [[] for _ in range(dist.ensemble.floors)]
    for floor, node in pts:
        per_floor[floor - 1].append([node])
    return complex(brute_density_grid(dist, per_floor, free).item())


def brute_correlation(dist: EnumeratedDistribution, points) -> complex:
    """Correlation density at (floor, node) points by direct summation.

    The other particles of every floor range over all nodes; see
    brute_density_grid.
    """
    ens = dist.ensemble
    return _at_points(dist, ens.check_points(points),
                      [np.arange(ens.space.size)] * ens.floors)


def brute_janossy(dist: EnumeratedDistribution, windows: WindowFamily,
                  points) -> complex:
    """Janossy density at points inside windows, by direct summation.

    Same as brute_correlation except the other particles of each floor are
    confined to the complement of that floor's window: the value is the
    density of seeing exactly the listed in-window particles and no others
    inside the windows.
    """
    ens = dist.ensemble
    wf = ens.check_windows(windows)
    return _at_points(dist, ens.check_window_points(wf, points),
                      [np.flatnonzero(m) for m in ~wf.masks])


def brute_count_distribution(dist: EnumeratedDistribution,
                             windows: WindowFamily) -> np.ndarray:
    """Law of the per-floor window counts, by direct summation.

    Entry ``[k_1, ..., k_M]`` is the probability of exactly k_l floor-l
    particles in window l, an (n+1)^M array: one chain sum whose floor-l
    factor is the one-hot count |S ∩ I_l| of every state.
    """
    ens = dist.ensemble
    wf = ens.check_windows(windows)
    counts = np.arange(ens.n + 1)[:, None]
    return dist.chain_sum(
        [counts == wf.window(l).mask[dist.states].sum(axis=1)
         for l in range(1, ens.floors + 1)]) / dist.z_states


def brute_count_probability(dist: EnumeratedDistribution,
                            windows: WindowFamily, counts) -> complex:
    """Probability of exactly counts[l] floor-(l+1) particles in window l+1:
    one entry of brute_count_distribution."""
    ens = dist.ensemble
    wf = ens.check_windows(windows)
    counts = ens.check_counts(counts)
    return complex(brute_count_distribution(dist, wf)[tuple(counts)])
