"""Janossy kernels, window-count probabilities, extreme-value curves.

For a family of windows I_1..I_M (one per floor) the Janossy density of
points inside the windows factorizes as

    J(points) = const(I) * det L(l_i, x_i; m_j, x_j)

where const(I) is the probability that every window is empty and L is again
a block kernel of chain type, built exactly like the correlation kernel but
with every floor integration restricted to the complement of that floor's
window:

    L(l, x; m, y) = -g^c_{l,m}(x, y)
                    + sum_{i,j} (g^c_{l,M} *c phi_i)(x) [(A^c)^{-1}]_{ij}
                                 (f_j *c g^c_{1,m})(y).

The same object equals the resolvent K_I (Id - K_I)^{-1} of the restricted
correlation kernel, which the kernels module computes; the resolvent
verify suite compares the two.  const(I) is det(A^c)/det(A), the ratio of
complement to full pairing determinants, from one pairing sweep with
complement weights (``window_pairing``, once per window family); it is
also the Fredholm determinant of the restriction, read from the same
memo entry.  The sweep reads each floor only over the support box B_l of
its complement weights, O(sum_l n |B_l| |B_{l+1}|) instead of M n P^2.
Both matrices are first multiplied by one power of two that brings |det A|
near 1, formed with log det A once per table set (``unit_scale``); that is
exact, and keeps the rounding of the two log-determinants, whose
difference gives the ratio, from growing with |log det A|.  The complement
tables and the M^2 P^2 kernel L, whose assembly sweeps the chain products
g^c_{l,m}, are built the first time the kernel is read, and never when
only const(I) is asked for.  Kernels keep the ensemble's dtype (float64
for real models); const(I) and densities are Python complex numbers.

Window-count probabilities come from the counting identity

    E[prod_l z_l^{#_l}] = det A(z) / det A,

where A(z) is the pairing matrix with the floor-l integration taken against
w * (1 - (1 - z_l) chi_{I_l}): the node weights, times z_l inside the
window.  det A(z) is a polynomial of degree at most min(n, |I_l|) in z_l,
so evaluating it on min(n, |I_l|) + 1 roots of unity per floor and
inverting with one FFT gives every count probability at once.  The grid
ratios use the same power-of-two scaling, and the grid is complex whatever
the ensemble's dtype.  No inverse of A^c appears, so the route stays
finite for degenerate window families (for example a window covering the
whole space, where A^c = 0); that is what lets the extreme-value curves
sweep s across the entire axis.  The
FFT error is absolute, about eps * max|det A(z) / det A| over the grid, so
tiny tail probabilities carry no relative accuracy; the all-empty
probability is therefore taken from the ratio det A^c / det A instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import scipy.linalg

from .chain_ensemble import (
    ChainEnsemble,
    ConvolutionTables,
    _det_ratio,
    build_tables,
    marginal_ensemble,
    pairing_halves,
    rcond_gate,
    window_pairing,
)
from .errors import BudgetExceededError
from .kernels import KIND_JANOSSY, BlockKernel, kernel_from_tables, rows
from .measure_space import WindowFamily, _is_int
from .oracle import DEFAULT_BUDGET, real_probability

# complex entries of one chunk of pairing matrices in count_distribution
CHUNK_ENTRIES = 1 << 20


@dataclass(eq=False)
class JanossyKernel:
    """Janossy kernel of one window family, plus its normalization.

    ``const`` is the probability that every window is empty; Janossy
    densities are ``const`` times determinants of ``kernel`` values.
    ``gram_cond`` and ``warnings`` are the condition number and warning
    lines of the one rcond gate that the complement pairing matrix A^c,
    which the kernel inverts, passed.  ``const`` and A^c come from
    ``window_pairing``; ``kernel`` is the kernel of ``complement_tables``,
    built the first time it is read and then kept.
    """

    ensemble: ChainEnsemble
    windows: WindowFamily
    const: complex
    gram_cond: float
    warnings: tuple[str, ...]

    @functools.cached_property
    def kernel(self) -> BlockKernel:
        return kernel_from_tables(
            self.ensemble, complement_tables(self.ensemble, self.windows),
            KIND_JANOSSY, self.warnings)


def complement_tables(ensemble: ChainEnsemble,
                      windows: WindowFamily) -> ConvolutionTables:
    """Chain tables with every floor integrated over its window's complement.

    The complement pairing matrix A^c is the ``gram`` of the result: the
    read-only array of ``window_pairing(ensemble.tables, windows)``,
    formed once per window family and shared with
    ``janossy_kernel_explicit``'s gate.
    """
    wf = ensemble.check_windows(windows)
    return replace(
        build_tables(ensemble.f, ensemble.phi, ensemble.g,
                     wf.complement_weights()),
        gram=window_pairing(ensemble.tables, wf)[0])


def janossy_kernel_explicit(ensemble: ChainEnsemble,
                            windows: WindowFamily) -> JanossyKernel:
    """Closed-form Janossy kernel of a window family.

    ``const`` = det A^c / det A and the gated A^c come from
    ``window_pairing`` of the ensemble's tables, formed once per window
    family and shared with ``fredholm_det``, ``complement_tables`` and
    ``count_distribution``; the kernel is built on the first read of
    ``.kernel``.  Raises SingularOperatorError naming the windows when the
    complement pairing matrix is numerically singular, which happens in
    particular when some window covers every node of the space.
    """
    wf = ensemble.check_windows(windows)
    gram, const = window_pairing(ensemble.tables, wf)
    cond, warns = rcond_gate(gram, "complement pairing matrix",
                             detail=lambda: f"windows: {wf.describe()}")
    return JanossyKernel(ensemble=ensemble, windows=wf, const=const,
                         gram_cond=cond, warnings=warns)


def janossy_density(jk: JanossyKernel, points) -> complex:
    """Janossy density at (floor, node) points inside the windows.

    The density (against the product of node measures) of observing
    particles of floor l exactly at the floor-l points inside window I_l
    and nowhere else inside I_l, jointly over all floors.  The empty list
    gives const(I), as the 0 x 0 determinant is 1.
    """
    # gathered by rows: matrix_at would check the points a second time
    r = rows(jk.ensemble.check_window_points(jk.windows, points),
             jk.ensemble.space.size)
    return complex(jk.const * scipy.linalg.det(jk.kernel.matrix[np.ix_(r, r)]))


# ---------------------------------------------------------------------------
# window-count probabilities
# ---------------------------------------------------------------------------

def count_distribution(ensemble: ChainEnsemble, windows: WindowFamily,
                       budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Joint law of the per-floor window counts, as a complex array.

    Entry ``[k_1, ..., k_M]``, each k_l in 0..n, is the probability of
    exactly k_l floor-l particles in window I_l.  Entries with k_l above
    the node count of I_l lie beyond the FFT grid and are exact zeros.  The
    all-empty entry is det A^c / det A from ``window_pairing``, formed once
    per window family and shared with ``janossy_kernel_explicit``'s
    ``const``; it is 0 for a full window.  See the module docstring for the
    generating function.
    Raises BudgetExceededError when the law has more than ``budget`` entries.

    The pairing sweep meets in the middle: the floors before the cut and
    the floors after it each sweep only their own grid axes, and the grid
    of n x n pairing matrices is formed and reduced to determinants in
    chunks of bounded size.
    """
    wf = ensemble.check_windows(windows)
    M, n, w = ensemble.floors, ensemble.n, ensemble.space.weights
    if (n + 1) ** M > budget:
        raise BudgetExceededError((n + 1) ** M, budget,
                                  "entries for the count law")
    grid = tuple(min(n, c) + 1 for c in wf.masks.sum(axis=1).tolist())
    floor_weights = []
    for l, (mask, size) in enumerate(zip(wf.masks, grid)):
        z = np.exp(2j * np.pi * np.arange(size) / size)
        axes = (1,) * l + (size,) + (1,) * (M - l - 1)
        weights = w * np.where(mask, z[:, None], 1.0)
        floor_weights.append(weights.reshape(axes + (w.size,)))
    split = min(range(1, M + 1), key=lambda m: max(math.prod(grid[:m]),
                                                   math.prod(grid[m:])))
    left, right = pairing_halves(ensemble.tables, floor_weights, split)
    left = left.reshape(-1, left.shape[-1])
    right = right.reshape(-1, right.shape[-1]).T
    n_left, n_right = left.shape[0] // n, right.shape[1] // n
    values = np.empty((n_left, n_right), dtype=np.complex128)
    step = max(1, CHUNK_ENTRIES // (n_right * n * n))
    for a in range(0, n_left, step):
        block = (left[a * n:(a + step) * n] @ right).reshape(-1, n, n_right, n)
        values[a:a + step] = _det_ratio(block.transpose(0, 2, 1, 3),
                                        ensemble.tables)
    law = np.zeros((n + 1,) * M, dtype=np.complex128)
    law[tuple(slice(size) for size in grid)] = np.fft.fftn(values.reshape(grid))
    law /= values.size
    law[(0,) * M] = window_pairing(ensemble.tables, wf)[1]
    return law


def count_probability(ensemble: ChainEnsemble, windows: WindowFamily,
                      counts: Sequence[int]) -> float:
    """Probability of exactly counts[l-1] floor-l particles in window I_l.

    One entry of count_distribution.  Summing over all count vectors in
    {0..n}^M returns 1.
    """
    counts = ensemble.check_counts(counts)
    law = count_distribution(ensemble, windows)
    return real_probability(law[tuple(counts)])


# ---------------------------------------------------------------------------
# extreme-value curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremePoint:
    """One grid point of a k-th largest particle distribution curve."""

    s: float
    count_probs: tuple[float, ...]
    prob_ge: float
    cdf: float


def kth_extreme_distribution(ensemble: ChainEnsemble, floor: int, k: int,
                             s_grid: Sequence[float]) -> list[ExtremePoint]:
    """Distribution of the k-th largest floor-`floor` particle on a grid.

    For each s the counting probabilities p_j = Pr(#particles >= s equals
    j), j = 0..n, come from the law of the single-floor marginal, and
    ``count_probs`` keeps j = 0..k.  The cdf Pr(kth largest < s) is
    sum_{j<k} p_j and Pr(kth largest >= s) is sum_{j>=k} p_j, each summed
    from the law: neither is formed as one minus the other, so a small
    tail keeps the accuracy of the law's entries instead of the 1e-16
    absolute rounding of 1 - (1 - p).  Output order follows the grid.
    """
    floor = ensemble.check_floor(floor)
    if not _is_int(k) or not 1 <= k <= ensemble.n:
        raise ValueError(f"k {k!r} is not an integer in 1..{ensemble.n}")
    marg = marginal_ensemble(ensemble, [floor])
    space = marg.space

    curve = []
    for s in s_grid:
        window = space.window_from_intervals([(float(s), None)])
        dist = count_distribution(marg, WindowFamily((window,)))
        probs = [real_probability(p) for p in dist]
        curve.append(ExtremePoint(s=float(s), count_probs=tuple(probs[:k + 1]),
                                  prob_ge=math.fsum(probs[k:]),
                                  cdf=math.fsum(probs[:k])))
    return curve
