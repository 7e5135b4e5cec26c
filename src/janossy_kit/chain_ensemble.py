"""Chains of coupled particle classes and their transfer structure.

An ensemble holds, over one discretized space, the data of a joint density
for M classes ("floors") of n particles each:

* row functions ``f_1..f_n`` attached to floor 1,
* column functions ``phi_1..phi_n`` attached to floor M,
* one transfer kernel per adjacent floor pair, ``g[l]`` linking floor l
  to floor l+1.

The joint density of all M*n particles is the normalized product of the
determinant ``det f_i(x^1_j)``, the adjacent-floor determinants
``det g(x^l_i, x^{l+1}_j)`` and ``det phi_j(x^M_i)``.  Everything downstream
(correlation kernels, Fredholm determinants, Janossy densities) is built from
iterated convolutions of these ingredients.  ``ConvolutionTables`` keeps
the chain's factors under one (M, P) array of floor weights: the adjacent
transfers, the left convolutions ``f_j * g_{1,m}`` and right convolutions
``g_{l,M} * phi_s`` for every floor, the pairing (Gram) matrix ``A[j,k] =
f_j * g_{1,M} * phi_k`` with all M floor integrations applied, and the
gram's determinant scale (``unit_scale``, formed once per table set).
The tables are self-contained: f is ``left[0].T``, phi is
``right[-1].T`` and the transfers are ``g``, so a pairing sweep or a
kernel reads only the tables it is given, never an ensemble.
The transfer kernel ``g_{l,m}`` from floor l to floor m (floors strictly
between integrated out, zero when m <= l) is not stored: ``chain_sweep``
forms it where a dense kernel, one product or a marginal chain needs it.
Each is a sweep of the one chain recurrence ``x <- (x W_l) g_l``
(``_sweep``, W_l the floor-l weights) from g_l, from f or, through the
transposed transfers, from phi; ``pairing_halves`` meets a left and a
right sweep, each over the sub-blocks of the transfers that the floors'
nonzero weights reach.

Floor indices are 1-based in every public signature, matching the
transfer-chain conventions (``f_j * g_{1,1} = f_j``, ``g_{M,M} * phi_s =
phi_s``); node indices are 0-based positions into ``space.nodes``.
An ensemble's tables are built once at construction.  Their
``window_pairing`` memo fills on first use per window family without a
lock: two threads that race on one family both compute it, and store the
same bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from .errors import SingularOperatorError
from .measure_space import DiscretizedSpace, WindowFamily, _is_int

# Reciprocal-condition thresholds shared by every inversion in the package:
# below HARD_RCOND the operation refuses to proceed, between the two values
# it proceeds but flags the result.
HARD_RCOND = 1e-12
WARN_RCOND = 1e-6


def rcond_gate(matrix: np.ndarray, name: str,
               detail: Callable[[], str] = str
               ) -> tuple[float, tuple[str, ...]]:
    """Apply the package-wide rcond gate; returns (cond, warnings).

    Raises SingularOperatorError below HARD_RCOND, with the text
    ``detail()`` as its detail, and returns one warning line below
    WARN_RCOND.  ``detail`` is called only when the gate raises.
    """
    s = np.linalg.svd(matrix, compute_uv=False)
    # the ratio np.linalg.cond forms, in Python floats: the same IEEE
    # division, and a zero smallest value gives inf, as numpy's cond does
    hi, lo = float(s[0]), float(s[-1])
    cond = hi / lo if lo else math.inf
    rcond = 1.0 / cond if cond > 0 else 0.0
    if not math.isfinite(cond) or rcond < HARD_RCOND:
        raise SingularOperatorError(name, rcond, detail())
    if rcond < WARN_RCOND:
        return cond, (f"{name}: rcond {rcond:.3e} below warning threshold "
                      f"{WARN_RCOND:.0e}",)
    return cond, ()


def _det_ratio(num: np.ndarray, tables: ConvolutionTables):
    """det(num)/det(gram) via log-determinants of unit-scaled matrices.

    Both are multiplied by the power of two c of ``tables.unit_scale``
    (|det(c gram)| within 2^(n/2) of 1): exact, and the log-determinants
    stay small, so their difference carries no rounding from the size of
    det gram.  ``num`` may carry leading batch axes.  A singular ``num``
    gives 0 through exp(-inf); adding 0.0 clears the sign that a negative
    or complex det(gram) gives that zero.
    """
    c, s2, l2 = tables.unit_scale
    s1, l1 = np.linalg.slogdet(num * c)
    return s1 / s2 * np.exp(l1 - l2) + 0.0


def _as_matrix(a, name: str, shape: tuple[int, ...],
               dtype: np.dtype) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=dtype)
    if out.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


class ChainEnsemble:
    """Sampled chain data plus its convolution tables.

    Parameters
    ----------
    space : DiscretizedSpace
        Common one-particle space of every floor.
    f : array_like, shape (n, P)
        Floor-1 row functions sampled at the nodes.
    phi : array_like, shape (n, P)
        Floor-M column functions sampled at the nodes.
    g : sequence of array_like, each (P, P)
        Adjacent-floor transfer kernels; ``len(g) = M - 1``.  An empty
        sequence gives a single-floor ensemble.

    Notes
    -----
    Inputs keep their arithmetic: they are stored as float64 when ``f``,
    ``phi`` and every ``g`` are real (every built-in model) and as
    complex128 when any of them is complex; every table and kernel built
    from the ensemble follows that ``dtype``.  ``n`` must be at least 1: a
    floor with no particles has no determinant structure to speak of.
    Construction passes the pairing matrix through ``rcond_gate`` once;
    ``gram_cond`` and ``warnings`` keep what the gate returned.
    """

    def __init__(self, space: DiscretizedSpace, f, phi, g=()):
        if not isinstance(space, DiscretizedSpace):
            raise ValueError("space must be a DiscretizedSpace")
        self.space = space
        P = space.size
        f, phi, g = np.asarray(f), np.asarray(phi), [np.asarray(a) for a in g]
        # two dtypes only: LAPACK has no extended-precision routines
        kind = np.result_type(f, phi, *g, np.float64).kind
        dtype = np.complex128 if kind == "c" else np.float64
        if f.ndim != 2 or f.shape[1] != P:
            raise ValueError(f"f must have shape (n, {P}), got {f.shape}")
        n = f.shape[0]
        if n < 1:
            raise ValueError("need at least one function per floor (n >= 1)")
        if n > P:
            raise ValueError(
                f"{n} functions cannot be independent on {P} nodes"
            )
        self.f = _as_matrix(f, "f", (n, P), dtype)
        self.phi = _as_matrix(phi, "phi", (n, P), dtype)
        self.g = tuple(_as_matrix(gl, f"g[{i}]", (P, P), dtype)
                       for i, gl in enumerate(g))
        self.n = n
        self.floors = len(self.g) + 1

        self._tables = build_tables(self.f, self.phi, self.g, np.broadcast_to(
            space.weights, (self.floors, P)))
        self.gram_cond, self.warnings = rcond_gate(self._tables.gram,
                                                   "pairing matrix")

    # convenience -----------------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        """float64 or complex128: the arithmetic of every table and kernel."""
        return self.f.dtype

    @property
    def tables(self) -> ConvolutionTables:
        """Unrestricted convolution tables, built at construction."""
        return self._tables

    def check_floor(self, floor: int, what: str = "floor") -> int:
        if not _is_int(floor) or not 1 <= floor <= self.floors:
            raise ValueError(f"{what} {floor!r} is not an integer in "
                             f"1..{self.floors}")
        return int(floor)

    def check_points(self, points) -> list[tuple[int, int]]:
        """Validate a list of (floor, node-index) pairs of integers."""
        out = []
        P = self.space.size
        for p in points:
            if len(p) != 2:
                raise ValueError(f"point {p!r} is not a (floor, node) pair")
            floor, node = self.check_floor(p[0]), p[1]
            if not _is_int(node) or not 0 <= node < P:
                raise ValueError(f"node index {node!r} is not an integer in "
                                 f"0..{P - 1}")
            out.append((floor, int(node)))
        return out

    def check_counts(self, counts) -> list[int]:
        """Validate a count vector: one integer in 0..n per floor."""
        counts = list(counts)
        if len(counts) != self.floors:
            raise ValueError(f"need {self.floors} counts, got {len(counts)}")
        if not all(_is_int(c) and 0 <= c <= self.n for c in counts):
            raise ValueError(f"counts must be integers in 0..{self.n}")
        return [int(c) for c in counts]

    def check_window_points(self, wf: WindowFamily,
                            points) -> list[tuple[int, int]]:
        """Validate points of a Janossy density of a window family.

        Every point must lie inside its floor's window, and no floor may
        hold more points than particles.
        """
        pts = self.check_points(points)
        counts = [0] * self.floors
        for floor, node in pts:
            if not wf.window(floor).mask[node]:
                raise ValueError(f"point (floor {floor}, node {node}) lies "
                                 f"outside its window")
            counts[floor - 1] += 1
        for l, c in enumerate(counts, start=1):
            if c > self.n:
                raise ValueError(
                    f"{c} points on floor {l} but only {self.n} particles")
        return pts

    def check_windows(self, wf: WindowFamily) -> WindowFamily:
        if wf.floors != self.floors:
            raise ValueError(
                f"window family has {wf.floors} floors, ensemble has {self.floors}"
            )
        if wf.space is not self.space:
            raise ValueError("window family lives on a different space")
        return wf


@dataclass(frozen=True, eq=False)
class ConvolutionTables:
    """The chain's factors under per-floor weights.

    ``g`` holds the M-1 adjacent transfers and row l-1 of the (M, P)
    array ``weights`` integrates floor l.  ``left[m-1][:, j]`` holds
    ``f_{j+1} * g_{1,m}`` (integrations over floors 1..m-1) and
    ``right[l-1][:, s]`` holds ``g_{l,M} * phi_{s+1}`` (integrations over
    floors l+1..M), so ``left[0].T`` is f and ``right[-1].T`` is phi.
    ``gram`` applies all M integrations: the pairing of that f and phi,
    which a caller may set from another route (``complement_tables``
    takes it from ``window_pairing``).
    Products ``g_{l,m}`` are not stored; ``chain_sweep`` forms them.
    ``pairings`` memoises ``window_pairing`` per window family, weakly
    keyed by the family object, and ``unit_scale`` is formed on its first
    read; ``dataclasses.replace`` starts both afresh.
    """

    g: tuple
    weights: np.ndarray
    left: tuple
    right: tuple
    gram: np.ndarray
    pairings: WeakKeyDictionary = field(default_factory=WeakKeyDictionary,
                                        init=False, repr=False)

    @functools.cached_property
    def unit_scale(self) -> tuple[float, complex, float]:
        """``(c, *slogdet(c gram))``: the power of two c that brings
        |det(c gram)| within 2^(n/2) of 1, formed on the first ratio from
        this table set's own gram (A^c for complement tables, not A)."""
        _, logdet = np.linalg.slogdet(self.gram)
        c = math.ldexp(1.0, -round(logdet / (len(self.gram) * math.log(2.0))))
        return (c, *np.linalg.slogdet(self.gram * c))


def _sweep(x: np.ndarray, transfers: Sequence[np.ndarray],
           weights: Sequence[np.ndarray], trail: list | None = None
           ) -> np.ndarray:
    """Apply ``x = (x * w) @ t`` for each step in turn; return the last x.

    The one chain recurrence: ``w`` integrates the floor ``x`` sits on and
    ``t`` carries it to the next floor.  ``trail``, when given, receives
    every value, the start first and the returned one last.
    """
    if trail is not None:
        trail.append(x)
    for t, w in zip(transfers, weights, strict=True):
        x = (x * w) @ t
        if trail is not None:
            trail.append(x)
    return x


def chain_sweep(tables: ConvolutionTables, l: int):
    """Yield ``g_{l,m}`` for m = l+1..M under the tables' weights, one
    step at a time; the first value is the transfer ``g[l-1]`` itself,
    not a copy."""
    x = tables.g[l - 1]
    yield x
    for k in range(l, len(tables.g)):
        x = _sweep(x, tables.g[k:k + 1], tables.weights[k:k + 1])
        yield x


def build_tables(f: np.ndarray, phi: np.ndarray, g: Sequence[np.ndarray],
                 floor_weights: np.ndarray) -> ConvolutionTables:
    """Compute the chain's factors once, under per-floor weights.

    Parameters
    ----------
    f, phi : ndarray, shape (n, P)
    g : sequence of (P, P) arrays, length M-1
    floor_weights : ndarray, shape (M, P)
        Integration over floor l is against ``floor_weights[l-1]``: the
        node weights for the plain tables, the weights times a window's
        complement mask for Janossy tables.
    """
    M = len(g) + 1
    if len(floor_weights) != M:
        raise ValueError(f"need {M} weight vectors, got {len(floor_weights)}")
    wm = floor_weights
    # f_j * g_{1,m} for m = 1..M; one more step pairs floor M with phi
    left, right = [], []
    gram = _sweep(f, [*g, phi.T], wm, left)
    _sweep(phi, [t.T for t in reversed(g)], wm[1:][::-1], right)
    return ConvolutionTables(
        g=tuple(g), weights=wm, left=tuple(x.T for x in left[:-1]),
        right=tuple(y.T for y in reversed(right)), gram=gram,
    )


def pairing_halves(tables: ConvolutionTables,
                   floor_weights: Sequence[np.ndarray],
                   split: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairing matrix ``f W_1 g_1 W_2 ... g_{M-1} W_M phi^T`` cut at a floor.

    f, phi and the g_l are the tables' own: ``tables.left[0].T``,
    ``tables.right[-1].T`` and ``tables.g``.  Returns ``(left, right)``
    with ``left = f W_1 g_1 ... g_{split-1} W_split`` and ``right = phi W_M
    g_{M-1}^T ... W_{split+1} g_split^T``, so the pairing matrix is ``left
    @ right^T`` for every split in 1..M.
    Only sweeps run, so this is the cheap route when nothing but the
    pairing matrix is needed.  ``floor_weights[l-1]`` has shape ``batch +
    (P,)``; the batch axes broadcast within each half, so a batch axis only
    one half carries costs the other half nothing.

    Each floor contributes only its weight support box B_l, the nodes from
    its first to its last nonzero weight over every batch axis: a step
    multiplies the view ``g_l[B_l, B_{l+1}]``, so the sweeps cost ``sum_l
    n |B_l| |B_{l+1}|`` and read no transfer entry outside the boxes.
    All M boxes come from one pass over the stacked (M, P) nonzero
    pattern, each floor's batch axes reduced first; an all-zero floor
    gives an empty box.  Zero weights inside a box stay exact zeros.  Both
    halves are as wide as the split floor's box, columns ``B_split`` of the
    nodes.
    """
    w = [np.asarray(x) for x in floor_weights]
    P = w[0].shape[-1]
    nz = np.array([x if x.ndim == 1 else x.reshape(-1, P).any(axis=0)
                   for x in w], dtype=bool)
    first = nz.argmax(axis=1).tolist()
    stop = (P - nz[:, ::-1].argmax(axis=1)).tolist()
    # argmax puts an all-zero floor's box at node 0; it has none
    box = [slice(a, b) if row[a] else slice(0, 0)
           for a, b, row in zip(first, stop, nz)]
    w = [x[..., None, b] for x, b in zip(w, box)]
    g = [t[a, b] for t, a, b in zip(tables.g, box, box[1:])]
    left = _sweep(tables.left[0].T[:, box[0]], g[:split - 1], w[:split - 1])
    right = _sweep(tables.right[-1].T[:, box[-1]],
                   [t.T for t in reversed(g[split - 1:])], w[split:][::-1])
    return left * w[split - 1], right


def _pairing(tables: ConvolutionTables,
             floor_weights: Sequence[np.ndarray]) -> np.ndarray:
    """The tables' pairing matrix under ``floor_weights``, met at floor M."""
    left, right = pairing_halves(tables, floor_weights, len(tables.weights))
    return left @ right.T


def window_pairing(tables: ConvolutionTables,
                   windows: WindowFamily) -> tuple[np.ndarray, complex]:
    """``(A', det A' / det A)`` of a table set and a window family.

    A' is the pairing matrix under the weights ``tables.weights - w
    windows.masks`` (w the node weights): every floor integrates off its
    window.  A is ``tables.gram``.  For an ensemble's own tables A' is the
    complement pairing matrix A^c, and the ratio is det(Id - K_I), the
    probability that every window is empty.  Callers check the family
    against the ensemble first.

    Both are formed once per (tables, window family), by one pairing sweep
    and one determinant ratio, and kept in ``tables.pairings`` while the
    family lives.  A' is read-only, so every caller shares one array.
    Families are keyed by identity: a new family with equal masks forms
    its pairing again.
    """
    hit = tables.pairings.get(windows)
    if hit is None:
        w = windows.space.weights
        pairing = _pairing(tables, tables.weights - w * windows.masks)
        pairing.setflags(write=False)
        hit = pairing, complex(_det_ratio(pairing, tables))
        tables.pairings[windows] = hit
    return hit


# ---------------------------------------------------------------------------
# public chain operations
# ---------------------------------------------------------------------------

def partition_function(ensemble: ChainEnsemble) -> complex:
    """Mass ``(n!)^M det A`` of the chain density; FloatingPointError
    when it overflows float64."""
    with np.errstate(over="raise"):
        return complex(math.factorial(ensemble.n) ** ensemble.floors
                       * np.linalg.det(ensemble.tables.gram))


def marginal_ensemble(ensemble: ChainEnsemble, floors: Sequence[int]) -> ChainEnsemble:
    """Chain observed only at a subsequence of floors.

    The marginal of the joint density on floors ``l_1 < ... < l_k`` is again
    a chain density: the new row functions are ``f_j * g_{1,l_1}``, the new
    adjacent transfers are ``g_{l_i, l_{i+1}}``, and the new column
    functions are ``g_{l_k, M} * phi_s``.  The pairing matrix is unchanged.
    """
    floors = [ensemble.check_floor(l) for l in floors]
    if not floors:
        raise ValueError("need at least one floor")
    if any(b <= a for a, b in zip(floors, floors[1:])):
        raise ValueError("floors must be strictly increasing")
    t = ensemble.tables
    first, last = floors[0], floors[-1]
    # copies: left[0].T and right[-1].T are f and phi, and a sweep with no
    # step (b = a + 1) returns g[a-1] itself
    f_new = t.left[first - 1].T.copy()
    phi_new = t.right[last - 1].T.copy()
    g_new = [_sweep(t.g[a - 1], t.g[a:b - 1], t.weights[a:b - 1]).copy()
             for a, b in zip(floors, floors[1:])]
    return ChainEnsemble(ensemble.space, f_new, phi_new, g_new)
