"""Discretized one-particle space: nodes, weights, windows.

Every integral in this package is a finite weighted sum.  A space is either
genuinely discrete (a finite set of points with masses) or the Gauss-Legendre
discretization of a reference measure on an interval, in which case the same
node/weight arrays make quadrature-converged approximations of continuous
integrals.  All downstream modules treat the two kinds identically; only
construction and JSON serialization differ.

Windows are per-node boolean masks.  On quadrature spaces a window may carry
the interval description it was built from; a boundary that falls between
nodes truncates at node granularity, and refining the quadrature order is the
caller's control for accuracy.  A window built from intervals finds its mask
on first read, and a window family writes the masks of all its windows into
one array (``_stack_masks``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

KIND_DISCRETE = "discrete"
KIND_QUADRATURE = "quadrature"
# the keys of a space document, per kind
_SPACE_KEYS = {KIND_DISCRETE: {"kind", "points", "masses"},
               KIND_QUADRATURE: {"kind", "interval", "order"}}

_INF = float("inf")


def _is_int(value) -> bool:
    """An int or NumPy integer; booleans are not integers here."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool))


def _is_number(value) -> bool:
    """A finite JSON number; booleans, NaN and infinities are not."""
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _check_numbers(value, what: str) -> None:
    """ValueError unless ``value`` is a finite JSON number or a (nested)
    list of them: a numeric string or a boolean is not a number."""
    if isinstance(value, (list, tuple)):
        for v in value:
            _check_numbers(v, what)
    elif not _is_number(value):
        raise ValueError(f"{what} must hold finite JSON numbers, "
                         f"got {value!r}")


@dataclass(frozen=True, eq=False)
class DiscretizedSpace:
    """Finite node/weight model of a measure on a subset of the real line.

    Attributes
    ----------
    nodes : ndarray, shape (P,)
        Strictly increasing node coordinates.
    weights : ndarray, shape (P,)
        Strictly positive node weights (point masses, or quadrature weights
        times the reference density if the caller folded one in).
    kind : str
        ``"discrete"`` or ``"quadrature"``.
    interval : tuple of float, optional
        For quadrature spaces, the interval the rule was built on.
    order : int, optional
        For quadrature spaces, the Gauss-Legendre order (= number of nodes).
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    interval: tuple[float, float] | None = None
    order: int | None = None

    def __post_init__(self):
        # copies: freezing them leaves the caller's arrays writable
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.ndim != 1 or weights.ndim != 1:
            raise ValueError("nodes and weights must be one-dimensional")
        if nodes.size == 0:
            raise ValueError("a space needs at least one node")
        if nodes.size != weights.size:
            raise ValueError(
                f"{nodes.size} nodes but {weights.size} weights"
            )
        if not np.all(np.isfinite(nodes)) or not np.all(np.isfinite(weights)):
            raise ValueError("nodes and weights must be finite")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise ValueError("weights must be strictly positive")
        if self.kind not in (KIND_DISCRETE, KIND_QUADRATURE):
            raise ValueError(f"unknown space kind {self.kind!r}")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.nodes.size

    # -- windows ----------------------------------------------------------

    def window(self, mask: Sequence[bool] | np.ndarray) -> Window:
        """Window from an explicit per-node boolean mask."""
        return Window(self, mask)

    def window_from_intervals(
        self, intervals: Iterable[tuple[float | None, float | None]]
    ) -> Window:
        """Window covering the nodes inside a union of closed intervals.

        Interval ends may be ``None`` (or +/-inf) for half-lines; a NaN
        end is a ValueError.  The mask keeps exactly the nodes inside: one
        run of the increasing nodes per interval, cut at node granularity.
        The mask is found on its first read, or with its family's masks.
        """
        return Window(self, intervals=intervals)

    def full_window(self) -> Window:
        return Window(self, np.ones(self.size, dtype=bool))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == KIND_DISCRETE:
            return {
                "kind": KIND_DISCRETE,
                "points": [float(x) for x in self.nodes],
                "masses": [float(w) for w in self.weights],
            }
        return {
            "kind": KIND_QUADRATURE,
            "interval": [float(self.interval[0]), float(self.interval[1])],
            "order": int(self.order),
        }

    @staticmethod
    def from_json(doc: dict) -> DiscretizedSpace:
        if (not isinstance(doc, dict) or not isinstance(doc.get("kind"), str)
                or set(doc) != _SPACE_KEYS.get(doc["kind"])):
            raise ValueError("a space document is {kind: discrete, points, "
                             "masses} or {kind: quadrature, interval, "
                             f"order}}, got {doc!r}")
        if doc["kind"] == KIND_DISCRETE:
            _check_numbers([doc["points"], doc["masses"]],
                           "discrete space points and masses")
            return make_discrete(doc["points"], doc["masses"])
        interval = doc["interval"]
        _check_numbers(interval, "quadrature interval")
        if not isinstance(interval, (list, tuple)) or len(interval) != 2:
            raise ValueError("quadrature interval must be two numbers, "
                             f"got {interval!r}")
        return make_quadrature(tuple(interval), doc["order"])


def make_discrete(points: Sequence[float], masses: Sequence[float]) -> DiscretizedSpace:
    """Exact finite space: the listed points with the listed masses."""
    return DiscretizedSpace(points, masses, KIND_DISCRETE)


def make_quadrature(interval: tuple[float, float], order: int) -> DiscretizedSpace:
    """Gauss-Legendre rule of the given order on a finite interval.

    The rule integrates polynomials up to degree ``2*order - 1`` exactly.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (np.isfinite(a) and np.isfinite(b)) or b <= a:
        raise ValueError(f"invalid interval [{a}, {b}]")
    if not _is_int(order) or order < 1:
        raise ValueError(f"quadrature order {order!r} is not an integer "
                         "of at least 1")
    x, w = np.polynomial.legendre.leggauss(int(order))
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return DiscretizedSpace(mid + half * x, half * w, KIND_QUADRATURE,
                            interval=(a, b), order=int(order))


@dataclass(frozen=True, eq=False, init=False)
class Window:
    """Per-node boolean mask over a space, or a union of closed intervals.

    ``Window(space, mask)`` checks the mask's shape and keeps a read-only
    copy.
    ``Window(space, intervals=...)`` checks the interval ends and keeps
    them as float pairs, ``None`` ends as -inf or +inf; its read-only
    ``mask`` is found on first read, or with its family's masks, so making
    a window does no array work.  Two threads that race on a first read
    both find the mask and store the same bits.
    """

    space: DiscretizedSpace
    intervals: tuple[tuple[float, float], ...] | None
    _mask: np.ndarray | None = field(repr=False)

    def __init__(self, space: DiscretizedSpace, mask=None,
                 intervals: Iterable | None = None):
        if (mask is None) == (intervals is None):
            raise ValueError("a window needs exactly one of mask and "
                             "intervals")
        if mask is not None:
            # a copy: freezing it leaves the caller's array writable
            mask = np.array(mask, dtype=bool)
            if mask.shape != space.nodes.shape:
                raise ValueError(f"mask has {mask.size} entries, space has "
                                 f"{space.size} nodes")
            mask.setflags(write=False)
        else:
            ivals = []
            for pair in intervals:
                if len(pair) != 2:
                    raise ValueError("each interval needs two endpoints")
                a = -_INF if pair[0] is None else float(pair[0])
                b = _INF if pair[1] is None else float(pair[1])
                if math.isnan(a) or math.isnan(b):
                    raise ValueError(f"interval [{a}, {b}] has a NaN "
                                     "endpoint")
                if b < a:
                    raise ValueError(f"empty interval [{a}, {b}]")
                ivals.append((a, b))
            intervals = tuple(ivals)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "intervals", intervals)
        object.__setattr__(self, "_mask", mask)

    @property
    def mask(self) -> np.ndarray:
        """Read-only (P,) mask: the given one, or the intervals' nodes."""
        if self._mask is None:
            object.__setattr__(self, "_mask", _stack_masks((self,))[0])
        return self._mask

    @property
    def node_indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    @property
    def count(self) -> int:
        return int(self.mask.sum())

    def to_json(self) -> dict:
        if self.intervals is not None:
            return {"intervals": [[a if np.isfinite(a) else None,
                                   b if np.isfinite(b) else None]
                                  for a, b in self.intervals]}
        return {"mask": [bool(m) for m in self.mask]}


def _stack_masks(windows: Sequence[Window]) -> np.ndarray:
    """Read-only (len(windows), P) stack of the masks of windows on one
    space, written into one array.

    A window's known mask is copied in; each interval of the others sets
    one run of the strictly increasing nodes, from ``searchsorted`` left
    at its start to ``searchsorted`` right at its end.
    """
    nodes = windows[0].space.nodes
    masks = np.zeros((len(windows), nodes.size), dtype=bool)
    for l, w in enumerate(windows):
        if w._mask is not None:
            masks[l] = w._mask
            continue
        for a, b in w.intervals:
            masks[l, nodes.searchsorted(a, "left"):
                  nodes.searchsorted(b, "right")] = True
    masks.setflags(write=False)
    return masks


def window_from_json(space: DiscretizedSpace, doc: dict) -> Window:
    """Window from ``{"intervals": [...]}`` or ``{"mask": [...]}``, one key
    and no other.

    Interval ends are finite JSON numbers or null (a half-line); a mask is
    a list of JSON booleans, one per node.  Anything else is a ValueError.
    """
    if not isinstance(doc, dict) or set(doc) not in ({"intervals"}, {"mask"}):
        raise ValueError("window document must be an object with exactly "
                         f"one key, 'intervals' or 'mask', got {doc!r}")
    if "intervals" in doc:
        ivals = doc["intervals"]
        if not isinstance(ivals, list) or not all(
                isinstance(pair, list) and len(pair) == 2
                and all(end is None or _is_number(end) for end in pair)
                for pair in ivals):
            raise ValueError("window intervals must be [a, b] pairs of "
                             f"finite numbers or null, got {ivals!r}")
        return space.window_from_intervals(ivals)
    mask = doc["mask"]
    if (not isinstance(mask, list) or len(mask) != space.size
            or not all(isinstance(m, bool) for m in mask)):
        raise ValueError(f"window mask must be a list of {space.size} "
                         f"booleans, one per node, got {mask!r}")
    return space.window(mask)


@dataclass(frozen=True, eq=False)
class WindowFamily:
    """One window per particle class, all over the same space; ``masks``
    stacks their masks, and ``~masks`` selects the complements."""

    windows: tuple[Window, ...]

    def __post_init__(self):
        windows = tuple(self.windows)
        if not windows:
            raise ValueError("a window family needs at least one window")
        space = windows[0].space
        for w in windows[1:]:
            if w.space is not space:
                raise ValueError("all windows must share one space")
        object.__setattr__(self, "windows", windows)

    @property
    def floors(self) -> int:
        return len(self.windows)

    @property
    def space(self) -> DiscretizedSpace:
        return self.windows[0].space

    def window(self, floor: int) -> Window:
        """Window of the given floor (floors count from 1)."""
        if not _is_int(floor) or not 1 <= floor <= self.floors:
            raise ValueError(f"floor {floor!r} is not an integer in "
                             f"1..{self.floors}")
        return self.windows[floor - 1]

    @functools.cached_property
    def masks(self) -> np.ndarray:
        """Read-only (M, P) stack of the window masks, written on first
        read straight from the intervals (``_stack_masks``)."""
        return _stack_masks(self.windows)

    def complement_weights(self) -> np.ndarray:
        """(M, P) weights of integration over the window complements."""
        return self.space.weights * ~self.masks

    def describe(self) -> str:
        parts = []
        for i, w in enumerate(self.windows, start=1):
            parts.append(f"floor {i}: {w.count}/{w.space.size} nodes")
        return "; ".join(parts)

    def to_json(self) -> list[dict]:
        return [w.to_json() for w in self.windows]


def window_family_from_json(space: DiscretizedSpace, doc) -> WindowFamily:
    if not isinstance(doc, (list, tuple)):
        raise ValueError("windows document must be a list, one entry per floor")
    return WindowFamily(tuple(window_from_json(space, d) for d in doc))
