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
caller's control for accuracy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

KIND_DISCRETE = "discrete"
KIND_QUADRATURE = "quadrature"

_INF = float("inf")


def _is_int(value) -> bool:
    """An int or NumPy integer; booleans are not integers here."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


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
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
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
        object.__setattr__(self, "nodes", _readonly(nodes))
        object.__setattr__(self, "weights", _readonly(weights))

    @property
    def size(self) -> int:
        return self.nodes.size

    def integrate(self, values: np.ndarray) -> complex:
        """Weighted sum of node samples: the discretized integral."""
        values = np.asarray(values)
        if values.shape != self.nodes.shape:
            raise ValueError("values must be sampled on the space nodes")
        return complex(np.sum(values * self.weights))

    # -- windows ----------------------------------------------------------

    def window(self, mask: Sequence[bool] | np.ndarray) -> Window:
        """Window from an explicit per-node boolean mask."""
        return Window(self, np.asarray(mask, dtype=bool))

    def window_from_intervals(
        self, intervals: Iterable[tuple[float | None, float | None]]
    ) -> Window:
        """Window covering the nodes inside a union of closed intervals.

        Interval ends may be ``None`` (or +/-inf) for half-lines.  The mask
        keeps exactly the nodes lying inside; boundaries between nodes
        truncate at node granularity.
        """
        ivals = []
        mask = np.zeros(self.size, dtype=bool)
        for pair in intervals:
            if len(pair) != 2:
                raise ValueError("each interval needs two endpoints")
            a = -_INF if pair[0] is None else float(pair[0])
            b = _INF if pair[1] is None else float(pair[1])
            if b < a:
                raise ValueError(f"empty interval [{a}, {b}]")
            mask |= (self.nodes >= a) & (self.nodes <= b)
            ivals.append((a, b))
        return Window(self, mask, intervals=tuple(ivals))

    def full_window(self) -> Window:
        return Window(self, np.ones(self.size, dtype=bool))

    def empty_window(self) -> Window:
        return Window(self, np.zeros(self.size, dtype=bool))

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
    def from_json(doc: dict | str) -> DiscretizedSpace:
        if isinstance(doc, str):
            doc = json.loads(doc)
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ValueError("space document must be an object with a 'kind'")
        kind = doc["kind"]
        if kind == KIND_DISCRETE:
            try:
                points, masses = doc["points"], doc["masses"]
            except KeyError as exc:
                raise ValueError(f"discrete space document lacks {exc}") from exc
            return make_discrete(points, masses)
        if kind == KIND_QUADRATURE:
            try:
                interval, order = doc["interval"], doc["order"]
            except KeyError as exc:
                raise ValueError(f"quadrature space document lacks {exc}") from exc
            if not _is_int(order):
                raise ValueError(f"quadrature order {order!r} is not an integer")
            return make_quadrature(tuple(interval), order)
        raise ValueError(f"unknown space kind {kind!r}")


def make_discrete(points: Sequence[float], masses: Sequence[float]) -> DiscretizedSpace:
    """Exact finite space: the listed points with the listed masses."""
    return DiscretizedSpace(np.asarray(points, float), np.asarray(masses, float),
                            KIND_DISCRETE)


def make_quadrature(interval: tuple[float, float], order: int) -> DiscretizedSpace:
    """Gauss-Legendre rule of the given order on a finite interval.

    The rule integrates polynomials up to degree ``2*order - 1`` exactly.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (np.isfinite(a) and np.isfinite(b)) or b <= a:
        raise ValueError(f"invalid interval [{a}, {b}]")
    if order < 1:
        raise ValueError("quadrature order must be at least 1")
    x, w = np.polynomial.legendre.leggauss(int(order))
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return DiscretizedSpace(mid + half * x, half * w, KIND_QUADRATURE,
                            interval=(a, b), order=int(order))


@dataclass(frozen=True, eq=False)
class Window(object):
    """Per-node boolean mask over a space, optionally with interval origin."""

    space: DiscretizedSpace
    mask: np.ndarray
    intervals: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != self.space.nodes.shape:
            raise ValueError(
                f"mask has {mask.size} entries, space has {self.space.size} nodes"
            )
        object.__setattr__(self, "mask", _readonly(mask))

    @property
    def node_indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    @property
    def count(self) -> int:
        return int(self.mask.sum())

    def is_empty(self) -> bool:
        return not self.mask.any()

    def is_full(self) -> bool:
        return bool(self.mask.all())

    def to_json(self) -> dict:
        if self.intervals is not None:
            return {"intervals": [[a if np.isfinite(a) else None,
                                   b if np.isfinite(b) else None]
                                  for a, b in self.intervals]}
        return {"mask": [bool(m) for m in self.mask]}


def complement(window: Window) -> Window:
    """Window selecting exactly the nodes the given window leaves out.

    Applying it twice recovers the original node set.
    """
    return Window(window.space, ~window.mask)


def window_from_json(space: DiscretizedSpace, doc: dict) -> Window:
    if not isinstance(doc, dict):
        raise ValueError("window document must be an object")
    if "intervals" in doc:
        return space.window_from_intervals(
            tuple((p[0], p[1]) for p in doc["intervals"])
        )
    if "mask" in doc:
        return space.window(doc["mask"])
    raise ValueError("window document needs 'intervals' or 'mask'")


@dataclass(frozen=True, eq=False)
class WindowFamily:
    """One window per particle class, all over the same space."""

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
        if not 1 <= floor <= self.floors:
            raise ValueError(f"floor {floor} outside 1..{self.floors}")
        return self.windows[floor - 1]

    def complement_masks(self) -> list[np.ndarray]:
        return [~w.mask for w in self.windows]

    def complement_weights(self) -> list[np.ndarray]:
        """Per-floor weights of integration over the window complements."""
        w = self.space.weights
        return [w * m for m in self.complement_masks()]

    def points(self) -> tuple[tuple[int, int], ...]:
        """The (floor, node) pairs inside the windows, floor-major.

        Floors ascend, and node indices ascend within a floor: the row
        order of every operator restricted to the family.
        """
        return tuple((l, int(x)) for l, w in enumerate(self.windows, start=1)
                     for x in w.node_indices)

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
