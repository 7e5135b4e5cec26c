"""Spaces, windows, and their JSON round trips."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from janossy_kit.measure_space import (
    DiscretizedSpace,
    Window,
    WindowFamily,
    make_discrete,
    make_quadrature,
    window_family_from_json,
    window_from_json,
)


def test_discrete_space_basics():
    space = make_discrete([0.0, 1.0, 2.5], [0.5, 1.0, 0.25])
    assert space.size == 3
    assert space.kind == "discrete"
    assert np.sum(np.ones(3) * space.weights) == pytest.approx(1.75)


def test_space_arrays_are_read_only():
    space = make_discrete([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        space.nodes[0] = 5.0
    with pytest.raises(ValueError):
        space.weights[0] = 5.0


def test_spaces_and_windows_leave_the_callers_arrays_writable():
    """A space or window freezes its own copy, never the caller's array,
    and later writes to the caller's array reach neither."""
    nodes, weights = np.array([0.0, 1.0, 2.0]), np.array([0.5, 1.0, 0.25])
    space = make_discrete(nodes, weights)
    mask = np.zeros(3, dtype=bool)
    window = space.window(mask)
    for caller in (nodes, weights, mask):
        assert caller.flags.writeable
    nodes[0], weights[0], mask[0] = -1.0, 9.0, True
    assert space.nodes.tolist() == [0.0, 1.0, 2.0]
    assert space.weights.tolist() == [0.5, 1.0, 0.25]
    assert window.mask.tolist() == [False, False, False]
    assert not (space.nodes.flags.writeable or space.weights.flags.writeable
                or window.mask.flags.writeable)


@pytest.mark.parametrize("points,masses,message", [
    ([1.0, 0.0], [1.0, 1.0], "increasing"),
    ([0.0, 0.0], [1.0, 1.0], "increasing"),
    ([0.0, 1.0], [1.0, -1.0], "positive"),
    ([0.0, 1.0], [1.0, 0.0], "positive"),
    ([], [], "at least one"),
    ([0.0, 1.0], [1.0], "weights"),
    ([0.0, np.inf], [1.0, 1.0], "finite"),
])
def test_space_validation(points, masses, message):
    with pytest.raises(ValueError, match=message):
        make_discrete(points, masses)


def test_quadrature_integrates_polynomials_exactly():
    space = make_quadrature((-1.0, 3.0), 8)
    # degree 15 is the guaranteed-exact edge for an 8-point rule
    vals = space.nodes ** 15
    exact = (3.0 ** 16 - (-1.0) ** 16) / 16.0
    assert np.sum(vals * space.weights) == pytest.approx(exact, rel=1e-13)


def test_quadrature_validation():
    with pytest.raises(ValueError):
        make_quadrature((1.0, 1.0), 4)
    with pytest.raises(ValueError):
        make_quadrature((0.0, np.inf), 4)
    with pytest.raises(ValueError):
        make_quadrature((0.0, 1.0), 0)
    # orders used to be truncated: 2.7 gave two nodes, True one
    for order in (2.7, 2.0, True, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match="not an integer"):
            make_quadrature((0.0, 1.0), order)
    space = make_quadrature((0.0, 1.0), np.int64(3))
    assert space.size == 3 and type(space.order) is int


def test_window_from_intervals_truncates_at_nodes():
    """Each window keeps exactly the nodes x with a_k <= x <= b_k for
    some interval k, an end on a node included, on a discrete and on a
    quadrature space."""
    space = make_discrete([0.0, 1.0, 2.0, 3.0], [1.0] * 4)
    win = space.window_from_intervals([(0.5, 2.5)])
    assert win.node_indices.tolist() == [1, 2]
    half = space.window_from_intervals([(1.0, None)])
    assert half.node_indices.tolist() == [1, 2, 3]
    assert win.count == 2
    for space in (space, make_quadrature((-1.0, 4.0), 9)):
        x = space.nodes
        # a and b lie strictly between nodes 0 and 1 and nodes 2 and 3
        a, b = (x[0] + x[1]) / 2, (x[2] + x[3]) / 2
        gap = ((2 * x[1] + x[2]) / 3, (x[1] + 2 * x[2]) / 3)
        cases = [
            [(a, b)], [(x[1], None)],
            [(x[1], b)], [(a, x[2])], [(x[1], x[2])],
            [(None, None)], [(None, x[0])], [(x[-1], None)],
            [(x[2], x[2])],
            [gap],
            [(x[0], x[2]), (x[1], x[3])],
            [(x[0], x[1]), (x[1], x[3])],
            [(None, x[0]), (x[-1], None)],
        ]
        expects = []
        for intervals in cases:
            expect = np.zeros(space.size, dtype=bool)
            for lo, hi in intervals:
                expect |= ((x >= (-np.inf if lo is None else lo))
                           & (x <= (np.inf if hi is None else hi)))
            got = space.window_from_intervals(intervals).mask
            assert got.tolist() == expect.tolist(), intervals
            assert not got.flags.writeable
            expects.append(expect)
        # a family writes every interval window's mask into one array,
        # beside a mask window and an interval window read before
        windows = [space.window_from_intervals(iv) for iv in cases]
        windows[1].mask
        wf = WindowFamily((*windows, space.window(expects[0])))
        assert wf.masks.tolist() == [e.tolist() for e in expects + expects[:1]]
        # the point interval keeps its node, the gap between two nodes none
        assert space.window_from_intervals([(x[2], x[2])]).count == 1
        assert space.window_from_intervals([gap]).count == 0


def test_window_from_intervals_rejects_nan_endpoints():
    """A NaN end used to match no node, so the window came out empty;
    None and +/-inf still mean half-lines."""
    space = make_discrete([0.0, 1.0, 2.0, 3.0], [1.0] * 4)
    for pair in ((np.nan, None), (None, np.nan), (0.0, float("nan")),
                 ("nan", 2.0)):
        with pytest.raises(ValueError, match="NaN"):
            space.window_from_intervals([pair])
    for pair in ((None, 1.0), (-np.inf, 1.0)):
        assert space.window_from_intervals([pair]).node_indices.tolist() == [0, 1]
    for pair in ((2.0, None), (2.0, np.inf)):
        assert space.window_from_intervals([pair]).node_indices.tolist() == [2, 3]


def test_window_mask_shape_checked():
    space = make_discrete([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        Window(space, np.array([True, False, True]))
    # a window is a mask or intervals, never neither or both
    with pytest.raises(ValueError, match="one of mask and intervals"):
        Window(space)
    with pytest.raises(ValueError, match="one of mask and intervals"):
        Window(space, [True, False], intervals=[(0.0, 0.5)])


def test_space_json_round_trip():
    for space in (make_discrete([0.0, 2.0], [0.3, 0.7]),
                  make_quadrature((-2.0, 5.0), 12)):
        back = DiscretizedSpace.from_json(space.to_json())
        assert back.kind == space.kind
        assert np.allclose(back.nodes, space.nodes)
        assert np.allclose(back.weights, space.weights)


def test_space_json_rejects_garbage():
    with pytest.raises(ValueError):
        DiscretizedSpace.from_json({"kind": "mystery"})
    with pytest.raises(ValueError):
        DiscretizedSpace.from_json({"points": [0.0]})
    with pytest.raises(ValueError):
        DiscretizedSpace.from_json({"kind": "discrete", "points": [0.0]})


def test_window_json_round_trip():
    space = make_discrete([0.0, 1.0, 2.0, 3.0], [1.0] * 4)
    by_interval = window_from_json(space, {"intervals": [[1.0, None]]})
    assert by_interval.node_indices.tolist() == [1, 2, 3]
    again = window_from_json(space, by_interval.to_json())
    assert again.mask.tolist() == by_interval.mask.tolist()
    by_mask = window_from_json(space, {"mask": [True, False, False, True]})
    assert window_from_json(space, by_mask.to_json()).mask.tolist() == \
        by_mask.mask.tolist()
    with pytest.raises(ValueError):
        window_from_json(space, {"nothing": 1})
    # JSON booleans only, one per node
    for mask in (["false", 0, 0, 0], [1, 0, 0, 0], [0.5, "x", None, {}],
                 [True, False, False], "true", [[True], False, False, True]):
        with pytest.raises(ValueError, match="one per node"):
            window_from_json(space, {"mask": mask})


def test_window_family_validation_and_lookup():
    space = make_discrete([0.0, 1.0], [1.0, 1.0])
    other = make_discrete([0.0, 1.0], [1.0, 1.0])
    w1 = space.window([True, False])
    w2 = space.window([False, True])
    family = WindowFamily((w1, w2))
    assert family.floors == 2
    assert family.window(1) is w1 and family.window(2) is w2
    with pytest.raises(ValueError):
        family.window(0)
    with pytest.raises(ValueError):
        family.window(3)
    assert family.window(np.int64(2)) is w2
    # booleans and floats are not floors: True used to give floor 1, and
    # 1.5 a bare TypeError
    for floor in (True, False, 1.5, 1.0, "1"):
        with pytest.raises(ValueError, match="not an integer"):
            family.window(floor)
    with pytest.raises(ValueError):
        WindowFamily(())
    with pytest.raises(ValueError):
        WindowFamily((w1, other.window([True, True])))


def test_window_family_json_round_trip():
    space = make_discrete([0.0, 1.0, 2.0], [1.0] * 3)
    doc = [{"intervals": [[None, 1.0]]}, {"mask": [False, True, False]}]
    family = window_family_from_json(space, doc)
    assert family.window(1).node_indices.tolist() == [0, 1]
    assert family.window(2).node_indices.tolist() == [1]
    again = window_family_from_json(space, family.to_json())
    assert [w.mask.tolist() for w in again.windows] == \
        [w.mask.tolist() for w in family.windows]


@settings(derandomize=True, max_examples=40)
@given(st.lists(st.lists(st.booleans(), min_size=4, max_size=4),
                min_size=1, max_size=4))
def test_complement_partitions_nodes(masks):
    """``wf.masks`` stacks the windows' masks, read-only; ``~wf.masks``
    holds every other node, and the complement weights are the node
    weights there."""
    space = make_discrete(np.arange(4.0), [0.5, 1.0, 2.0, 3.0])
    wf = WindowFamily(tuple(map(space.window, masks)))
    assert wf.masks.shape == (wf.floors, space.size)
    for l, row in enumerate(wf.masks):
        assert row.tolist() == wf.window(l + 1).mask.tolist()
    with pytest.raises(ValueError):
        wf.masks[0, 0] = not wf.masks[0, 0]
    comp = ~wf.masks
    assert not np.any(wf.masks & comp)
    assert np.all(wf.masks | comp)
    assert (wf.masks.sum(axis=1) + comp.sum(axis=1)).tolist() == \
        [space.size] * wf.floors
    assert np.array_equal(wf.complement_weights(),
                          np.where(comp, space.weights, 0.0))
