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
    complement,
    make_discrete,
    make_quadrature,
    window_family_from_json,
    window_from_json,
)


def test_discrete_space_basics():
    space = make_discrete([0.0, 1.0, 2.5], [0.5, 1.0, 0.25])
    assert space.size == 3
    assert space.kind == "discrete"
    assert space.integrate(np.array([1.0, 1.0, 1.0])) == pytest.approx(1.75)
    with pytest.raises(ValueError):
        space.integrate(np.array([1.0, 1.0]))


def test_space_arrays_are_read_only():
    space = make_discrete([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        space.nodes[0] = 5.0
    with pytest.raises(ValueError):
        space.weights[0] = 5.0


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
    assert complex(space.integrate(vals)).real == pytest.approx(exact, rel=1e-13)


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
    space = make_discrete([0.0, 1.0, 2.0, 3.0], [1.0] * 4)
    win = space.window_from_intervals([(0.5, 2.5)])
    assert win.node_indices.tolist() == [1, 2]
    half = space.window_from_intervals([(1.0, None)])
    assert half.node_indices.tolist() == [1, 2, 3]
    assert win.count == 2


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


def test_complement_is_involutive():
    space = make_discrete([0.0, 1.0, 2.0], [1.0] * 3)
    win = space.window([True, False, True])
    assert complement(complement(win)).mask.tolist() == win.mask.tolist()
    assert complement(win).node_indices.tolist() == [1]


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
@given(st.lists(st.booleans(), min_size=1, max_size=8))
def test_complement_partitions_nodes(mask):
    points = np.arange(len(mask), dtype=float)
    space = make_discrete(points, np.ones(len(mask)))
    win = space.window(mask)
    comp = complement(win)
    assert not np.any(win.mask & comp.mask)
    assert np.all(win.mask | comp.mask)
    assert win.count + comp.count == space.size
