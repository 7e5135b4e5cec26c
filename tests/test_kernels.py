"""Block kernels: correlation determinants, restrictions, resolvents."""

from __future__ import annotations

import csv
import itertools
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import gauged
from janossy_kit.chain_ensemble import ChainEnsemble
from janossy_kit.errors import SingularOperatorError
from janossy_kit.janossy import (
    biorthogonal_janossy_recipe,
    janossy_kernel_explicit,
)
from janossy_kit.kernels import (
    CSV_SCHEMA,
    JSON_SCHEMA,
    atomic_open,
    correlation_function,
    correlation_kernel,
    dyson_mehta_check,
    export_kernel_csv,
    fredholm_det,
    kernel_to_json,
    resolvent_kernel,
    restrict,
    rows,
)
from janossy_kit.measure_space import (
    WindowFamily,
    make_discrete,
    make_quadrature,
)
from janossy_kit.models import (
    build_coupled_chain,
    build_karlin_mcgregor,
    build_random,
    build_unitary,
)
from janossy_kit.oracle import brute_correlation, enumerate_density
from janossy_kit.verify import count_vectors, point_grid


def test_kernel_block_layout_and_value_agree():
    ens = build_random(2, 4, 2, 3)
    kernel = correlation_kernel(ens)
    assert kernel.blocks.shape == (3, 3, 4, 4)
    for l in (1, 3):
        for m in (1, 2):
            block = kernel.block(l, m)
            assert block.shape == (4, 4)
            assert kernel.value(l, 1, m, 2) == block[1, 2]
    with pytest.raises(ValueError):
        kernel.block(0, 1)
    with pytest.raises(ValueError):
        kernel.value(1, 4, 1, 0)


def test_check_points_validates_floors_and_nodes():
    ens = build_random(2, 4, 2, 2)
    assert ens.check_points([(1, 0), (2, 3)]) == [(1, 0), (2, 3)]
    assert ens.check_points([(np.int64(2), np.int32(1))]) == [(2, 1)]
    for bad in ([(0, 0)], [(3, 0)], [(1, -1)], [(1, 4)], [(1, 2.5)],
                [(1.9, 0)], [(1.0, 0)], [(True, 0)], [(1, False)],
                [(1, np.float64(2.0))]):
        with pytest.raises(ValueError):
            ens.check_points(bad)
    kernel = correlation_kernel(ens)
    with pytest.raises(ValueError):
        correlation_function(kernel, [(1, 2.5)])


def test_correlation_determinants_match_brute_enumeration():
    ens = build_random(7, 4, 2, 2)
    dist = enumerate_density(ens)
    kernel = correlation_kernel(ens)
    cases = [
        [(1, 0)],
        [(2, 3)],
        [(1, 0), (1, 2)],
        [(1, 1), (2, 2)],
        [(1, 0), (1, 3), (2, 1)],
    ]
    for points in cases:
        det_form = correlation_function(kernel, points)
        brute = brute_correlation(dist, points)
        assert det_form == pytest.approx(brute, abs=1e-11)
    # the correlations suite's one grid call per count vector: each oracle
    # entry is brute_correlation and each batched determinant is the
    # determinant of the kernel at that entry's point set, in the row-major
    # order of the points (correlation_function takes it by LU instead)
    nodes = [np.arange(4)] * 2
    for counts in count_vectors(ens.n, ens.floors, 3):
        oracle, dets = point_grid(dist, [counts], nodes, nodes,
                                  lambda: kernel.matrix)
        floors = [l for l, k in enumerate(counts, start=1) for _ in range(k)]
        sets = [list(zip(floors, xs))
                for xs in itertools.product(range(4), repeat=len(floors))]
        assert oracle.shape == dets.shape == (len(sets),)
        for a, d, points in zip(oracle, dets, sets):
            b = brute_correlation(dist, points)
            assert abs(a - b) <= 1e-14 * max(abs(a), abs(b))
            assert d == np.linalg.det(kernel.matrix_at(points))


def test_empty_point_set_gives_one():
    ens = build_random(7, 4, 2, 2)
    kernel = correlation_kernel(ens)
    assert correlation_function(kernel, []) == 1.0


def test_repeated_point_gives_zero():
    ens = build_random(7, 4, 2, 2)
    kernel = correlation_kernel(ens)
    val = correlation_function(kernel, [(1, 2), (1, 2)])
    assert abs(val) < 1e-12


def test_single_floor_kernel_is_a_reproducing_projection():
    """For M=1 the kernel projects: K W K = K and trace(K W) = n."""
    ens = build_random(5, 6, 3, 1)
    kernel = correlation_kernel(ens)
    K = kernel.blocks[0, 0]
    w = ens.space.weights
    assert np.allclose((K * w[None, :]) @ K, K, atol=1e-10)
    assert np.trace(K * w[None, :]).real == pytest.approx(3.0, abs=1e-10)
    assert abs(np.trace(K * w[None, :]).imag) < 1e-10


def test_dyson_mehta_check_vanishes_on_equal_floors():
    for seed in (3, 4):
        ens = build_random(seed, 4, 2, 2)
        residual, scale = dyson_mehta_check(correlation_kernel(ens))
        for k in range(2):
            assert residual[k, :, k].max() <= 1e-10 * scale


def test_dyson_mehta_check_vanishes_on_cross_floors():
    """W = K + g reproduces over every floor l, for every k != m too."""
    for seed in (9, 21, 33):
        ens = build_random(seed, 3, 2, 3)
        kernel = correlation_kernel(ens)
        residual, scale = dyson_mehta_check(kernel)
        assert residual.shape == (3, 3, 3)
        assert residual.max() <= 1e-10 * scale
        # the check sees a kernel that is not a projection
        kernel.blocks[0, 2] += 0.01
        residual, scale = dyson_mehta_check(kernel)
        assert residual[0, :, 2].max() > 1e-4 * scale


def test_restrict_empty_windows_is_trivial():
    ens = build_random(4, 4, 2, 2)
    theta = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, (2, 4))
    for e in (ens, gauged(ens, theta)):
        wf = WindowFamily(tuple(e.space.empty_window() for _ in range(2)))
        op = restrict(correlation_kernel(e), wf)
        assert op.size == 0
        assert fredholm_det(op) == 1.0 + 0.0j


def test_restrict_orders_rows_by_floor_then_node():
    ens = build_random(4, 4, 2, 2)
    kernel = correlation_kernel(ens)
    wf = WindowFamily((ens.space.window([True, False, True, False]),
                       ens.space.window([False, True, False, False])))
    op = restrict(kernel, wf)
    assert op.index == ((1, 0), (1, 2), (2, 1))
    assert op.matrix.shape == (3, 3)
    # symmetrized entries: sqrt(w_x) K sqrt(w_y)
    w = ens.space.weights
    expect = np.sqrt(w[0]) * kernel.value(1, 0, 2, 1) * np.sqrt(w[1])
    assert op.matrix[0, 2] == pytest.approx(expect, rel=1e-13)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(1, 2),
       st.integers(1, 3), st.data())
def test_window_points_index_restriction_and_resolvent(seed, P, n, M, data):
    """Restriction reads, and the resolvent writes, exactly the window points.

    Masks are arbitrary, so whole floors may be empty (or full).
    """
    try:
        ens = build_random(seed, P, n, M)
    except SingularOperatorError:
        assume(False)
    masks = [data.draw(st.lists(st.booleans(), min_size=P, max_size=P))
             for _ in range(M)]
    wf = WindowFamily(tuple(ens.space.window(m) for m in masks))
    kernel = correlation_kernel(ens)
    op = restrict(kernel, wf)
    assert op.index == wf.points()
    assert op.index == tuple((l, x) for l in range(1, M + 1)
                             for x in range(P) if masks[l - 1][x])
    sqrtw = np.sqrt(ens.space.weights)
    for i, (l, x) in enumerate(op.index):
        for j, (m, y) in enumerate(op.index):
            expect = sqrtw[x] * kernel.value(l, x, m, y) * sqrtw[y]
            assert abs(op.matrix[i, j] - expect) <= 1e-14 * abs(expect)
    try:
        res = resolvent_kernel(op)
    except SingularOperatorError:
        return
    inside = np.zeros(res.blocks.shape, dtype=bool)
    for l, x in op.index:
        for m, y in op.index:
            inside[l - 1, m - 1, x, y] = True
    assert np.all(res.blocks[~inside] == 0)
    # and inside, R_I = K_I (Id - K_I)^{-1} in the symmetrized convention
    r = np.array([[sqrtw[x] * res.value(l, x, m, y) * sqrtw[y]
                   for m, y in op.index] for l, x in op.index],
                 dtype=complex).reshape(op.size, op.size)
    t = np.eye(op.size) - op.matrix
    bound = 1e-10 * (1 + np.abs(r).max(initial=0)) * max(1, op.size)
    assert np.abs(r @ t - op.matrix).max(initial=0) <= bound


def test_full_restriction_determinant_is_numerically_zero():
    ens = build_random(4, 4, 2, 2)
    theta = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, (2, 4))
    for e in (ens, gauged(ens, theta)):
        wf = WindowFamily(tuple(e.space.full_window() for _ in range(2)))
        assert abs(fredholm_det(restrict(correlation_kernel(e), wf))) <= 1e-8


def dense_fredholm(op) -> complex:
    """det(Id - K_I) by a dense LU of the gathered restriction."""
    sign, logdet = np.linalg.slogdet(np.eye(op.size) - op.matrix)
    return complex(sign * np.exp(logdet))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(1, 3),
       st.integers(1, 3), st.booleans(), st.data())
def test_factored_fredholm_matches_the_dense_determinant(seed, P, n, M,
                                                         complex_gauge, data):
    """The back-substitution route against a dense LU of Id - K_I, on
    arbitrary masks (whole floors empty or full) of real and complex-gauged
    random chains.  Both routes round at the order of cond(A) eps."""
    n = min(n, P)
    try:
        ens = build_random(seed, P, n, M)
    except SingularOperatorError:
        assume(False)
    if complex_gauge:
        theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (M, P))
        ens = gauged(ens, theta)
    masks = [data.draw(st.lists(st.booleans(), min_size=P, max_size=P))
             for _ in range(M)]
    wf = WindowFamily(tuple(ens.space.window(m) for m in masks))
    op = restrict(correlation_kernel(ens), wf)
    det, dense = fredholm_det(op), dense_fredholm(op)
    assert isinstance(det, complex)
    assert abs(det - dense) <= 1e-13 * ens.gram_cond * max(1.0, abs(dense))
    if not any(map(any, masks)):
        assert det == 1.0 + 0.0j


def test_factored_fredholm_of_a_janossy_kernel():
    """A Janossy kernel keeps its complement tables, so its restrictions
    take the same route; checked against the dense determinant, with the
    rounding scale cond(A^c) eps of the complement tables."""
    ens = build_random(12, 6, 2, 3)
    wf = WindowFamily((ens.space.window([True, True, False, False, False, False]),
                       ens.space.window([False, False, False, True, True, False]),
                       ens.space.window([False, True, False, False, False, True])))
    jk = janossy_kernel_explicit(ens, wf)
    for masks in ([[True, False, True, False, True, False]] * 3,
                  [[False] * 6, [True] * 6, [False, True] * 3],
                  [m.tolist() for m in wf.complement_masks()]):
        sub = WindowFamily(tuple(ens.space.window(m) for m in masks))
        op = restrict(jk.kernel, sub)
        dense = dense_fredholm(op)
        assert (abs(fredholm_det(op) - dense)
                <= 1e-13 * jk.gram_cond * max(1.0, abs(dense)))


def gap_chain() -> tuple[ChainEnsemble, WindowFamily]:
    """Karlin-McGregor chain of eight floors on 300 nodes, with one
    half-line window per floor."""
    ens = build_karlin_mcgregor(np.linspace(0.0, 1.0, 10),
                                np.linspace(-1.0, 1.0, 4),
                                np.linspace(-1.0, 1.0, 4), order=300)
    starts = np.random.default_rng(3).uniform(1.0, 1.5, ens.floors)
    return ens, WindowFamily(tuple(
        ens.space.window_from_intervals([(s, None)]) for s in starts))


def test_gap_chain_fredholm_never_forms_the_kernel_matrix():
    """Eight floors of 300 nodes: the factored determinant agrees with the
    determinant ratio det A^c / det A and reads neither the (M P)^2 kernel
    matrix nor the gathered restriction."""
    ens, wf = gap_chain()
    kernel = correlation_kernel(ens)
    op = restrict(kernel, wf)
    det = fredholm_det(op)
    assert abs(det - janossy_kernel_explicit(ens, wf).const) <= 1e-12
    assert 0.0 < det.real < 1.0
    assert "matrix" not in vars(kernel) and "matrix" not in vars(op)


def test_gap_chain_tables_and_fredholm_allocate_less_than_one_transfer():
    """Building the ensemble and one Fredholm determinant each allocate
    less than one P x P float64 array at their peak: no product g_{l,m} is
    stored, and the determinant carries P x n tails down the chain."""
    ens, wf = gap_chain()
    op = restrict(correlation_kernel(ens), wf)
    limit = ens.space.size ** 2 * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        ChainEnsemble(ens.space, ens.f, ens.phi, ens.g)
        _, built = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fredholm_det(op)
        _, det = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built < limit and det < limit


def test_restrict_needs_a_kernel_with_tables():
    """Resolvent and biorthogonal kernels carry only their matrix, so they
    cannot be restricted."""
    ens = build_random(12, 5, 2, 1)
    wf = WindowFamily((ens.space.window([True, True, False, False, False]),))
    res = resolvent_kernel(restrict(correlation_kernel(ens), wf))
    recipe = biorthogonal_janossy_recipe(ens, wf.window(1)).kernel
    for kernel in (res, recipe):
        assert kernel.tables is None and kernel.matrix.shape == (5, 5)
        with pytest.raises(ValueError, match="no convolution tables"):
            restrict(kernel, wf)


def test_resolvent_matches_explicit_window_kernel():
    ens = build_random(12, 5, 2, 2)
    kernel = correlation_kernel(ens)
    wf = WindowFamily((ens.space.window([True, True, False, False, False]),
                       ens.space.window([False, False, False, True, True])))
    res = resolvent_kernel(restrict(kernel, wf))
    jk = janossy_kernel_explicit(ens, wf)
    for l in (1, 2):
        il = wf.window(l).node_indices
        for m in (1, 2):
            im = wf.window(m).node_indices
            a = res.blocks[l - 1, m - 1][np.ix_(il, im)]
            b = jk.kernel.blocks[l - 1, m - 1][np.ix_(il, im)]
            assert np.allclose(a, b, atol=1e-10)


def test_resolvent_of_empty_windows_is_the_zero_operator():
    """Restricting to nothing leaves nothing to resolve: all blocks zero."""
    ens = build_random(12, 4, 2, 2)
    kernel = correlation_kernel(ens)
    wf = WindowFamily(tuple(ens.space.empty_window() for _ in range(2)))
    res = resolvent_kernel(restrict(kernel, wf))
    assert np.all(res.blocks == 0)


def test_resolvent_rejects_singular_restriction():
    # a projection kernel restricted to everything has eigenvalue 1,
    # so Id - K is exactly singular
    ens = build_random(5, 4, 2, 1)
    kernel = correlation_kernel(ens)
    wf = WindowFamily((ens.space.full_window(),))
    with pytest.raises(SingularOperatorError):
        resolvent_kernel(restrict(kernel, wf))


def test_correlation_function_requires_correlation_kind():
    ens = build_random(12, 4, 2, 2)
    kernel = correlation_kernel(ens)
    wf = WindowFamily(tuple(ens.space.empty_window() for _ in range(2)))
    res = resolvent_kernel(restrict(kernel, wf))
    with pytest.raises(ValueError):
        correlation_function(res, [(1, 0)])


def test_csv_export_round_trips_values(tmp_path):
    ens = build_random(3, 3, 2, 2)
    kernel = correlation_kernel(ens)
    path = tmp_path / "kernel.csv"
    export_kernel_csv(kernel, str(path))
    lines = path.read_text().splitlines()
    assert lines[0].startswith(f"# {CSV_SCHEMA} kernel")
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == (2 * 3) ** 2
    for row in rows[:20]:
        l, x = int(row["floor_row"]), int(row["node_row"])
        m, y = int(row["floor_col"]), int(row["node_col"])
        val = complex(float(row["re"]), float(row["im"]))
        assert val == kernel.value(l, x, m, y)
    assert os.listdir(tmp_path) == ["kernel.csv"]


def test_atomic_open_removes_its_temp_file_when_the_write_fails(tmp_path):
    target = tmp_path / "kernel.csv"
    target.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(str(target)) as fh:
            fh.write("partial")
            raise RuntimeError("disk full")
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["kernel.csv"]


def test_kernel_json_layout():
    ens = build_random(3, 3, 2, 2)
    kernel = correlation_kernel(ens)
    doc = kernel_to_json(kernel)
    assert doc["schema"] == JSON_SCHEMA
    assert doc["kind"] == kernel.kind
    assert doc["floors"] == 2
    val = doc["blocks"][0][1][0][2]
    assert complex(val[0], val[1]) == kernel.value(1, 0, 2, 2)
    json.dumps(doc)  # must be serializable as-is


def test_restrict_matrix_at_and_resolvent_agree_through_rows():
    """restrict and matrix_at gather, and the resolvent scatters, the rows
    of the window points, bit for bit."""
    ens = build_random(9, 5, 2, 3)
    kernel = correlation_kernel(ens)
    wf = WindowFamily((ens.space.window([True, False, True, False, True]),
                       ens.space.window([False, True, False, False, False]),
                       ens.space.window([False, False, True, True, False])))
    op = restrict(kernel, wf)
    r = rows(op.index, 5)
    assert r.tolist() == [0, 2, 4, 6, 12, 13]
    sw = np.sqrt(ens.space.weights)[r % 5]
    expect = kernel.matrix[np.ix_(r, r)] * (sw[:, None] * sw[None, :])
    assert op.matrix.dtype == expect.dtype
    assert np.array_equal(op.matrix, expect)
    assert np.array_equal(kernel.matrix_at(op.index),
                          kernel.matrix[np.ix_(r, r)])
    res = resolvent_kernel(op)
    outside = np.ones(res.matrix.shape, dtype=bool)
    outside[np.ix_(r, r)] = False
    assert np.all(res.matrix[outside] == 0)
    assert np.array_equal(res.matrix_at(op.index), res.matrix[np.ix_(r, r)])


def test_blocks_is_a_write_through_view_of_the_matrix():
    ens = build_random(2, 4, 2, 3)
    kernel = correlation_kernel(ens)
    blocks = kernel.blocks
    assert blocks.shape == (3, 3, 4, 4)
    assert np.shares_memory(blocks, kernel.matrix)
    for l, x, m, y in [(1, 0, 1, 0), (1, 3, 3, 2), (3, 1, 2, 3)]:
        assert blocks[l - 1, m - 1, x, y] == kernel.matrix[4 * (l - 1) + x,
                                                          4 * (m - 1) + y]
    kernel.blocks[2, 0, 1, 3] = 7.0
    assert kernel.matrix[9, 3] == 7.0
    assert kernel.value(3, 1, 1, 3) == 7.0


REAL_MODELS = {
    "unitary": lambda: build_unitary([0.0, 0.0, 0.5], 3,
                                     make_quadrature((-6.0, 6.0), 40)),
    "coupled-chain": lambda: build_coupled_chain(
        2, 3, [[0.0, 0.0, 0.5]] * 3, [0.3, 0.2],
        make_quadrature((-5.0, 5.0), 30)),
    "karlin-mcgregor": lambda: build_karlin_mcgregor(
        [0.0, 0.3, 0.6, 1.0], [-1.0, 1.0], [-1.0, 1.0], order=30),
    "random": lambda: build_random(9, 6, 2, 2),
}


@pytest.mark.parametrize("name", sorted(REAL_MODELS))
def test_real_models_stay_float64(name):
    """Tables, kernels, restrictions and resolvents of a real model are
    float64; none of them is promoted to complex."""
    ens = REAL_MODELS[name]()
    P = ens.space.size
    upper = ens.space.window(np.arange(P) >= P - P // 3)
    wf = WindowFamily((upper,) * ens.floors)
    kernel = correlation_kernel(ens)
    op = restrict(kernel, wf)
    arrays = {
        "tables.gram": ens.tables.gram,
        "correlation kernel": kernel.blocks,
        "restriction": op.matrix,
        "resolvent": resolvent_kernel(op).blocks,
        "janossy kernel": janossy_kernel_explicit(ens, wf).kernel.blocks,
    }
    assert ens.dtype == np.float64
    assert {k: a.dtype for k, a in arrays.items()} == dict.fromkeys(
        arrays, np.dtype(np.float64))
