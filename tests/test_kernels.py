"""Block kernels: correlation determinants, restrictions, resolvents."""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import biorthogonal_janossy_recipe, gauged
from janossy_kit.chain_ensemble import (
    ChainEnsemble,
    pairing_halves,
    window_pairing,
)
from janossy_kit.errors import SingularOperatorError
from janossy_kit.janossy import (
    complement_tables,
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
    kernel_from_tables,
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
            block = kernel.blocks[l - 1, m - 1]
            assert block.shape == (4, 4)
            assert kernel.matrix_at([(l, 1), (m, 2)])[0, 1] == block[1, 2]
    with pytest.raises(ValueError):
        kernel.matrix_at([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        kernel.matrix_at([(1, 4), (1, 0)])


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
    # the correlations suite's point grid, one count vector at a time: each
    # oracle entry is brute_correlation and each batched determinant is the
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
        # the check sees tables whose kernel is not a projection
        off = kernel_from_tables(ens, dataclasses.replace(
            kernel.tables, gram=1.01 * kernel.tables.gram), kernel.kind, ())
        residual, scale = dyson_mehta_check(off)
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
    expect = np.sqrt(w[0]) * kernel.blocks[0, 1, 0, 1] * np.sqrt(w[1])
    assert op.matrix[0, 2] == pytest.approx(expect, rel=1e-13)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(1, 2),
       st.integers(1, 3), st.data())
def test_window_points_index_restriction_and_resolvent(seed, P, n, M, data):
    """Restriction reads, and the resolvent is indexed by, exactly the
    window points.

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
            expect = sqrtw[x] * kernel.blocks[l - 1, m - 1, x, y] * sqrtw[y]
            assert abs(op.matrix[i, j] - expect) <= 1e-14 * abs(expect)
    try:
        res = resolvent_kernel(op)
    except SingularOperatorError:
        return
    assert res.shape == (op.size, op.size)
    # R_I = K_I (Id - K_I)^{-1} in the symmetrized convention
    r = np.array([[sqrtw[x] * res[i, j] * sqrtw[y]
                   for j, (m, y) in enumerate(op.index)]
                  for i, (l, x) in enumerate(op.index)],
                 dtype=complex).reshape(op.size, op.size)
    t = np.eye(op.size) - op.matrix
    bound = 1e-10 * (1 + np.abs(r).max(initial=0)) * max(1, op.size)
    assert np.abs(r @ t - op.matrix).max(initial=0) <= bound


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.data())
def test_restricted_size_counts_the_window_points(P, M, data):
    """``size`` sums the window counts without listing the points; at
    least one floor's window is empty."""
    ens = build_random(7, P, 1, M)
    masks = [data.draw(st.lists(st.booleans(), min_size=P, max_size=P))
             for _ in range(M)]
    masks[data.draw(st.integers(0, M - 1))] = [False] * P
    op = restrict(correlation_kernel(ens),
                  WindowFamily(tuple(ens.space.window(m) for m in masks)))
    size = op.size
    assert "index" not in vars(op)
    assert size == len(op.index) == sum(map(sum, masks))


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
    """The complement pairing ratio against a dense LU of Id - K_I, on
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
    """A Janossy kernel keeps its complement tables, so a restriction
    drops its windows from those tables' weights: the same pairing ratio,
    checked against the dense determinant, with the rounding scale
    cond(A^c) eps of the complement tables."""
    ens = build_random(12, 6, 2, 3)
    wf = WindowFamily((ens.space.window([True, True, False, False, False, False]),
                       ens.space.window([False, False, False, True, True, False]),
                       ens.space.window([False, True, False, False, False, True])))
    jk = janossy_kernel_explicit(ens, wf)
    for masks in ([[True, False, True, False, True, False]] * 3,
                  [[False] * 6, [True] * 6, [False, True] * 3],
                  (~wf.masks).tolist()):
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


def unit_scaled_ratio(num: np.ndarray, den: np.ndarray):
    """det(num)/det(den) with den's power-of-two unit scale formed afresh:
    three log-determinants, none of them cached."""
    _, logdet = np.linalg.slogdet(den)
    c = math.ldexp(1.0, -round(logdet / (den.shape[-1] * math.log(2.0))))
    s1, l1 = np.linalg.slogdet(num * c)
    s2, l2 = np.linalg.slogdet(den * c)
    return s1 / s2 * np.exp(l1 - l2) + 0.0


def test_fredholm_is_the_janossy_normalization_bit_for_bit():
    """The Fredholm determinant of a correlation kernel's restriction is
    the complement pairing ratio det A^c / det A itself: equal to the
    Janossy constant, and to the ratio with the unit scale formed afresh,
    to the last bit on random, complex-gauged and Karlin-McGregor
    chains."""
    cases = [gap_chain()]
    for seed in range(6):
        rng = np.random.default_rng(seed)
        ens = build_random(seed, 6, 2, 3)
        # two window nodes per floor leave the complement four
        masks = [np.isin(np.arange(6), rng.permutation(6)[:2])
                 for _ in range(3)]
        wf = WindowFamily(tuple(map(ens.space.window, masks)))
        theta = rng.uniform(0.0, 2.0 * np.pi, (3, 6))
        cases += [(ens, wf), (gauged(ens, theta), wf)]
    for ens, wf in cases:
        det = fredholm_det(restrict(correlation_kernel(ens), wf))
        assert det == janossy_kernel_explicit(ens, wf).const
        pairing, ratio = window_pairing(ens.tables, wf)
        assert ratio == det == complex(unit_scaled_ratio(pairing,
                                                         ens.tables.gram))


def test_each_table_set_owns_its_unit_scale():
    """Complement tables and the biorthogonal recipe's tables (gram I)
    scale their own gram, not the ensemble's: here the three scales are
    4, 2 and 1, and each table set's Fredholm determinant is its own
    pairing's ratio to its own gram."""
    ens = build_random(15, 5, 2, 1)
    window = ens.space.window([True, True, False, False, False])
    sub = WindowFamily((ens.space.window([False, False, False, True, False]),))
    sets = (ens.tables, complement_tables(ens, WindowFamily((window,))),
            biorthogonal_janossy_recipe(ens, window)[1].tables)
    assert [t.unit_scale[0] for t in sets] == [4.0, 2.0, 1.0]
    for t in sets:
        c = t.unit_scale[0]
        assert t.unit_scale[1:] == tuple(np.linalg.slogdet(t.gram * c))
        pairing, ratio = window_pairing(t, sub)
        assert ratio == complex(unit_scaled_ratio(pairing, t.gram))


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
    assert "index" not in vars(op)


def small_gap_chain(seed: int = 3) -> tuple[ChainEnsemble, WindowFamily]:
    """Karlin-McGregor chain of four floors on 40 nodes, with one
    half-line window [s, oo) per floor, s uniform in [1, 1.5]."""
    ens = build_karlin_mcgregor(np.linspace(0.0, 1.0, 6),
                                np.linspace(-1.0, 1.0, 3),
                                np.linspace(-1.0, 1.0, 3), order=40)
    starts = np.random.default_rng(seed).uniform(1.0, 1.5, ens.floors)
    return ens, WindowFamily(tuple(
        ens.space.window_from_intervals([(s, None)]) for s in starts))


def plain_pairing(ens: ChainEnsemble, weights) -> np.ndarray:
    """f W_1 g_1 W_2 ... g_{M-1} W_M phi^T as a product over all P nodes
    of every floor."""
    x = ens.f * weights[0]
    for g, w in zip(ens.g, weights[1:]):
        x = (x @ g) * w
    return x @ ens.phi.T


def test_gap_queries_read_only_the_weight_support_of_the_transfers():
    """NaN in every transfer entry outside the complement weights' support
    boxes: the gap probability and the Janossy normalization come out
    finite and bit-equal to the clean chain's, so no sweep reads them.
    With floor 2's window full, its complement weights are all zero
    between two non-empty boxes: its box is empty, so both transfers at
    floor 2 are NaN throughout, and the gap probability is exactly 0."""
    def nan_outside_boxes(full_floor=None):
        ens, wf = small_gap_chain()
        if full_floor is not None:
            windows = list(wf.windows)
            windows[full_floor - 1] = ens.space.full_window()
            wf = WindowFamily(tuple(windows))
        P = ens.space.size
        box = []
        for l, w in enumerate(wf.complement_weights(), start=1):
            nz = np.flatnonzero(w)
            if l == full_floor:
                assert nz.size == 0
                box.append(slice(0, 0))
                continue
            box.append(slice(nz[0], nz[-1] + 1))
            assert 0 < nz.size < P
        for g, a, b in zip(ens.g, box, box[1:]):
            outside = np.ones((P, P), dtype=bool)
            outside[a, b] = False
            g[outside] = np.nan
        return ens, wf

    clean, clean_wf = small_gap_chain()
    ens, wf = nan_outside_boxes()
    fred = fredholm_det(restrict(correlation_kernel(ens), wf))
    jk = janossy_kernel_explicit(ens, wf)
    assert np.isfinite(fred)
    assert fred == fredholm_det(restrict(correlation_kernel(clean),
                                         clean_wf))
    assert jk.const == fred
    assert np.array_equal(jk.gram, janossy_kernel_explicit(clean,
                                                           clean_wf).gram)

    ens, wf = nan_outside_boxes(full_floor=2)
    assert np.isnan(ens.g[0]).all() and np.isnan(ens.g[1]).all()
    fred = fredholm_det(restrict(correlation_kernel(ens), wf))
    assert fred == 0 and np.isfinite(fred)
    with pytest.raises(SingularOperatorError):
        janossy_kernel_explicit(ens, wf)


@pytest.mark.parametrize("complex_gauge", [False, True])
def test_trimmed_pairing_agrees_with_the_plain_product_chain(complex_gauge):
    """Complements that are a prefix, a suffix, two runs, every node (empty
    window) or no node (full window), alone or mixed across floors: every
    split of the trimmed sweeps gives the plain product's pairing to 1e-13,
    and the gap probability its determinant ratio."""
    ens, _ = small_gap_chain()
    M, P = ens.floors, ens.space.size
    if complex_gauge:
        theta = np.random.default_rng(4).uniform(0.0, 2.0 * np.pi, (M, P))
        ens = gauged(ens, theta)
    assert ens.dtype == (np.complex128 if complex_gauge else np.float64)
    i = np.arange(P)
    masks = {
        "prefix": [i >= k for k in (22, 23, 24, 22)],
        "suffix": [i < k for k in (17, 16, 16, 17)],
        "two runs": [(i >= a) & (i < b)
                     for a, b in ((19, 21), (20, 21), (18, 20), (21, 23))],
        "everything": [i < 0] * M,
        "nothing": [i >= 0] * M,
        "mixed": [i >= 23, i < 16, (i >= 19) & (i < 21), i < 0],
        "mixed, one floor full": [i >= 23, i >= 0, i < 16, i < 0],
    }
    full = plain_pairing(ens, [ens.space.weights] * M)
    for name, family in masks.items():
        wf = WindowFamily(tuple(map(ens.space.window, family)))
        weights = wf.complement_weights()
        ref = plain_pairing(ens, weights)
        for split in range(1, M + 1):
            left, right = pairing_halves(ens.tables, weights, split)
            got = left @ right.T
            assert got.dtype == ens.dtype
            assert (np.abs(got - ref).max()
                    <= 1e-13 * np.abs(ref).max()), (name, split)
        fred = fredholm_det(restrict(correlation_kernel(ens), wf))
        if not np.any(ref):
            assert fred == 0 and np.array_equal(got, ref), name
            with pytest.raises(SingularOperatorError):
                janossy_kernel_explicit(ens, wf)
            continue
        expect = np.linalg.det(ref) / np.linalg.det(full)
        assert abs(fred - expect) <= 1e-13 * abs(expect), name
        assert janossy_kernel_explicit(ens, wf).const == fred


def test_batched_pairing_halves_trim_to_the_union_of_supports():
    """Weights with batch axes, as ``count_distribution`` builds them, on
    top of complement weights: each half spans the nodes where some batch
    entry's weight is nonzero (the first entry, z = 0, reaches fewer),
    and every batch entry's pairing is its plain product chain's."""
    ens, wf = small_gap_chain()
    M, P = ens.floors, ens.space.size
    z = np.exp(2j * np.pi * np.arange(3) / 3)
    z[0] = 0.0
    # rows[l][k]: floor l+1's weights at batch index k
    rows = [wc * np.where(np.arange(P) >= k, z[:, None], 1.0)
            for wc, k in zip(wf.complement_weights(), (5, 8, 3, 10))]
    weights = [r.reshape((1,) * l + (3,) + (1,) * (M - l - 1) + (P,))
               for l, r in enumerate(rows)]
    for split in range(1, M + 1):
        left, right = pairing_halves(ens.tables, weights, split)
        nz = np.flatnonzero(wf.complement_weights()[split - 1])
        assert left.shape[-1] == right.shape[-1] == nz[-1] - nz[0] + 1 < P
        got = np.einsum("...ip,...jp->...ij", left, right)
        assert got.shape == (3,) * M + (ens.n, ens.n)
        for idx in itertools.product(range(3), repeat=M):
            ref = plain_pairing(ens, [r[k] for r, k in zip(rows, idx)])
            assert np.abs(got[idx] - ref).max() <= 1e-13 * np.abs(ref).max()


def test_gap_chain_transfers_hold_no_subnormal_floats():
    """Far-apart nodes of the heat-kernel transfers are exact zeros, never
    subnormal; every other entry is the plain Gaussian's."""
    ens, _ = gap_chain()
    tiny = np.finfo(float).tiny
    times, x = np.linspace(0.0, 1.0, 10), ens.space.nodes
    for l, g in enumerate(ens.g, start=1):
        dt = float(times[l + 1]) - float(times[l])
        plain = (np.exp(-((x[None, :] - x[:, None]) ** 2) / (2.0 * dt))
                 / np.sqrt(2.0 * np.pi * dt))
        normal = plain >= tiny
        assert np.any(plain[~normal] > 0)
        assert np.array_equal(g[normal], plain[normal])
        assert np.all(g[~normal] == 0.0)
    for a in (ens.f, ens.phi, *ens.g):
        assert np.all((a == 0.0) | (np.abs(a) >= tiny))


def test_gap_chain_tables_and_fredholm_allocate_less_than_one_transfer():
    """Building the ensemble and one Fredholm determinant each allocate
    less than one P x P float64 array at their peak: no product g_{l,m} is
    stored, and the determinant sweeps n x P rows down the chain."""
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


def test_restricted_biorthogonal_kernel_matches_the_dense_determinant():
    """The biorthogonal kernel keeps one-floor tables paired to I, so its
    restriction's Fredholm determinant det(ftilde W' phitilde^T) equals
    det(Id - L_J) of the gathered restriction and the explicit Janossy
    kernel's, for windows J inside, across and outside the window I."""
    ens = build_random(15, 5, 2, 1)
    window = ens.space.window([True, True, False, False, False])
    recipe = biorthogonal_janossy_recipe(ens, window)[1]
    explicit = janossy_kernel_explicit(ens, WindowFamily((window,))).kernel
    for mask in ([False] * 5, [True, False, False, False, False],
                 [True, True, False, False, False],
                 [False, True, True, False, False],
                 [False, False, False, True, False]):
        wf = WindowFamily((ens.space.window(mask),))
        op = restrict(recipe, wf)
        det = fredholm_det(op)
        assert abs(det - dense_fredholm(op)) <= 1e-12
        assert abs(det - fredholm_det(restrict(explicit, wf))) <= 1e-12
    assert recipe.tables.g == () and np.array_equal(
        recipe.tables.gram, np.eye(ens.n))


def test_resolvent_matches_explicit_window_kernel():
    ens = build_random(12, 5, 2, 2)
    kernel = correlation_kernel(ens)
    wf = WindowFamily((ens.space.window([True, True, False, False, False]),
                       ens.space.window([False, False, False, True, True])))
    op = restrict(kernel, wf)
    res = resolvent_kernel(op)
    jk = janossy_kernel_explicit(ens, wf)
    assert res.shape == (4, 4)
    assert np.allclose(res, jk.kernel.matrix_at(op.index), atol=1e-10)


def test_resolvent_of_empty_windows_is_the_zero_operator():
    """Restricting to nothing leaves nothing to resolve: a 0 x 0 array."""
    ens = build_random(12, 4, 2, 2)
    kernel = correlation_kernel(ens)
    wf = WindowFamily(tuple(ens.space.empty_window() for _ in range(2)))
    res = resolvent_kernel(restrict(kernel, wf))
    assert res.shape == (0, 0) and res.dtype == ens.dtype


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
    wf = WindowFamily(tuple(ens.space.window([True, False, False, False])
                            for _ in range(2)))
    jk = janossy_kernel_explicit(ens, wf)
    with pytest.raises(ValueError):
        correlation_function(jk.kernel, [(1, 0)])
    with pytest.raises(ValueError):
        resolvent_kernel(restrict(jk.kernel, wf))


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
        assert val == kernel.blocks[l - 1, m - 1, x, y]
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
    assert complex(val[0], val[1]) == kernel.blocks[0, 1, 0, 2]
    json.dumps(doc)  # must be serializable as-is


def test_restrict_matrix_at_and_resolvent_agree_through_rows():
    """restrict and matrix_at gather the rows of the window points, bit for
    bit, and the resolvent unscales by the same rows' sqrt-weights."""
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
    sym = op.matrix @ np.linalg.inv(np.eye(op.size) - op.matrix)
    assert res.dtype == op.matrix.dtype
    assert np.allclose(res * (sw[:, None] * sw[None, :]), sym, rtol=0,
                       atol=1e-12 * np.abs(sym).max())


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
    assert kernel.matrix_at([(3, 1), (1, 3)])[0, 1] == 7.0


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
        "resolvent": resolvent_kernel(op),
        "janossy kernel": janossy_kernel_explicit(ens, wf).kernel.blocks,
    }
    assert ens.dtype == np.float64
    assert {k: a.dtype for k, a in arrays.items()} == dict.fromkeys(
        arrays, np.dtype(np.float64))
