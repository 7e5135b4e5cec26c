"""Convolution tables, pairing matrices, and the partition function.

The reference implementations here are deliberately naive (explicit sums and
itertools enumeration) so that every table and product is checked against an
expression a reader can verify by hand.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import configuration_masses
from janossy_kit.chain_ensemble import (
    ChainEnsemble,
    chain_sweep,
    marginal_ensemble,
    pairing_halves,
    partition_function,
    rcond_gate,
)
from janossy_kit.errors import SingularOperatorError
from janossy_kit.janossy import complement_tables
from janossy_kit.kernels import correlation_kernel
from janossy_kit.measure_space import WindowFamily, make_discrete
from janossy_kit.models import build_random


def small_ensemble(seed=5, P=4, n=2, M=3) -> ChainEnsemble:
    return build_random(seed, P, n, M)


def naive_chain(ens: ChainEnsemble, l: int, m: int) -> np.ndarray:
    """g_{l,m} by summing over all intermediate floors, no caching."""
    w = ens.space.weights
    out = ens.g[l - 1].astype(complex)
    for j in range(l + 1, m):
        out = (out * w[None, :]) @ ens.g[j - 1]
    return out


def test_chain_convolution_matches_naive_composition():
    ens = small_ensemble(M=4)
    for l in range(1, ens.floors):
        for m, got in enumerate(chain_sweep(ens.tables, l), start=l + 1):
            assert np.allclose(got, naive_chain(ens, l, m), atol=1e-13)


def test_marginal_ensemble_copies_its_transfers():
    """The sweep from floor l starts at the transfer g_l itself, and the
    tables' left[0].T and right[-1].T are the parent's f and phi, so the
    marginal must keep copies: writing to its f, phi and transfers leaves
    the parent, its tables and every kernel built from it unchanged."""
    ens = small_ensemble(M=3)
    t = ens.tables
    parent = [ens.f, ens.phi, *ens.g, *t.left, *t.right]
    before = [a.copy() for a in parent]
    matrix_before = correlation_kernel(ens).matrix.copy()
    for floors in ([1, 2, 3], [1, 3], [2], [3]):
        marg = marginal_ensemble(ens, floors)
        assert np.array_equal(marg.f, t.left[floors[0] - 1].T)
        assert np.array_equal(marg.phi, t.right[floors[-1] - 1].T)
        for a in (marg.f, marg.phi, *marg.g):
            assert not any(np.shares_memory(a, p) for p in parent)
            a[...] = 7.0
        assert all(map(np.array_equal, parent, before))
        assert np.array_equal(correlation_kernel(ens).matrix, matrix_before)


def test_chain_convolution_vanishes_at_or_below_diagonal():
    """The sweep from floor l yields g_{l,m} for m = l+1..M only, and the
    kernel blocks at or below the diagonal are the rank-n part alone."""
    ens = small_ensemble(M=3)
    t = ens.tables
    for l in range(1, ens.floors):
        assert len(list(chain_sweep(t, l))) == ens.floors - l
    kernel = correlation_kernel(ens)
    inv = np.linalg.inv(t.gram)
    for l in range(1, 4):
        for m in range(1, l + 1):
            rank_n = t.right[l - 1] @ inv @ t.left[m - 1].T
            assert np.allclose(kernel.blocks[l - 1, m - 1], rank_n, rtol=0,
                               atol=1e-13)


def test_left_and_right_convolutions_match_naive_sums():
    """The tables hold f and phi themselves at their end floors, and the
    convolutions f_j * g_{1,m} and g_{l,M} * phi_k in between."""
    ens = small_ensemble(M=3)
    t, w = ens.tables, ens.space.weights
    for end, given in ((t.left[0].T, ens.f), (t.right[-1].T, ens.phi)):
        assert np.array_equal(end, given) and np.shares_memory(end, given)
    # left: f_j carried from floor 1 up to floor m
    for m in range(2, 4):
        expect = ens.f.astype(complex)
        for j in range(1, m):
            expect = (expect * w[None, :]) @ ens.g[j - 1]
        assert np.allclose(t.left[m - 1].T, expect, atol=1e-13)
    # right: phi_k carried from floor M down to floor l
    for l in range(1, 3):
        expect = ens.phi.astype(complex)
        for j in range(ens.floors - 1, l - 1, -1):
            expect = (expect * w[None, :]) @ ens.g[j - 1].T
        assert np.allclose(t.right[l - 1].T, expect, atol=1e-13)


def test_gram_matrix_is_full_chain_pairing():
    ens = small_ensemble(M=3)
    w = ens.space.weights
    g1m = naive_chain(ens, 1, 3)
    expect = (ens.f * w[None, :]) @ g1m @ (w[:, None] * ens.phi.T)
    assert np.allclose(ens.tables.gram, expect, atol=1e-12)


def test_single_floor_gram_has_no_couplings():
    ens = build_random(11, 5, 2, 1)
    w = ens.space.weights
    expect = (ens.f * w[None, :]) @ ens.phi.T
    assert np.allclose(ens.tables.gram, expect, atol=1e-13)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_pairing_halves_give_the_gram_at_every_split(dtype):
    """left @ right.T is A under the node weights and A^c under the
    complement weights, at every split 1..M: a sweep that skips or repeats
    a floor's weight or transfer gives another matrix.  Each half spans
    the split floor's weights from the first to the last nonzero one."""
    ens = small_ensemble(M=4)
    if dtype == np.complex128:
        phase = np.exp(2j * np.pi * np.random.default_rng(8).uniform(
            size=(ens.floors + 1, ens.space.size)))
        ens = ChainEnsemble(ens.space, ens.f * phase[0], ens.phi * phase[-1],
                            [g * phase[l + 1] for l, g in enumerate(ens.g)])
    masks = [[True, False, False, False], [False, True, True, False],
             [False, False, False, True], [True, False, True, False]]
    wf = WindowFamily(tuple(ens.space.window(m) for m in masks))
    for weights, gram in [([ens.space.weights] * 4, ens.tables.gram),
                          (wf.complement_weights(),
                           complement_tables(ens, wf).gram)]:
        assert gram.dtype == dtype
        for split in range(1, 5):
            left, right = pairing_halves(ens.tables, weights, split)
            nz = np.flatnonzero(weights[split - 1])
            assert left.shape == right.shape == (ens.n, nz[-1] - nz[0] + 1)
            got = left @ right.T
            assert got.dtype == dtype
            assert np.abs(got - gram).max() <= 1e-13 * np.abs(gram).max()
        assert np.array_equal(got, gram)


def test_complement_tables_restrict_each_integration():
    ens = build_random(3, 4, 2, 2)
    space = ens.space
    m1 = np.array([True, False, True, False])
    m2 = np.array([False, True, True, False])
    wf = WindowFamily((space.window(m1), space.window(m2)))
    w = space.weights
    # naive sum over the complement nodes of both floors
    outside = np.zeros((ens.n, ens.n), dtype=complex)
    for x in np.flatnonzero(~m1):
        for y in np.flatnonzero(~m2):
            outside += (w[x] * w[y] * ens.g[0][x, y]
                        * np.outer(ens.f[:, x], ens.phi[:, y]))
    assert np.allclose(complement_tables(ens, wf).gram, outside, atol=1e-13)


def brute_partition_function(ens: ChainEnsemble) -> complex:
    """Direct sum of the unnormalized density over all configurations."""
    return sum(mass for _, mass in configuration_masses(ens))


@pytest.mark.parametrize("seed,P,n,M", [(1, 3, 1, 1), (2, 3, 2, 1),
                                        (3, 3, 2, 2), (4, 2, 2, 3)])
def test_partition_function_equals_brute_sum(seed, P, n, M):
    ens = build_random(seed, P, n, M)
    z = partition_function(ens)
    assert z == pytest.approx(brute_partition_function(ens), rel=1e-10)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(2, 4))
def test_heine_identity_on_random_data(seed, n, P):
    """n-fold weighted sum of det*det equals n! times the pairing det."""
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(n, P))
    chi = rng.normal(size=(n, P))
    w = rng.uniform(0.1, 1.0, P)
    folded = 0.0
    for tup in itertools.product(range(P), repeat=n):
        idx = list(tup)
        folded += (np.linalg.det(psi[:, idx]) * np.linalg.det(chi[:, idx])
                   * np.prod(w[idx]))
    pairing = (psi * w[None, :]) @ chi.T
    assert folded == pytest.approx(
        math.factorial(n) * np.linalg.det(pairing), rel=1e-9, abs=1e-12)


def test_constructor_validates_shapes():
    space = make_discrete([0.0, 1.0, 2.0], [1.0] * 3)
    f = np.ones((2, 3))
    phi = np.ones((2, 3))
    with pytest.raises(ValueError):
        ChainEnsemble(space, f, np.ones((3, 3)))
    with pytest.raises(ValueError):
        ChainEnsemble(space, f, np.ones((2, 4)))
    with pytest.raises(ValueError):
        ChainEnsemble(space, f, phi, [np.ones((2, 3))])
    with pytest.raises(ValueError):
        ChainEnsemble(space, np.ones((4, 3)), np.ones((4, 3)))


def test_constructor_rejects_nonfinite_and_singular():
    space = make_discrete([0.0, 1.0, 2.0], [1.0] * 3)
    bad = np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        ChainEnsemble(space, bad, np.ones((2, 3)))
    # identical rows make the pairing matrix exactly singular
    f = np.ones((2, 3))
    phi = np.ones((2, 3))
    with pytest.raises(SingularOperatorError):
        ChainEnsemble(space, f, phi)


def test_pairing_matrix_gate_refuses_or_warns():
    """The pairing matrix A = diag(1, d) has condition number 1/d: the one
    rcond gate refuses d = 1e-14 and passes d = 1e-8 with one warning,
    which the correlation kernel carries unchanged."""
    space = make_discrete([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(SingularOperatorError,
                       match=r"^pairing matrix is numerically singular"):
        ChainEnsemble(space, np.diag([1.0, 1e-14]), np.eye(2))
    ens = ChainEnsemble(space, np.diag([1.0, 1e-8]), np.eye(2))
    assert ens.gram_cond == pytest.approx(1e8)
    assert len(ens.warnings) == 1
    assert ens.warnings == correlation_kernel(ens).warnings


def test_marginal_ensemble_preserves_gram_and_drops_floors():
    ens = small_ensemble(seed=8, M=3)
    marg = marginal_ensemble(ens, [2])
    assert marg.floors == 1
    assert np.allclose(marg.tables.gram, ens.tables.gram, atol=1e-12)
    pair = marginal_ensemble(ens, [1, 3])
    assert pair.floors == 2
    assert np.allclose(pair.tables.gram, ens.tables.gram, atol=1e-12)
    with pytest.raises(ValueError):
        marginal_ensemble(ens, [])
    with pytest.raises(ValueError):
        marginal_ensemble(ens, [3, 1])
    with pytest.raises(ValueError):
        marginal_ensemble(ens, [0])


def test_marginal_partition_function_scales_by_dropped_floors():
    """Z is (n!)^M det A; dropping floors keeps det A and loses n! factors."""
    ens = small_ensemble(seed=21, M=3)
    for floors in ([1], [2], [3], [1, 2], [2, 3], [1, 3]):
        marg = marginal_ensemble(ens, floors)
        scale = math.factorial(ens.n) ** (ens.floors - marg.floors)
        assert partition_function(marg) * scale == pytest.approx(
            partition_function(ens), rel=1e-12)


def test_floor_index_checks():
    ens = small_ensemble()
    assert ens.check_floor(1) == 1
    assert ens.check_floor(ens.floors) == ens.floors
    with pytest.raises(ValueError):
        ens.check_floor(0)
    with pytest.raises(ValueError):
        ens.check_floor(ens.floors + 1)


def test_rcond_gate_condition_number_is_numpys_bit_for_bit():
    """Real, complex and nearly dependent matrices: the gate's condition
    number is np.linalg.cond's to the last bit, returned or raised."""
    rng = np.random.default_rng(8)
    for k in range(90):
        n = 1 + k % 5
        a = rng.standard_normal((n, n))
        if k % 3 == 1:
            a = a + 1j * rng.standard_normal((n, n))
        elif k % 3 == 2:
            a[-1] = a[0] + 10.0 ** -rng.uniform(3.0, 15.0) * a[-1]
        expect = float(np.linalg.cond(a))
        try:
            cond, _ = rcond_gate(a, "m")
        except SingularOperatorError as exc:
            assert exc.rcond == 1.0 / expect
        else:
            assert cond == expect


def test_rcond_gate_warns_between_the_thresholds_and_raises_below():
    detail_calls = []

    def detail():
        detail_calls.append(1)
        return "where"

    assert rcond_gate(np.diag([1.0, 1e-3]), "m", detail) == (1e3, ())
    cond, warns = rcond_gate(np.diag([1.0, 1e-8]), "m", detail)
    assert cond == 1e8
    assert warns == ("m: rcond 1.000e-08 below warning threshold 1e-06",)
    assert not detail_calls
    for a, rcond in [(np.diag([1.0, 1e-13]), 1e-13),
                     (np.zeros((2, 2)), 0.0),
                     (np.zeros((3, 3), dtype=complex), 0.0)]:
        with pytest.raises(SingularOperatorError) as err:
            rcond_gate(a, "m", detail)
        assert err.value.rcond == pytest.approx(rcond, rel=1e-12, abs=0.0)
        assert str(err.value).endswith("; where")
    assert len(detail_calls) == 3
