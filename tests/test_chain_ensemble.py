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

from janossy_kit.chain_ensemble import (
    ChainEnsemble,
    chain_convolve,
    left_convolve,
    marginal_ensemble,
    pairing_halves,
    partition_function,
    right_convolve,
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
        for m in range(l + 1, ens.floors + 1):
            got = chain_convolve(ens, l, m)
            assert np.allclose(got, naive_chain(ens, l, m), atol=1e-13)


def test_chain_convolve_returns_a_fresh_array():
    """The sweep from floor l starts at the transfer g_l itself, so an
    adjacent product must come back as a copy: writing to it leaves the
    ensemble and every kernel built from it unchanged."""
    ens = small_ensemble(M=3)
    g_before = [gl.copy() for gl in ens.g]
    matrix_before = correlation_kernel(ens).matrix.copy()
    for l in range(1, ens.floors):
        chain_convolve(ens, l, l + 1)[...] = 7.0
    assert all(map(np.array_equal, ens.g, g_before))
    assert np.array_equal(correlation_kernel(ens).matrix, matrix_before)


def test_chain_convolution_vanishes_at_or_below_diagonal():
    ens = small_ensemble(M=3)
    for l in range(1, 4):
        for m in range(1, l + 1):
            assert np.all(chain_convolve(ens, l, m) == 0)


def test_left_and_right_convolutions_match_naive_sums():
    ens = small_ensemble(M=3)
    w = ens.space.weights
    # left: f_j carried from floor 1 up to floor m
    for m in range(2, 4):
        expect = ens.f.astype(complex)
        for j in range(1, m):
            expect = (expect * w[None, :]) @ ens.g[j - 1]
        for j in range(1, ens.n + 1):
            got = left_convolve(ens, j, m)
            assert np.allclose(got, expect[j - 1], atol=1e-13)
    # right: phi_k carried from floor M down to floor l
    for l in range(1, 3):
        expect = ens.phi.astype(complex)
        for j in range(ens.floors - 1, l - 1, -1):
            expect = (expect * w[None, :]) @ ens.g[j - 1].T
        for k in range(1, ens.n + 1):
            got = right_convolve(ens, k, l)
            assert np.allclose(got, expect[k - 1], atol=1e-13)


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
    a floor's weight or transfer gives another matrix."""
    ens = small_ensemble(M=4)
    if dtype == np.complex128:
        phase = np.exp(2j * np.pi * np.random.default_rng(8).uniform(
            size=(ens.floors + 1, ens.space.size)))
        ens = ChainEnsemble(ens.space, ens.f * phase[0], ens.phi * phase[-1],
                            [g * phase[l + 1] for l, g in enumerate(ens.g)])
    masks = [[True, False, False, False], [False, True, True, False],
             [False, False, False, True], [True, False, True, False]]
    wf = WindowFamily(tuple(ens.space.window(m) for m in masks))
    for weights, gram in [([ens.weights] * 4, ens.tables.gram),
                          (wf.complement_weights(),
                           complement_tables(ens, wf).gram)]:
        assert gram.dtype == dtype
        for split in range(1, 5):
            left, right = pairing_halves(ens, weights, split)
            assert left.shape == right.shape == (ens.n, ens.space.size)
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
    P, n, M = ens.space.size, ens.n, ens.floors
    w = ens.space.weights
    total = 0.0 + 0.0j
    for config in itertools.product(range(P), repeat=n * M):
        floors = [config[l * n:(l + 1) * n] for l in range(M)]
        val = np.linalg.det(ens.f[:, floors[0]])
        val *= np.linalg.det(ens.phi[:, floors[-1]])
        for l in range(M - 1):
            val *= np.linalg.det(ens.g[l][np.ix_(floors[l], floors[l + 1])])
        for tup in floors:
            val *= np.prod(w[list(tup)])
        total += val
    return total


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


def test_floor_and_function_index_checks():
    ens = small_ensemble()
    assert ens.check_floor(1) == 1
    assert ens.check_floor(ens.floors) == ens.floors
    with pytest.raises(ValueError):
        ens.check_floor(0)
    with pytest.raises(ValueError):
        ens.check_floor(ens.floors + 1)
    with pytest.raises(ValueError):
        ens.check_function(0)
    with pytest.raises(ValueError):
        ens.check_function(ens.n + 1)
