"""Window statistics: densities, counts, extremes; the Janossy kernel
against the biorthogonal reference recipe of conftest."""

from __future__ import annotations

import gc
import itertools
import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import biorthogonal_janossy_recipe, gauged
from janossy_kit.chain_ensemble import (
    ChainEnsemble,
    marginal_ensemble,
    partition_function,
)
from janossy_kit import chain_ensemble, janossy
from janossy_kit.errors import BudgetExceededError, SingularOperatorError
from janossy_kit.janossy import (
    count_distribution,
    count_probability,
    janossy_density,
    janossy_kernel_explicit,
    kth_extreme_distribution,
)
from janossy_kit.kernels import (
    correlation_function,
    correlation_kernel,
    fredholm_det,
    restrict,
)
from janossy_kit.measure_space import (
    WindowFamily,
    make_discrete,
    make_quadrature,
)
from janossy_kit.models import (
    build_coupled_chain,
    build_model,
    build_random,
    build_unitary,
)
from janossy_kit.oracle import (
    brute_count_probability,
    brute_janossy,
    enumerate_density,
)
from janossy_kit.verify import count_vectors, point_grid


def windows_2x4() -> tuple:
    ens = build_random(12, 4, 2, 2)
    wf = WindowFamily((ens.space.window([True, True, False, False]),
                       ens.space.window([False, False, True, True])))
    return ens, wf


def test_janossy_density_matches_brute_sums():
    ens, wf = windows_2x4()
    dist = enumerate_density(ens)
    jk = janossy_kernel_explicit(ens, wf)
    point_sets = [
        [],
        [(1, 0)],
        [(2, 3)],
        [(1, 0), (1, 1)],
        [(1, 1), (2, 2)],
        [(1, 0), (1, 1), (2, 2), (2, 3)],
    ]
    for points in point_sets:
        closed = janossy_density(jk, points)
        brute = brute_janossy(dist, wf, points)
        assert closed == pytest.approx(brute, abs=1e-11)
    # the janossy suite's point grid, one count vector at a time: each oracle
    # entry is brute_janossy and each batched determinant is the determinant of
    # the Janossy kernel at that entry's point set
    inside = [w.node_indices for w in wf.windows]
    outside = [np.flatnonzero(m) for m in ~wf.masks]
    for counts in count_vectors(ens.n, ens.floors, ens.n * ens.floors):
        oracle, dets = point_grid(dist, [counts], inside, outside,
                                  lambda: jk.kernel.matrix)
        floors = [l for l, k in enumerate(counts, start=1) for _ in range(k)]
        sets = [list(zip(floors, map(int, xs))) for xs in
                itertools.product(*(inside[l - 1] for l in floors))]
        assert oracle.shape == dets.shape == (len(sets),)
        for a, d, points in zip(oracle, dets, sets):
            b = brute_janossy(dist, wf, points)
            assert abs(a - b) <= 1e-14 * max(abs(a), abs(b))
            assert d == np.linalg.det(jk.kernel.matrix_at(points))


def test_one_point_values_are_the_kernel_entries():
    """A 1 x 1 determinant is its entry, bit for bit: the one-point
    correlation is the diagonal kernel entry and the one-point Janossy
    density is const times the Janossy kernel's entry."""
    ens, wf = windows_2x4()
    kernel = correlation_kernel(ens)
    jk = janossy_kernel_explicit(ens, wf)
    P = ens.space.size
    for floor in (1, 2):
        for x in range(P):
            r = (floor - 1) * P + x
            assert (correlation_function(kernel, [(floor, x)])
                    == kernel.matrix[r, r])
            if wf.window(floor).mask[x]:
                assert (janossy_density(jk, [(floor, x)])
                        == jk.const * jk.kernel.matrix[r, r])


def test_janossy_empty_point_set_is_the_all_empty_probability():
    ens, wf = windows_2x4()
    jk = janossy_kernel_explicit(ens, wf)
    kernel = correlation_kernel(ens)
    det = fredholm_det(restrict(kernel, wf))
    assert janossy_density(jk, []) == pytest.approx(jk.const, abs=1e-14)
    assert jk.const == pytest.approx(det, abs=1e-11)


def test_janossy_density_validates_points():
    ens, wf = windows_2x4()
    jk = janossy_kernel_explicit(ens, wf)
    with pytest.raises(ValueError):
        janossy_density(jk, [(1, 2)])      # outside floor-1 window
    with pytest.raises(ValueError):
        janossy_density(jk, [(1, 0)] * 3)  # more than n points on a floor


def test_janossy_density_checks_its_points_once(monkeypatch):
    """One check_points call per density, inside check_window_points."""
    ens, wf = windows_2x4()
    jk = janossy_kernel_explicit(ens, wf)
    calls = []
    check = ChainEnsemble.check_points

    def counting(self, points):
        calls.append(points)
        return check(self, points)

    monkeypatch.setattr(ChainEnsemble, "check_points", counting)
    for points in ([], [(1, 0)], [(1, 1), (2, 2)]):
        calls.clear()
        value = janossy_density(jk, points)
        assert len(calls) == 1
        assert value == complex(
            jk.const * scipy.linalg.det(jk.kernel.matrix_at(points)))


def test_janossy_kernel_rejects_full_windows():
    ens = build_random(12, 4, 2, 2)
    wf = WindowFamily(tuple(ens.space.full_window() for _ in range(2)))
    with pytest.raises(SingularOperatorError) as err:
        janossy_kernel_explicit(ens, wf)
    assert "complement" in str(err.value)


def test_janossy_kernel_is_built_on_first_read_only(complement_builds):
    builds = complement_builds
    ens, wf = windows_2x4()
    jk = janossy_kernel_explicit(ens, wf)
    assert len(builds) == 0
    kernel = jk.kernel
    assert len(builds) == 1
    assert jk.kernel is kernel
    assert len(builds) == 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), P=st.integers(2, 7),
       n=st.integers(1, 3), M=st.integers(1, 4), data=st.data())
def test_sweep_gram_is_the_complement_tables_gram(seed, P, n, M, data):
    """A^c from the pairing sweep equals the complement tables' gram bit
    for bit, and const is its determinant ratio to A."""
    assume(n <= P)
    ens = build_random(seed, P, n, M)
    masks = [data.draw(st.lists(st.booleans(), min_size=P, max_size=P))
             for _ in range(M)]
    wf = WindowFamily(tuple(ens.space.window(m) for m in masks))
    try:
        jk = janossy_kernel_explicit(ens, wf)
    except SingularOperatorError:
        return
    gram = janossy.complement_tables(ens, wf).gram
    assert np.array_equal(chain_ensemble.window_pairing(ens.tables, wf)[0],
                          gram)
    assert jk.const == janossy._det_ratio(gram, ens.tables)


def test_full_windows_raise_before_anything_is_built(complement_builds):
    ens = build_random(12, 4, 2, 2)
    wf = WindowFamily(tuple(ens.space.full_window() for _ in range(2)))
    with pytest.raises(SingularOperatorError,
                       match=r"^complement pairing matrix is numerically "
                             r"singular .*; windows: "):
        janossy_kernel_explicit(ens, wf)
    assert complement_builds == []


def test_singular_gates_name_the_windows_only_when_they_raise(monkeypatch):
    """The window description is formatted when a gate refuses, never when
    it passes, and the refusal still names every floor's window."""
    described = []
    describe = WindowFamily.describe
    monkeypatch.setattr(WindowFamily, "describe",
                        lambda wf: described.append(wf) or describe(wf))
    ens, wf = windows_2x4()
    janossy_kernel_explicit(ens, wf)
    restrict(correlation_kernel(ens), wf).gate
    assert described == []
    full = WindowFamily(tuple(ens.space.full_window() for _ in range(2)))
    names = "windows: floor 1: 4/4 nodes; floor 2: 4/4 nodes"
    with pytest.raises(SingularOperatorError) as err:
        janossy_kernel_explicit(ens, full)
    assert str(err.value).startswith("complement pairing matrix is "
                                     "numerically singular")
    assert str(err.value).endswith("; " + names)
    with pytest.raises(SingularOperatorError) as err:
        restrict(correlation_kernel(ens), full).gate
    assert str(err.value).startswith("Id - restricted kernel is "
                                     "numerically singular")
    assert str(err.value).endswith("; " + names)
    assert described == [full, full]


def test_ill_conditioned_complement_keeps_its_warning():
    """Nearly dependent rows on the window complement: the complement gate
    warns, and the kernel built later carries the same line."""
    space = make_discrete([0.0, 1.0, 2.0, 3.0], [1.0] * 4)
    f = [[1.0, 1.0, 0.0, 1.0], [1.0, 1.0 + 1e-8, 1.0, 0.0]]
    phi = [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]
    ens = ChainEnsemble(space, f, phi)
    wf = WindowFamily((space.window([False, False, True, True]),))
    jk = janossy_kernel_explicit(ens, wf)
    rcond = 1.0 / np.linalg.cond(janossy.complement_tables(ens, wf).gram)
    assert jk.warnings == (
        f"complement pairing matrix: rcond {rcond:.3e} below warning "
        f"threshold 1e-06",)
    assert jk.kernel.warnings == jk.warnings


def test_each_pairing_matrix_is_gated_once(monkeypatch):
    """One condition number for A (ensemble plus correlation kernel) and
    one for A^c (closed-form Janossy kernel plus its first read)."""
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    # rcond_gate takes the singular values from np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", counting)
    ens, wf = windows_2x4()
    correlation_kernel(ens)
    assert calls == [(2, 2)]
    calls.clear()
    janossy_kernel_explicit(ens, wf).kernel
    assert calls == [(2, 2)]


def count_sweeps(monkeypatch) -> list[bool]:
    """Record every ``pairing_halves`` call: True for a batched sweep (the
    generating-function grid), False for a single pairing matrix."""
    calls = []
    halves = chain_ensemble.pairing_halves

    def counting(tables, weights, split):
        calls.append(any(np.ndim(w) > 1 for w in weights))
        return halves(tables, weights, split)

    monkeypatch.setattr(chain_ensemble, "pairing_halves", counting)
    monkeypatch.setattr(janossy, "pairing_halves", counting)
    return calls


def test_one_complement_pairing_per_window_family(monkeypatch):
    """The gap probability, the Janossy constant and kernel, and the
    all-empty count of one family share one complement pairing sweep and
    one read-only A^c; a new family with equal masks sweeps again."""
    calls = count_sweeps(monkeypatch)
    ens, wf = windows_2x4()
    fred = fredholm_det(restrict(correlation_kernel(ens), wf))
    jk = janossy_kernel_explicit(ens, wf)
    tables = jk.kernel.tables
    law = count_distribution(ens, wf)
    # one complement pairing, then the batched sweep of the count law
    assert calls == [False, True]
    assert fred == jk.const == law[(0, 0)]
    assert tables.gram is chain_ensemble.window_pairing(ens.tables, wf)[0]
    with pytest.raises(ValueError):
        tables.gram[0, 0] = 1.0
    calls.clear()
    again = WindowFamily(tuple(ens.space.window(w.mask) for w in wf.windows))
    assert janossy_kernel_explicit(ens, again).const == fred
    assert calls == [False]
    assert len(ens.tables.pairings) == 2


def test_pairing_memo_dies_with_its_window_family():
    ens, wf = windows_2x4()
    jk = janossy_kernel_explicit(ens, wf)
    fredholm_det(restrict(correlation_kernel(ens), wf))
    assert list(ens.tables.pairings) == [wf]
    del wf, jk
    gc.collect()
    assert len(ens.tables.pairings) == 0


def test_pairing_memo_under_concurrent_first_use():
    """Eight threads on fresh families at once, half by the Fredholm route
    and half by the Janossy route: a race may form a pairing twice, but
    every thread reads the bits of a single-threaded run, and each family
    keeps one entry."""
    def families(ens):
        rng = np.random.default_rng(5)
        return [WindowFamily(tuple(ens.space.window(rng.random(6) < 0.3)
                                   for _ in range(3))) for _ in range(12)]

    ref = build_random(40, 6, 2, 3)
    expect = [janossy_kernel_explicit(ref, wf).const for wf in families(ref)]
    ens = build_random(40, 6, 2, 3)
    wfs, kernel = families(ens), correlation_kernel(ens)
    got = [[] for _ in range(8)]
    barrier = threading.Barrier(len(got))

    def work(t):
        barrier.wait(timeout=10)
        for wf in wfs:
            got[t].append(fredholm_det(restrict(kernel, wf)) if t % 2 else
                          janossy_kernel_explicit(ens, wf).const)

    threads = [threading.Thread(target=work, args=(t,))
               for t in range(len(got))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == [expect] * len(got)
    assert len(ens.tables.pairings) == len(wfs)


def test_restricted_janossy_kernel_keys_its_own_tables(monkeypatch):
    """A restriction of a Janossy kernel pairs under its complement
    tables' weights, in those tables' memo, bit for bit a plain pairing
    and determinant ratio."""
    ens, wf = windows_2x4()
    jk = janossy_kernel_explicit(ens, wf)
    tables = jk.kernel.tables
    sub = WindowFamily((ens.space.window([True, False, False, False]),
                        ens.space.window([False, False, False, True])))
    calls = count_sweeps(monkeypatch)
    det = fredholm_det(restrict(jk.kernel, sub))
    assert calls == [False]
    assert list(tables.pairings) == [sub]
    assert list(ens.tables.pairings) == [wf]
    w = ens.space.weights
    left, right = chain_ensemble.pairing_halves(
        tables, [wl - w * win.mask for wl, win in zip(tables.weights,
                                                       sub.windows)], 2)
    pairing = left @ right.T
    assert det == complex(chain_ensemble._det_ratio(pairing, tables))
    assert np.array_equal(tables.pairings[sub][0], pairing)


def test_count_probability_matches_brute_and_closes():
    ens, wf = windows_2x4()
    dist = enumerate_density(ens)
    total = 0.0
    for counts in itertools.product(range(3), repeat=2):
        closed = count_probability(ens, wf, counts)
        brute = brute_count_probability(dist, wf, counts)
        assert closed == pytest.approx(brute, abs=1e-11)
        total += closed
    assert total == pytest.approx(1.0, abs=1e-10)


def test_count_probability_on_degenerate_windows():
    """Full and empty windows have certain counts, and singular complement
    pairing matrices must not break the counting route."""
    ens = build_random(9, 4, 2, 2)
    full = WindowFamily(tuple(ens.space.full_window() for _ in range(2)))
    assert count_probability(ens, full, (2, 2)) == pytest.approx(1.0, abs=1e-10)
    assert count_probability(ens, full, (0, 0)) == pytest.approx(0.0, abs=1e-10)
    assert count_probability(ens, full, (1, 2)) == pytest.approx(0.0, abs=1e-10)
    empty = WindowFamily(tuple(ens.space.window([False] * 4)
                               for _ in range(2)))
    assert count_probability(ens, empty, (0, 0)) == pytest.approx(1.0, abs=1e-12)
    assert count_probability(ens, empty, (1, 0)) == 0.0


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5), st.integers(1, 2),
       st.integers(1, 3),
       st.lists(st.sampled_from(("full", "empty", "random")),
                min_size=3, max_size=3))
def test_count_distribution_matches_brute_on_random_chains(seed, P, n, M,
                                                            kinds):
    """Every entry of the generating-function law, and every impossible
    count beyond it, agrees with the enumeration oracle."""
    n = min(n, P)
    try:
        ens = build_random(seed, P, n, M)
    except SingularOperatorError:
        assume(False)
    # the oracle's own normalization loses digits on ill-conditioned draws
    assume(ens.gram_cond <= 1e4)
    rng = np.random.default_rng(seed)
    masks = []
    for kind in kinds[:M]:
        if kind == "random":
            masks.append(rng.random(P) < 0.5)
        else:
            masks.append(np.full(P, kind == "full"))
    wf = WindowFamily(tuple(ens.space.window(m) for m in masks))
    law = count_distribution(ens, wf)
    assert law.shape == (n + 1,) * M
    dist = enumerate_density(ens)
    for counts in itertools.product(range(n + 1), repeat=M):
        brute = brute_count_probability(dist, wf, counts)
        assert law[counts] == pytest.approx(brute, abs=1e-11)
        if any(c > m.sum() for c, m in zip(counts, masks)):
            assert law[counts] == 0.0


def test_count_distribution_on_many_floors_matches_marginals(monkeypatch):
    """Six floors put the meet-in-the-middle cut inside the chain.  Summed
    down to a pair of floors, the law must match the law of the marginal
    ensemble on that pair, computed without a cut; the all-empty entry must
    be the complement determinant ratio, bit for bit; chunking must change nothing;
    and a law larger than the budget must be refused."""
    # a positive chain, so |det A(z) / det A| <= 1 bounds the FFT error
    M = 6
    space = make_quadrature((-4.0, 4.0), 12)
    ens = build_coupled_chain(2, M, [[0.0, 0.0, 1.0]] * M, [0.3] * (M - 1),
                              space)
    wf = WindowFamily(tuple(space.window_from_intervals([(0.2 * l, None)])
                            for l in range(-2, M - 2)))
    law = count_distribution(ens, wf)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    assert law[(0,) * M] == janossy_kernel_explicit(ens, wf).const
    for pair in [(1, 6), (2, 4), (3, 5)]:
        others = tuple(a for a in range(M) if a + 1 not in pair)
        sub = WindowFamily(tuple(wf.windows[l - 1] for l in pair))
        expected = count_distribution(marginal_ensemble(ens, list(pair)), sub)
        np.testing.assert_allclose(law.sum(axis=others), expected,
                                   rtol=0, atol=1e-12)

    monkeypatch.setattr(janossy, "CHUNK_ENTRIES", 1)
    np.testing.assert_allclose(count_distribution(ens, wf), law,
                               rtol=0, atol=1e-14)
    with pytest.raises(BudgetExceededError):
        count_distribution(ens, wf, budget=3 ** M - 1)


def test_all_empty_count_keeps_relative_accuracy_in_the_tail():
    """GUE, n = 10, window [0, inf): p_0, the probability that every
    particle lies below 0, is about 1e-25, far below the FFT's absolute
    rounding of about 1e-16.  By the reflection x -> -x it equals
    p_n = det A_I / det A, the pairing over the window alone.  Both are
    ratios of half-line pairing determinants with condition number about
    1e10, so they agree to a small multiple of cond * eps.  A full window
    has p_0 exactly 0."""
    n, space = 10, make_quadrature((-8.0, 8.0), 120)
    ens = build_unitary([0.0, 0.0, 1.0], n, space)
    window = space.window_from_intervals([(0.0, None)])
    law = count_distribution(ens, WindowFamily((window,)))
    a_in = (ens.f * (space.weights * window.mask)) @ ens.phi.T
    p_n = janossy._det_ratio(a_in, ens.tables)
    assert 1e-27 < p_n.real < 1e-23
    bound = 10.0 * np.finfo(float).eps * np.linalg.cond(a_in)
    assert bound < 1e-4
    assert abs(law[0] / p_n - 1.0) <= bound
    full = WindowFamily((space.full_window(),))
    assert count_distribution(ens, full)[0] == 0.0


def test_count_probability_validates_count_vector():
    """Two floors of two particles: a short vector, a negative entry, an
    entry above n and a non-integer entry are refused by the closed form
    and by the oracle alike."""
    ens, wf = windows_2x4()
    dist = enumerate_density(ens)
    for counts in [(1,), (-1, 0), (3, 0), (1.5, 0)]:
        with pytest.raises(ValueError, match="counts"):
            count_probability(ens, wf, counts)
        with pytest.raises(ValueError, match="counts"):
            brute_count_probability(dist, wf, counts)


def gaussian_ensemble(n=2, order=48):
    space = make_quadrature((-6.0, 6.0), order)
    return build_unitary([0.0, 0.0, 0.5], n, space)


def test_kth_extreme_matches_gap_route_for_k1():
    ens = gaussian_ensemble()
    space = ens.space
    kernel = correlation_kernel(ens)
    grid = [-1.0, 0.0, 1.0, 2.0]
    curve = kth_extreme_distribution(ens, 1, 1, grid)
    for pt in curve:
        wf = WindowFamily((space.window(space.nodes >= pt.s),))
        gap = fredholm_det(restrict(kernel, wf)).real
        assert pt.cdf == pytest.approx(gap, abs=1e-10)
        assert pt.prob_ge == pytest.approx(1.0 - gap, abs=1e-10)


def test_kth_extreme_curves_are_monotone_and_ordered():
    ens = gaussian_ensemble()
    grid = np.linspace(-2.0, 3.0, 11)
    first = kth_extreme_distribution(ens, 1, 1, grid)
    second = kth_extreme_distribution(ens, 1, 2, grid)
    cdf1 = [pt.cdf for pt in first]
    cdf2 = [pt.cdf for pt in second]
    # cdfs increase in s; the largest particle dominates the second largest
    assert all(b >= a - 1e-10 for a, b in zip(cdf1, cdf1[1:]))
    assert all(b >= a - 1e-10 for a, b in zip(cdf2, cdf2[1:]))
    assert all(c2 >= c1 - 1e-10 for c1, c2 in zip(cdf1, cdf2))


def test_kth_extreme_telescopes_through_count_probabilities():
    """Pr(kth largest >= s) - Pr((k+1)th >= s) = Pr(exactly k above s)."""
    ens = gaussian_ensemble()
    grid = [-0.5, 0.5, 1.5]
    first = kth_extreme_distribution(ens, 1, 1, grid)
    second = kth_extreme_distribution(ens, 1, 2, grid)
    for p1, p2 in zip(first, second):
        p_exactly_1 = p1.count_probs[1] if len(p1.count_probs) > 1 else None
        # count_probs holds Pr(# above s = j) for j = 0..k
        diff = p1.prob_ge - p2.prob_ge
        assert diff == pytest.approx(p2.count_probs[1], abs=1e-10)
        if p_exactly_1 is not None:
            assert p1.count_probs[0] == pytest.approx(
                p2.count_probs[0], abs=1e-12)


def test_kth_extreme_tails_are_summed_from_the_law():
    """docs/configs/bridge-extremes.json: at s = -1 the largest path's cdf
    (about 1e-8) is p_0 itself, not 1 - (1 - p_0); at s = 3 Pr(largest
    >= s) (about 2.5e-5) is the sum of the law's j >= 1 entries."""
    config = Path(__file__).parent.parent / "docs" / "configs" / \
        "bridge-extremes.json"
    ens = build_model(json.loads(config.read_text())["model"])
    low, high = kth_extreme_distribution(ens, 1, 1, [-1.0, 3.0])
    assert 0.0 < low.count_probs[0] < 1e-7
    assert low.cdf == low.count_probs[0]
    marg = marginal_ensemble(ens, [1])
    law = count_distribution(marg, WindowFamily(
        (marg.space.window_from_intervals([(3.0, None)]),)))
    assert high.prob_ge == math.fsum(law.real[1:])
    assert high.cdf == high.count_probs[0]


def test_kth_extreme_validates_floor_and_k():
    ens = gaussian_ensemble()
    with pytest.raises(ValueError):
        kth_extreme_distribution(ens, 2, 1, [0.0])
    with pytest.raises(ValueError):
        kth_extreme_distribution(ens, 1, 0, [0.0])
    with pytest.raises(ValueError):
        kth_extreme_distribution(ens, 1, 3, [0.0])


def test_kth_extreme_rejects_non_integer_k():
    ens = gaussian_ensemble()
    for k in (2.7, 1.0, True, np.float64(1.0)):
        with pytest.raises(ValueError):
            kth_extreme_distribution(ens, 1, k, [0.0])
    assert (kth_extreme_distribution(ens, 1, np.int64(2), [0.0])
            == kth_extreme_distribution(ens, 1, 2, [0.0]))


def test_kth_extreme_on_multi_floor_marginalizes():
    ens = build_random(6, 5, 2, 3)
    curve = kth_extreme_distribution(ens, 2, 1, [float(ens.space.nodes[2])])
    # the same quantity from the single-floor marginal directly
    marg = marginal_ensemble(ens, [2])
    wf = WindowFamily((marg.space.window(
        marg.space.nodes >= ens.space.nodes[2]),))
    gap = fredholm_det(restrict(correlation_kernel(marg), wf)).real
    assert curve[0].cdf == pytest.approx(gap, abs=1e-12)


def test_biorthogonal_recipe_matches_explicit_route():
    ens = build_random(15, 5, 2, 1)
    window = ens.space.window([True, True, False, False, False])
    wf = WindowFamily((window,))
    const, kernel = biorthogonal_janossy_recipe(ens, window)
    explicit = janossy_kernel_explicit(ens, wf)
    idx = window.node_indices
    a = kernel.blocks[0, 0][np.ix_(idx, idx)]
    b = explicit.kernel.blocks[0, 0][np.ix_(idx, idx)]
    assert np.allclose(a, b, atol=1e-11)
    assert const == pytest.approx(explicit.const, rel=1e-11)


def test_correlation_kernel_matches_hermite_projection():
    """The Gaussian-weight correlation kernel is the classical projection
    onto the first n weighted Hermite functions."""
    n, order = 4, 64
    space = make_quadrature((-8.0, 8.0), order)
    ens = build_unitary([0.0, 0.0, 1.0], n, space)  # weight exp(-x^2)
    kernel = correlation_kernel(ens).blocks[0, 0].real
    x = space.nodes
    hermite = np.zeros((n, order))
    for j in range(n):
        coeffs = [0.0] * j + [1.0]
        norm = math.sqrt(2.0 ** j * math.factorial(j) * math.sqrt(math.pi))
        hermite[j] = (np.polynomial.hermite.hermval(x, coeffs)
                      * np.exp(-x * x / 2.0) / norm)
    projection = hermite.T @ hermite
    assert np.max(np.abs(kernel - projection)) < 1e-8


def test_kth_extreme_at_k_equal_n_with_twenty_particles():
    """The n-th largest of n = 20 particles is the smallest: its curve is
    the law of the count above s, closed at every point, nondecreasing,
    with Pr(no particle above s) the Fredholm gap probability."""
    n = 20
    ens = build_unitary([0.0, 0.0, 0.5], n, make_quadrature((-10.0, 10.0), 80))
    kernel = correlation_kernel(ens)
    curve = kth_extreme_distribution(ens, 1, n, np.linspace(-9.0, 9.0, 19))
    for pt in curve:
        assert len(pt.count_probs) == n + 1
        assert sum(pt.count_probs) == pytest.approx(1.0, abs=1e-12)
        assert pt.prob_ge == pytest.approx(pt.count_probs[n], abs=1e-12)
        window = ens.space.window_from_intervals([(pt.s, None)])
        gap = fredholm_det(restrict(kernel, WindowFamily((window,))))
        assert pt.count_probs[0] == pytest.approx(gap.real, abs=1e-12)
    cdfs = [pt.cdf for pt in curve]
    assert all(b >= a - 1e-12 for a, b in zip(cdfs, cdfs[1:]))


def test_complex_gauge_runs_complex_and_changes_no_probability():
    """A complex-gauged random ensemble stays complex128 throughout and
    matches the real one to 1e-12 scaled on every gauge-free quantity.

    The two differ by rounding of order cond(A) eps, so the draw is a
    well-conditioned one."""
    ens = build_random(27, 5, 2, 3)
    assert ens.gram_cond < 1e3
    theta = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, (3, 5))
    cplx = gauged(ens, theta)
    wf = WindowFamily((ens.space.window([True, False, False, True, False]),
                       ens.space.window([False, True, False, False, False]),
                       ens.space.window([False, False, True, False, True])))
    k_real, k_cplx = correlation_kernel(ens), correlation_kernel(cplx)
    jk_real, jk_cplx = (janossy_kernel_explicit(e, wf) for e in (ens, cplx))
    assert ens.dtype == np.float64 and cplx.dtype == np.complex128
    assert k_cplx.blocks.dtype == jk_cplx.kernel.blocks.dtype == np.complex128
    assert np.abs(k_cplx.blocks.imag).max() > 0.1

    pairs = [(partition_function(ens), partition_function(cplx)),
             (fredholm_det(restrict(k_real, wf)),
              fredholm_det(restrict(k_cplx, wf))),
             (jk_real.const, jk_cplx.const)]
    all_points = list(itertools.product(range(1, 4), range(5)))
    for points in itertools.combinations(all_points, 2):
        pairs.append((correlation_function(k_real, points),
                      correlation_function(k_cplx, points)))
    inside = [(l, x) for l, win in enumerate(wf.windows, start=1)
              for x in win.node_indices]
    for points in itertools.combinations(inside, 2):
        pairs.append((janossy_density(jk_real, points),
                      janossy_density(jk_cplx, points)))
    pairs.extend(zip(count_distribution(ens, wf).ravel(),
                     count_distribution(cplx, wf).ravel()))
    for a, b in pairs:
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
