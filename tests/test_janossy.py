"""Window statistics: densities, counts, extremes, biorthogonal recipe."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from janossy_kit.chain_ensemble import (
    ChainEnsemble,
    marginal_ensemble,
    partition_function,
)
from janossy_kit import janossy
from janossy_kit.errors import BudgetExceededError, SingularOperatorError
from janossy_kit.janossy import (
    biorthogonal_janossy_recipe,
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
    build_random,
    build_unitary,
)
from janossy_kit.oracle import (
    brute_count_probability,
    brute_janossy,
    enumerate_density,
)


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
    assert np.array_equal(jk.gram, gram)
    assert jk.const == janossy._det_ratio(gram, ens.tables.gram)


def test_full_windows_raise_before_anything_is_built(complement_builds):
    ens = build_random(12, 4, 2, 2)
    wf = WindowFamily(tuple(ens.space.full_window() for _ in range(2)))
    with pytest.raises(SingularOperatorError,
                       match=r"^complement pairing matrix is numerically "
                             r"singular .*; windows: "):
        janossy_kernel_explicit(ens, wf)
    assert complement_builds == []


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
    cond = np.linalg.cond

    def counting(a, *args):
        calls.append(a.shape)
        return cond(a, *args)

    monkeypatch.setattr(np.linalg, "cond", counting)
    ens, wf = windows_2x4()
    correlation_kernel(ens)
    assert calls == [(2, 2)]
    calls.clear()
    janossy_kernel_explicit(ens, wf).kernel
    assert calls == [(2, 2)]


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
    empty = WindowFamily(tuple(ens.space.empty_window() for _ in range(2)))
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
    match the complement determinant ratio; chunking must change nothing;
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
    const = janossy_kernel_explicit(ens, wf).const
    assert law[(0,) * M] == pytest.approx(const, abs=1e-12)
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
    recipe = biorthogonal_janossy_recipe(ens, window)
    explicit = janossy_kernel_explicit(ens, wf)
    idx = window.node_indices
    a = recipe.kernel.blocks[0, 0][np.ix_(idx, idx)]
    b = explicit.kernel.blocks[0, 0][np.ix_(idx, idx)]
    assert np.allclose(a, b, atol=1e-11)
    assert recipe.const == pytest.approx(explicit.const, rel=1e-11)


def test_biorthogonal_recipe_needs_single_floor():
    ens = build_random(15, 4, 2, 2)
    with pytest.raises(ValueError):
        biorthogonal_janossy_recipe(ens, ens.space.window([True] + [False] * 3))


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


def gauged(ens: ChainEnsemble, theta: np.ndarray) -> ChainEnsemble:
    """The ensemble with floor-l phases e^{i theta_l(x)} attached.

    f carries e^{i theta_1}, g_l(x, y) carries e^{-i theta_l(x) +
    i theta_{l+1}(y)} and phi carries e^{-i theta_M}: every phase of the
    chain density cancels, so no probability changes, while the kernel
    becomes D_l^{-1} K D_m with D_l = diag(e^{i theta_l}).
    """
    u = np.exp(1j * theta)
    g = [gl * u[l].conj()[:, None] * u[l + 1][None, :]
         for l, gl in enumerate(ens.g)]
    return ChainEnsemble(ens.space, ens.f * u[0], ens.phi * u[-1].conj(), g)


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
