"""Model builders: reference profiles, invariances, JSON dispatch."""

from __future__ import annotations

import math

import numpy as np
import pytest

from janossy_kit.chain_ensemble import ChainEnsemble, partition_function
from janossy_kit.errors import ConfigError, SingularOperatorError
from janossy_kit.kernels import correlation_kernel
from janossy_kit.measure_space import make_discrete, make_quadrature
from janossy_kit.models import (
    as_potential,
    build_coupled_chain,
    build_karlin_mcgregor,
    build_model,
    build_random,
    build_unitary,
    heat_kernel,
)


def test_as_potential_accepts_coefficients_and_callables():
    quad = as_potential([0.0, 0.0, 0.5])
    assert quad(2.0) == pytest.approx(2.0)
    arr = quad(np.array([0.0, 2.0]))
    assert np.allclose(arr, [0.0, 2.0])
    double = as_potential(lambda x: 2.0 * x)
    assert double(3.0) == 6.0
    with pytest.raises(ValueError):
        as_potential("x^2")


def test_gaussian_one_point_profile():
    """n = 1 Gaussian weight: the density is the normalized weight itself."""
    space = make_quadrature((-7.0, 7.0), 48)
    ens = build_unitary([0.0, 0.0, 0.5], 1, space)
    kernel = correlation_kernel(ens)
    rho = kernel.blocks[0, 0].diagonal().real
    expect = np.exp(-space.nodes ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(rho - expect)) < 1e-12


def test_unitary_density_mass_is_particle_count():
    space = make_quadrature((-7.0, 7.0), 48)
    for n in (1, 2, 3):
        ens = build_unitary([0.0, 0.0, 0.5], n, space)
        kernel = correlation_kernel(ens)
        rho = kernel.blocks[0, 0].diagonal().real
        assert np.sum(rho * space.weights) == pytest.approx(
            float(n), abs=1e-10)


def test_unitary_rejects_more_particles_than_nodes():
    space = make_quadrature((-3.0, 3.0), 4)
    with pytest.raises(ValueError):
        build_unitary([0.0, 0.0, 0.5], 5, space)


def test_kernel_is_invariant_under_basis_recombination():
    """Row-mixing f and phi must not change any correlation value."""
    ens = build_random(17, 5, 2, 2)
    rng = np.random.default_rng(0)
    T = rng.normal(size=(2, 2)) + np.eye(2)
    S = rng.normal(size=(2, 2)) + np.eye(2)
    mixed = ChainEnsemble(ens.space, T @ ens.f, S @ ens.phi, ens.g)
    k1 = correlation_kernel(ens).blocks
    k2 = correlation_kernel(mixed).blocks
    assert np.max(np.abs(k1 - k2)) < 1e-10


def test_large_unitary_basis_is_orthonormalized_for_stability():
    """Raw monomials above the recombination threshold would overflow the
    condition gate; the builder must stay well conditioned."""
    space = make_quadrature((-8.0, 8.0), 64)
    ens = build_unitary([0.0, 0.0, 0.5], 12, space)
    assert ens.gram_cond < 1e3
    kernel = correlation_kernel(ens)
    rho = kernel.blocks[0, 0].diagonal().real
    assert np.sum(rho * space.weights) == pytest.approx(12.0, abs=1e-8)


def hermite_functions(x: np.ndarray, n: int) -> np.ndarray:
    """Rows h_k(x), k < n, orthonormal in L^2(dx), by their own recurrence."""
    h = np.zeros((n, x.size))
    h[0] = math.pi ** -0.25 * np.exp(-x * x / 2.0)
    for k in range(n - 1):
        h[k + 1] = math.sqrt(2.0 / (k + 1)) * x * h[k]
        if k:
            h[k + 1] -= math.sqrt(k / (k + 1)) * h[k - 1]
    return h


def mehler_kernel(tau: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k exp(-k tau) h_k(x) h_k(y) in closed form (Mehler's formula)."""
    q = math.exp(-tau)
    x, y = x[:, None], y[None, :]
    return (np.exp(-((1 + q * q) * (x * x + y * y) - 4 * q * x * y)
                   / (2 * (1 - q * q)))
            / math.sqrt(math.pi * (1 - q * q)))


@pytest.mark.parametrize("n", [24, 40, 60])
def test_gue_kernel_is_the_hermite_kernel_at_large_n(n):
    """Weight exp(-x^2): the kernel is sum_{k<n} h_k(x) h_k(y) to 1e-12."""
    space = make_quadrature((-14.0, 14.0), 240)
    kernel = correlation_kernel(build_unitary([0.0, 0.0, 1.0], n, space))
    h = hermite_functions(space.nodes, n)
    assert np.max(np.abs(kernel.blocks[0, 0] - h.T @ h)) < 1e-12


def test_unitary_partition_function_is_mehtas_integral():
    """V = x^2/2: the integral of the squared Vandermonde against
    exp(-sum x_i^2/2) is (2 pi)^(n/2) prod_{k=1..n} k!."""
    n = 12
    ens = build_unitary([0.0, 0.0, 0.5], n,
                        make_quadrature((-12.0, 12.0), 120))
    mehta = ((2.0 * math.pi) ** (n / 2)
             * math.prod(math.factorial(k) for k in range(1, n + 1)))
    z = partition_function(ens)
    assert abs(z - mehta) / mehta < 1e-10


def test_unitary_weight_on_too_few_nodes_is_singular():
    """exp(-V/2) underflows on all nodes but x = 0: no second polynomial."""
    space = make_discrete(np.arange(5.0), np.ones(5))
    with pytest.raises(SingularOperatorError):
        build_unitary([0.0, 0.0, 1e4], 3, space)


def test_coupled_chain_rejects_more_particles_than_nodes():
    space = make_discrete(np.arange(4.0), np.ones(4))
    with pytest.raises(ValueError):
        build_coupled_chain(5, 2, [[0.0, 0.0, 0.5]] * 2, [0.1], space)


def test_stationary_dyson_brownian_motion_is_the_extended_hermite_kernel():
    """f = phi = the first n Hermite functions, Mehler transfers between
    the times: every block is sum_{k<n} exp(-k (t_m - t_l)) h_k(x) h_k(y)
    minus the Mehler kernel from t_l to t_m when l < m."""
    n, times = 4, (0.0, 0.3, 0.7, 1.0)
    space = make_quadrature((-9.0, 9.0), 120)
    x = space.nodes
    h = hermite_functions(x, n)
    ens = ChainEnsemble(space, h, h, [mehler_kernel(b - a, x, x)
                                      for a, b in zip(times, times[1:])])
    blocks = correlation_kernel(ens).blocks
    ref = np.empty_like(blocks)
    for l, tl in enumerate(times):
        for m, tm in enumerate(times):
            decay = np.exp(-np.arange(n) * (tm - tl))
            ref[l, m] = (h.T * decay) @ h
            if l < m:
                ref[l, m] -= mehler_kernel(tm - tl, x, x)
    scale = max(1.0, float(np.abs(ref).max()))
    assert np.max(np.abs(blocks - ref)) / scale < 1e-10


def test_coupled_chain_partition_function_against_closed_form():
    """n = 1, V(x) = x^2 on both floors (so each end weight is
    exp(-x^2/2)) with exp(c x y) coupling integrates to
    2 pi / sqrt(1 - c^2)."""
    c = 0.5
    space = make_quadrature((-8.0, 8.0), 80)
    ens = build_coupled_chain(1, 2, [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
                              [c], space)
    z = partition_function(ens)
    assert z.real == pytest.approx(2.0 * math.pi / math.sqrt(1 - c * c),
                                   rel=1e-8)
    assert abs(z.imag) < 1e-12


def test_coupled_chain_validates_lengths():
    space = make_quadrature((-5.0, 5.0), 16)
    with pytest.raises(ValueError):
        build_coupled_chain(1, 3, [[0.0, 0.0, 0.5]] * 2, [0.1, 0.1], space)
    with pytest.raises(ValueError):
        build_coupled_chain(1, 3, [[0.0, 0.0, 0.5]] * 3, [0.1], space)


def test_heat_kernel_mass_and_symmetry():
    space = make_quadrature((-10.0, 10.0), 96)
    vals = heat_kernel(0.0, 1.0, 0.5, space.nodes)
    assert np.sum(vals * space.weights) == pytest.approx(1.0, abs=1e-12)
    assert heat_kernel(0.0, 1.0, 0.3, 0.8) == pytest.approx(
        heat_kernel(0.0, 1.0, 0.8, 0.3))
    with pytest.raises(ValueError):
        heat_kernel(1.0, 1.0, 0.0, 0.0)


def test_heat_kernel_flushes_subnormals_to_exact_zero():
    """Values below the smallest normal float are exact zeros; every other
    value has the plain formula's bits.  Scalar calls stay scalar."""
    tiny = np.finfo(float).tiny
    x = np.linspace(-12.0, 12.0, 201)
    dt = 0.125
    vals = heat_kernel(0.5, 0.625, x[:, None], x[None, :])
    plain = (np.exp(-((x[None, :] - x[:, None]) ** 2) / (2.0 * dt))
             / math.sqrt(2.0 * math.pi * dt))
    normal = plain >= tiny
    assert np.any((plain > 0) & ~normal)  # the grid does reach subnormals
    assert np.array_equal(vals[normal], plain[normal])
    assert np.all(vals[~normal] == 0.0)
    far = heat_kernel(0.0, 1.0, 0.0, 38.0)
    assert np.ndim(far) == 0 and far == 0.0
    assert np.ndim(heat_kernel(0.0, 1.0, 0.3, 0.8)) == 0


def test_karlin_mcgregor_rejects_non_integer_orders():
    """order=7.9 used to build a seven-node rule."""
    for order in (7.9, True):
        with pytest.raises(ValueError, match="not an integer"):
            build_karlin_mcgregor([0.0, 0.5, 1.0], [0.0], [0.0], order=order)


def test_karlin_mcgregor_single_path_is_a_brownian_bridge():
    """One path pinned at both ends: the midpoint density is the bridge
    normal with variance t(1-t)."""
    ens = build_karlin_mcgregor([0.0, 0.5, 1.0], [0.0], [0.0], order=96)
    kernel = correlation_kernel(ens)
    x = ens.space.nodes
    rho = kernel.blocks[0, 0].diagonal().real
    var = 0.5 * (1.0 - 0.5)
    bridge = np.exp(-x * x / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    assert np.max(np.abs(rho - bridge)) < 1e-10


def test_karlin_mcgregor_marginal_masses():
    ens = build_karlin_mcgregor([0.0, 0.4, 1.0], [-1.0, 1.0], [-1.0, 1.0],
                                order=80)
    assert ens.floors == 1
    assert ens.n == 2
    kernel = correlation_kernel(ens)
    rho = kernel.blocks[0, 0].diagonal().real
    assert np.sum(rho * ens.space.weights) == pytest.approx(
        2.0, abs=1e-9)


def test_karlin_mcgregor_multi_time_floors():
    ens = build_karlin_mcgregor([0.0, 0.3, 0.7, 1.0], [-1.0, 1.0],
                                [-1.0, 1.0], order=60)
    assert ens.floors == 2
    kernel = correlation_kernel(ens)
    for floor in (1, 2):
        rho = kernel.blocks[floor - 1, floor - 1].diagonal().real
        assert np.sum(rho * ens.space.weights) == pytest.approx(
            2.0, abs=1e-8)


def test_karlin_mcgregor_nearly_degenerate_times_stay_qualitative():
    """Observation just after the start pin: paths are still near their
    pins, so the mass near each pin is close to one at coarse tolerance."""
    ens = build_karlin_mcgregor([0.0, 0.02, 1.0], [-1.0, 1.0], [-1.0, 1.0],
                                order=140)
    kernel = correlation_kernel(ens)
    x = ens.space.nodes
    w = ens.space.weights
    rho = kernel.blocks[0, 0].diagonal().real
    near_low = float(np.sum(rho[np.abs(x + 1.0) < 0.5]
                            * w[np.abs(x + 1.0) < 0.5]))
    near_high = float(np.sum(rho[np.abs(x - 1.0) < 0.5]
                             * w[np.abs(x - 1.0) < 0.5]))
    assert near_low == pytest.approx(1.0, abs=1e-3)
    assert near_high == pytest.approx(1.0, abs=1e-3)


def test_karlin_mcgregor_validation():
    with pytest.raises(ValueError):
        build_karlin_mcgregor([0.0, 0.5, 1.0], [0.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        build_karlin_mcgregor([0.0, 1.0], [0.0], [0.0])
    with pytest.raises(ValueError):
        build_karlin_mcgregor([0.0, 0.0, 1.0], [0.0], [0.0])
    with pytest.raises(ValueError):
        build_karlin_mcgregor([0.0, 0.5, 1.0], [0.0, 0.0], [-1.0, 1.0])
    with pytest.raises(ValueError, match="exclude each other"):
        build_karlin_mcgregor([0.0, 0.5, 1.0], [0.0], [0.0], order=7,
                              space=make_quadrature((-3.0, 3.0), 40))


def test_build_random_is_bit_deterministic():
    a = build_random(42, 5, 2, 3)
    b = build_random(42, 5, 2, 3)
    assert np.array_equal(a.f, b.f)
    assert np.array_equal(a.phi, b.phi)
    for ga, gb in zip(a.g, b.g):
        assert np.array_equal(ga, gb)
    c = build_random(43, 5, 2, 3)
    assert not np.array_equal(a.f, c.f)


def test_build_random_validates_dimensions():
    with pytest.raises(ValueError):
        build_random(1, 2, 3, 1)  # more particles than nodes


def test_build_model_dispatches_on_variant():
    doc = {"variant": "random", "seed": 5, "nodes": 4, "particles": 2,
           "floors": 2}
    ens = build_model(doc)
    assert ens.floors == 2 and ens.n == 2 and ens.space.size == 4
    direct = build_random(5, 4, 2, 2)
    assert np.array_equal(ens.f, direct.f)


def test_build_model_refuses_malformed_model_objects():
    random = {"variant": "random", "seed": 1, "nodes": 4, "particles": 2,
              "floors": 2}
    for doc, match in (([1, 2, 3], "must be an object"),
                       ({"variant": "mystery"}, "unknown model variant"),
                       ({"seed": 1}, "unknown model variant"),
                       (dict(random, order=7), "reads no"),
                       ({"variant": "random", "seed": 1}, "lacks required")):
        with pytest.raises(ConfigError, match=match):
            build_model(doc)


def test_explicit_model_variant():
    doc = {
        "variant": "explicit",
        "space": {"kind": "discrete", "points": [0.0, 1.0, 2.0],
                  "masses": [1.0, 1.0, 1.0]},
        "f": [[1.0, 0.5, 0.25], [0.0, 1.0, 2.0]],
        "phi": [[1.0, 1.0, 1.0], [0.0, 0.5, 1.0]],
        "g": [[[1.0, 0.1, 0.0], [0.1, 1.0, 0.1], [0.0, 0.1, 1.0]]],
    }
    ens = build_model(doc)
    assert ens.floors == 2
    assert ens.space.size == 3


def test_unitary_model_from_json_matches_direct_build():
    doc = {
        "variant": "unitary",
        "potential": [0.0, 0.0, 0.5],
        "particles": 2,
        "space": {"kind": "quadrature", "interval": [-6.0, 6.0], "order": 32},
    }
    via_json = build_model(doc)
    direct = build_unitary([0.0, 0.0, 0.5],
                           2, make_quadrature((-6.0, 6.0), 32))
    assert np.allclose(via_json.f, direct.f)


def test_discrete_space_models_reject_mismatched_usage():
    space = make_discrete([0.0, 1.0], [1.0, 1.0])
    ens = build_unitary([0.0], 1, space)
    assert ens.space.kind == "discrete"
