"""Shared fixtures and helpers."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
import scipy.linalg

from janossy_kit import janossy
from janossy_kit.chain_ensemble import ChainEnsemble, ConvolutionTables
from janossy_kit.kernels import BlockKernel, kernel_from_tables
from janossy_kit.measure_space import Window, WindowFamily

KIND_BIORTHOGONAL = "janossy-biorthogonal"


@pytest.fixture
def complement_builds(monkeypatch) -> list:
    """Arguments of every ``build_tables`` call the janossy module makes.

    Only complement tables are built there; an ensemble's own tables are
    built in ``chain_ensemble`` and are not recorded.
    """
    builds = []
    build = janossy.build_tables

    def recording(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(janossy, "build_tables", recording)
    return builds


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


def configuration_masses(ens: ChainEnsemble):
    """Every ordered configuration of the chain with its unnormalized mass.

    Yields (config, mass): ``config`` holds one tuple of n node indices per
    floor, and ``mass`` is the literal product det f(x^1) * prod_l
    det g_l(x^l, x^{l+1}) * det phi(x^M) * node weights, every determinant
    taken directly from ``ens.f``, ``ens.g`` and ``ens.phi``.  Repeated
    nodes are included and carry zero mass.
    """
    P, n, M = ens.space.size, ens.n, ens.floors
    w = ens.space.weights
    for flat in itertools.product(range(P), repeat=n * M):
        config = tuple(flat[l * n:(l + 1) * n] for l in range(M))
        mass = (np.linalg.det(ens.f[:, list(config[0])])
                * np.linalg.det(ens.phi[:, list(config[-1])]))
        for l in range(M - 1):
            mass *= np.linalg.det(ens.g[l][np.ix_(config[l], config[l + 1])])
        for tup in config:
            mass *= np.prod(w[list(tup)])
        yield config, complex(mass)


def biorthogonal_janossy_recipe(ens: ChainEnsemble,
                                window: Window) -> tuple[complex, BlockKernel]:
    """Single-floor Janossy data by explicit biorthogonalization.

    The Borodin-Soshnikov route, a reference independent of
    ``janossy_kernel_explicit``.  Pairs f against phi over the window's
    complement, LU-factors the pairing matrix A^c into biorthogonal
    families (ftilde_i in span f, phitilde_i in span phi, restricted
    pairing delta_ij) and returns ``(const, kernel)``: const is det A^c /
    det A, and kernel is the rank-n L(x, y) = sum_i phitilde_i(x)
    ftilde_i(y) on all nodes.  The kernel keeps one-floor tables (left
    ftilde^T, right phitilde^T, gram I, the complement weights), so it
    restricts like any other: det(Id - L_J) = det(ftilde W' phitilde^T),
    W' the complement weights minus the window J's.
    """
    assert ens.floors == 1, "the recipe is for single-floor ensembles"
    wc = WindowFamily((window,)).complement_weights()
    a_comp = (ens.f * wc) @ ens.phi.T
    perm, low, up = scipy.linalg.lu(a_comp)
    # rows of f_t: ftilde_i = sum_j [L^{-1} P^T]_{ij} f_j
    f_t = scipy.linalg.solve_triangular(low, perm.T @ ens.f, lower=True)
    # rows of phi_t: phitilde_i = sum_m [U^{-1}]_{mi} phi_m
    phi_t = scipy.linalg.solve_triangular(up, ens.phi, trans="T",
                                          lower=False)
    tables = ConvolutionTables(g=(), weights=wc, left=(f_t.T,),
                               right=(phi_t.T,),
                               gram=np.eye(ens.n, dtype=ens.dtype))
    const = complex(np.linalg.det(a_comp) / np.linalg.det(ens.tables.gram))
    return const, kernel_from_tables(ens, tables, KIND_BIORTHOGONAL, ())
