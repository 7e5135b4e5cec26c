"""Correlation kernel, restricted operators, Fredholm determinant, resolvent.

The multi-floor correlation kernel of a chain ensemble is the block kernel

    K(l, x; m, y) = -g_{l,m}(x, y)
                    + sum_{i,j} (g_{l,M} * phi_i)(x) [A^{-1}]_{ij} (f_j * g_{1,m})(y)

with the convention g_{l,m} = 0 for m <= l.  Determinants of K evaluated at
point lists give the correlation functions; the Fredholm determinant of K
restricted to a family of windows gives the probability that every window is
empty; and the resolvent K_I (Id - K_I)^{-1} of the restriction reproduces
the Janossy kernel computed in closed form by the janossy module.

Restriction symmetrizes with sqrt-weights, so operator products and
determinants become plain matrix products and determinants.  The sqrt-weight
scaling never leaks out of this module: kernel values are always reported in
the unscaled convention above.

Blocks, restrictions and resolvents keep the ensemble's dtype: float64 for
real models, so a Fredholm determinant is a real LU, and complex128 only for
complex inputs.  Scalar results (correlation functions, Fredholm
determinants) are Python complex numbers either way, and exports write every
value as [re, im].
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .chain_ensemble import ChainEnsemble, ConvolutionTables, rcond_gate
from .measure_space import WindowFamily

KIND_CORRELATION = "correlation"
KIND_RESOLVENT = "resolvent"
KIND_JANOSSY = "janossy-explicit"

CSV_SCHEMA = "jk-csv-1"
JSON_SCHEMA = "jk-kernel-1"


@dataclass(eq=False)
class BlockKernel:
    """Kernel values for every floor pair, sampled on the space nodes.

    ``blocks[l-1, m-1, x, y]`` is the kernel value at (floor l, node x;
    floor m, node y).  ``kind`` records the construction route.
    """

    ensemble: ChainEnsemble
    blocks: np.ndarray
    kind: str
    warnings: tuple[str, ...] = ()

    @property
    def floors(self) -> int:
        return self.blocks.shape[0]

    @property
    def size(self) -> int:
        return self.blocks.shape[2]

    def value(self, l: int, x: int, m: int, y: int) -> complex:
        """Kernel value at (floor l, node x; floor m, node y)."""
        (l, x), (m, y) = self.ensemble.check_points([(l, x), (m, y)])
        return complex(self.blocks[l - 1, m - 1, x, y])

    def block(self, l: int, m: int) -> np.ndarray:
        self.ensemble.check_floor(l)
        self.ensemble.check_floor(m)
        return self.blocks[l - 1, m - 1]

    def matrix_at(self, points) -> np.ndarray:
        """Square matrix of kernel values at a list of (floor, node) points."""
        return self.blocks[pair_index(self.ensemble.check_points(points))]


def kernel_from_tables(ensemble: ChainEnsemble, tables: ConvolutionTables,
                       kind: str, warnings: tuple[str, ...]) -> BlockKernel:
    """Assemble -g_{l,m} + right @ inv(gram) @ left^T from any table set.

    ``tables.gram`` must have passed ``rcond_gate``, giving ``warnings``."""
    M, P = tables.floors, ensemble.space.size
    inv = np.linalg.inv(tables.gram)
    blocks = np.empty((M, M, P, P), dtype=tables.gram.dtype)
    for l in range(1, M + 1):
        lead = tables.right[l - 1] @ inv
        for m in range(1, M + 1):
            block = lead @ tables.left[m - 1].T
            gl = tables.chain.get((l, m))
            if gl is not None:
                block = block - gl
            blocks[l - 1, m - 1] = block
    return BlockKernel(ensemble=ensemble, blocks=blocks, kind=kind,
                       warnings=warnings)


def correlation_kernel(ensemble: ChainEnsemble) -> BlockKernel:
    """Block kernel whose determinants give the correlation functions."""
    return kernel_from_tables(ensemble, ensemble.tables, KIND_CORRELATION,
                              ensemble.warnings)


def correlation_function(kernel: BlockKernel, points) -> complex:
    """det of kernel values at the points; 1 for the empty list.

    With ``k_l`` points on floor l this is the density, against the product
    of node measures, of finding distinct particles at all listed positions
    simultaneously (ordered-tuple normalization ``n!/(n-k_l)!`` per floor).
    """
    if kernel.kind != KIND_CORRELATION:
        raise ValueError(
            f"correlation_function needs a correlation kernel, got {kernel.kind!r}"
        )
    # matrix_at validates the points; the 0 x 0 determinant is 1
    return complex(np.linalg.det(kernel.matrix_at(points)))


@dataclass(eq=False)
class RestrictedOperator:
    """Kernel restricted to window nodes, sqrt-weight symmetrized.

    Rows and columns are indexed by the (floor, node) pairs in ``index``,
    floors ascending and node indices ascending within a floor.  The matrix
    entry is ``sqrt(w_x) K(l,x; m,y) sqrt(w_y)``, so Fredholm determinants
    and resolvents of the continuum operator become finite-matrix ones.
    """

    kernel: BlockKernel
    windows: WindowFamily
    matrix: np.ndarray
    index: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def gate(self) -> tuple[float, tuple[str, ...]]:
        """``rcond_gate`` of a non-empty Id - K_I, run on the first read."""
        eye = np.eye(self.size, dtype=self.matrix.dtype)
        return rcond_gate(eye - self.matrix, "Id - restricted kernel",
                          detail=f"windows: {self.windows.describe()}")


def pair_index(points) -> tuple[np.ndarray, ...]:
    """Broadcast index of every pair of (floor, node) points into blocks.

    ``blocks[pair_index(points)][i, j]`` is the kernel value at
    (points[i]; points[j]) for any ``BlockKernel.blocks``, and assigning
    through the index scatters a matrix back into the blocks.
    """
    pts = np.asarray(points, dtype=np.intp).reshape(-1, 2)
    floor, node = pts[:, 0] - 1, pts[:, 1]
    return floor[:, None], floor[None, :], node[:, None], node[None, :]


def restrict(kernel: BlockKernel, windows: WindowFamily) -> RestrictedOperator:
    """Restriction of a block kernel to the nodes of a window family."""
    ens = kernel.ensemble
    wf = ens.check_windows(windows)
    index = wf.points()
    pts = np.asarray(index, dtype=np.intp).reshape(-1, 2)
    floor, node = pts[:, 0] - 1, pts[:, 1]
    # blocks[l, m, x, y] sits at ((l M + m) P + x) P + y of the flat blocks
    M, P = kernel.floors, kernel.size
    row = (floor * (M * P) + node) * P
    col = floor * (P * P) + node
    sw = np.sqrt(ens.space.weights)[node]
    matrix = (kernel.blocks.ravel()[row[:, None] + col[None, :]]
              * (sw[:, None] * sw[None, :]))
    return RestrictedOperator(kernel=kernel, windows=wf, matrix=matrix,
                              index=index)


def fredholm_det(op: RestrictedOperator) -> complex:
    """det(Id - K_I) of a restricted operator.

    For a correlation kernel this is the probability that every window in
    the family contains no particle of its class.  Exact for discrete
    spaces; quadrature-converged otherwise.  The empty restriction gives 1.
    """
    t = np.eye(op.size, dtype=op.matrix.dtype) - op.matrix
    sign, logdet = np.linalg.slogdet(t)
    return complex(sign * np.exp(logdet))


def resolvent_kernel(op: RestrictedOperator) -> BlockKernel:
    """Resolvent K_I (Id - K_I)^{-1} of a restriction, as a block kernel.

    The returned blocks are zero outside the windows.  A single LU
    factorization of Id - K_I is reused for every right-hand side.  Raises
    SingularOperatorError when Id - K_I is numerically singular (e.g. full
    windows on a discrete space, where some window surely holds particles).
    """
    kernel = op.kernel
    if kernel.kind != KIND_CORRELATION:
        raise ValueError(
            f"resolvent_kernel needs a correlation kernel, got {kernel.kind!r}"
        )
    ens = kernel.ensemble
    blocks = np.zeros_like(kernel.blocks)
    warns: tuple[str, ...] = ()
    if op.size:
        _, warns = op.gate
        lu = scipy.linalg.lu_factor(np.eye(op.size) - op.matrix)
        # L (Id - K) = K  =>  (Id - K)^T L^T = K^T
        lmat = scipy.linalg.lu_solve(lu, op.matrix.T, trans=1).T
        l, m, x, y = pair_index(op.index)
        sqrtw = np.sqrt(ens.space.weights)
        blocks[l, m, x, y] = lmat / (sqrtw[x] * sqrtw[y])
    return BlockKernel(ensemble=ens, blocks=blocks, kind=KIND_RESOLVENT,
                       warnings=warns)


def dyson_mehta_check(kernel: BlockKernel) -> tuple[np.ndarray, float]:
    """Residuals of the reproducing identity for every floor triple.

    Let W = K + g be the rank-n part of the kernel, W_{k,m}(x, z) =
    sum_{i,j} (g_{k,M} * phi_i)(x) [A^{-1}]_{ij} (f_j * g_{1,m})(z).  The
    pairing of the two halves over any floor l gives back A, so for every
    floors k, l, m

        \\int W_{k,l}(x, y) W_{l,m}(y, z) dmu(y) = W_{k,m}(x, z).

    Returns ``(residual, scale)``: ``residual[k-1, l-1, m-1]`` is the
    largest absolute difference of the two sides over all node pairs x, z,
    and ``scale`` is max(1, max|W|), the size the residuals are judged
    against.
    """
    if kernel.kind != KIND_CORRELATION:
        raise ValueError("dyson_mehta_check needs a correlation kernel")
    ens = kernel.ensemble
    proj = kernel.blocks.copy()
    for (l, m), g in ens.tables.chain.items():
        proj[l - 1, m - 1] += g
    w = ens.space.weights
    M = ens.floors
    residual = np.empty((M, M, M))
    for k, l, m in itertools.product(range(M), repeat=3):
        lhs = (proj[k, l] * w[None, :]) @ proj[l, m]
        residual[k, l, m] = np.abs(lhs - proj[k, m]).max()
    return residual, max(1.0, float(np.abs(proj).max()))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def complex_pair(z) -> list[float]:
    """A complex number as the JSON pair [re, im]."""
    z = complex(z)
    return [float(z.real), float(z.imag)]


@contextlib.contextmanager
def atomic_open(path: str):
    """Text handle whose content replaces ``path`` only if the block succeeds.

    Writes go to a temp file beside ``path``, renamed over it on success and
    removed on failure, so readers never see a partial file.
    """
    tmp = os.path.join(os.path.dirname(path) or ".",
                       f".tmp-{os.path.basename(path)}")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def export_kernel_csv(kernel: BlockKernel, path: str) -> None:
    """Write every kernel value as one CSV row, atomically.

    Columns: floor_row, node_row, point_row, floor_col, node_col, point_col,
    re, im.  The first line carries the schema tag.
    """
    ens = kernel.ensemble
    nodes = ens.space.nodes
    with atomic_open(path) as fh:
        fh.write(f"# {CSV_SCHEMA} kernel kind={kernel.kind}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["floor_row", "node_row", "point_row",
                         "floor_col", "node_col", "point_col", "re", "im"])
        M, P = ens.floors, ens.space.size
        for l in range(1, M + 1):
            for x in range(P):
                for m in range(1, M + 1):
                    for y in range(P):
                        v = kernel.blocks[l - 1, m - 1, x, y]
                        writer.writerow([l, x, repr(float(nodes[x])),
                                         m, y, repr(float(nodes[y])),
                                         repr(float(v.real)),
                                         repr(float(v.imag))])


def kernel_to_json(kernel: BlockKernel) -> dict:
    """Binary-free JSON document of all blocks, values as [re, im] pairs."""
    ens = kernel.ensemble
    M, P = ens.floors, ens.space.size
    blocks = [
        [
            [[complex_pair(v) for v in row] for row in kernel.blocks[l, m]]
            for m in range(M)
        ]
        for l in range(M)
    ]
    return {
        "schema": JSON_SCHEMA,
        "kind": kernel.kind,
        "floors": M,
        "nodes": P,
        "space": ens.space.to_json(),
        "blocks": blocks,
        "warnings": list(kernel.warnings),
    }
