"""Correlation kernel, restricted operators, Fredholm determinant, resolvent.

The multi-floor correlation kernel of a chain ensemble is the block kernel

    K(l, x; m, y) = -g_{l,m}(x, y)
                    + sum_{i,j} (g_{l,M} * phi_i)(x) [A^{-1}]_{ij} (f_j * g_{1,m})(y)

with the convention g_{l,m} = 0 for m <= l.  Determinants of K evaluated at
point lists give the correlation functions; the Fredholm determinant of K
restricted to a family of windows gives the probability that every window is
empty; and the resolvent K_I (Id - K_I)^{-1} of the restriction reproduces
the Janossy kernel computed in closed form by the janossy module.

K is one operator on M copies of the space, K = -G + R A^{-1} L^T: R and
L stack every floor's right and left convolutions and G holds the
g_{l,m}.  Every kernel, the correlation and Janossy ones alike, is its
convolution tables (R, L, A, the adjacent transfers; self-contained, see
chain_ensemble) and sweeps the g_{l,m} into the (M P, M P) matrix,
where point (floor l, node x) is row (l-1) P + x (``rows``), only when it
is first read.  Point matrices and restricted matrices gather the rows of
their points, and a resolvent is indexed by the points of its
restriction.  A restriction keeps only the kernel and the window family,
and lists its points only when one of those reads them.

Restriction symmetrizes with sqrt-weights, so operator products and
determinants become plain matrix products and determinants.  The sqrt-weight
scaling never leaks out of this module: kernel values are always reported in
the unscaled convention above.  The Fredholm determinant reads no matrix
and no point list: det(Id - K_I) = det A^c / det A, with A^c the pairing
matrix whose floor integrations drop the windows, so it is one pairing
sweep and one n x n determinant ratio.  The sweep reads each floor only
over its weight support box B_l (first to last node off the window), at
cost sum_l n |B_l| |B_{l+1}| + n^3 <= M n P^2 + n^3 instead of a dense
(sum_l |I_l|)^3.

Blocks, restrictions and resolvents keep the ensemble's dtype: float64 for
real models and complex128 only for complex inputs.  Scalar results
(correlation functions, Fredholm determinants) are Python complex numbers
either way, and exports write every value as [re, im].
"""

from __future__ import annotations

import contextlib
import csv
import functools
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .chain_ensemble import (ChainEnsemble, ConvolutionTables, chain_sweep,
                             rcond_gate, window_pairing)
from .measure_space import WindowFamily

KIND_CORRELATION = "correlation"
KIND_JANOSSY = "janossy-explicit"

CSV_SCHEMA = "jk-csv-1"
JSON_SCHEMA = "jk-kernel-1"


def rows(points, size: int) -> np.ndarray:
    """Kernel-matrix row (l-1) P + x of each (floor l, node x); P = size."""
    pts = np.asarray(points, dtype=np.intp).reshape(-1, 2)
    return (pts[:, 0] - 1) * size + pts[:, 1]


@dataclass(eq=False)
class BlockKernel:
    """A kernel on M copies of the space, as one (M P, M P) matrix.

    Point (floor l, node x) is row and column (l-1) P + x (``rows``), so
    ``matrix[(l-1) P + x, (m-1) P + y]`` is the kernel value at (floor l,
    node x; floor m, node y), and so is ``blocks[l-1, m-1, x, y]``.
    ``kind`` records the construction route.  ``matrix`` is assembled from
    ``tables`` on first read.
    """

    ensemble: ChainEnsemble
    tables: ConvolutionTables
    kind: str
    warnings: tuple[str, ...] = ()

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """-G + R inv(gram) L^T, R, L and G stacked from ``tables``."""
        t, M, P = self.tables, self.ensemble.floors, self.ensemble.space.size
        matrix = _rank_n_part(t)
        for l in range(1, M):
            for m, g in enumerate(chain_sweep(t, l), start=l + 1):
                matrix.reshape(M, P, M, P)[l - 1, :, m - 1] -= g
        return matrix

    @property
    def blocks(self) -> np.ndarray:
        """(M, M, P, P) view of ``matrix``; writes go through to it."""
        M, P = self.ensemble.floors, self.ensemble.space.size
        return self.matrix.reshape(M, P, M, P).transpose(0, 2, 1, 3)

    def matrix_at(self, points) -> np.ndarray:
        """Square matrix of kernel values at a list of (floor, node) points."""
        r = rows(self.ensemble.check_points(points), self.ensemble.space.size)
        return self.matrix.take(r[:, None] * self.matrix.shape[1] + r)


def _rank_n_part(tables: ConvolutionTables) -> np.ndarray:
    """W = R inv(gram) L^T, the (M P, M P) kernel before the -G term."""
    return ((np.concatenate(tables.right) @ np.linalg.inv(tables.gram))
            @ np.concatenate(tables.left).T)


def kernel_from_tables(ensemble: ChainEnsemble, tables: ConvolutionTables,
                       kind: str, warnings: tuple[str, ...]) -> BlockKernel:
    """The kernel of a table set whose ``gram`` passed ``rcond_gate``,
    giving ``warnings``."""
    return BlockKernel(ensemble=ensemble, tables=tables, kind=kind,
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
    # matrix_at validates the points; the 0 x 0 determinant is 1, and a
    # 1 x 1 determinant is the entry itself (LU, not sign * exp(logdet))
    return complex(scipy.linalg.det(kernel.matrix_at(points)))


@dataclass(eq=False)
class RestrictedOperator:
    """Kernel restricted to window nodes, sqrt-weight symmetrized.

    Rows and columns are indexed by the (floor, node) pairs in ``index``,
    floors ascending and node indices ascending within a floor.  The matrix
    entry is ``sqrt(w_x) K(l,x; m,y) sqrt(w_y)``, so Fredholm determinants
    and resolvents of the continuum operator become finite-matrix ones.
    ``index`` is listed and ``matrix`` gathered from the kernel's on their
    first read; ``size`` counts the window nodes without listing them.
    """

    kernel: BlockKernel
    windows: WindowFamily

    @functools.cached_property
    def index(self) -> tuple[tuple[int, int], ...]:
        """The (floor, node) pairs inside the windows, listed on the first
        read."""
        return tuple((l, int(x))
                     for l, w in enumerate(self.windows.windows, start=1)
                     for x in w.node_indices)

    @property
    def size(self) -> int:
        return sum(w.count for w in self.windows.windows)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        P = self.kernel.ensemble.space.size
        r = rows(self.index, P)
        sw = np.sqrt(self.kernel.ensemble.space.weights)[r % P]
        k = self.kernel.matrix
        return k.take(r[:, None] * k.shape[1] + r) * (sw[:, None] * sw)

    @functools.cached_property
    def gate(self) -> tuple[float, tuple[str, ...]]:
        """``rcond_gate`` of a non-empty Id - K_I, run on the first read."""
        eye = np.eye(self.size, dtype=self.matrix.dtype)
        return rcond_gate(
            eye - self.matrix, "Id - restricted kernel",
            detail=lambda: f"windows: {self.windows.describe()}")


def restrict(kernel: BlockKernel, windows: WindowFamily) -> RestrictedOperator:
    """Restriction of a kernel to a window family."""
    return RestrictedOperator(kernel=kernel,
                              windows=kernel.ensemble.check_windows(windows))


def fredholm_det(op: RestrictedOperator) -> complex:
    """det(Id - K_I) of a restricted operator.

    For a correlation kernel this is the probability that every window in
    the family contains no particle of its class.  Exact for discrete
    spaces; quadrature-converged otherwise.  The empty restriction gives 1.

    For tables with floor weights W_l and pairing matrix A, det(Id - K_I)
    = det A' / det A, where A' pairs under the weights W_l - w 1_{I_l} (w
    the node weights): each floor integrates off its window.  The ratio is
    ``window_pairing`` of the kernel's tables, formed once per (tables,
    window family) and shared: for a correlation kernel A' is the
    complement pairing matrix A^c, and this is
    ``janossy_kernel_explicit(...).const`` from the same memo entry.  One
    pairing sweep over the weights' support boxes B_l, O(sum_l n |B_l|
    |B_{l+1}|): a half-line window leaves only the transfer sub-block
    between the complement runs of consecutive floors.  No point list,
    kernel matrix, g_{l,m} or A^{-1} is formed.
    The independent check is the brute-force oracle.
    """
    return window_pairing(op.kernel.tables, op.windows)[1]


def resolvent_kernel(op: RestrictedOperator) -> np.ndarray:
    """Resolvent K_I (Id - K_I)^{-1} of a restriction, at its points.

    Entry ``[i, j]`` is the unscaled resolvent value at (``op.index[i]``;
    ``op.index[j]``), in the ensemble's dtype; empty windows give a 0 x 0
    array.  One LU factorization of Id - K_I serves every right-hand side.
    Raises SingularOperatorError when Id - K_I is numerically singular
    (e.g. full windows on a discrete space, where some window surely holds
    particles); ``op.gate`` keeps its warning lines.
    """
    if op.kernel.kind != KIND_CORRELATION:
        raise ValueError(
            "resolvent_kernel needs a correlation kernel, got "
            f"{op.kernel.kind!r}")
    if not op.size:
        return np.zeros_like(op.matrix)
    op.gate  # raises when Id - K_I is singular
    lu = scipy.linalg.lu_factor(np.eye(op.size) - op.matrix)
    # L (Id - K) = K  =>  (Id - K)^T L^T = K^T
    lmat = scipy.linalg.lu_solve(lu, op.matrix.T, trans=1).T
    P = op.kernel.ensemble.space.size
    sw = np.sqrt(op.kernel.ensemble.space.weights)[rows(op.index, P) % P]
    return lmat / (sw[:, None] * sw)


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
    M, P, w = ens.floors, ens.space.size, ens.space.weights
    proj = _rank_n_part(kernel.tables)
    residual = np.empty((M, M, M))
    for l in range(M):
        on_l = slice(l * P, (l + 1) * P)
        lhs = (proj[:, on_l] * w) @ proj[on_l]
        diff = np.abs(lhs - proj).reshape(M, P, M, P)
        residual[:, l] = diff.max(axis=(1, 3))
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
    removed on failure, so readers never see a partial file.  The parent
    directory is made on the first write, so a run that fails before it
    leaves no directory.
    """
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = os.path.join(parent, f".tmp-{os.path.basename(path)}")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path: str, tag: str, header, rows) -> None:
    """Write a CSV file atomically: the line ``# jk-csv-1 <tag>``, then the
    header and the rows, cells as ``str`` gives them (floats round-trip)."""
    with atomic_open(path) as fh:
        fh.write(f"# {CSV_SCHEMA} {tag}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def export_kernel_csv(kernel: BlockKernel, path: str) -> None:
    """Write every kernel value as one CSV row, atomically.

    Columns: floor_row, node_row, point_row, floor_col, node_col, point_col,
    re, im.  The first line carries the schema tag.
    """
    ens = kernel.ensemble
    nodes = ens.space.nodes
    # (floor, node, position) of each matrix row and column, in order
    points = [(l, x, float(nodes[x])) for l in range(1, ens.floors + 1)
              for x in range(ens.space.size)]
    write_csv(path, f"kernel kind={kernel.kind}",
              ["floor_row", "node_row", "point_row",
               "floor_col", "node_col", "point_col", "re", "im"],
              ((*row_point, *col_point, float(v.real), float(v.imag))
               for row_point, row in zip(points, kernel.matrix)
               for col_point, v in zip(points, row)))


def kernel_to_json(kernel: BlockKernel) -> dict:
    """Binary-free JSON document of all blocks, each value as its
    ``complex_pair`` [re, im]."""
    ens, blocks = kernel.ensemble, kernel.blocks
    return {
        "schema": JSON_SCHEMA,
        "kind": kernel.kind,
        "floors": ens.floors,
        "nodes": ens.space.size,
        "space": ens.space.to_json(),
        "blocks": np.stack((blocks.real, blocks.imag), -1).tolist(),
        "warnings": list(kernel.warnings),
    }
