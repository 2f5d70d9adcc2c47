"""Sparse finite-volume operators on the dual cells of an AxiMesh.

All matrices act on flattened nodal vectors (C order, node k = j*nr1 + i).
Sign convention: ``diffusion_matrix(coef) @ x`` is the discrete form of
``-div(coef * grad x)`` integrated over each dual cell, so elliptic problems
read ``A x = V * source``.

This is the only module that knows the sparse layout. Every operator on a
mesh lives on one 5-point CSR pattern (each node coupled to itself and its
r and z neighbours), built once per mesh and cached on it by `csr_pattern`.
Operators on one mesh therefore add by their ``data`` arrays, and Dirichlet
rows are imposed in place by `pin_rows`. The pattern's ``indptr`` and
``indices`` are read-only and shared by every matrix built on the mesh.

Each mesh also has one fill-reducing order for its LU factorizations, taken
from the first factorization on the mesh (SuperLU's AT+A minimum degree) and
cached on it by `factorize`. The order depends only on the pattern, so it
serves every operator on the mesh, pinned ones included. Every later
factorization gathers the operator's ``data`` straight into the permuted CSC
layout and factors it in natural order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import AxiMesh


@dataclass(frozen=True)
class CsrPattern:
    """The 5-point CSR layout of one mesh; every array is read-only.

    Faces are listed r faces first, then z faces; face f joins node ``lo[f]``
    to the next node ``hi[f]``. ``scatter`` holds the ``data`` slots of the
    four entries of every face in four blocks: (lo, lo), (lo, hi), (hi, lo)
    and (hi, hi).
    """

    indptr: np.ndarray
    indices: np.ndarray
    diag: np.ndarray  # data slot of each node's diagonal entry
    lo: np.ndarray
    hi: np.ndarray
    scatter: np.ndarray


def csr_pattern(mesh: AxiMesh) -> CsrPattern:
    """The mesh's operator pattern, built on first use and cached on the mesh."""
    cached = getattr(mesh, "_csr_pattern", None)
    if cached is not None:
        return cached
    n = mesh.n_nodes
    idx = np.arange(n).reshape(mesh.nz1, mesh.nr1)
    lo = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    hi = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    rows = np.concatenate([idx.ravel(), lo, hi])
    cols = np.concatenate([idx.ravel(), hi, lo])
    order = np.lexsort((cols, rows))
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    diag, lo_hi, hi_lo = np.split(slot, [n, n + lo.size])
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    pattern = CsrPattern(indptr.astype(np.int32), cols[order].astype(np.int32),
                         diag, lo, hi, np.concatenate([diag[lo], lo_hi, hi_lo, diag[hi]]))
    for arr in vars(pattern).values():
        arr.flags.writeable = False
    mesh._csr_pattern = pattern
    return pattern


@dataclass(frozen=True)
class LuOrder:
    """A mesh's fill-reducing order and its permuted CSC layout; read-only.

    ``order`` lists the mesh nodes in elimination order and ``rank`` is its
    inverse. ``P A Pᵀ`` in CSC form has ``data = a.data[gather]`` for any
    operator ``a`` on the mesh pattern, with the fixed ``indptr``/``indices``.
    """

    order: np.ndarray
    rank: np.ndarray
    gather: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray


class PermutedLU:
    """LU of ``P A Pᵀ`` whose ``solve`` answers ``A x = b`` in mesh numbering.

    ``L`` and ``U`` are the factors of ``P A Pᵀ``; their nnz is the fill.
    """

    __slots__ = ("_lu", "_layout")

    def __init__(self, lu, layout: LuOrder):
        self._lu = lu
        self._layout = layout

    @property
    def L(self):
        return self._lu.L

    @property
    def U(self):
        return self._lu.U

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(b[self._layout.order])[self._layout.rank]


_SMALL_SYSTEM = {"relax": 1, "panel_size": 1}  # see `factorize`


def _permuted_layout(mesh: AxiMesh, perm_c: np.ndarray) -> LuOrder:
    """The permuted layout of the mesh pattern for SuperLU's column order."""
    pattern = csr_pattern(mesh)
    rows = np.repeat(np.arange(mesh.n_nodes), np.diff(pattern.indptr))
    new_rows, new_cols = perm_c[rows], perm_c[pattern.indices]
    gather = np.lexsort((new_rows, new_cols))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(new_cols, minlength=mesh.n_nodes))])
    # copy: SuperLU's perm_c is a view that would keep the first factor alive
    lu_order = LuOrder(np.argsort(perm_c), perm_c.copy(), gather,
                       indptr.astype(np.int32), new_rows[gather].astype(np.int32))
    for arr in vars(lu_order).values():
        arr.flags.writeable = False
    return lu_order


def factorize(mesh: AxiMesh, a: sp.csr_matrix):
    """Sparse LU of an operator on the mesh pattern, in the mesh's cached order.

    The first factorization on a mesh uses SuperLU's AT+A minimum-degree
    order, which roughly halves the factorization cost against the default
    column order on tensor-product grids, and caches that order on the mesh.
    Later factorizations factor ``P A Pᵀ`` with ``NATURAL``: the order is
    already applied, so SuperLU skips recomputing it, and the pivoting rule
    is unchanged, so the fill is the same. ``relax=1, panel_size=1`` because
    SuperLU's defaults are tuned for large matrices: relaxed supernodes and
    wide panels only add work on columns with a few dozen nonzeros. Measured
    on 16² and 72² meshes, they factor 1.3-2.5x faster than the defaults.
    The returned object's ``solve`` works in mesh numbering either way.
    """
    pattern = csr_pattern(mesh)
    if a.nnz != pattern.indices.size:
        raise ValueError("factorize needs an operator on the mesh's 5-point pattern")
    lu_order = getattr(mesh, "_lu_order", None)
    if lu_order is None:
        lu = spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A", **_SMALL_SYSTEM)
        mesh._lu_order = _permuted_layout(mesh, lu.perm_c)
        return lu
    permuted = sp.csc_matrix((a.data[lu_order.gather], lu_order.indices, lu_order.indptr),
                             shape=a.shape)
    return PermutedLU(spla.splu(permuted, permc_spec="NATURAL", **_SMALL_SYSTEM), lu_order)


def _fill(mesh: AxiMesh, aa, ab, ba, bb) -> sp.csr_matrix:
    """Operator on the mesh pattern from per-face entries in `CsrPattern` order."""
    pattern = csr_pattern(mesh)
    data = np.bincount(pattern.scatter, weights=np.concatenate([aa, ab, ba, bb]),
                       minlength=pattern.indices.size)
    return sp.csr_matrix((data, pattern.indices, pattern.indptr),
                         shape=(mesh.n_nodes, mesh.n_nodes))


def pin_rows(a: sp.csr_matrix, rows) -> sp.csr_matrix:
    """Make the given rows identity rows in place, keeping their other entries as zeros."""
    for row in np.atleast_1d(rows):
        lo, hi = a.indptr[row], a.indptr[row + 1]
        a.data[lo:hi] = a.indices[lo:hi] == row
    return a


def harmonic_face_coefficients(mesh: AxiMesh, coef: np.ndarray):
    """Harmonic mean of a positive nodal coefficient on both face families."""
    a, b = coef[:, :-1], coef[:, 1:]
    coef_r = 2.0 * a * b / (a + b)
    a, b = coef[:-1, :], coef[1:, :]
    coef_z = 2.0 * a * b / (a + b)
    return coef_r, coef_z


def face_gradients(mesh: AxiMesh, f: np.ndarray):
    """(df/dr on r-faces, df/dz on z-faces)."""
    g_r = (f[:, 1:] - f[:, :-1]) / mesh.dr[None, :]
    g_z = (f[1:, :] - f[:-1, :]) / mesh.dz[:, None]
    return g_r, g_z


def _per_face(x_r: np.ndarray, x_z: np.ndarray) -> np.ndarray:
    """One value per face in `CsrPattern` face order from the two face families."""
    return np.concatenate([x_r.ravel(), x_z.ravel()])


def diffusion_matrix(mesh: AxiMesh, coef_r: np.ndarray | float,
                     coef_z: np.ndarray | float,
                     diag: np.ndarray | float = 0.0) -> sp.csr_matrix:
    """Dual-volume discretization of -div(coef grad x); SPD with Neumann faces.

    ``diag`` (scalar or per node) is added to the diagonal. It is already
    integrated over the dual cells, e.g. a storage term times node volumes.
    """
    # face transmissibilities T = area * coef / distance
    t = _per_face(mesh.area_r * coef_r / mesh.dr[None, :],
                  mesh.area_z * coef_z / mesh.dz[:, None])
    a = _fill(mesh, t, -t, -t, t)
    a.data[csr_pattern(mesh).diag] += np.ravel(diag)
    return a


def upwind_advection_matrix(mesh: AxiMesh, s_r: np.ndarray, s_z: np.ndarray) -> sp.csr_matrix:
    """First-order upwind discretization of div(s x) from face-normal speeds.

    ``s_r``/``s_z`` are the characteristic speeds normal to the two face
    families (positive toward growing r / z). Boundary faces do not exist in
    the dual tessellation, so the operator is flux-free by construction.
    """
    f = _per_face(mesh.area_r * s_r, mesh.area_z * s_z)
    pos, neg = np.maximum(f, 0.0), np.minimum(f, 0.0)
    return _fill(mesh, pos, neg, -pos, -neg)


def divergence_of_face_flux(mesh: AxiMesh, flux_r: np.ndarray,
                            flux_z: np.ndarray) -> np.ndarray:
    """Net outward flux per dual cell from per-area face fluxes (2-D output)."""
    pattern = csr_pattern(mesh)
    f = _per_face(mesh.area_r * flux_r, mesh.area_z * flux_z)
    out = np.bincount(np.concatenate([pattern.lo, pattern.hi]),
                      weights=np.concatenate([f, -f]), minlength=mesh.n_nodes)
    return out.reshape(mesh.nz1, mesh.nr1)
