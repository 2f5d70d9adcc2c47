"""Sparse finite-volume operators on the dual cells of an AxiMesh.

All operators act on flattened nodal vectors (C order, node k = j*nr1 + i).
Sign convention: ``diffusion_matrix(coef)`` applied to x is the discrete
form of ``-div(coef * grad x)`` integrated over each dual cell, so elliptic
problems read ``A x = V * source``.

This is the only module that knows the sparse layout and the face layout.
Every operator on a mesh lives on one 5-point CSR pattern (each node coupled
to itself and its r and z neighbours), built once per mesh and kept on it by
`csr_pattern`.
An operator is plain data on that pattern, an `Operator`: the pattern and
one ``data`` array. Operators on one mesh therefore add by their ``data``
arrays, and Dirichlet nodes are imposed in place by `pin_nodes`. The
pattern's ``indptr`` and ``indices`` are read-only and shared by every
operator built on the mesh. A scipy matrix is built only where ``spilu``
or a matrix-vector product needs one.

Two families of factor solve these operators. `factorize` makes direct
factors in LAPACK band storage, in the layout the mesh's half-bandwidth and
the operator's symmetry pick. Node k couples to k ± 1 and k ± nr1, so every
operator on the pattern lies in a band of half-width nr1:

- **Narrow meshes** (``nr1 <= _BAND_MAX_WIDTH``, every long phase of the
  benchmark) are factored as a band by LAPACK's partial-pivoting ``dgbtrf``,
  through a map from CSR ``data`` slots to band storage cached on the mesh.
- **Wider meshes** are condensed red-black (`CondensedLayout`): one colour
  of the checkerboard is eliminated exactly, and the Schur complement on the
  other half of the nodes, a band of the same half-width, is factored by
  ``dpbtrf`` if the operator is symmetric and by ``dgbtrf`` if not, about
  half the work of the full band. An operator unsafe to condense takes the
  band LU. The tables at `_BAND_MAX_WIDTH` and in `factorize` record where
  each wins; the other family, the species' kept ILU, is below.

Per-mesh caches. Each depends on the mesh alone, is built on first use by
`AxiMesh.derived`, lives as long as the mesh, and holds only read-only
arrays; none holds an operator or a factor:

- `csr_pattern`: the 5-point CSR layout, the face node arrays and the
  ``data`` slots every fill scatters into.
- `face_geometry`: the area and node distance of every face in `CsrPattern`
  face order, which every operator fill and `divergence_of_face_flux` read
  instead of rebuilding them from the mesh each call.
- `_band_layout`: the map from CSR ``data`` slots to LAPACK band storage.
- `_condensed_layout`: the red-black condensation map, from faces to kept and
  eliminated nodes and from pair products to the Cholesky's reduced band;
  `_condensed_lu_layout`, its copy into the LU's, only where one is needed.

Face fields. A coefficient, speed or flux on the dual faces is one array of
``mesh.n_faces`` values in `CsrPattern` face order, the (nz1, nr) r faces
row by row and then the (nz, nr1) z faces; a stacked field puts its species
axis first. `face_families` gives the two family views to a caller that
needs the (r, z) shapes.

Species transport on a mesh wider than `_DIRECT_MAX_WIDTH` does not factor
every step. A `SpeciesSolver` per species keeps an incomplete LU (``spilu``,
drop tolerance `_ILU_DROP_TOL`, fill factor `_ILU_FILL_FACTOR`) of an earlier
operator in SuperLU's own minimum-degree order, and solves each step by
GMRES(`_GMRES_RESTART`) preconditioned by it; the species operators change
slowly from step to step, so the kept ILU usually serves until the flow
stops. Narrower meshes factor the species afresh each step. The potential
keeps a fresh `factorize` each step at every width: on injection_fine's
73-wide mesh even the full LU of its first operator needed 21-23 GMRES
iterations to precondition the later ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .mesh import AxiMesh


@dataclass(frozen=True)
class CsrPattern:
    """The 5-point CSR layout of one mesh; every array is read-only.

    Faces are listed r faces first, then z faces; face f joins node ``lo[f]``
    to the next node ``hi[f]``. ``scatter`` holds the ``data`` slots of the
    four entries of every face in four blocks, (lo, lo), (lo, hi), (hi, lo)
    and (hi, hi), and then the diagonal slot of every node.
    """

    indptr: np.ndarray
    indices: np.ndarray
    diag: np.ndarray  # data slot of each node's diagonal entry
    lo: np.ndarray
    hi: np.ndarray
    scatter: np.ndarray


def csr_pattern(mesh: AxiMesh) -> CsrPattern:
    """The mesh's operator pattern, built on first use and kept on the mesh."""
    return mesh.derived("csr_pattern", _build_csr_pattern)


def _build_csr_pattern(mesh: AxiMesh) -> CsrPattern:
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
    return CsrPattern(indptr.astype(np.int32), cols[order].astype(np.int32),
                      diag, lo, hi, np.concatenate([diag[lo], lo_hi, hi_lo, diag[hi], diag]))


@dataclass(slots=True)
class Operator:
    """A sparse operator as plain data: its mesh's `CsrPattern` and the ``data``
    array of its entries in that pattern's CSR order."""

    pattern: CsrPattern
    data: np.ndarray


def _csr(a: Operator) -> sp.csr_matrix:
    """The operator as a scipy CSR matrix, for ``spilu`` and matvecs."""
    n = a.pattern.indptr.size - 1
    return sp.csr_matrix((a.data, a.pattern.indices, a.pattern.indptr), shape=(n, n))


#: Widest mesh (nodes per row, nr1) that `factorize` factors as a plain band.
#: Factor plus solve through `factorize` of a transport operator, by the
#: band LU and by the condensed LU, and of its symmetric part, by the
#: condensed Cholesky, on uniform n x n meshes; best of 30 interleaved
#: rounds in two runs, one BLAS thread, 2-core Xeon, in us:
#:
#:   nr1                   17     21     25     33     41     48
#:   band LU              102    130    244    387    965   1558
#:   condensed LU         141    136    205    310    688   1002
#:   condensed Cholesky   107     95    145    269    496    764
#:
#: At 17 wide the gathers of the reduce and the back-substitution cost more
#: than the halved band saves, and at 21 the condensed LU breaks even;
#: condensing wins from 25 wide on.
_BAND_MAX_WIDTH = 24
#: Widest mesh on which a `SpeciesSolver` factors its operator afresh each
#: step; wider ones run GMRES on a kept ILU. Mean ms a solve, fresh condensed
#: LU / kept ILU with its builds and any fallback, over whole phases of a
#: pipeline on n x n meshes (fine graded 1.03): 500 injection steps of 0.02 s
#: or 40 of 0.25 s, and a 1 h long phase of 78; best of two runs, as above:
#:
#:   nr1                  25       33       41       49       65       73
#:   Na+  inj .02    .23/.58  .36/.38  .70/.75  1.2/1.3  4.2/2.3  7.5/3.2
#:   H+   inj .02    .23/.57  .36/.60  .69/.99  1.2/1.5  3.8/2.5  6.2/3.4
#:   drug inj .02    .22/.55  .35/.52  .69/.86  1.2/1.2   10/1.7   21/2.3
#:   Na+  inj .25    .24/.40  .55/.63  1.2/1.1  1.2/.87  3.7/1.3  6.8/1.9
#:   H+   inj .25    .23/.32  .47/.52  1.1/.99  1.1/.78  3.2/1.5  6.1/2.4
#:   drug inj .25    .23/.30  .43/.48  1.1/.85  1.1/.69  3.7/1.2  8.6/1.9
#:   Na+  long       .24/.61  .41/.85  .70/1.2  1.1/1.7  3.4/3.2  5.6/4.6
#:   H+   long       .23/.94  .38/1.1  .69/1.8  1.2/2.4  3.2/3.7  5.3/6.0
#:   drug long       .24/.40  .35/.46  .69/.65  1.1/.85  3.2/1.9  5.5/2.7
#:
#: Each ILU was built 1-6 times a phase; only the long H+ one failed for good
#: (65, 73). Direct wins to 33, and at 49 on 0.02 s and long steps.
_DIRECT_MAX_WIDTH = 48


@dataclass(frozen=True)
class BandLayout:
    """LAPACK band storage of a mesh's operators; ``slots`` is read-only.

    With half-width ``width`` w, entry (i, j) of an operator sits at
    ``ab[2w + i - j, j]`` of the column-major ``(3w + 1, n)`` array that
    ``dgbtrf`` factors in place; its top w rows take the fill of row
    interchanges. ``slots[s]`` is the flat position of CSR ``data`` slot s in
    that array's memory. ``l_nnz`` and ``u_nnz`` count the entries the band
    factors store: up to w below the diagonal of L, and the diagonal and up
    to 2w above it in U.
    """

    width: int
    slots: np.ndarray
    l_nnz: int
    u_nnz: int


def _below(n: int, w: int) -> int:
    """Entries within ``w`` below the diagonal of an n x n matrix."""
    return int(np.minimum(np.arange(n), w).sum())


def _band_layout(mesh: AxiMesh) -> BandLayout:
    """The mesh's band layout; `factorize` keeps it on the mesh."""
    pattern = csr_pattern(mesh)
    n, w = mesh.n_nodes, mesh.nr1
    rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
    cols = pattern.indices.astype(np.intp)
    slots = cols * (3 * w + 1) + 2 * w + rows - cols
    return BandLayout(w, slots, _below(n, w), _below(n, 2 * w) + n)


@dataclass(frozen=True)
class StoredEntries:
    """A band factor's L or U, of which only the stored-entry count is kept."""

    nnz: int


@dataclass(slots=True, eq=False)
class BandLU:
    """Banded LU of an operator; ``solve`` answers ``A x = b`` in mesh numbering.

    ``piv`` holds LAPACK's row interchanges, 0-based: step i swapped rows i
    and ``piv[i]``. ``L`` and ``U`` report only ``nnz``, their stored entries.
    Given ``_refine``, A in extended precision, ``solve`` refines once on a
    residual summed in extended precision (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 12): the error falls to round-off unless A is
    near singular.
    """

    _ab: np.ndarray
    piv: np.ndarray
    _band: BandLayout
    _refine: sp.csr_matrix | None

    @property
    def L(self) -> StoredEntries:
        return StoredEntries(self._band.l_nnz)

    @property
    def U(self) -> StoredEntries:
        return StoredEntries(self._band.u_nnz)

    def solve(self, b: np.ndarray) -> np.ndarray:
        w = self._band.width
        x = lapack.dgbtrs(self._ab, w, w, b, self.piv)[0]
        if self._refine is not None:
            x += lapack.dgbtrs(self._ab, w, w, (b - self._refine @ x).astype(float), self.piv)[0]
        return x


@dataclass(frozen=True)
class CondensedLayout:
    """Red-black condensation of a mesh's operators; arrays read-only.

    The 5-point pattern couples each node only to nodes of the other colour
    of a checkerboard. The colour of the mesh's last node is kept, in mesh
    order (``kept``); the other colour, ``red``, is eliminated. Its block
    ``D`` is diagonal, so the Schur complement ``S = A_KK - A_KR D⁻¹ A_RK``
    on the kept nodes is exact (Buzbee, Golub & Nielson, SIAM J. Numer.
    Anal. 7, 1970; Elman & Golub, Math. Comp. 54, 1990, if A is not
    symmetric), a band of half-width ``width`` (nr1 from three rows on).

    Face f joins kept node ``kept[face_kept[f]]`` to red node
    ``red[face_red[f]]``; ``rk[f]`` and ``kr[f]`` are the CSR ``data`` slots
    of its entries in A_RK and A_KR. ``pair_f`` and ``pair_g`` list each pair
    of distinct faces on one red node once, the earlier kept node's face
    first. ``slots`` place the kept diagonal, each face's product with itself
    and each pair's product below the diagonal in the column-major
    ``(width + 1, n_kept)`` array ``dpbtrf`` factors, (i, j) at
    ``ab[i - j, j]``; in `_condensed_lu_layout`'s copy they place them, then
    each pair's product above the diagonal, in the ``(3 width + 1, n_kept)``
    one of ``dgbtrf``, at ``ab[2 width + i - j, j]``.
    """

    kept: np.ndarray
    red: np.ndarray
    rk: np.ndarray
    kr: np.ndarray
    face_kept: np.ndarray
    face_red: np.ndarray
    pair_f: np.ndarray
    pair_g: np.ndarray
    slots: np.ndarray
    width: int


def _condensed_layout(mesh: AxiMesh) -> CondensedLayout:
    """The mesh's condensation map; `factorize` keeps it on the mesh."""
    pattern = csr_pattern(mesh)
    nz1, nr1, faces = mesh.nz1, mesh.nr1, pattern.lo.size
    is_kept = np.zeros((nz1, nr1), dtype=bool)
    first = (nz1 + nr1) % 2  # the first kept column of row 0
    is_kept[::2, first::2] = is_kept[1::2, 1 - first::2] = True
    is_kept = is_kept.ravel()
    kept, red = np.flatnonzero(is_kept), np.flatnonzero(~is_kept)
    index = np.empty(mesh.n_nodes, dtype=np.intp)
    index[kept], index[red] = np.arange(kept.size), np.arange(red.size)
    lo_kept = is_kept[pattern.lo]
    face_kept = index[np.where(lo_kept, pattern.lo, pattern.hi)]
    face_red = index[np.where(lo_kept, pattern.hi, pattern.lo)]
    lo_hi, hi_lo = pattern.scatter[faces:3 * faces].reshape(2, faces)
    # the faces of each red node toward -r, +r, -z and +z, and which it has;
    # in each pair below, the first face's kept node comes first in mesh order
    j, i = np.divmod(red, nr1)
    r_face = j * mesh.nr + i
    z_face = nz1 * mesh.nr + red
    around = (r_face - 1, r_face, z_face - nr1, z_face)
    has = (i > 0, i < nr1 - 1, j > 0, j < nz1 - 1)
    f, g = [], []
    for one, other in ((0, 1), (2, 3), (2, 0), (0, 3), (2, 1), (1, 3)):
        both = has[one] & has[other]
        f.append(around[one][both])
        g.append(around[other][both])
    f, g = np.concatenate(f), np.concatenate(g)
    col = face_kept[f]
    below = face_kept[g] - col
    width = int(below.max(initial=0))
    diag = np.arange(kept.size)
    slots = np.concatenate([diag * (width + 1), face_kept * (width + 1), col * (width + 1) + below])
    return CondensedLayout(kept, red, np.where(lo_kept, hi_lo, lo_hi),
                           np.where(lo_kept, lo_hi, hi_lo), face_kept, face_red, f, g, slots, width)


def _condensed_lu_layout(mesh: AxiMesh) -> CondensedLayout:
    """The mesh's condensation map with ``slots`` into the LU's band, kept on
    the mesh by the first nonsymmetric operator `_condense` takes there."""
    band = mesh.derived("condensed_layout", _condensed_layout)
    col = band.face_kept[band.pair_f]
    below, ld = band.face_kept[band.pair_g] - col, 3 * band.width + 1
    return replace(band, slots=2 * band.width + np.concatenate(
        [np.arange(band.kept.size) * ld, band.face_kept * ld, col * ld + below,
         (col + below) * ld - below]))


@dataclass(slots=True, eq=False)
class CondensedFactor:
    """Red-black condensed factor; ``solve`` answers ``A x = b`` in mesh numbering.

    Holds ``S = L Lᵀ`` by ``dpbtrf`` (``piv`` None) or ``P S = L U`` by
    ``dgbtrf`` (0-based row interchanges ``piv``) of the Schur complement of
    the mesh's `CondensedLayout`, the eliminated diagonal ``d`` and, per face,
    its couplings over its red node's d, ``reduce`` of A_KR and ``back`` of
    A_RK: one array if A is symmetric. ``solve`` reduces b to
    ``b_K - A_KR D⁻¹ b_R``, solves S and back-substitutes
    ``x_R = D⁻¹ (b_R - A_RK x_K)``. ``L.nnz`` and ``U.nnz`` are the entries the
    reduced factor stores; a Cholesky's ``U`` is ``Lᵀ`` in the same storage,
    so its ``U.nnz`` is 0.
    """

    _ab: np.ndarray
    piv: np.ndarray | None
    _d: np.ndarray
    _reduce: np.ndarray
    _back: np.ndarray
    _band: CondensedLayout

    @property
    def L(self) -> StoredEntries:
        n, w = self._band.kept.size, self._band.width
        return StoredEntries(_below(n, w) + n * (self.piv is None))

    @property
    def U(self) -> StoredEntries:
        n, w = self._band.kept.size, self._band.width
        return StoredEntries(0 if self.piv is None else _below(n, 2 * w) + n)

    def solve(self, b: np.ndarray) -> np.ndarray:
        band = self._band
        b_red = b[band.red]
        b_kept = b[band.kept] - np.bincount(band.face_kept, self._reduce * b_red[band.face_red],
                                            minlength=band.kept.size)
        if self.piv is None:
            x_kept = lapack.dpbtrs(self._ab, b_kept, lower=1)[0]
        else:
            x_kept = lapack.dgbtrs(self._ab, band.width, band.width, b_kept, self.piv)[0]
        x = np.empty(b.size)
        x[band.kept] = x_kept
        x[band.red] = b_red / self._d - np.bincount(
            band.face_red, self._back * x_kept[band.face_kept], minlength=band.red.size)
        return x


def _is_symmetric(a: Operator) -> bool:
    """Whether the operator equals its transpose, compared exactly face by face."""
    scatter, faces = a.pattern.scatter, a.pattern.lo.size
    return np.array_equal(a.data[scatter[faces:2 * faces]],
                          a.data[scatter[2 * faces:3 * faces]])


#: ``spilu`` options for the kept ILUs: SuperLU's defaults are tuned for large
#: matrices, and relaxed supernodes and wide panels only add work on columns
#: with a few dozen nonzeros. With ``relax=1, panel_size=1`` the ILU of a
#: species operator built 1.36, 1.38 and 1.45x faster at 49, 73 and 201 wide.
_SMALL_SYSTEM = {"relax": 1, "panel_size": 1}


def factorize(mesh: AxiMesh, a: Operator):
    """Factor of an operator on the mesh pattern in LAPACK band storage, in the
    layout the mesh's width and the operator's symmetry pick.

    Only ``a.data`` is read. On a mesh at most `_BAND_MAX_WIDTH` nodes wide,
    it is scattered into band storage through the mesh's cached `BandLayout`
    and factored in place by ``dgbtrf``, with partial pivoting; no scipy
    matrix is built, and the solve is ``dgbtrs``. On a wider mesh, at any
    width, `_condense` takes it: by Cholesky if its face blocks are exactly
    symmetric, by LU if not. An operator it turns down takes the band LU,
    refined (`BandLU`).

    Past `_DIRECT_MAX_WIDTH` a species factor is the fallback of a failed
    kept ILU. Factor plus solve of each species' operator at the 8th
    injection step and the last step of a 1 h long phase of a pipeline on an
    81 x 81 mesh graded 1.03, condensed LU / the SuperLU factor it replaced,
    best of five, in ms: Na+, H+ and drug 11.0 / 16.0, 10.8 / 15.2 and
    10.7 / 15.9 (long); 7.9 / 13.3, 8.4 / 13.6 and 21.6 / 18.9 (injection).
    No config, demo or workload factors the drug's injection operator past
    48 wide; at 201 wide it took 1280 / 250 ms, with a 97.6 MB band. The
    Cholesky's band grows as nr1³ / 2, to 32.6 MB there.

    ``solve`` works in mesh numbering, and ``L.nnz + U.nnz`` is the entries
    the factors store (for Cholesky, ``L`` alone). Raises ``RuntimeError``
    for an exactly singular operator on every LU path.
    """
    pattern = csr_pattern(mesh)
    if a.data.size != pattern.indices.size:
        raise ValueError("factorize needs an operator on the mesh's 5-point pattern")
    if mesh.nr1 > _BAND_MAX_WIDTH:
        factor = _condense(mesh, a, _is_symmetric(a))
        if factor is not None:
            return factor
    band = mesh.derived("band_layout", _band_layout)
    w = band.width
    # the transpose of this C-ordered array is LAPACK's column-major band array
    ab = np.zeros((mesh.n_nodes, 3 * w + 1))
    ab.reshape(-1)[band.slots] = a.data
    lu, piv, info = lapack.dgbtrf(ab.T, w, w, overwrite_ab=1)
    if info > 0:
        raise RuntimeError(f"Factor is exactly singular: zero pivot in column {info - 1}")
    refine = None  # past the band limit, the fallback for an operator unsafe to condense
    if mesh.nr1 > _BAND_MAX_WIDTH:
        refine = _csr(Operator(pattern, a.data.astype(np.longdouble)))
    return BandLU(lu, piv, band, refine)


def _condense(mesh: AxiMesh, a: Operator, symmetric: bool) -> CondensedFactor | None:
    """The red-black condensed factor of an operator at any width, or None
    where condensing is not safe: where an eliminated pivot is zero or not
    finite (or, if the operator is symmetric, not positive), checked before
    any division; where a nonsymmetric operator's eliminated columns are not
    diagonally dominant, so that eliminating them without pivoting may grow
    S's entries (transport operators are M-matrices and pass); and where
    ``dpbtrf`` finds S, and so A, not positive definite. Raises
    ``RuntimeError`` if ``dgbtrf`` finds S exactly singular.
    """
    band = (mesh.derived("condensed_layout", _condensed_layout) if symmetric
            else mesh.derived("condensed_lu_layout", _condensed_lu_layout))
    diag = a.data[a.pattern.diag]
    d = diag[band.red]
    if not (np.isfinite(d).all() and ((d > 0.0) if symmetric else (d != 0.0)).all()):
        return None
    c_rk = a.data[band.rk]
    c_kr = c_rk if symmetric else a.data[band.kr]
    if not symmetric and not (np.bincount(band.face_red, np.abs(c_kr), minlength=band.red.size)
                              <= np.abs(d)).all():
        return None
    d_face = d[band.face_red]
    reduce = c_kr / d_face
    back = reduce if symmetric else c_rk / d_face
    f, g, n, w = band.pair_f, band.pair_g, band.kept.size, band.width
    # S: the kept diagonal, each face's own product, then each pair's lower
    # entry and, for the LU, its upper one
    parts = [diag[band.kept], -c_rk * reduce, -c_rk[f] * reduce[g]]
    if symmetric:
        ab = np.bincount(band.slots, np.concatenate(parts), minlength=n * (w + 1))
        factor, info = lapack.dpbtrf(ab.reshape(n, w + 1).T, lower=1, overwrite_ab=1)
        return CondensedFactor(factor, None, d, reduce, back, band) if info == 0 else None
    ab = np.bincount(band.slots, np.concatenate(parts + [-c_rk[g] * reduce[f]]),
                     minlength=n * (3 * w + 1))
    factor, piv, info = lapack.dgbtrf(ab.reshape(n, 3 * w + 1).T, w, w, overwrite_ab=1)
    if info > 0:
        raise RuntimeError(f"Factor is exactly singular: zero pivot in kept column {info - 1}")
    return CondensedFactor(factor, piv, d, reduce, back, band)


#: Kept-ILU species solves on wide meshes; see `SpeciesSolver`. On the 73-wide
#: mesh of the benchmark's injection_fine workload, the ILU of a transport
#: operator stores 40k entries. Over that workload's 6 s injection phase (72
#: species solves at dt 0.25 s) the solvers build 6 ILUs, at the first step
#: and at flow stop, and take 3.9 GMRES iterations a solve, with no fallback.
_ILU_DROP_TOL = 1e-4
_ILU_FILL_FACTOR = 2
_GMRES_RESTART = 8
#: GMRES cycles before the ILU counts as failed. On a 65-wide long phase at
#: 60 s steps, one cycle sent 241 of 414 solves to the direct fallback and
#: took 4.4 s; two sent 117 and took 3.9 s (5.4 s with a fresh LU a solve).
_GMRES_CYCLES = 2
#: GMRES aims below the acceptance bound `_KRYLOV_RTOL`: the residual's sum
#: is drug mass the solve loses. Aiming at 1e-12 left a budget closure of
#: 1.9e-13 on injection_fine and 6.6e-13 on that long phase; 1e-14 leaves
#: 1.0e-14 and 2.5e-14, for 4-9% more iterations.
_GMRES_RTOL = 1e-14
_KRYLOV_RTOL = 1e-12


@dataclass
class KrylovCounts:
    """Work of the kept-ILU species solves; all zero on narrow meshes.

    ``krylov_solves + direct_fallbacks`` is the number of species solves on
    a wide mesh; ``gmres_iterations`` counts rejected GMRES runs too.
    """

    krylov_solves: int = 0
    gmres_iterations: int = 0
    ilu_builds: int = 0
    direct_fallbacks: int = 0


class SpeciesSolver:
    """Solves one species' transport operator at each step of a phase.

    On a mesh at most `_DIRECT_MAX_WIDTH` wide every solve is a fresh
    `factorize`, past `_BAND_MAX_WIDTH` a condensed LU. On a wider mesh the
    solver keeps an incomplete LU of an earlier operator, cheaper there (the
    table at `_DIRECT_MAX_WIDTH`), built by ``spilu`` in SuperLU's own
    minimum-degree order, and answers ``A x = b`` by GMRES right-preconditioned
    by it, started from ``M⁻¹ b`` (`_gmres`). A result counts only when the
    explicitly computed residual ``‖b - A x‖ <= _KRYLOV_RTOL ‖b‖``. If it
    fails, the ILU is rebuilt on the current operator and GMRES runs once
    more; if a fresh ILU fails too, the solve goes to `factorize`, a
    condensed LU, and so does every later one of this solver. The ILU lives
    as long as the solver: its owner, the stepper of one phase, holds it, not the mesh.
    """

    __slots__ = ("mesh", "counts", "_ilu", "_direct")

    def __init__(self, mesh: AxiMesh, counts: KrylovCounts):
        self.mesh = mesh
        self.counts = counts
        self._ilu = None
        self._direct = mesh.nr1 <= _DIRECT_MAX_WIDTH

    def solve(self, a: Operator, b: np.ndarray) -> np.ndarray:
        if not self._direct:
            x = self._krylov(a, b)
            if x is not None:
                self.counts.krylov_solves += 1
                return x
            self._direct, self._ilu = True, None
        if self.mesh.nr1 > _DIRECT_MAX_WIDTH:
            self.counts.direct_fallbacks += 1
        return factorize(self.mesh, a).solve(b)

    def drop_preconditioner(self):
        """Forget the kept ILU, so that the next Krylov solve builds one on its
        own operator; for a step whose operator is far from the last one's.
        Whether the solver has gone direct is kept."""
        self._ilu = None

    def _krylov(self, a: Operator, b: np.ndarray) -> np.ndarray | None:
        """GMRES on the kept ILU, then on a fresh one; None if both fail."""
        matrix = _csr(a)  # the one scipy matrix of the solve, for its matvecs
        if self._ilu is not None:
            x = self._gmres(matrix, b)
            if x is not None:
                return x
        self._ilu = self._build_ilu(matrix)
        return self._gmres(matrix, b)

    def _build_ilu(self, matrix: sp.csr_matrix):
        self.counts.ilu_builds += 1
        return spla.spilu(matrix.tocsc(), drop_tol=_ILU_DROP_TOL,
                          fill_factor=_ILU_FILL_FACTOR, permc_spec="MMD_AT_PLUS_A",
                          **_SMALL_SYSTEM)

    def _gmres(self, a: sp.csr_matrix, b: np.ndarray) -> np.ndarray | None:
        """Restarted GMRES(`_GMRES_RESTART`) on ``A M⁻¹``, from ``x0 = M⁻¹ b``.

        Saad & Schultz, SISC 7 (1986), preconditioned on the right, so the
        Arnoldi residual is that of ``A x = b`` itself. Each cycle keeps its
        preconditioned basis vectors ``z_j = M⁻¹ v_j`` and updates
        ``x += Z y`` from them, so a run applies the ILU once for ``x0`` and
        once per iteration. The basis is orthogonalised by classical
        Gram-Schmidt applied twice. A cycle ends when the Arnoldi residual
        reaches ``_GMRES_RTOL ‖b‖``; the next one starts only if the explicit
        residual has not. Returns None if the explicit residual misses
        ``_KRYLOV_RTOL ‖b‖`` after `_GMRES_CYCLES` cycles.
        """
        precondition = self._ilu.solve
        m = _GMRES_RESTART
        target = _GMRES_RTOL * np.linalg.norm(b)
        x = precondition(b)
        r = b - a @ x
        r_norm = np.linalg.norm(r)
        for _ in range(_GMRES_CYCLES):
            if r_norm <= target:
                break
            v, z = np.empty((m + 1, b.size)), np.empty((m, b.size))
            hess = np.zeros((m, m))  # the triangle the rotations leave of H
            g = np.zeros(m + 1)  # Qᵀ (‖r‖ e_1), last entry the residual
            cs, sn = np.zeros(m), np.zeros(m)
            v[0], g[0] = r / r_norm, r_norm
            for j in range(m):
                z[j] = precondition(v[j])
                w = a @ z[j]
                h = v[:j + 1] @ w
                w -= h @ v[:j + 1]
                again = v[:j + 1] @ w
                w -= again @ v[:j + 1]
                h += again
                h_next = np.linalg.norm(w)
                for i in range(j):
                    h[i], h[i + 1] = (cs[i] * h[i] + sn[i] * h[i + 1],
                                      cs[i] * h[i + 1] - sn[i] * h[i])
                rho = np.hypot(h[j], h_next)
                cs[j], sn[j] = h[j] / rho, h_next / rho
                h[j] = rho
                hess[:j + 1, j] = h
                g[j + 1], g[j] = -sn[j] * g[j], cs[j] * g[j]
                self.counts.gmres_iterations += 1
                if abs(g[j + 1]) <= target:
                    break
                v[j + 1] = w / h_next
            k = j + 1
            x = x + np.linalg.solve(hess[:k, :k], g[:k]) @ z[:k]
            r = b - a @ x
            r_norm = np.linalg.norm(r)
        if r_norm <= _KRYLOV_RTOL * np.linalg.norm(b):
            return x
        return None


def _weights(mesh: AxiMesh, diag):
    """The ``bincount`` weights of one fill in `CsrPattern` scatter order, with
    the diagonal (scalar or per node) written, and a (4, faces) view of the
    per-face entry blocks (aa, ab, ba, bb) for the caller to write."""
    pattern = csr_pattern(mesh)
    faces = pattern.lo.size
    weights = np.empty(pattern.scatter.size)
    weights[4 * faces:] = np.ravel(diag)
    return weights, weights[:4 * faces].reshape(4, faces)


def _fill(mesh: AxiMesh, weights: np.ndarray) -> Operator:
    """Operator on the mesh pattern from the weights `_weights` laid out,
    summed into their slots by one ``bincount``."""
    pattern = csr_pattern(mesh)
    return Operator(pattern, np.bincount(pattern.scatter, weights=weights,
                                         minlength=pattern.indices.size))


def pin_nodes(a: Operator, nodes) -> Operator:
    """Make the given nodes' rows and columns those of the identity in place,
    which imposes x = 0 there for a right-hand side that is 0 there; a
    symmetric operator stays symmetric."""
    pattern = a.pattern
    faces = pattern.lo.size
    touched = np.isin(pattern.lo, nodes) | np.isin(pattern.hi, nodes)
    a.data[pattern.scatter[faces:3 * faces].reshape(2, faces)[:, touched]] = 0.0
    a.data[pattern.diag[nodes]] = 1.0
    return a


def face_families(mesh: AxiMesh, x: np.ndarray):
    """Views of a face field's r faces, (..., nz1, nr), and z faces, (..., nz, nr1);
    leading axes of ``x`` stack fields."""
    n_r, lead = mesh.nz1 * mesh.nr, x.shape[:-1]
    return (x[..., :n_r].reshape(lead + (mesh.nz1, mesh.nr)),
            x[..., n_r:].reshape(lead + (mesh.nz, mesh.nr1)))


def _empty_faces(mesh: AxiMesh, lead: tuple):
    """An empty face field with leading axes ``lead`` and its two family views."""
    out = np.empty(lead + (mesh.n_faces,))
    return (out, *face_families(mesh, out))


def harmonic_face_coefficients(mesh: AxiMesh, coef: np.ndarray) -> np.ndarray:
    """Harmonic mean of a positive nodal coefficient on every face."""
    out, out_r, out_z = _empty_faces(mesh, ())
    a, b = coef[:, :-1], coef[:, 1:]
    np.divide(2.0 * a * b, a + b, out=out_r)
    a, b = coef[:-1, :], coef[1:, :]
    np.divide(2.0 * a * b, a + b, out=out_z)
    return out


def face_averages(mesh: AxiMesh, x: np.ndarray) -> np.ndarray:
    """Arithmetic mean of a nodal field on every face."""
    out, out_r, out_z = _empty_faces(mesh, ())
    np.multiply(0.5, x[:, :-1] + x[:, 1:], out=out_r)
    np.multiply(0.5, x[:-1, :] + x[1:, :], out=out_z)
    return out


def face_gradients(mesh: AxiMesh, f: np.ndarray) -> np.ndarray:
    """df/dr on r faces and df/dz on z faces; leading axes of ``f`` stack fields."""
    out, g_r, g_z = _empty_faces(mesh, f.shape[:-2])
    np.divide(f[..., 1:] - f[..., :-1], mesh.dr, out=g_r)
    np.divide(f[..., 1:, :] - f[..., :-1, :], mesh.dz[:, None], out=g_z)
    return out


@dataclass(frozen=True)
class FaceGeometry:
    """Per-face geometry of one mesh in `CsrPattern` face order; arrays read-only."""

    area: np.ndarray  # dual-face area
    dist: np.ndarray  # distance between the face's two nodes


def face_geometry(mesh: AxiMesh) -> FaceGeometry:
    """The mesh's face geometry, built on first use and kept on the mesh."""
    return mesh.derived("face_geometry", _build_face_geometry)


def _build_face_geometry(mesh: AxiMesh) -> FaceGeometry:
    area, area_r, area_z = _empty_faces(mesh, ())
    area_r[...], area_z[...] = mesh.area_r, mesh.area_z
    dist, dist_r, dist_z = _empty_faces(mesh, ())
    dist_r[...], dist_z[...] = mesh.dr, mesh.dz[:, None]
    return FaceGeometry(area, dist)


def diffusion_matrix(mesh: AxiMesh, coef: np.ndarray | float, *,
                     diag: np.ndarray | float = 0.0,
                     speeds: np.ndarray | None = None) -> Operator:
    """Dual-volume discretization of -div(coef grad x); SPD with Neumann faces.

    ``coef`` is one value for every face or one per face. ``diag`` (scalar or
    per node) is added to the diagonal. It is already integrated over the
    dual cells, e.g. a storage term times node volumes. ``speeds``, the
    face-normal speeds, adds the upwind advection ``div(s x)`` of
    `upwind_advection_matrix` in the same fill; the operator is then no
    longer symmetric.
    """
    geometry = face_geometry(mesh)
    weights, blocks = _weights(mesh, diag)
    aa, ab, ba, bb = blocks
    # face transmissibilities T = area * coef / distance
    t = geometry.area * coef
    t /= geometry.dist
    if speeds is None:
        blocks[::3] = t  # aa and bb
        blocks[1:3] = -t  # ab and ba
        return _fill(mesh, weights)
    # area-weighted face speeds, split into flow toward each face's upper node
    # (>= 0, carried by the lower node) and toward its lower node (<= 0)
    f = geometry.area * speeds
    np.maximum(f, 0.0, out=aa)
    np.minimum(f, 0.0, out=ab)
    aa += t  # pos + t is t + pos to the bit: addition commutes
    np.subtract(t, ab, out=bb)
    ab -= t
    np.negative(aa, out=ba)  # -(t + pos) is -t - pos to the bit: rounding is sign-symmetric
    return _fill(mesh, weights)


def upwind_advection_matrix(mesh: AxiMesh, speeds: np.ndarray) -> Operator:
    """First-order upwind discretization of div(s x) from face-normal speeds.

    ``speeds`` are the characteristic speeds normal to each face (positive
    toward growing r on r faces and growing z on z faces). Boundary faces do
    not exist in the dual tessellation, so the operator is flux-free by
    construction. It is `diffusion_matrix` without diffusion.
    """
    return diffusion_matrix(mesh, 0.0, speeds=speeds)


def divergence_of_face_flux(mesh: AxiMesh, flux: np.ndarray) -> np.ndarray:
    """Net outward flux per dual cell from per-area face fluxes (2-D output)."""
    pattern = csr_pattern(mesh)
    f = face_geometry(mesh).area * flux
    out = np.bincount(np.concatenate([pattern.lo, pattern.hi]),
                      weights=np.concatenate([f, -f]), minlength=mesh.n_nodes)
    return out.reshape(mesh.nz1, mesh.nr1)
