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
operator built on the mesh. A scipy matrix is built only where ``spilu``,
a matrix-vector product or an extended-precision residual needs one.

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
  half the work of the full band. An operator condensation refuses takes
  the band LU. The tables at `_BAND_MAX_WIDTH` and in `factorize` record
  where each wins; the other family, the species' kept ILU of the same
  reduced system, is below.

Per-mesh caches. Each depends on the mesh alone, is built on first use by
`AxiMesh.derived`, lives as long as the mesh, and holds only read-only
arrays; none holds an operator or a factor:

- `csr_pattern`: the 5-point CSR layout, the face node arrays and the
  ``data`` slots every fill scatters into.
- `face_geometry`: the area and node distance of every face in `CsrPattern`
  face order, which every operator fill and `divergence_of_face_flux` read
  instead of rebuilding them from the mesh each call.
- `_band_layout`: the map from CSR ``data`` slots to LAPACK band storage.
- `condensed_layout`: the red-black condensation map of a mesh wider than
  `_BAND_MAX_WIDTH`, read by both families of factor below.

Face fields. A coefficient, speed or flux on the dual faces is one array of
``mesh.n_faces`` values in `CsrPattern` face order, the (nz1, nr) r faces
row by row and then the (nz, nr1) z faces; a stacked field puts its species
axis first. `face_families` gives the two family views to a caller that
needs the (r, z) shapes.

Species transport on a mesh wider than `_DIRECT_MAX_WIDTH` does not factor
every step. A `SpeciesSolver` per species condenses each operator red-black
as `factorize` does, keeps an incomplete LU (``spilu``, drop tolerance
`_ILU_DROP_TOL`, fill factor `_ILU_FILL_FACTOR`) of an earlier Schur
complement in SuperLU's own minimum-degree order, and solves each step's
reduced system, applied matrix-free (`ReducedSystem`), by
GMRES(`_GMRES_RESTART`) preconditioned by it; the species operators change
slowly from step to step, so the kept ILU serves until its couplings shift
by most of their size (`_ILU_SHIFT`), as where the flow stops. Narrower
meshes factor the species afresh each step. The potential keeps a fresh
`factorize` each step at every width: on injection_fine's 73-wide mesh
even the full LU of its first operator needed 21-23 GMRES iterations to
precondition the later ones.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _extended(a: Operator) -> sp.csr_matrix:
    """The operator in extended precision as a scipy CSR matrix, for the
    residual of a refined solve."""
    n = a.pattern.indptr.size - 1
    return sp.csr_matrix((a.data.astype(np.longdouble), a.pattern.indices, a.pattern.indptr),
                         shape=(n, n))


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
#: step; wider ones run GMRES on a kept ILU of the reduced system. Mean ms a
#: solve, fresh condensed LU / kept ILU with its builds and any fallback (the
#: Krylov path forced up to 48 wide), over whole phases of a pipeline on
#: n x n meshes (fine graded 1.03): 500 injection steps of 0.02 s or 40 of
#: 0.25 s, and a 1 h long phase of 78; best of two runs, as above:
#:
#:   nr1                  25       33       41       49       65       73
#:   Na+  inj .02    .21/.43  .36/.72  .69/.43  1.1/.84  3.4/1.7  6.7/2.1
#:   H+   inj .02    .20/.41  .34/.66  .67/.66  1.1/.81  3.0/1.6  5.1/2.0
#:   drug inj .02    .20/.41  .34/.65  .67/.61  1.0/.89  8.6/1.5   18/1.9
#:   Na+  inj .25    .20/.31  .35/.38  .72/.53  1.0/.62  3.1/1.0  5.3/1.2
#:   H+   inj .25    .19/.30  .33/.33  .68/.51  1.0/.60  2.9/1.1  4.4/1.4
#:   drug inj .25    .19/.27  .32/.30  .68/.44  1.0/.52  3.3/.85  6.8/1.0
#:   Na+  long       .21/.43  .33/.63  .68/.76  1.1/.96  3.1/1.7  4.7/2.2
#:   H+   long       .19/.61  .32/.89  .66/1.2  1.1/1.6  3.0/3.1  4.2/3.9
#:   drug long       .20/.35  .32/.47  .67/.59  1.1/.71  3.0/1.1  4.3/1.4
#:
#: Each ILU was built 3-15 times a phase and none failed for good. Direct
#: wins or ties to 33 wide, and in the long phase of Na+ to 41 and of H+ to
#: 65; the kept ILU wins on injection steps from 41 wide on.
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
    of its entries in A_RK and A_KR. ``pair_f`` and ``pair_g`` list each
    pair of distinct faces on one red node once, the earlier kept node's
    face first. S's entries (`_schur_entries`) go by ``lu_slots`` to the
    column-major ``(3 width + 1, n_kept)`` array ``dgbtrf`` factors, (i, j)
    at ``ab[2 width + i - j, j]``, and by ``csc_slots`` to S's CSC pattern
    for ``spilu``; all but the pairs' upper ones go by ``slots`` to the
    ``(width + 1, n_kept)`` one of ``dpbtrf``, at ``ab[i - j, j]``. The
    ``kr_`` and ``rk_`` arrays are A_KR and A_RK as CSR blocks, each row in
    face order, with the ``data`` slots of A's entries.
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
    lu_slots: np.ndarray
    csc_slots: np.ndarray
    csc_indptr: np.ndarray
    csc_indices: np.ndarray
    kr_slots: np.ndarray
    kr_indptr: np.ndarray
    kr_indices: np.ndarray
    rk_slots: np.ndarray
    rk_indptr: np.ndarray
    rk_indices: np.ndarray
    width: int


def condensed_layout(mesh: AxiMesh) -> CondensedLayout:
    """The mesh's condensation map, built on first use and kept on the mesh."""
    return mesh.derived("condensed_layout", _build_condensed_layout)


def _build_condensed_layout(mesh: AxiMesh) -> CondensedLayout:
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
    rk, kr = np.where(lo_kept, hi_lo, lo_hi), np.where(lo_kept, lo_hi, hi_lo)

    def around(nodes):
        # each node's faces toward -r, +r, -z and +z, in face order, and which it has
        j, i = np.divmod(nodes, nr1)
        r_face, z_face = j * mesh.nr + i, nz1 * mesh.nr + nodes
        return (np.array([r_face - 1, r_face, z_face - nr1, z_face]),
                np.array([i > 0, i < nr1 - 1, j > 0, j < nz1 - 1]))

    def csr(nodes, slots, cols):
        # a coupling block, row by row of ``nodes``
        near, has = around(nodes)
        near, indptr = near.T[has.T], np.concatenate([[0], np.cumsum(has.sum(axis=0))])
        return slots[near], indptr.astype(np.int32), cols[near].astype(np.int32)

    # each pair of a red node's faces, the earlier kept node's face first
    near, has = around(red)
    f, g = [], []
    for one, other in ((0, 1), (2, 3), (2, 0), (0, 3), (2, 1), (1, 3)):
        both = has[one] & has[other]
        f.append(near[one][both])
        g.append(near[other][both])
    f, g = np.concatenate(f), np.concatenate(g)
    col, row = face_kept[f], face_kept[g]
    below = row - col
    width = int(below.max(initial=0))
    diag, ld = np.arange(kept.size), 3 * width + 1
    slots = np.concatenate([diag * (width + 1), face_kept * (width + 1), col * (width + 1) + below])
    lu_slots = np.concatenate([diag * ld, face_kept * ld, col * ld + below, row * ld - below])
    lu_slots += 2 * width
    # S's CSC pattern: column k holds the kept nodes on the mesh at these (z, r)
    # offsets from node k, rows sorted; at[9 k + o] is offset o's slot (8 - o is -o).
    # Its index temporaries are int32, half the pages of intp ones to touch
    k_z, k_r = np.divmod(kept.astype(np.int32), np.int32(nr1))
    dz, dr = np.array([[-2, -1, -1, 0, 0, 0, 1, 1, 2], [0, -1, 1, -2, 0, 2, -1, 1, 0]],
                      dtype=np.int32)
    z, r = k_z[:, None] + dz, k_r[:, None] + dr
    on_mesh = (z >= 0) & (z < nz1) & (r >= 0) & (r < nr1)
    at = np.cumsum(on_mesh, dtype=np.int32) - 1
    o = np.searchsorted(dz * 5 + dr, (k_z[row] - k_z[col]) * 5 + k_r[row] - k_r[col])
    o, col9, row9 = o.astype(np.int32), 9 * col.astype(np.int32), 9 * row.astype(np.int32)
    csc_slots = at[np.concatenate([np.arange(4, 9 * kept.size, 9, dtype=np.int32),
                                   9 * face_kept.astype(np.int32) + 4, col9 + o, row9 + 8 - o])]
    csc_indptr = np.zeros(kept.size + 1, dtype=np.int32)
    np.cumsum(on_mesh.sum(axis=1, dtype=np.int32), out=csc_indptr[1:])
    return CondensedLayout(
        kept, red, rk, kr, face_kept, face_red, f, g, slots, lu_slots, csc_slots, csc_indptr,
        index[(z * nr1 + r)[on_mesh]].astype(np.int32),
        *csr(kept, kr, face_red), *csr(red, rk, face_kept), width)


@dataclass(slots=True, eq=False)
class CondensedFactor:
    """Red-black condensed factor; ``solve`` answers ``A x = b`` in mesh numbering.

    Holds ``S = L Lᵀ`` by ``dpbtrf`` (``piv`` None) or ``P S = L U`` by
    ``dgbtrf`` (0-based row interchanges ``piv``) of the Schur complement of
    the mesh's `CondensedLayout`, the eliminated diagonal ``d`` and, per face,
    its couplings over its red node's d, ``reduce`` of A_KR and ``back`` of
    A_RK: one array if A is symmetric. ``solve`` reduces b to
    ``b_K - A_KR D⁻¹ b_R``, solves S and back-substitutes
    ``x_R = D⁻¹ (b_R - A_RK x_K)``. ``L.nnz`` and ``U.nnz`` are the entries
    the reduced factor stores; a Cholesky's ``U`` is ``Lᵀ`` in the same
    storage, so its ``U.nnz`` is 0.
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
    symmetric, by LU if not. Every operator it turns down takes the one
    fallback, the band LU, refined (`BandLU`).

    Past `_DIRECT_MAX_WIDTH` a species factor is the fallback of a failed
    kept ILU or of an operator `_eliminable` refuses. Factor plus solve of
    each species' operator at the 8th injection step and the last step of a
    1 h long phase of a pipeline on an 81 x 81 mesh graded 1.03, condensed
    LU / the SuperLU factor it replaced, best of five, in ms: Na+, H+ and
    drug 11.0 / 16.0, 10.8 / 15.2 and 10.7 / 15.9 (long); 7.9 / 13.3, 8.4 /
    13.6 and 21.6 / 18.9 (injection).
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
    refine = None  # past the band limit, the one fallback for an operator `_condense` refuses
    if mesh.nr1 > _BAND_MAX_WIDTH:
        refine = _extended(a)
    return BandLU(lu, piv, band, refine)


#: Margin of the dominance check on eliminated columns: a column sum and its
#: diagonal add the same face terms in different orders, so a column dominant
#: by equality, as without storage, misses or exceeds its diagonal by up to
#: 1.5 eps on 49- to 73-wide meshes; it must not pass as strictly dominant.
_DOMINANCE_SLACK = 1.0 + 8.0 * np.finfo(float).eps


def _eliminable(d: np.ndarray, c_kr: np.ndarray, red_of: np.ndarray,
                symmetric: bool) -> bool:
    """Whether the red nodes of an operator can be eliminated without
    pivoting.

    ``d`` holds the red pivots and ``c_kr`` the entries of A_KR, entry i in
    red node ``red_of[i]``'s column. Elimination is not safe where a pivot
    is zero or not finite, or, if the operator is symmetric, not positive;
    and where a nonsymmetric operator's eliminated columns are not strictly
    diagonally dominant beyond `_DOMINANCE_SLACK`, so that eliminating them
    may grow S's entries (transport operators are M-matrices and pass). A
    column dominant only to round-off, with no storage at its node, marks an
    operator near singular, such as a row-pinned Neumann one.
    """
    if symmetric:
        return bool(np.isfinite(d).all() and (d > 0.0).all())
    column = np.bincount(red_of, np.abs(c_kr), minlength=d.size)
    return bool(np.isfinite(d).all() and (_DOMINANCE_SLACK * column < np.abs(d)).all())


def _schur_entries(band: CondensedLayout, kept_diag: np.ndarray, c_rk: np.ndarray,
                   reduce: np.ndarray, upper: bool) -> np.ndarray:
    """S's entries from A_KK's diagonal, and A_RK and A_KR / D in face order:
    the kept diagonal, each face's own product, then each pair's product below
    the diagonal and, if ``upper``, above it; every sum of S adds them so."""
    f, g = band.pair_f, band.pair_g
    parts = [kept_diag, -c_rk * reduce, -c_rk[f] * reduce[g]]
    return np.concatenate(parts + [-c_rk[g] * reduce[f]] if upper else parts)


def _condense(mesh: AxiMesh, a: Operator, symmetric: bool) -> CondensedFactor | None:
    """The red-black condensed factor of an operator at any width, or None
    where condensing is not safe: where `_eliminable` turns its red nodes
    down, and where ``dpbtrf`` finds S, and so A, not positive definite.
    Raises ``RuntimeError`` if ``dgbtrf`` finds S exactly singular.
    """
    band = condensed_layout(mesh)
    diag = a.data[a.pattern.diag]
    d = diag[band.red]
    c_rk = a.data[band.rk]
    c_kr = c_rk if symmetric else a.data[band.kr]
    if not _eliminable(d, c_kr, band.face_red, symmetric):
        return None
    d_face = d[band.face_red]
    reduce = c_kr / d_face
    back = reduce if symmetric else c_rk / d_face
    n, w = band.kept.size, band.width
    entries = _schur_entries(band, diag[band.kept], c_rk, reduce, upper=not symmetric)
    if symmetric:
        ab = np.bincount(band.slots, entries, minlength=n * (w + 1))
        factor, info = lapack.dpbtrf(ab.reshape(n, w + 1).T, lower=1, overwrite_ab=1)
        return CondensedFactor(factor, None, d, reduce, back, band) if info == 0 else None
    ab = np.bincount(band.lu_slots, entries, minlength=n * (3 * w + 1))
    factor, piv, info = lapack.dgbtrf(ab.reshape(n, 3 * w + 1).T, w, w, overwrite_ab=1)
    if info > 0:
        raise RuntimeError(f"Factor is exactly singular: zero pivot in kept column {info - 1}")
    return CondensedFactor(factor, piv, d, reduce, back, band)


#: Kept-ILU species solves on wide meshes; see `SpeciesSolver`. On the 73-wide
#: mesh of the benchmark's injection_fine workload, the ILU of a transport
#: operator's Schur complement stores 6-23k entries, where that of the full
#: operator stored 23-49k. Over that workload's 6 s injection phase (72
#: species solves at dt 0.25 s) the solvers build 6 ILUs, at the first step
#: and where the flow stops (`_ILU_SHIFT`), and take 3.1 GMRES iterations a
#: solve, with no fallback.
_ILU_DROP_TOL = 1e-4
_ILU_FILL_FACTOR = 2
#: A kept ILU is rebuilt before GMRES once A_KR's couplings have moved since
#: its build by more than this share of their largest magnitude then; the
#: flow starting or stopping moves them by their whole size. On
#: injection_fine the shift is at most 0.010 but at the flow stop (1.0, 0.9995
#: and 1.0), and 0.02 to 0.99 all give its 6 builds and 222 iterations. The
#: default fires it twice a species in the 0.1 s ramp-up and once at the stop:
#: 9 of its injection phase's 18 builds, beside 3 first builds and 6 after a
#: failed GMRES run, one of them while the step grows after the stop. Its
#: long phase drifts one solver to 0.897, and 0.5 fired 3 times there.
_ILU_SHIFT = 0.9
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


@dataclass(slots=True, eq=False)
class ReducedSystem:
    """One operator A condensed red-black for a Krylov solve: the Schur
    complement ``S = A_KK - A_KR D⁻¹ A_RK`` on the kept nodes, applied
    matrix-free by ``S @ x``.

    ``diag`` is A_KK, diagonal on the 5-point pattern, ``d`` the eliminated
    diagonal D, and ``kr`` and ``rk`` the CSR blocks A_KR and A_RK of the
    mesh's `CondensedLayout`; together they are every entry of A.

    A_KR and A_RK are applied here by scipy's CSR products and in
    `CondensedFactor` by ``bincount`` over the faces, each the faster where
    it runs. Best of 7, one BLAS thread, in µs, CSR / ``bincount``: at 73
    wide the reduce 20.1 / 36.9, the back-substitution 23.5 / 43.6 and an S
    product 27.9 / 64.2 (37.1 for A_KR by ``np.add.reduceat``); at 25 wide a
    condensed solve 26.6 / 27.3, but building the two CSR blocks costs 28.4
    against 130 for the whole `factorize`: a `SpeciesSolver` refills its
    kept blocks, and a fresh factor could not.
    """

    layout: CondensedLayout
    diag: np.ndarray
    d: np.ndarray
    kr: sp.csr_matrix
    rk: sp.csr_matrix

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.diag * x - self.kr @ (self.rk @ x / self.d)

    def matrix(self, a: Operator) -> sp.csc_matrix:
        """S formed from A for ``spilu``, exactly as the condensed LU's band holds it."""
        layout, n = self.layout, self.diag.size
        entries = _schur_entries(layout, self.diag, a.data[layout.rk],
                                 a.data[layout.kr] / self.d[layout.face_red], upper=True)
        data = np.bincount(layout.csc_slots, entries, minlength=layout.csc_indices.size)
        return sp.csc_matrix((data, layout.csc_indices, layout.csc_indptr), shape=(n, n))

    def reduce(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``b_R`` and the reduced right-hand side ``b_K - A_KR D⁻¹ b_R``."""
        b_red = b[self.layout.red]
        return b_red, b[self.layout.kept] - self.kr @ (b_red / self.d)

    def back_substitute(self, b_red: np.ndarray, x_kept: np.ndarray) -> np.ndarray:
        """x in mesh numbering from x_K, with ``x_R = D⁻¹ (b_R - A_RK x_K)``."""
        x = np.empty(b_red.size + x_kept.size)
        x[self.layout.kept] = x_kept
        x[self.layout.red] = (b_red - self.rk @ x_kept) / self.d
        return x

    def residual_norm(self, b: np.ndarray, x: np.ndarray) -> float:
        """``‖b - A x‖``, the kept rows' and the eliminated rows' parts summed
        from A's blocks."""
        kept, red = self.layout.kept, self.layout.red
        x_kept, x_red = x[kept], x[red]
        return float(np.hypot(np.linalg.norm(b[kept] - self.diag * x_kept - self.kr @ x_red),
                              np.linalg.norm(b[red] - self.d * x_red - self.rk @ x_kept)))


class SpeciesSolver:
    """Solves one species' transport operator at each step of a phase.

    On a mesh at most `_DIRECT_MAX_WIDTH` wide every solve is a fresh
    `factorize`, past `_BAND_MAX_WIDTH` a condensed LU. On a wider mesh the
    solver condenses each operator red-black, as `factorize` does, into its
    `ReducedSystem`: the Schur complement S on the kept nodes, the reduced
    system of Elman & Golub (Math. Comp. 54, 1990). It solves S by GMRES
    right-preconditioned by an incomplete LU of an earlier S, started from
    ``M⁻¹ b̃`` (`_gmres`), and back-substitutes the eliminated colour. S is
    applied matrix-free and formed only for ``spilu``, exactly the S that
    the condensed LU's band holds; ``spilu`` keeps its ILU in SuperLU's own
    minimum-degree order. On the benchmark's 73-wide mesh ILU(S) stores 2-4x
    fewer entries than the ILU of A did (the comment at `_ILU_DROP_TOL`) and
    applies 25-30% faster. The solver alone decides when to rebuild its ILU
    on the current S: before GMRES if A_KR's couplings have shifted by more
    than `_ILU_SHIFT` since its build, and after a GMRES run on it fails. A
    result counts only when the explicitly computed residual of the full
    system ``‖b - A x‖ <= _KRYLOV_RTOL ‖b‖``. If a fresh ILU fails too (or
    ``spilu`` meets a zero pivot), or if `_eliminable` refuses the operator,
    the solve goes to `factorize`, and so does every later one of this
    solver. The ILU lives as long as the solver: its owner, the stepper of
    one phase, holds it, not the mesh; so do the CSR blocks of A_KR and
    A_RK, whose ``data`` each solve refills.
    """

    __slots__ = ("mesh", "counts", "_ilu", "_built", "_blocks", "_direct")

    def __init__(self, mesh: AxiMesh, counts: KrylovCounts):
        self.mesh = mesh
        self.counts = counts
        self._ilu = None
        self._built = None  # A_KR's couplings at the ILU's build, and their largest magnitude
        self._blocks = None
        self._direct = mesh.nr1 <= _DIRECT_MAX_WIDTH

    def solve(self, a: Operator, b: np.ndarray) -> np.ndarray:
        if not self._direct:
            x = self._krylov(a, b)
            if x is not None:
                self.counts.krylov_solves += 1
                return x
            self._direct, self._ilu, self._blocks = True, None, None
        if self.mesh.nr1 > _DIRECT_MAX_WIDTH:
            self.counts.direct_fallbacks += 1
        return factorize(self.mesh, a).solve(b)

    def _krylov(self, a: Operator, b: np.ndarray) -> np.ndarray | None:
        """GMRES on the reduced system with the kept ILU, unless its couplings
        have shifted, then with a fresh one; None if both fail or if
        `_eliminable` refuses the operator."""
        layout = condensed_layout(self.mesh)
        if self._blocks is None:
            self._blocks = (
                sp.csr_matrix((np.empty(layout.kr_slots.size), layout.kr_indices,
                               layout.kr_indptr), shape=(layout.kept.size, layout.red.size)),
                sp.csr_matrix((np.empty(layout.rk_slots.size), layout.rk_indices,
                               layout.rk_indptr), shape=(layout.red.size, layout.kept.size)))
        kr, rk = self._blocks
        diag = a.data[a.pattern.diag]
        d = diag[layout.red]
        kr.data, rk.data = a.data[layout.kr_slots], a.data[layout.rk_slots]
        if not _eliminable(d, kr.data, kr.indices, symmetric=False):
            return None
        system = ReducedSystem(layout, diag[layout.kept], d, kr, rk)
        if self._ilu is not None:
            built, largest = self._built
            if np.abs(kr.data - built).max() <= _ILU_SHIFT * largest:
                x = self._gmres(system, b)
                if x is not None:
                    return x
        self._ilu = None  # freed before spilu builds its successor: a lower peak heap
        self.counts.ilu_builds += 1
        try:
            self._ilu = spla.spilu(system.matrix(a), drop_tol=_ILU_DROP_TOL,
                                   fill_factor=_ILU_FILL_FACTOR, permc_spec="MMD_AT_PLUS_A",
                                   **_SMALL_SYSTEM)
        except RuntimeError:  # spilu met a zero pivot: the fresh ILU fails
            return None
        self._built = kr.data, np.abs(kr.data).max()
        return self._gmres(system, b)

    def _gmres(self, system: ReducedSystem, b: np.ndarray) -> np.ndarray | None:
        """Restarted GMRES(`_GMRES_RESTART`) on ``S M⁻¹``, from ``M⁻¹ b̃``;
        the solution of ``A x = b`` in mesh numbering, or None.

        Saad & Schultz, SISC 7 (1986), preconditioned on the right, so the
        Arnoldi residual is that of the reduced system ``S x_K = b̃`` itself,
        ``b̃ = b_K - A_KR D⁻¹ b_R``. Each cycle keeps its preconditioned basis
        vectors ``z_j = M⁻¹ v_j`` and updates ``x_K += Z y`` from them, so a
        run applies the ILU once for ``x0`` and once per iteration. The basis
        is orthogonalised by classical Gram-Schmidt applied twice. A cycle
        ends when the Arnoldi residual reaches ``_GMRES_RTOL ‖b‖``, of the
        full b; the next one starts only if the explicit reduced residual has
        not. After `_GMRES_CYCLES` cycles at most, ``x_R`` is
        back-substituted, and None returned if the explicit residual of the
        full system misses ``_KRYLOV_RTOL ‖b‖``.
        """
        precondition = self._ilu.solve
        m = _GMRES_RESTART
        b_norm = np.linalg.norm(b)
        target = _GMRES_RTOL * b_norm
        b_red, b_kept = system.reduce(b)
        x = precondition(b_kept)
        r = b_kept - system @ x
        r_norm = np.linalg.norm(r)
        for _ in range(_GMRES_CYCLES):
            if r_norm <= target:
                break
            v, z = np.empty((m + 1, x.size)), np.empty((m, x.size))
            hess = np.zeros((m, m))  # the triangle the rotations leave of H
            g = np.zeros(m + 1)  # Qᵀ (‖r‖ e_1), last entry the residual
            cs, sn = np.zeros(m), np.zeros(m)
            v[0], g[0] = r / r_norm, r_norm
            for j in range(m):
                z[j] = precondition(v[j])
                w = system @ z[j]
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
            r = b_kept - system @ x
            r_norm = np.linalg.norm(r)
        x = system.back_substitute(b_red, x)
        if system.residual_norm(b, x) <= _KRYLOV_RTOL * b_norm:
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
