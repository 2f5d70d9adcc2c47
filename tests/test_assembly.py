"""Finite-volume operators on the shared 5-point pattern, against dense references."""

import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from depotsim import _assembly
from depotsim._assembly import (BandLU, CondensedFactor, KrylovCounts, SpeciesSolver,
                                condensed_layout, csr_pattern, diffusion_matrix, face_averages,
                                face_families, face_geometry, face_gradients, factorize,
                                harmonic_face_coefficients, pin_nodes,
                                upwind_advection_matrix)
from depotsim.mesh import AxiMesh


def graded_nodes(n: int, ratio: float) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum(0.1 * ratio ** np.arange(n))])


@pytest.fixture(scope="module")
def mesh():
    # 6 x 5 cells, grading 1.2: small enough for dense references
    return AxiMesh(r=graded_nodes(6, 1.2), z=graded_nodes(5, 1.2))


NARROW = {"6x5": (6, 5, 1.2), "9x7": (9, 7, 1.1)}


def mesh_fixture(meshes):
    return pytest.fixture(params=list(meshes.values()), ids=list(meshes))


@mesh_fixture({**NARROW, "48x12": (48, 12, 1.0)})
def fresh_mesh(request):
    # a new mesh per test, so no factorization layout is cached on it yet;
    # the narrow meshes take the band LU, 48x12 the condensed LU, or the
    # condensed Cholesky for a symmetric positive definite operator
    nr, nz, ratio = request.param
    return AxiMesh(r=graded_nodes(nr, ratio), z=graded_nodes(nz, ratio))


@mesh_fixture({**NARROW, "56x8": (56, 8, 1.02)})
def kept_ilu_mesh(request, monkeypatch):
    """A fresh mesh on which a `SpeciesSolver` keeps an ILU.

    56x8 is wider than `_DIRECT_MAX_WIDTH`; the narrow meshes take the kept
    ILU with that limit lowered for the test.
    """
    nr, nz, ratio = request.param
    mesh = AxiMesh(r=graded_nodes(nr, ratio), z=graded_nodes(nz, ratio))
    if mesh.nr1 <= _assembly._DIRECT_MAX_WIDTH:
        monkeypatch.setattr(_assembly, "_DIRECT_MAX_WIDTH", 0)
    return mesh


def scipy_csr(a):
    """An operator's scipy CSR form, built from its ``data``, ``indices`` and ``indptr``."""
    n = a.pattern.indptr.size - 1
    return sp.csr_matrix((a.data, a.pattern.indices, a.pattern.indptr), shape=(n, n))


def dense(a):
    return scipy_csr(a).toarray()


def random_faces(mesh, rng, low, high):
    """One uniform random value per face."""
    return rng.uniform(low, high, mesh.n_faces)


def faces(mesh):
    """(lower node, upper node, area, distance) of every dual face, in face
    order: the r faces row by row, then the z faces row by row."""
    for j in range(mesh.nz1):
        for i in range(mesh.nr):
            yield j * mesh.nr1 + i, j * mesh.nr1 + i + 1, mesh.area_r[j, i], mesh.dr[i]
    for j in range(mesh.nz):
        for i in range(mesh.nr1):
            yield j * mesh.nr1 + i, (j + 1) * mesh.nr1 + i, mesh.area_z[j, i], mesh.dz[j]


def dense_diffusion(mesh, coef, diag):
    a = np.diag(diag.ravel().astype(float))
    for (lo, hi, area, dist), c in zip(faces(mesh), coef):
        t = area * c / dist
        a[lo, lo] += t
        a[hi, hi] += t
        a[lo, hi] -= t
        a[hi, lo] -= t
    return a


def dense_upwind(mesh, speeds):
    a = np.zeros((mesh.n_nodes, mesh.n_nodes))
    for (lo, hi, area, _), s in zip(faces(mesh), speeds):
        flux = area * s
        upwind = lo if flux >= 0.0 else hi
        a[lo, upwind] += flux
        a[hi, upwind] -= flux
    return a


class TestSharedPattern:
    def test_every_operator_shares_one_pattern(self, mesh):
        rng = np.random.default_rng(0)
        pattern = csr_pattern(mesh)
        ops = [
            diffusion_matrix(mesh, random_faces(mesh, rng, 0.5, 2.0)),
            diffusion_matrix(mesh, 1.0, diag=mesh.node_volumes),
            upwind_advection_matrix(mesh, random_faces(mesh, rng, -1.0, 1.0)),
            pin_nodes(diffusion_matrix(mesh, 1.0),
                      np.arange(mesh.n_nodes).reshape(mesh.nz1, mesh.nr1)[:, -1]),
        ]
        for a in ops:
            assert a.pattern is pattern
        assert csr_pattern(mesh) is pattern

    def test_pattern_is_five_point(self, mesh):
        pattern = csr_pattern(mesh)
        n_faces = mesh.nz1 * mesh.nr + mesh.nz * mesh.nr1
        assert pattern.indices.size == mesh.n_nodes + 2 * n_faces
        assert np.array_equal(pattern.indices[pattern.diag], np.arange(mesh.n_nodes))

    def test_pattern_arrays_are_read_only(self, mesh):
        pattern = csr_pattern(mesh)
        for arr in (pattern.indptr, pattern.indices, pattern.diag, pattern.scatter):
            with pytest.raises(ValueError):
                arr[0] = 1
        a = diffusion_matrix(mesh, 1.0)
        with pytest.raises(ValueError):
            a.pattern.indices[0] = 1


def joined(x_r, x_z):
    """One face field from its r-face and z-face families; leading axes stack fields."""
    lead = x_r.shape[:-2]
    return np.concatenate([x_r.reshape(lead + (-1,)), x_z.reshape(lead + (-1,))], axis=-1)


# the per-family formulas the face functions were written as before every face
# field became one array; the layout must reproduce them bit for bit
def family_gradients(mesh, f):
    return ((f[..., 1:] - f[..., :-1]) / mesh.dr,
            (f[..., 1:, :] - f[..., :-1, :]) / mesh.dz[:, None])


def family_averages(x):
    return 0.5 * (x[:, :-1] + x[:, 1:]), 0.5 * (x[:-1, :] + x[1:, :])


def family_harmonic_means(coef):
    a, b = coef[:, :-1], coef[:, 1:]
    coef_r = 2.0 * a * b / (a + b)
    a, b = coef[:-1, :], coef[1:, :]
    return coef_r, 2.0 * a * b / (a + b)


class TestFaceLayout:
    def test_face_gradients_match_the_family_formulas(self, mesh):
        rng = np.random.default_rng(30)
        single = rng.normal(size=(mesh.nz1, mesh.nr1))
        stacked = rng.normal(size=(3, mesh.nz1, mesh.nr1))
        for f in (single, stacked):
            g = face_gradients(mesh, f)
            assert g.shape == f.shape[:-2] + (mesh.n_faces,)
            assert np.array_equal(g, joined(*family_gradients(mesh, f)))

    def test_face_averages_and_harmonic_means_match_the_family_formulas(self, mesh):
        rng = np.random.default_rng(31)
        x = rng.uniform(0.1, 3.0, (mesh.nz1, mesh.nr1))
        assert np.array_equal(face_averages(mesh, x), joined(*family_averages(x)))
        assert np.array_equal(harmonic_face_coefficients(mesh, x),
                              joined(*family_harmonic_means(x)))

    def test_face_families_are_views_of_the_face_field(self, mesh):
        for lead in ((), (3,)):
            x = np.zeros(lead + (mesh.n_faces,))
            x_r, x_z = face_families(mesh, x)
            assert x_r.shape == lead + (mesh.nz1, mesh.nr)
            assert x_z.shape == lead + (mesh.nz, mesh.nr1)
            assert np.shares_memory(x_r, x) and np.shares_memory(x_z, x)
            x_r[...], x_z[...] = 1.0, 2.0
            assert np.array_equal(x, joined(np.ones(x_r.shape), np.full(x_z.shape, 2.0)))

    def test_face_f_joins_the_pattern_nodes_lo_f_and_hi_f(self, mesh):
        pattern = csr_pattern(mesh)
        nodes = np.arange(mesh.n_nodes).reshape(mesh.nz1, mesh.nr1)
        lo_r, lo_z = face_families(mesh, pattern.lo)
        hi_r, hi_z = face_families(mesh, pattern.hi)
        assert np.array_equal(lo_r, nodes[:, :-1]) and np.array_equal(hi_r, nodes[:, 1:])
        assert np.array_equal(lo_z, nodes[:-1, :]) and np.array_equal(hi_z, nodes[1:, :])
        geometry = face_geometry(mesh)
        assert np.array_equal(geometry.area, joined(mesh.area_r, mesh.area_z))
        assert np.array_equal(geometry.dist, joined(
            np.broadcast_to(mesh.dr, (mesh.nz1, mesh.nr)),
            np.broadcast_to(mesh.dz[:, None], (mesh.nz, mesh.nr1))))


class TestOperators:
    def test_diffusion_matches_dense_reference(self, mesh):
        rng = np.random.default_rng(1)
        coef = random_faces(mesh, rng, 0.1, 3.0)
        diag = rng.uniform(0.0, 1.0, (mesh.nz1, mesh.nr1))
        a = diffusion_matrix(mesh, coef, diag=diag)
        expected = dense_diffusion(mesh, coef, diag)
        assert np.allclose(dense(a), expected, rtol=1e-14, atol=0.0)

    def test_diffusion_rows_sum_to_diag(self, mesh):
        rng = np.random.default_rng(2)
        diag = rng.uniform(0.0, 1.0, (mesh.nz1, mesh.nr1))
        a = scipy_csr(diffusion_matrix(mesh, random_faces(mesh, rng, 0.1, 3.0), diag=diag))
        scale = np.abs(a).sum(axis=1).A1
        assert np.all(np.abs(a.sum(axis=1).A1 - diag.ravel()) <= 1e-14 * scale)

    def test_upwind_matches_dense_reference(self, mesh):
        rng = np.random.default_rng(3)
        s = random_faces(mesh, rng, -1.0, 1.0)
        a = upwind_advection_matrix(mesh, s)
        assert np.allclose(dense(a), dense_upwind(mesh, s),
                           rtol=1e-14, atol=0.0)

    def test_upwind_columns_sum_to_zero(self, mesh):
        # whatever leaves one dual cell enters its neighbour: flux-free, conservative
        rng = np.random.default_rng(4)
        a = scipy_csr(upwind_advection_matrix(mesh, random_faces(mesh, rng, -1.0, 1.0)))
        scale = np.abs(a).sum(axis=0).A1
        assert np.all(np.abs(a.sum(axis=0).A1) <= 1e-14 * scale)

    def test_speeds_add_the_upwind_operator_in_one_fill(self, mesh):
        rng = np.random.default_rng(16)
        coef = random_faces(mesh, rng, 0.1, 3.0)
        s = random_faces(mesh, rng, -2.0, 2.0)
        diag = rng.uniform(0.0, 1.0, (mesh.nz1, mesh.nr1))
        a = diffusion_matrix(mesh, coef, diag=diag, speeds=s)
        expected = dense_diffusion(mesh, coef, diag) + dense_upwind(mesh, s)
        assert a.pattern is csr_pattern(mesh)
        assert np.allclose(dense(a), expected, rtol=1e-14,
                           atol=1e-14 * np.abs(expected).max())

    def test_pin_nodes_gives_identity_rows_and_columns_and_keeps_the_rest(self, mesh):
        rng = np.random.default_rng(5)
        a = diffusion_matrix(mesh, random_faces(mesh, rng, 0.1, 3.0),
                             diag=rng.uniform(0.0, 1.0, (mesh.nz1, mesh.nr1)))
        before = dense(a)
        nodes = np.array([0, 7, mesh.n_nodes - 1])
        assert pin_nodes(a, nodes) is a
        after = dense(a)
        identity = np.eye(mesh.n_nodes)
        assert np.array_equal(after[nodes], identity[nodes])
        assert np.array_equal(after[:, nodes], identity[:, nodes])
        kept = np.setdiff1d(np.arange(mesh.n_nodes), nodes)
        assert np.array_equal(after[np.ix_(kept, kept)], before[np.ix_(kept, kept)])
        assert np.array_equal(after, after.T)


def rim(mesh):
    return np.arange(mesh.n_nodes).reshape(mesh.nz1, mesh.nr1)[:, -1]


def pin_rows(a, rows):
    """Make the given rows identity rows in place, keeping their other entries as
    zeros: the operator loses its symmetry, so `factorize` takes an LU."""
    for row in np.atleast_1d(rows):
        lo, hi = a.pattern.indptr[row], a.pattern.indptr[row + 1]
        a.data[lo:hi] = a.pattern.indices[lo:hi] == row
    return a


def transport_operator(mesh, rng):
    a = diffusion_matrix(mesh, random_faces(mesh, rng, 0.1, 3.0),
                         diag=mesh.node_volumes / 0.1)
    a.data += upwind_advection_matrix(mesh, random_faces(mesh, rng, -2.0, 2.0)).data
    return a


def pressure_operator(mesh, rng):
    a = diffusion_matrix(mesh, random_faces(mesh, rng, 0.1, 3.0),
                         diag=rng.uniform(0.0, 1.0, (mesh.nz1, mesh.nr1)) * mesh.node_volumes)
    return pin_rows(a, rim(mesh))


def potential_operator(mesh, rng):
    return pin_rows(diffusion_matrix(mesh, random_faces(mesh, rng, 0.1, 3.0)), 0)


def pivoting_operator(mesh, rng):
    # the pinned row keeps a 1 on the diagonal while its column holds
    # transmissibilities far above 1, so partial pivoting leaves the diagonal
    return pin_rows(diffusion_matrix(mesh, random_faces(mesh, rng, 1e3, 3e3)), 7)


def grounded_potential_operator(mesh, rng):
    # as `potential._solve_neumann` builds it: the last node's diagonal doubled
    a = diffusion_matrix(mesh, random_faces(mesh, rng, 0.1, 3.0))
    a.data[a.pattern.diag[-1]] *= 2.0
    return a


def capacity_operator(mesh, rng):
    # storage V / dt plus diffusion, as a species operator with the flow stopped
    return diffusion_matrix(mesh, random_faces(mesh, rng, 0.1, 3.0),
                            diag=mesh.node_volumes / 0.1)


def pinned_pressure_operator(mesh, rng):
    # as `flow.PressureSolver` builds it: the rim pinned in rows and columns
    a = diffusion_matrix(mesh, random_faces(mesh, rng, 0.1, 3.0),
                         diag=rng.uniform(0.0, 1.0, (mesh.nz1, mesh.nr1)) * mesh.node_volumes)
    return pin_nodes(a, rim(mesh))


OPERATORS = [transport_operator, pressure_operator, potential_operator, pivoting_operator]
#: every operator on the narrow meshes, which take the band LU; past the band
#: limit condensation refuses a row-pinned operator, so the 48x12 mesh takes
#: the pipeline's own forms of the pressure and potential operators, and a
#: species operator with the flow stopped
FACTORED = [pytest.param(shape, build, id=f"{name}-{build.__name__}")
            for name, shape in NARROW.items() for build in OPERATORS] + [
    pytest.param((48, 12, 1.0), build, id=f"48x12-{build.__name__}")
    for build in (transport_operator, pinned_pressure_operator, grounded_potential_operator,
                  capacity_operator)]

#: the checks that refuse an operator past the band limit, as the error names them
ZERO_PIVOT = "a red pivot is zero or not finite"
NEGATIVE_PIVOT = "a symmetric operator's red pivot is not positive"
NOT_DOMINANT = "the eliminated columns are not strictly dominant"
INDEFINITE = "dpbtrf finds S not positive definite"


def assert_refused(mesh, a, check):
    """`factorize` refuses the operator, naming ``check``, and sets the values
    aside before any division: no warning either."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=f"operator refused: {check}"):
            factorize(mesh, a)


def stock_lu(a):
    return spla.splu(scipy_csr(a).tocsc(), permc_spec="MMD_AT_PLUS_A")


def fill(lu):
    return lu.L.nnz + lu.U.nnz


@pytest.fixture
def splu_calls(monkeypatch):
    """Lists `spla.splu` calls, which `factorize` must not make."""
    calls = []
    splu = spla.splu

    def counting(a, **kwargs):
        calls.append(a.shape)
        return splu(a, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    return calls


def mesh_of_width(nr1):
    return AxiMesh(r=graded_nodes(nr1 - 1, 1.02), z=graded_nodes(3, 1.2))


class TestFactorize:
    @pytest.mark.parametrize("fresh_mesh, build", FACTORED, indirect=["fresh_mesh"])
    def test_solve_matches_dense_solve(self, fresh_mesh, build):
        rng = np.random.default_rng(6)
        a = build(fresh_mesh, rng)
        b = rng.normal(size=fresh_mesh.n_nodes)
        expected = np.linalg.solve(dense(a), b)
        # the first factorization builds the mesh's layout, the second reuses it
        for lu in (factorize(fresh_mesh, a), factorize(fresh_mesh, a)):
            x = lu.solve(b)
            assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
            assert fill(lu) > 0  # the benchmark's tracer reads L.nnz + U.nnz

    def test_pivoting_operator_pivots_off_the_diagonal(self, kept_ilu_mesh):
        lu = stock_lu(pivoting_operator(kept_ilu_mesh, np.random.default_rng(6)))
        assert np.any(lu.perm_r != lu.perm_c)

    def test_mesh_keeps_no_reference_to_the_first_factor(self, kept_ilu_mesh):
        a = grounded_potential_operator(kept_ilu_mesh, np.random.default_rng(10))
        lu = factorize(kept_ilu_mesh, a)
        assert sys.getrefcount(lu) == 2  # the local name and the call's argument

    def test_rejects_an_operator_off_the_mesh_pattern(self, fresh_mesh):
        with pytest.raises(ValueError):
            factorize(fresh_mesh, sp.identity(fresh_mesh.n_nodes, format="csr"))

    @pytest.mark.parametrize("nr1, layout", [
        (17, BandLU), (24, BandLU), (25, CondensedFactor), (48, CondensedFactor),
        (49, CondensedFactor), (81, CondensedFactor), (151, CondensedFactor),
        (152, CondensedFactor), (201, CondensedFactor)],
        ids=lambda x: getattr(x, "__name__", str(x)))
    def test_mesh_width_picks_the_layout(self, splu_calls, nr1, layout):
        # the band LU up to the band limit; past it, at any width, the condensed
        # Cholesky if the operator is symmetric and the condensed LU if not
        rng = np.random.default_rng(11)
        m = mesh_of_width(nr1)
        for build, cholesky in ((capacity_operator, True), (transport_operator, False)):
            for _ in range(2):  # the first factor builds the mesh's layout
                a = build(m, rng)
                lu = factorize(m, a)
                assert isinstance(lu, layout)
                assert layout is BandLU or (lu.piv is None) == cholesky
                b = rng.normal(size=m.n_nodes)
                expected = np.linalg.solve(dense(a), b)
                assert np.linalg.norm(lu.solve(b) - expected) <= 1e-12 * np.linalg.norm(expected)
        assert not splu_calls

    def test_one_condensation_map_serves_every_solve(self):
        # the Cholesky, the LU and the reduced system of a Krylov solve all
        # read the mesh's one condensed layout
        m = mesh_of_width(49)
        rng = np.random.default_rng(12)
        assert factorize(m, capacity_operator(m, rng)).piv is None
        assert factorize(m, transport_operator(m, rng)).piv is not None
        solver = SpeciesSolver(m, KrylovCounts())
        solver.solve(species_operator(m, 0.01, 10.0), species_rhs(m))
        assert solver.counts.krylov_solves == 1
        assert set(m._derived) == {"csr_pattern", "face_geometry", "condensed_layout"}

    def test_band_path_pivots_off_the_diagonal(self):
        m = mesh_of_width(17)
        lu = factorize(m, pivoting_operator(m, np.random.default_rng(6)))
        assert isinstance(lu, BandLU)
        assert np.any(lu.piv != np.arange(m.n_nodes))

    def test_singular_operator_raises(self, fresh_mesh):
        singular = diffusion_matrix(fresh_mesh, 0.0)
        with pytest.raises(RuntimeError):
            factorize(fresh_mesh, singular)
        # and again once a regular operator has set the mesh's layout up
        factorize(fresh_mesh, transport_operator(fresh_mesh, np.random.default_rng(13)))
        with pytest.raises(RuntimeError):
            factorize(fresh_mesh, singular)

    @pytest.mark.parametrize("nr", [48, 80])
    def test_a_red_row_pinned_operator_past_the_band_limit_is_refused(self, nr):
        # the Neumann operator with a red row pinned: the pin leaves that
        # column's transmissibilities far above the 1 on its diagonal
        m = AxiMesh(r=graded_nodes(nr, 1.0), z=graded_nodes(12, 1.0))
        rng = np.random.default_rng(7)
        red = condensed_layout(m).red
        assert_refused(m, pin_rows(diffusion_matrix(m, random_faces(m, rng, 0.1, 3.0)), red[0]),
                       NOT_DOMINANT)

    @pytest.mark.parametrize("nr", [48, 80])
    def test_an_operator_dominant_only_to_round_off_is_refused(self, nr):
        # the Neumann operator with its kept row 0 pinned: its red columns are
        # dominant only to round-off
        m = AxiMesh(r=graded_nodes(nr, 1.0), z=graded_nodes(12, 1.0))
        assert 0 in condensed_layout(m).kept
        rng = np.random.default_rng(7)
        assert_refused(m, potential_operator(m, rng), NOT_DOMINANT)
        # an operator with storage on every node is dominant strictly: condensed
        assert isinstance(factorize(m, transport_operator(m, rng)), CondensedFactor)

    def test_band_factor_counts_its_band(self):
        m = mesh_of_width(9)
        lu = factorize(m, transport_operator(m, np.random.default_rng(15)))
        w, ones = m.nr1, np.ones((m.n_nodes, m.n_nodes))
        assert lu.L.nnz == np.count_nonzero(np.tril(np.triu(ones, -w), -1))
        assert lu.U.nnz == np.count_nonzero(np.triu(np.tril(ones, 2 * w)))


WIDE = pytest.mark.parametrize("kept_ilu_mesh", [(56, 8, 1.02)], ids=["56x8"], indirect=True)


SPD_OPERATORS = [grounded_potential_operator, capacity_operator]

#: wide meshes with nr1 + nz1 even and odd, so that the last node, which keeps
#: its colour, falls on either colour of the checkerboard; nr1 odd and even
CONDENSED = {"56x8": (56, 8, 1.02), "56x9": (56, 9, 1.02), "49x6": (49, 6, 1.05),
             "49x7": (49, 7, 1.05)}


def colours(mesh):
    """Each node's colour on the checkerboard, (i + j) mod 2."""
    return (np.arange(mesh.nz1)[:, None] + np.arange(mesh.nr1)).ravel() % 2


class TestBandCholesky:
    @pytest.mark.parametrize("build", [grounded_potential_operator, pinned_pressure_operator],
                             ids=lambda f: f.__name__)
    def test_widest_default_mesh_solve_matches_dense_solve(self, build):
        # 201 wide, as the default fine mesh
        m = AxiMesh(r=graded_nodes(200, 1.01), z=graded_nodes(7, 1.2))
        assert m.nr1 == 201
        rng = np.random.default_rng(29)
        a = build(m, rng)
        b = rng.normal(size=m.n_nodes)
        expected = np.linalg.solve(dense(a), b)
        lu = factorize(m, a)
        assert isinstance(lu, CondensedFactor)
        assert np.linalg.norm(lu.solve(b) - expected) <= 1e-12 * np.linalg.norm(expected)

    @WIDE
    @pytest.mark.parametrize("build", SPD_OPERATORS, ids=lambda f: f.__name__)
    def test_spd_operator_solve_matches_dense_solve(self, kept_ilu_mesh, build):
        rng = np.random.default_rng(22)
        a = build(kept_ilu_mesh, rng)
        b = rng.normal(size=kept_ilu_mesh.n_nodes)
        expected = np.linalg.solve(dense(a), b)
        lu = factorize(kept_ilu_mesh, a)
        assert isinstance(lu, CondensedFactor)
        x = lu.solve(b)
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("shape", list(CONDENSED.values()), ids=list(CONDENSED))
    @pytest.mark.parametrize("build", [grounded_potential_operator, pinned_pressure_operator],
                             ids=lambda f: f.__name__)
    def test_condensed_solve_matches_dense_solve_on_either_colour(self, shape, build):
        nr, nz, ratio = shape
        m = AxiMesh(r=graded_nodes(nr, ratio), z=graded_nodes(nz, ratio))
        rng = np.random.default_rng(27)
        a = build(m, rng)
        b = rng.normal(size=m.n_nodes)
        expected = np.linalg.solve(dense(a), b)
        lu = factorize(m, a)
        assert isinstance(lu, CondensedFactor)
        assert np.linalg.norm(lu.solve(b) - expected) <= 1e-12 * np.linalg.norm(expected)
        # the last node's colour is kept, so the grounded node stays the last pivot
        layout = condensed_layout(m)
        colour = colours(m)
        assert layout.kept[-1] == m.n_nodes - 1
        assert np.all(colour[layout.kept] == colour[-1])
        assert np.all(colour[layout.red] != colour[-1])
        assert layout.kept.size + layout.red.size == m.n_nodes

    def test_cholesky_factor_counts_its_band(self):
        # the band of the Schur complement on the last node's colour, half-width nr1
        m = mesh_of_width(49)
        lu = factorize(m, capacity_operator(m, np.random.default_rng(24)))
        kept = np.count_nonzero(colours(m) == colours(m)[-1])
        w, ones = m.nr1, np.ones((kept, kept))
        assert lu.L.nnz == np.count_nonzero(np.tril(np.triu(ones, -w)))
        assert lu.U.nnz == 0  # U is L transposed, in the same storage


#: meshes past the band limit, (nr1, nz1) in nodes: nr1 + nz1 odd and even, so
#: that the kept colour is either one, and nr1 odd and even; 58x6 is wider than
#: any `SpeciesSolver` factors directly
PAST_BAND = {"25x6": (25, 6), "25x7": (25, 7), "26x6": (26, 6), "48x7": (48, 7),
             "58x6": (58, 6)}


def mesh_of_nodes(nr1, nz1):
    return AxiMesh(r=graded_nodes(nr1 - 1, 1.03), z=graded_nodes(nz1 - 1, 1.1))


def storage_free_transport_operator(mesh, rng):
    """Diffusion and upwind advection without storage, the mesh's last row pinned."""
    a = diffusion_matrix(mesh, random_faces(mesh, rng, 0.1, 3.0),
                         speeds=random_faces(mesh, rng, -2.0, 2.0))
    return pin_rows(a, mesh.n_nodes - 1)


def kept_storage_transport_operator(mesh, rng):
    """A species transport operator with storage V / dt on the kept nodes alone."""
    kept = condensed_layout(mesh).kept
    storage = np.zeros(mesh.n_nodes)
    storage[kept] = mesh.node_volumes.ravel()[kept] / 0.01
    return diffusion_matrix(mesh, random_faces(mesh, rng, 0.5e-3, 1.5e-3),
                            diag=storage.reshape(mesh.nz1, mesh.nr1),
                            speeds=random_faces(mesh, rng, -1.0, 1.0))


class TestCondensedLU:
    @pytest.mark.parametrize("shape", list(PAST_BAND.values()), ids=list(PAST_BAND))
    @pytest.mark.parametrize("build", [transport_operator, capacity_operator],
                             ids=lambda f: f.__name__)
    def test_condensed_solve_matches_dense_solve(self, shape, build, splu_calls):
        m = mesh_of_nodes(*shape)
        rng = np.random.default_rng(40)
        a = build(m, rng)
        b = rng.normal(size=m.n_nodes)
        expected = np.linalg.solve(dense(a), b)
        lu = factorize(m, a)
        assert isinstance(lu, CondensedFactor)
        # the capacity operator is symmetric: the condensed Cholesky, no pivots
        assert (lu.piv is None) == (build is capacity_operator)
        assert np.linalg.norm(lu.solve(b) - expected) <= 1e-12 * np.linalg.norm(expected)
        assert not splu_calls

    def test_lu_factor_counts_its_band(self):
        # an LU of the Schur complement, half-width nr1: up to nr1 below the
        # diagonal in L, the diagonal and up to 2 nr1 above it in U
        m = mesh_of_width(30)
        lu = factorize(m, transport_operator(m, np.random.default_rng(41)))
        kept = np.count_nonzero(colours(m) == colours(m)[-1])
        w, ones = m.nr1, np.ones((kept, kept))
        assert lu.L.nnz == np.count_nonzero(np.tril(np.triu(ones, -w), -1))
        assert lu.U.nnz == np.count_nonzero(np.triu(np.tril(ones, 2 * w)))

    @pytest.mark.parametrize("shape", [PAST_BAND[k] for k in ("25x7", "26x6", "58x6")],
                             ids=["25x7", "26x6", "58x6"])
    # a symmetric operator's eliminated pivots must be positive as well
    @pytest.mark.parametrize("build, value", [
        (transport_operator, 0.0), (transport_operator, np.inf), (capacity_operator, 0.0),
        (capacity_operator, -1.0), (capacity_operator, np.inf)],
        ids=lambda x: getattr(x, "__name__", str(x)))
    def test_an_eliminated_pivot_zero_or_not_finite_is_refused(self, shape, build, value):
        m = mesh_of_nodes(*shape)
        a = build(m, np.random.default_rng(42))
        red = condensed_layout(m).red
        a.data[a.pattern.diag[red[red.size // 2]]] = value
        assert_refused(m, a, NEGATIVE_PIVOT if value < 0.0 else ZERO_PIVOT)

    @pytest.mark.parametrize("cells", [(48, 12), (56, 8), (72, 20)], ids=["48x12", "56x8", "72x20"])
    def test_columns_dominant_by_equality_are_refused(self, cells):
        # without storage every column of a diffusion-plus-upwind operator sums
        # to 0; pinning the last row, which is kept, makes it regular
        m = AxiMesh(r=graded_nodes(cells[0], 1.02), z=graded_nodes(cells[1], 1.1))
        a = storage_free_transport_operator(m, np.random.default_rng(46))
        band = condensed_layout(m)
        # a red column's sum and its diagonal add the same terms in different
        # orders: some exceed the diagonal by round-off
        column = np.bincount(band.face_red, np.abs(a.data[band.kr]), minlength=band.red.size)
        assert (column > np.abs(a.data[a.pattern.diag[band.red]])).any()
        assert_refused(m, a, NOT_DOMINANT)

    @pytest.mark.parametrize("nr1", [26, 58])
    def test_non_dominant_eliminated_columns_are_refused(self, nr1):
        m = mesh_of_width(nr1)
        a = pivoting_operator(m, np.random.default_rng(6))
        # its pinned row 7 is red: its column holds transmissibilities far
        # above the 1 on its diagonal
        assert 7 in condensed_layout(m).red
        assert not _assembly._is_symmetric(a)
        assert_refused(m, a, NOT_DOMINANT)

    @pytest.mark.parametrize("shape", [PAST_BAND["26x6"], PAST_BAND["58x6"]], ids=["26x6", "58x6"])
    def test_symmetric_indefinite_operator_is_refused(self, shape):
        # positive eliminated pivots, but kept diagonals lowered until S is
        # indefinite: dpbtrf turns it down
        m = mesh_of_nodes(*shape)
        rng = np.random.default_rng(45)
        a = diffusion_matrix(m, random_faces(m, rng, 0.1, 3.0))
        kept = condensed_layout(m).kept
        a.data[a.pattern.diag[kept]] -= 0.5 * a.data[a.pattern.diag].mean()
        assert _assembly._is_symmetric(a) and np.linalg.eigvalsh(dense(a)).min() < 0.0
        assert_refused(m, a, INDEFINITE)

    @pytest.mark.parametrize("shape", list(PAST_BAND.values()), ids=list(PAST_BAND))
    def test_singular_operator_raises(self, shape):
        m = mesh_of_nodes(*shape)
        a = transport_operator(m, np.random.default_rng(44))
        # a kept node's row all zero: S's row is zero, and dgbtrf finds it singular
        kept = condensed_layout(m).kept
        row = kept[kept.size // 2]
        a.data[a.pattern.indptr[row]:a.pattern.indptr[row + 1]] = 0.0
        with pytest.raises(RuntimeError, match="exactly singular"):
            factorize(m, a)
        # without storage or any face, every eliminated pivot is zero
        assert_refused(m, diffusion_matrix(m, 0.0), ZERO_PIVOT)



def species_operator(mesh, dt, speed):
    """A species transport operator with storage V / dt and speeds scaled to ``speed``.

    Diffusion and the speeds' pattern are fixed per mesh; ``speed`` 0 switches
    the speeds off, as at flow stop. Small dt keeps the operator
    storage-dominated; large dt makes it diffusion-dominated.
    """
    rng = np.random.default_rng(17)
    coef = random_faces(mesh, rng, 0.5e-3, 1.5e-3)
    s = random_faces(mesh, rng, -1.0, 1.0)
    return diffusion_matrix(mesh, coef, diag=mesh.node_volumes / dt, speeds=speed * s)


def species_rhs(mesh):
    return np.random.default_rng(18).uniform(0.5, 1.5, mesh.n_nodes)


@pytest.fixture
def spilu_calls(monkeypatch):
    """Lists the `spla.spilu` calls, which only species ILUs make."""
    calls = []
    spilu = spla.spilu

    def counting(*args, **kwargs):
        calls.append(args)
        return spilu(*args, **kwargs)

    monkeypatch.setattr(spla, "spilu", counting)
    return calls


@pytest.fixture
def gmres_runs(monkeypatch):
    """Lists, for each GMRES run of a `SpeciesSolver`, how many ILUs its
    counts had built when it started."""
    runs = []
    gmres = SpeciesSolver._gmres

    def spying(self, system, b):
        runs.append(self.counts.ilu_builds)
        return gmres(self, system, b)

    monkeypatch.setattr(SpeciesSolver, "_gmres", spying)
    return runs


#: meshes past the direct limit, (nr1, nz1) in nodes: nr1 + nz1 odd and even,
#: so that the kept colour is either one, and nr1 odd and even
REDUCED = {"49x8": (49, 8), "49x9": (49, 9), "50x8": (50, 8), "65x7": (65, 7),
           "81x6": (81, 6), "81x7": (81, 7)}


def dense_schur(mesh, a):
    """The Schur complement of an operator on its mesh's kept nodes, dense."""
    band = condensed_layout(mesh)
    full, kept, red = dense(a), band.kept, band.red
    return (full[np.ix_(kept, kept)]
            - full[np.ix_(kept, red)] @ (full[np.ix_(red, kept)] / np.diag(full)[red, None]))


#: 49 and 56 nodes wide with either colour kept, and a narrow mesh that takes
#: the kept ILU with the direct limit lowered; (nr, nz, grading) in cells
SCHUR = {"49x8": (48, 7, 1.03), "49x9": (48, 8, 1.03), "56x8": (55, 7, 1.03),
         "56x9": (55, 8, 1.03), "10x8": (9, 7, 1.1)}


def assert_solves(solver, mesh, a, b):
    x = solver.solve(a, b)  # first: on a fresh mesh no factor layout is built yet
    expected = factorize(mesh, a).solve(b)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


def krylov_work(counts):
    return counts.krylov_solves, counts.ilu_builds, counts.direct_fallbacks


def assert_solver_refuses(mesh, a, check):
    """A fresh `SpeciesSolver` refuses the operator, naming ``check``, before
    any ILU or direct factor, and sets the values aside before any division."""
    solver = SpeciesSolver(mesh, KrylovCounts())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=f"operator refused: {check}"):
            solver.solve(a, species_rhs(mesh))
    assert krylov_work(solver.counts) == (0, 0, 0)


class TestSpeciesSolver:
    @WIDE
    def test_kept_ilu_solve_matches_factorize(self, kept_ilu_mesh, spilu_calls):
        solver = SpeciesSolver(kept_ilu_mesh, KrylovCounts())
        b = species_rhs(kept_ilu_mesh)
        for speed in (10.0, 10.2, 10.4):
            assert_solves(solver, kept_ilu_mesh, species_operator(kept_ilu_mesh, 0.01, speed), b)
        assert krylov_work(solver.counts) == (3, 1, 0)
        assert solver.counts.gmres_iterations > 0
        assert len(spilu_calls) == 1

    @WIDE
    def test_the_kept_ilu_is_in_superlus_minimum_degree_order(self, kept_ilu_mesh):
        # of the Schur complement on the kept nodes, not of the full operator
        solver = SpeciesSolver(kept_ilu_mesh, KrylovCounts())
        a = species_operator(kept_ilu_mesh, 0.01, 10.0)
        solver.solve(a, species_rhs(kept_ilu_mesh))
        assert solver.counts.ilu_builds == 1
        schur = sp.csc_matrix(dense_schur(kept_ilu_mesh, a))
        assert solver._ilu.shape == schur.shape
        assert np.array_equal(solver._ilu.perm_c,
                              spla.splu(schur, permc_spec="MMD_AT_PLUS_A").perm_c)

    @pytest.mark.parametrize("kept_ilu_mesh", list(SCHUR.values()), ids=list(SCHUR),
                             indirect=True)
    def test_the_ilu_factors_the_condensed_lus_schur_complement(self, kept_ilu_mesh,
                                                                 spilu_calls, monkeypatch):
        # S formed for spilu is, bit for bit, the S of the condensed LU's band;
        # a sparse product A_KR (D⁻¹ A_RK) rounds about a third of it differently
        m = kept_ilu_mesh
        a = species_operator(m, 0.01, 10.0)
        bands = []
        dgbtrf = lapack.dgbtrf

        def capturing(ab, *args, **kwargs):
            bands.append(np.array(ab))
            return dgbtrf(ab, *args, **kwargs)

        monkeypatch.setattr(lapack, "dgbtrf", capturing)
        assert isinstance(_assembly._condense(m, a, symmetric=False), CondensedFactor)
        solver = SpeciesSolver(m, KrylovCounts())
        solver.solve(a, species_rhs(m))
        assert krylov_work(solver.counts) == (1, 1, 0)
        (ab,), ((schur, *_),) = bands, spilu_calls
        # the LU's band, (i, j) at ab[2 w + i - j, j], as a dense matrix
        w, n = condensed_layout(m).width, schur.shape[0]
        i, j = np.nonzero(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= w)
        band = np.zeros((n, n))
        band[i, j] = ab[2 * w + i - j, j]
        assert np.array_equal(schur.toarray(), band)
        exact = dense_schur(m, a)
        assert np.abs(band - exact).max() <= 1e-14 * np.abs(exact).max()

    @pytest.mark.parametrize("shape", list(REDUCED.values()), ids=list(REDUCED))
    def test_reduced_solve_matches_dense_solve(self, shape, spilu_calls):
        m = mesh_of_nodes(*shape)
        kept = condensed_layout(m).kept
        assert m.nr1 > _assembly._DIRECT_MAX_WIDTH
        solver = SpeciesSolver(m, KrylovCounts())
        b = species_rhs(m)
        for speed in (10.0, 10.2):  # a fresh ILU, then the kept one
            a = species_operator(m, 0.01, speed)
            expected = np.linalg.solve(dense(a), b)
            assert np.linalg.norm(solver.solve(a, b) - expected) <= 1e-12 * np.linalg.norm(expected)
        assert krylov_work(solver.counts) == (2, 1, 0)
        # the kept ILU is of the system on the kept nodes, about half of them
        assert solver._ilu.shape == (kept.size, kept.size)
        assert [args[0].shape for args in spilu_calls] == [(kept.size, kept.size)]

    @WIDE
    def test_one_ilu_is_built_per_flow_regime(self, kept_ilu_mesh, spilu_calls, gmres_runs):
        # where the flow stops the couplings shift by their whole size: the
        # first solve without it builds its ILU before it runs GMRES, once
        solver = SpeciesSolver(kept_ilu_mesh, KrylovCounts())
        b = species_rhs(kept_ilu_mesh)
        for step, speed in enumerate((10.0, 10.2, 10.4, 0.0, 0.0, 0.0)):
            dt = 0.01 * (1.0 + 0.02 * step)
            assert_solves(solver, kept_ilu_mesh, species_operator(kept_ilu_mesh, dt, speed), b)
        assert gmres_runs == [1, 1, 1, 2, 2, 2]
        assert krylov_work(solver.counts) == (6, 2, 0)
        assert len(spilu_calls) == 2

    @WIDE
    def test_a_fivefold_speed_jump_rebuilds_the_ilu_before_gmres(self, kept_ilu_mesh,
                                                                  spilu_calls, gmres_runs):
        # as in the ramp-up of the flow; the 2% steps after it keep that ILU
        solver = SpeciesSolver(kept_ilu_mesh, KrylovCounts())
        b = species_rhs(kept_ilu_mesh)
        for speed in (2.0, 10.0, 10.2, 10.4):
            assert_solves(solver, kept_ilu_mesh, species_operator(kept_ilu_mesh, 0.01, speed), b)
        assert gmres_runs == [1, 2, 2, 2]
        assert krylov_work(solver.counts) == (4, 2, 0)
        assert len(spilu_calls) == 2

    @WIDE
    @pytest.mark.parametrize("unsafe", ["non-dominant column", "zero red pivot"])
    def test_an_operator_unsafe_to_condense_is_refused(self, kept_ilu_mesh, spilu_calls,
                                                       unsafe):
        m = kept_ilu_mesh
        red = condensed_layout(m).red
        if unsafe == "non-dominant column":
            # its pinned row 7 is red: its column holds transmissibilities far
            # above the 1 on its diagonal
            assert 7 in red
            a, check = pivoting_operator(m, np.random.default_rng(6)), NOT_DOMINANT
        else:
            a, check = species_operator(m, 0.01, 10.0), ZERO_PIVOT
            a.data[a.pattern.diag[red[red.size // 2]]] = 0.0
        assert_solver_refuses(m, a, check)
        assert not spilu_calls

    @pytest.mark.parametrize("build", [kept_storage_transport_operator,
                                       storage_free_transport_operator],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("cells", [(48, 12), (56, 8), (72, 20)], ids=["48x12", "56x8", "72x20"])
    def test_columns_dominant_by_equality_are_refused_before_any_ilu(self, cells, build,
                                                                     spilu_calls):
        # every red column sums to its diagonal, to round-off
        m = AxiMesh(r=graded_nodes(cells[0], 1.02), z=graded_nodes(cells[1], 1.1))
        assert m.nr1 > _assembly._DIRECT_MAX_WIDTH
        assert_solver_refuses(m, build(m, np.random.default_rng(46)), NOT_DOMINANT)
        assert not spilu_calls

    @WIDE
    def test_switching_the_speeds_off_rebuilds_the_ilu(self, kept_ilu_mesh, spilu_calls):
        solver = SpeciesSolver(kept_ilu_mesh, KrylovCounts())
        b = species_rhs(kept_ilu_mesh)
        for speed in (10.0, 0.0):
            assert_solves(solver, kept_ilu_mesh, species_operator(kept_ilu_mesh, 0.01, speed), b)
        assert krylov_work(solver.counts) == (2, 2, 0)
        assert len(spilu_calls) == 2

    @WIDE
    def test_a_failing_fresh_ilu_falls_back_and_stays_direct(self, kept_ilu_mesh, spilu_calls):
        solver = SpeciesSolver(kept_ilu_mesh, KrylovCounts())
        b = species_rhs(kept_ilu_mesh)
        assert_solves(solver, kept_ilu_mesh, species_operator(kept_ilu_mesh, 1e4, 0.0), b)
        assert krylov_work(solver.counts) == (0, 1, 1)
        # an operator a fresh ILU would solve still goes to the direct solve
        assert_solves(solver, kept_ilu_mesh, species_operator(kept_ilu_mesh, 0.01, 10.0), b)
        assert krylov_work(solver.counts) == (0, 1, 2)
        assert len(spilu_calls) == 1

    @WIDE
    def test_a_solve_applies_the_ilu_once_per_iteration_and_once_for_x0(
            self, kept_ilu_mesh, monkeypatch):
        applications = []
        spilu = spla.spilu

        class CountedIlu:
            def __init__(self, ilu):
                self._ilu = ilu

            def solve(self, b):
                applications.append(1)
                return self._ilu.solve(b)

        monkeypatch.setattr(spla, "spilu", lambda *args, **kw: CountedIlu(spilu(*args, **kw)))
        solver = SpeciesSolver(kept_ilu_mesh, KrylovCounts())
        b = species_rhs(kept_ilu_mesh)
        for speed in (10.0, 10.2):  # a fresh ILU, then the kept one
            a = species_operator(kept_ilu_mesh, 0.01, speed)
            iterations, applied = solver.counts.gmres_iterations, len(applications)
            x = solver.solve(a, b)
            assert (len(applications) - applied
                    == solver.counts.gmres_iterations - iterations + 1)
            assert np.linalg.norm(b - scipy_csr(a) @ x) <= 1e-12 * np.linalg.norm(b)
        assert krylov_work(solver.counts) == (2, 1, 0)
        assert solver.counts.gmres_iterations > 0

    def test_narrow_meshes_never_build_an_ilu(self, spilu_calls):
        m = mesh_of_width(_assembly._DIRECT_MAX_WIDTH)
        solver = SpeciesSolver(m, KrylovCounts())
        b = species_rhs(m)
        for dt, speed in ((0.01, 10.0), (0.01, 0.0), (1e4, 0.0)):
            assert_solves(solver, m, species_operator(m, dt, speed), b)
        assert solver.counts == KrylovCounts()
        assert not spilu_calls
