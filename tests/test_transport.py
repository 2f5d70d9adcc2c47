"""Species transport: fluxes, conservation, positivity, migration physics."""

import numpy as np
import pytest
import scipy.sparse as sp

from depotsim._assembly import (KrylovCounts, SpeciesSolver, diffusion_matrix,
                                face_averages, face_families, upwind_advection_matrix)
from depotsim.mesh import build_graded_mesh, nodal_integral
from depotsim.config import default_config
from depotsim.transport import (TransportStepInputs, advance_species,
                                migration_face_speeds, tissue_ph)

DEFAULTS = default_config()
CONSTANTS = DEFAULTS.constants()
N = 0.1


@pytest.fixture(scope="module")
def mesh():
    return build_graded_mesh(5, 5, 32, 32, focus=(0, 4.2), grading=1.0)


def make_inputs(mesh, dt=0.1, phi=None, u=None, q=None, j_l=0.0,
                binding_assoc=0.0, binding_release=0.0):
    shape = (mesh.nz1, mesh.nr1)
    return TransportStepInputs(
        dt=dt, u=u if u is not None else np.zeros(mesh.n_faces),
        phi=phi if phi is not None else np.zeros(shape),
        q_p=q if q is not None else np.zeros(shape),
        c_max={"na": 4.2e-4, "h": 1e-9, "mab": 6.67e-7},
        porosity=N, j_l=j_l, binding_assoc=binding_assoc,
        binding_release=binding_release)


def fresh_solvers(mesh):
    """Fresh Na+, H+ and drug solvers, as a stepper builds them for a phase."""
    return tuple(SpeciesSolver(mesh, KrylovCounts()) for _ in range(3))


def transport_operator(mesh, diffusivity, valence, phi, u):
    """Diffusion plus upwind advection-migration, summed as the solver sums them."""
    # an ion's constant valence is its own face valence, as the pipeline passes it
    (w,) = migration_face_speeds(mesh, phi, [diffusivity], [valence], N, CONSTANTS)
    a = diffusion_matrix(mesh, diffusivity * N)
    a.data += upwind_advection_matrix(mesh, u + w).data
    return a


def scipy_csr(a):
    """An operator's scipy CSR form, built from its ``data``, ``indices`` and ``indptr``."""
    n = a.pattern.indptr.size - 1
    return sp.csr_matrix((a.data, a.pattern.indices, a.pattern.indptr), shape=(n, n))


def net_outflow(mesh, a, c):
    """Net outward flux per dual cell, (A c) reshaped onto the nodes."""
    return (a @ c.ravel()).reshape(mesh.nz1, mesh.nr1)


class TestSpeciesFlux:
    """Species fluxes as the pipeline computes them: through its operators."""

    def test_uniform_still_state_has_no_flux(self, mesh):
        c = np.full((mesh.nz1, mesh.nr1), 1.4e-4)
        phi = np.zeros((mesh.nz1, mesh.nr1))
        a = scipy_csr(transport_operator(mesh, 1.33e-5, 1.0, phi, np.zeros(mesh.n_faces)))
        gross = net_outflow(mesh, abs(a), c)
        assert np.all(np.abs(net_outflow(mesh, a, c)) <= 1e-12 * gross)

    def test_positive_ion_moves_down_potential(self, mesh):
        # Phi decreasing in r: the flux of a z=+1 species points toward +r
        c = np.full((mesh.nz1, mesh.nr1), 1e-4)
        phi = -0.01 * mesh.rr
        (w,) = migration_face_speeds(mesh, phi, [1.33e-5], [+1.0], N, CONSTANTS)
        w_r, w_z = face_families(mesh, w)
        assert np.all(w_r > 0) and np.all(w_z == 0)
        out = net_outflow(mesh, scipy_csr(upwind_advection_matrix(mesh, w)), c)
        # what leaves the columns up to i crosses the r-face between i and i+1
        assert np.all(np.cumsum(out, axis=1)[:, :-1] > 0)

    def test_ficks_law_value(self):
        # 1-D column: D = 1e-6, n = 0.1, dc/dz = 1 -> flux -1e-7 per unit area
        mesh = build_graded_mesh(1, 1, 8, 8, focus=(0, 0.5), grading=1.0)
        c = mesh.zz.copy()  # slope 1 mol/cm^4
        out = net_outflow(mesh, scipy_csr(diffusion_matrix(mesh, 1e-6 * N)), c)
        # what leaves the rows up to j crosses the z-face between j and j+1
        f_z = np.cumsum(out.sum(axis=1))[:-1] / mesh.area_z.sum(axis=1)
        assert np.allclose(f_z, -1e-7)


class TestAdvanceSpecies:
    def test_uniform_state_is_fixed_point(self, mesh):
        species = DEFAULTS.species()
        shape = (mesh.nz1, mesh.nr1)
        c_na = np.full(shape, 1.4e-4)
        c_h = np.full(shape, 4e-11)
        c_mab = np.full(shape, 1e-7)
        out = advance_species(mesh, c_na, c_h, c_mab, face_averages(mesh, np.zeros(shape)),
                              species, CONSTANTS, make_inputs(mesh),
                              fresh_solvers(mesh))
        for old, new in zip((c_na, c_h, c_mab), out):
            assert np.allclose(new, old, rtol=1e-12)

    def test_source_mass_balance_closed_domain(self, mesh):
        # total sodium gained per step equals the integrated source exactly
        species = DEFAULTS.species()
        shape = (mesh.nz1, mesh.nr1)
        rng = np.random.default_rng(3)
        q = np.exp(-((mesh.rr) ** 2 + (mesh.zz - 4.2) ** 2) / 0.05)
        u = rng.normal(0, 0.2, mesh.n_faces)
        phi = 1e-3 * np.cos(np.pi * mesh.rr / 5)
        inputs = make_inputs(mesh, dt=0.05, phi=phi, u=u, q=q)
        c_na = np.full(shape, 1.4e-4)
        c_h = np.full(shape, 4e-11)
        c_mab = np.zeros(shape)
        new_na, _, _ = advance_species(mesh, c_na, c_h, c_mab,
                                       face_averages(mesh, np.zeros(shape)),
                                       species, CONSTANTS, inputs,
                                       fresh_solvers(mesh))
        gained = N * (nodal_integral(new_na, mesh) - nodal_integral(c_na, mesh))
        forced = 0.05 * nodal_integral(q, mesh) * 4.2e-4
        assert gained == pytest.approx(forced, rel=1e-8)

    def test_pure_diffusion_matches_heat_kernel(self):
        # axisymmetric Gaussian pulse spreading at the analytic rate
        from verification import diffusion_order
        assert diffusion_order() >= 1.9

    def test_maximum_principle_pure_diffusion(self, mesh):
        species = DEFAULTS.species()
        shape = (mesh.nz1, mesh.nr1)
        rng = np.random.default_rng(11)
        c = np.abs(rng.normal(1e-4, 5e-5, shape))
        c_h = np.full(shape, 4e-11)
        new, _, _ = advance_species(mesh, c, c_h, np.zeros(shape),
                                    face_averages(mesh, np.zeros(shape)), species, CONSTANTS,
                                    make_inputs(mesh, dt=5.0), fresh_solvers(mesh))
        assert new.max() <= c.max() * (1 + 1e-12)
        assert new.min() >= min(0.0, c.min())

    def test_maximum_principle_on_darcy_field(self, mesh):
        # the operating envelope: a post-injection Darcy field whose
        # divergence is only the (tiny) vascular exchange; extrema stay
        # bounded up to that compression
        from depotsim.flow import tissue_pressure, velocity_from_pressure
        species = DEFAULTS.species()
        shape = (mesh.nz1, mesh.nr1)
        solver, _ = tissue_pressure(mesh, DEFAULTS.layers(), DEFAULTS.starling(),
                                    DEFAULTS["flow.viscosity"])
        u = velocity_from_pressure(mesh, solver.mobility, solver.solve(0.0))
        rng = np.random.default_rng(11)
        c = np.abs(rng.normal(1e-4, 5e-5, shape))
        c_h = np.full(shape, 4e-11)
        new, _, _ = advance_species(mesh, c, c_h, np.zeros(shape),
                                    face_averages(mesh, np.zeros(shape)), species, CONSTANTS,
                                    make_inputs(mesh, dt=0.5, u=u), fresh_solvers(mesh))
        assert new.max() <= c.max() * (1 + 1e-5)
        assert new.min() >= 0.0

    def test_migration_moves_charged_species_only(self, mesh):
        # fixed potential ramp, no flow: the center of mass of a positive
        # species drifts toward lower potential; a neutral one stays put
        species = DEFAULTS.species()
        shape = (mesh.nz1, mesh.nr1)
        phi = 0.05 * (mesh.zz / 5.0)  # decreasing downward
        blob = 1e-7 * np.exp(-((mesh.rr) ** 2 + (mesh.zz - 2.5) ** 2) / 0.3)
        c_na = np.full(shape, 1.4e-4)
        c_h = np.full(shape, 4e-11)

        def center_of_mass(c):
            return nodal_integral(c * mesh.zz, mesh) / nodal_integral(c, mesh)

        for z_val, expect_drop in ((+10.0, True), (0.0, False)):
            inputs = make_inputs(mesh, dt=50.0, phi=phi)
            _, _, new = advance_species(mesh, c_na, c_h, blob.copy(),
                                        face_averages(mesh, np.full(shape, z_val)), species,
                                        CONSTANTS, inputs, fresh_solvers(mesh))
            shift = center_of_mass(new) - center_of_mass(blob)
            if expect_drop:
                assert shift < -1e-5
            else:
                # only isotropic diffusion acts; the blob center barely moves
                assert abs(shift) < 1e-7

    def test_implicit_sink_and_release_budget(self, mesh):
        # drug mass change = source - lymph - association + release, exactly
        species = DEFAULTS.species()
        shape = (mesh.nz1, mesh.nr1)
        rng = np.random.default_rng(5)
        c_mab = np.abs(rng.normal(3e-7, 1e-7, shape))
        c_na = np.full(shape, 1.4e-4)
        c_h = np.full(shape, 4e-11)
        j_l = np.abs(rng.normal(1e-6, 3e-7, shape))
        assoc = np.abs(rng.normal(1e-3, 3e-4, shape))
        release = np.abs(rng.normal(1e-11, 3e-12, shape))
        dt = 2.0
        inputs = make_inputs(mesh, dt=dt, j_l=j_l, binding_assoc=assoc,
                             binding_release=release)
        _, _, new = advance_species(mesh, c_na, c_h, c_mab, face_averages(mesh, np.zeros(shape)),
                                    species, CONSTANTS, inputs, fresh_solvers(mesh))
        gained = N * (nodal_integral(new, mesh) - nodal_integral(c_mab, mesh))
        expected = dt * (nodal_integral(release, mesh)
                         - nodal_integral((j_l + assoc) * new, mesh))
        assert gained == pytest.approx(expected, rel=1e-10)


class RecordingSolver(SpeciesSolver):
    """A species solver that keeps a copy of every system it solves."""

    __slots__ = ("systems",)

    def __init__(self, mesh):
        super().__init__(mesh, KrylovCounts())
        self.systems = []

    def solve(self, a, b):
        self.systems.append((a.data.copy(), b.copy()))
        return super().solve(a, b)


def per_species_system(mesh, c_old, spec, valence, inputs, source, sink_rate):
    """One species' backward-Euler operator and right-hand side, built by its
    own `diffusion_matrix` call from the per-species formulas: the potential's
    gradient and the face valences taken afresh, zero arrays without flow."""
    n = inputs.porosity
    shape = (mesh.nz1, mesh.nr1)
    u_r, u_z = face_families(mesh, inputs.u if inputs.u is not None
                             else np.zeros(mesh.n_faces))
    q_p = inputs.q_p if inputs.q_p is not None else np.zeros(shape)
    coef = spec.diffusivity * CONSTANTS.faraday / CONSTANTS.rt * n
    g_r = (inputs.phi[:, 1:] - inputs.phi[:, :-1]) / mesh.dr[None, :]
    g_z = (inputs.phi[1:, :] - inputs.phi[:-1, :]) / mesh.dz[:, None]
    z = np.asarray(valence, dtype=float)
    if z.ndim == 0:
        z_r = z_z = z
    else:
        z_r = 0.5 * (z[:, :-1] + z[:, 1:])
        z_z = 0.5 * (z[:-1, :] + z[1:, :])
    s_r = u_r + -z_r * coef * g_r
    s_z = u_z + -z_z * coef * g_z
    v = mesh.node_volumes
    cap = n * v / inputs.dt
    a = diffusion_matrix(mesh, spec.diffusivity * n,
                         diag=cap + np.asarray(sink_rate, dtype=float) * v,
                         speeds=np.concatenate([s_r.ravel(), s_z.ravel()]))
    b = (cap * c_old + v * source(q_p)).ravel()
    return a.data, b


class TestSpeciesSystems:
    """The three species' systems of `advance_species`, built from one
    potential gradient and the mesh's cached face geometry, equal those of a
    `diffusion_matrix` call per species from the per-species formulas, entry
    for entry."""

    @pytest.mark.parametrize("n_r, n_z", [(16, 16), (56, 8)],
                             ids=["band-17-wide", "kept-ilu-57-wide"])
    @pytest.mark.parametrize("flow", [True, False], ids=["flow", "no-flow"])
    def test_systems_equal_per_species_builds(self, n_r, n_z, flow):
        mesh = build_graded_mesh(5, 5, n_r, n_z, focus=(0, 4.2), grading=1.0)
        species = DEFAULTS.species()
        shape = (mesh.nz1, mesh.nr1)
        rng = np.random.default_rng(7)
        smooth = np.exp(-(mesh.rr ** 2 + (mesh.zz - 4.2) ** 2) / 2.0)
        c_na = 1.4e-4 * (1.0 + 0.1 * smooth)
        c_h = 4e-11 * (1.0 + 0.5 * smooth)
        c_mab = 3e-7 * smooth
        z_mab = 6.0 - 4.0 * smooth  # the drug's valence varies in space
        j_l = 1e-6 * (1.0 + mesh.zz / 5.0)
        assoc = 1e-3 * smooth
        release = 1e-11 * smooth
        phi = 1e-3 * np.cos(np.pi * mesh.rr / 5) * np.sin(np.pi * mesh.zz / 10)
        if flow:
            u = rng.normal(0, 1e-3, mesh.n_faces)
            inputs = make_inputs(mesh, dt=0.1, phi=phi, u=u, q=1e-3 * smooth, j_l=j_l,
                                 binding_assoc=assoc, binding_release=release)
        else:
            inputs = TransportStepInputs(
                dt=60.0, u=None, phi=phi, q_p=None,
                c_max={"na": 4.2e-4, "h": 1e-9, "mab": 6.67e-7}, porosity=N,
                j_l=j_l, binding_assoc=assoc, binding_release=release)
        solvers = tuple(RecordingSolver(mesh) for _ in range(3))
        advance_species(mesh, c_na, c_h, c_mab, face_averages(mesh, z_mab), species, CONSTANTS,
                        inputs, solvers)

        c_max = inputs.c_max
        expected = [
            per_species_system(mesh, c_na, species.sodium, 1.0, inputs,
                               lambda q: q * c_max["na"], 0.0),
            per_species_system(mesh, c_h, species.hydrogen, 1.0, inputs,
                               lambda q: q * c_max["h"], 0.0),
            per_species_system(mesh, c_mab, species.drug, z_mab, inputs,
                               lambda q: q * c_max["mab"] + release, j_l + assoc),
        ]
        for solver, (data, b) in zip(solvers, expected):
            (got_data, got_b), = solver.systems
            assert np.array_equal(got_data, data)
            assert np.array_equal(got_b, b)


class TestTransportStepInputs:
    def test_rejects_nonpositive_dt(self, mesh):
        with pytest.raises(ValueError):
            make_inputs(mesh, dt=0.0)


class TestTissuePh:
    def test_physiological_field(self):
        assert np.allclose(tissue_ph(np.full((3, 3), 4e-11)), 7.39794, atol=1e-5)

    def test_floor_is_flagged(self, caplog):
        with caplog.at_level("WARNING"):
            ph = tissue_ph(np.array([[1e-16, 4e-11]]))
        assert ph[0, 0] == pytest.approx(13.0)
        assert any("floor" in r.message for r in caplog.records)

    def test_below_floor_clipped_to_13(self):
        assert tissue_ph(np.array([[1e-22]]))[0, 0] == pytest.approx(13.0)

    def test_takes_scalars(self, caplog):
        assert tissue_ph(4e-11) == pytest.approx(7.39794, abs=1e-5)
        assert np.ndim(tissue_ph(4e-11)) == 0
        with caplog.at_level("WARNING"):
            assert tissue_ph(0.0) == pytest.approx(13.0)
        assert [r.getMessage() for r in caplog.records] == [
            "hydrogen floor applied at 1 node(s)"]
