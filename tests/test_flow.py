"""Injection protocol, vascular exchange, pressure solve, Darcy velocity."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad

from depotsim import _assembly
from depotsim._assembly import CondensedFactor, BandLU, diffusion_matrix, face_families
from depotsim.config import default_config
from depotsim.flow import (PressureSolver, darcy_mobility, exchange_coefficients,
                           injection_source, node_speed, starling_lymph,
                           tissue_pressure, velocity_from_pressure)
from depotsim.mesh import build_graded_mesh
from depotsim.params import ConfigurationError, TissueLayer, TissueLayers

DEFAULTS = default_config()
ETA = DEFAULTS["flow.viscosity"]
PROTOCOL = DEFAULTS.protocol()
STARLING = DEFAULTS.starling()


@pytest.fixture(scope="module")
def mesh():
    return build_graded_mesh(5, 5, 48, 48, focus=(0, 4.2), grading=1.08)


class TestInjectionProtocol:
    def test_total_volume_by_quadrature(self):
        proto = PROTOCOL
        total, _ = quad(proto.flow_rate, 0.0, 8.0, points=[0.1, 4.9, 5.0],
                        limit=200)
        assert total == pytest.approx(proto.volume, rel=1e-10)

    def test_flow_stops_after_duration(self):
        proto = PROTOCOL
        assert proto.flow_rate(5.0) == 0.0
        assert proto.flow_rate(7.3) == 0.0

    def test_plateau_is_about_one_fifth(self):
        # 1 mL over 5 s with short ramps
        proto = PROTOCOL
        assert proto.plateau_rate == pytest.approx(0.2, rel=0.025)

    def test_bad_ramp_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(PROTOCOL, ramp_time=3.0)


def primal_quadrature(f, mesh):
    """Bilinear cell averages of a nodal field times the primal cell volumes."""
    cell_avg = 0.25 * (f[:-1, :-1] + f[:-1, 1:] + f[1:, :-1] + f[1:, 1:])
    return float(np.sum(cell_avg * mesh.cell_volumes))


class TestInjectionSource:
    def test_zero_after_injection(self, mesh):
        q = injection_source(mesh, PROTOCOL) * PROTOCOL.flow_rate(7.0)
        assert np.all(q == 0.0)

    def test_plateau_normalization(self, mesh):
        # the shape is per unit rate: its primal quadrature is 1
        proto = PROTOCOL
        q = injection_source(mesh, proto)
        assert primal_quadrature(q, mesh) == pytest.approx(1.0, rel=1e-14)
        assert proto.flow_rate(2.5) == pytest.approx(0.2, rel=0.025)

    def test_scaled_shape_is_the_time_dependent_source(self, mesh):
        # the reference: the bump rescaled at each time t to a primal
        # quadrature of Q(t)
        proto = PROTOCOL
        sigma = 0.5 * proto.source_radius
        d2 = mesh.rr**2 + (mesh.zz - proto.center(mesh.height)[1]) ** 2
        bump = np.where(d2 > (3.0 * sigma) ** 2, 0.0, np.exp(-d2 / (2.0 * sigma**2)))
        shape = injection_source(mesh, proto)
        for t in (0.05, 0.5 * proto.ramp_time, 2.5, proto.duration - 0.05):
            expected = bump * (proto.flow_rate(t) / primal_quadrature(bump, mesh))
            q = shape * proto.flow_rate(t)
            assert np.abs(q - expected).max() <= 1e-15 * expected.max()

    def test_mean_exit_speed_matches_needle_area_estimate(self):
        # Q / (pi a^2) for a ~ 0.225 cm reproduces the nominal needle speed
        proto = PROTOCOL
        a = 0.225
        v = proto.plateau_rate / (np.pi * a**2)
        assert v == pytest.approx(1.26, rel=0.03)

    def test_center_outside_domain_rejected(self, mesh):
        with pytest.raises(ConfigurationError):
            injection_source(mesh, replace(PROTOCOL, depth=7.0))


def uniform_tissue(height, slv):
    return TissueLayers((TissueLayer("tissue", height, 1e-9, slv),), porosity=0.1)


def blood_rate(p, params, mesh):
    """J_b at pressure p as the pressure solve books it: `exchange_coefficients`'
    const - reaction * p on tissue without lymphatics."""
    reaction, const, _ = exchange_coefficients(mesh, uniform_tissue(mesh.height, 0.0),
                                               params)
    return const - reaction * p


def lymph_coefficient(mesh, layers):
    """`exchange_coefficients`' drainage coefficient n L_pl S_l/V, an ``(nz1, 1)`` column."""
    return exchange_coefficients(mesh, layers, STARLING)[2]


class TestStarling:
    def test_blood_at_zero_pressure(self, mesh):
        # 0.1 * 1e-6 * 70 * (0.35 - 0.3 * 0.20) = 2.03e-6
        jb = blood_rate(0.0, STARLING, mesh)
        assert jb == pytest.approx(2.03e-6)

    def test_blood_zero_crossing(self, mesh):
        params = STARLING
        p_star = params.p_b - params.sigma_r * (params.pi_b - params.pi_i)
        assert p_star == pytest.approx(0.29)
        assert blood_rate(p_star, params, mesh) == pytest.approx(0.0, abs=1e-20)

    def test_blood_linearity_in_conductivity(self, mesh):
        doubled = replace(STARLING, l_pb=2e-6)
        assert blood_rate(0.0, doubled, mesh) == pytest.approx(2 * 2.03e-6)

    def test_lymph_zero_at_lymph_pressure(self, mesh):
        lymph = lymph_coefficient(mesh, uniform_tissue(mesh.height, 70.0))
        assert np.all(starling_lymph(0.0, STARLING, lymph) == 0.0)

    def test_lymph_dermis_value(self, mesh):
        # 0.1 * 6e-5 * 70 * 0.01 = 4.2e-6
        lymph = lymph_coefficient(mesh, uniform_tissue(mesh.height, 70.0))
        jl = starling_lymph(0.01, STARLING, lymph)
        assert jl.shape == (mesh.nz1, 1)
        assert jl == pytest.approx(np.full(jl.shape, 4.2e-6))

    def test_lymph_vanishes_in_muscle(self, mesh):
        jl = starling_lymph(5.0, STARLING, lymph_coefficient(mesh, DEFAULTS.layers()))
        muscle = mesh.z < 3.3
        assert np.all(jl[muscle] == 0.0)
        assert np.all(jl[~muscle] > 0.0)


class TestSolvePressure:
    def test_no_source_no_exchange_gives_zero(self, mesh):
        solver = PressureSolver(mesh, kappa_nodes=1e-9, viscosity=ETA,
                                reaction=0.0, const=0.0)
        p = solver.solve(0.0)
        assert np.max(np.abs(p)) < 1e-12

    def test_interior_exchange_balance_single_layer(self):
        # uniform tissue with dermis-grade lymphatics: far from the drained
        # rim, pressure settles where blood filtration equals lymph drainage.
        # The healing length sqrt((kappa/eta)/a) is ~4.8 cm, so the domain
        # must dwarf it for the pointwise balance to show.
        mesh = build_graded_mesh(60, 60, 48, 48, focus=(0, 30), grading=1.0)
        reaction, const, _ = exchange_coefficients(mesh, uniform_tissue(60.0, 70.0),
                                                   STARLING)
        solver = PressureSolver(mesh, 1e-9, ETA, reaction=reaction, const=const)
        p = solver.solve(0.0)
        p_star = 7e-6 * 0.29 / (4.2e-4 + 7e-6)
        assert p_star == pytest.approx(4.75e-3, rel=5e-3)
        interior = mesh.rr < 30.0
        assert np.allclose(p[interior], p_star, rtol=0.02)

    def test_manufactured_solution_order(self):
        # p* = cos(pi r / 2R) cos(pi z / H) satisfies all four boundary
        # conditions; details live in the shared verification module
        from verification import pressure_order
        assert pressure_order() >= 1.9

    def test_monotone_in_flow_rate(self, mesh):
        from depotsim.metrics import ball, ball_average
        layers = DEFAULTS.layers()
        params = STARLING
        peaks = []
        solver, _ = tissue_pressure(mesh, layers, params, ETA)
        for volume in (0.5, 1.0, 2.0):
            proto = replace(PROTOCOL, volume=volume)
            p = solver.solve(injection_source(mesh, proto) * proto.flow_rate(2.5))
            peaks.append(ball_average(p, ball(mesh, proto.center(5.0), 0.1)))
        assert peaks[0] < peaks[1] < peaks[2]


class TestPressureOperator:
    # 8 rows of cells: nr1 + nz1 is even at nr 48 and 120 and odd at 49 and 119,
    # so the condensed factor keeps either colour of the checkerboard
    @pytest.mark.parametrize("nr, layout", [(16, BandLU), (48, CondensedFactor),
                                            (120, CondensedFactor), (49, CondensedFactor),
                                            (119, CondensedFactor)])
    def test_pinned_rim_keeps_the_operator_symmetric(self, nr, layout, monkeypatch):
        factored = []
        factorize = _assembly.factorize

        def keeping(mesh, a):
            factored.append((a, factorize(mesh, a)))
            return factored[-1][1]

        monkeypatch.setattr(_assembly, "factorize", keeping)
        mesh = build_graded_mesh(5, 5, nr, 8, focus=(0, 4.2), grading=1.0)
        solver, _ = tissue_pressure(mesh, DEFAULTS.layers(), STARLING, ETA)
        (a, lu), = factored
        a = sp.csr_matrix((a.data, a.pattern.indices, a.pattern.indptr)).toarray()
        assert np.array_equal(a, a.T)
        assert isinstance(lu, layout)

        # the same solve with the rim pinned by rows only
        rim = np.arange(mesh.n_nodes).reshape(mesh.nz1, mesh.nr1)[:, -1]
        reaction, const, _ = exchange_coefficients(mesh, DEFAULTS.layers(), STARLING)
        row_pinned = diffusion_matrix(mesh, solver.mobility,
                                      diag=np.broadcast_to(reaction, (mesh.nz1, mesh.nr1))
                                      * mesh.node_volumes)
        row_pinned = sp.csr_matrix((row_pinned.data, row_pinned.pattern.indices,
                                    row_pinned.pattern.indptr)).toarray()
        row_pinned[rim] = np.eye(mesh.n_nodes)[rim]
        q = np.random.default_rng(40).uniform(0.0, 1.0, (mesh.nz1, mesh.nr1))
        b = ((q + const) * mesh.node_volumes).ravel()
        b[rim] = 0.0
        expected = np.linalg.solve(row_pinned, b)
        p = solver.solve(q).ravel()
        assert np.linalg.norm(p - expected) <= 1e-12 * np.linalg.norm(expected)


class TestVelocity:
    def test_constant_pressure_gives_zero(self, mesh):
        p = np.full((mesh.nz1, mesh.nr1), 3.0)
        u = velocity_from_pressure(mesh, darcy_mobility(mesh, 1e-9, ETA), p)
        assert u.shape == (mesh.n_faces,)
        assert np.max(np.abs(u)) == 0.0

    def test_linear_column_darcy_law(self):
        mesh = build_graded_mesh(5, 5, 16, 16, focus=(0, 2.5), grading=1.0)
        kappa, dp, height = 1e-9, 2.0, 5.0
        p = dp * (1.0 - mesh.zz / height)
        u = velocity_from_pressure(mesh, darcy_mobility(mesh, kappa, ETA), p)
        u_r, u_z = face_families(mesh, u)
        assert np.max(np.abs(u_r)) == 0.0
        assert np.allclose(u_z, (kappa / ETA) * dp / height, rtol=1e-12)

    def test_harmonic_mean_flux_continuity(self):
        # two-layer column with the material jump on a dual face (63 cells
        # put z = 1 exactly between two nodes): the exact series solution
        # must give one continuous Darcy flux through every face
        mesh = build_graded_mesh(1, 2, 8, 63, focus=(0, 1.0), grading=1.0)
        kappa = np.where(mesh.zz < 1.0, 1e-9, 1e-11)
        # series conductance of the column per unit area:
        # g = 1 / (L1/(k1/eta) + L2/(k2/eta))
        g = 1.0 / (1.0 / (1e-9 / ETA) + 1.0 / (1e-11 / ETA))
        p = np.where(mesh.zz < 1.0,
                     1.0 - (g / (1e-9 / ETA)) * mesh.zz,
                     (g / (1e-11 / ETA)) * (2.0 - mesh.zz))
        u = velocity_from_pressure(mesh, darcy_mobility(mesh, kappa, ETA), p)
        _, u_z = face_families(mesh, u)
        assert np.allclose(u_z, g, rtol=1e-10)

    def test_node_speed_shape(self, mesh):
        u = np.zeros(mesh.n_faces)
        u_r, _ = face_families(mesh, u)
        u_r[...] = 1.0
        speed = node_speed(mesh, u)
        assert speed.shape == (mesh.nz1, mesh.nr1)
        assert np.allclose(speed, 1.0)
