"""Potential assembly and pure-Neumann solve, checked against closed forms.

The key independent oracle is the classical liquid-junction relation for a
binary salt gradient: with the anion diffusing faster than the cation, the
concentrated region sits at the higher potential,

    Phi(x) = (R T / F) * (D_Cl - D_Na) / (D_Na + D_Cl) * ln c(x) + const.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from depotsim import _assembly as fv
from depotsim.flow import SolverError
from depotsim.mesh import AxiMesh, build_graded_mesh, nodal_integral
from depotsim.metrics import domain_average
from depotsim.config import default_config
from depotsim.potential import (PotentialCoefficients, _solve_neumann,
                                assemble_potential, solve_potential)

DEFAULTS = default_config()
CONSTANTS = DEFAULTS.constants()


@pytest.fixture(scope="module")
def mesh():
    return build_graded_mesh(5, 5, 40, 40, focus=(0, 4.2), grading=1.0)


def uniform_fields(mesh, c_na=1.4e-4, c_h=4e-11, c_mab=0.0, z=0.0):
    shape = (mesh.nz1, mesh.nr1)
    return (np.full(shape, c_na), np.full(shape, c_h), np.full(shape, c_mab),
            np.full(shape, z))


class TestAssemble:
    def test_uniform_neutral_state(self, mesh):
        c_na, c_h, c_mab, z = uniform_fields(mesh)
        coeffs = assemble_potential(mesh, DEFAULTS.species(), CONSTANTS, 0.1,
                                    c_na, c_h, c_mab, z, fv.face_averages(mesh, z),
                                    j_l=0.0, binding_rate=0.0)
        assert np.allclose(coeffs.div_g, 0.0)
        assert np.allclose(coeffs.rhs, 0.0)

    def test_conductivity_dominant_term(self, mesh):
        # F n [c_Na (mu_Na + mu_Cl) + c_H (mu_H + mu_Cl)] with
        # mu_Na = 1.33e-5 / (8.314 * 293) = 5.46e-9
        species = DEFAULTS.species()
        c_na, c_h, c_mab, z = uniform_fields(mesh)
        coeffs = assemble_potential(mesh, species, CONSTANTS, 0.1,
                                    c_na, c_h, c_mab, z, fv.face_averages(mesh, z),
                                    j_l=0.0, binding_rate=0.0)
        mu_na = species.sodium.mobility(CONSTANTS)
        mu_h = species.hydrogen.mobility(CONSTANTS)
        mu_cl = species.chloride.mobility(CONSTANTS)
        assert mu_na == pytest.approx(5.46e-9, rel=1e-3)
        expected = CONSTANTS.faraday * 0.1 * (
            1.4e-4 * (mu_na + mu_cl) + 4e-11 * (mu_h + mu_cl))
        assert np.allclose(coeffs.sigma, expected, rtol=1e-12)
        dominant = 96485 * 0.1 * 1.4e-4 * (5.46e-9 + 8.33e-9)
        assert expected == pytest.approx(dominant, rel=1e-3)

    def test_salt_pair_conductivity(self, mesh):
        # single Na/Cl pair: sigma = F n c (mu_Na + mu_Cl) > 0
        species = DEFAULTS.species()
        c_na, c_h, c_mab, z = uniform_fields(mesh, c_h=0.0)
        coeffs = assemble_potential(mesh, species, CONSTANTS, 0.1,
                                    c_na, c_h, c_mab, z, fv.face_averages(mesh, z),
                                    j_l=0.0, binding_rate=0.0)
        expected = (CONSTANTS.faraday * 0.1 * 1.4e-4
                    * (species.sodium.mobility(CONSTANTS)
                       + species.chloride.mobility(CONSTANTS)))
        assert np.allclose(coeffs.sigma, expected)
        assert np.all(coeffs.sigma > 0)

    def test_lost_positivity_aborts(self, mesh):
        c_na, c_h, c_mab, z = uniform_fields(mesh, c_na=0.0, c_h=0.0)
        with pytest.raises(SolverError):
            assemble_potential(mesh, DEFAULTS.species(), CONSTANTS, 0.1,
                               c_na, c_h, c_mab, z, fv.face_averages(mesh, z),
                               j_l=0.0, binding_rate=0.0)


class TestSolve:
    def test_uniform_state_gives_zero_potential(self, mesh):
        c_na, c_h, c_mab, z = uniform_fields(mesh)
        coeffs = assemble_potential(mesh, DEFAULTS.species(), CONSTANTS, 0.1,
                                    c_na, c_h, c_mab, z, fv.face_averages(mesh, z),
                                    j_l=0.0, binding_rate=0.0)
        phi = solve_potential(coeffs, mesh)
        assert np.max(np.abs(phi)) < 1e-12

    def test_gauge_zero_mean(self, mesh):
        c_na, c_h, c_mab, z = uniform_fields(mesh)
        c_na = c_na * (1.0 + 0.5 * np.exp(-((mesh.rr) ** 2 + (mesh.zz - 4) ** 2)))
        coeffs = assemble_potential(mesh, DEFAULTS.species(), CONSTANTS, 0.1,
                                    c_na, c_h, c_mab, z, fv.face_averages(mesh, z),
                                    j_l=0.0, binding_rate=0.0)
        phi = solve_potential(coeffs, mesh)
        assert abs(domain_average(phi, mesh)) < 1e-12 * np.max(np.abs(phi))

    def test_deterministic(self, mesh):
        c_na, c_h, c_mab, z = uniform_fields(mesh)
        c_na = c_na * (1.0 + np.exp(-((mesh.rr - 1) ** 2 + (mesh.zz - 3) ** 2)))
        coeffs = assemble_potential(mesh, DEFAULTS.species(), CONSTANTS, 0.1,
                                    c_na, c_h, c_mab, z, fv.face_averages(mesh, z),
                                    j_l=0.0, binding_rate=0.0)
        a = solve_potential(coeffs, mesh)
        b = solve_potential(coeffs, mesh)
        assert np.array_equal(a, b)

    def test_concentration_scaling_leaves_potential_invariant(self, mesh):
        # with no reactive source, sigma and G both scale linearly in the
        # concentrations, so Phi is unchanged and the electromigration flux
        # (prop. to c grad Phi) scales by the same factor as c
        species = DEFAULTS.species()
        base = uniform_fields(mesh)[0] * (
            1.0 + 0.4 * np.exp(-((mesh.rr) ** 2 + (mesh.zz - 4.2) ** 2) / 0.5))
        shape = (mesh.nz1, mesh.nr1)
        zero = np.zeros(shape)
        for lam in (0.5, 2.0):
            phi_ref = solve_potential(assemble_potential(
                mesh, species, CONSTANTS, 0.1, base, np.full(shape, 4e-11),
                zero, zero, fv.face_averages(mesh, zero), j_l=0.0, binding_rate=0.0), mesh)
            phi_lam = solve_potential(assemble_potential(
                mesh, species, CONSTANTS, 0.1, lam * base,
                np.full(shape, lam * 4e-11), zero, zero, fv.face_averages(mesh, zero),
                j_l=0.0, binding_rate=0.0), mesh)
            assert np.allclose(phi_lam, phi_ref, atol=1e-14 + 1e-10 * np.abs(phi_ref).max())

    def test_wide_graded_solve_matches_a_refined_bordered_solve(self):
        # the reference solves the bordered system [[A, w], [w^T, 0]] with
        # the node volumes w, and refines it with residuals in long double,
        # so it shares neither the gauge nor the factorization of the solve
        # under test. Pinning node 0's row and factoring by SuperLU left the
        # solve 6.3e-12 of max|Phi| away; grounding the last node and a
        # Cholesky of the full band 3.1e-14, and the red-black condensed
        # Cholesky 1.8e-15
        nodes = np.concatenate([[0.0], np.cumsum(0.1 * 1.02 ** np.arange(56))])
        wide = AxiMesh(r=nodes, z=nodes[:9])
        assert wide.nr1 > fv._DIRECT_MAX_WIDTH
        rng = np.random.default_rng(3)
        shape = (wide.nz1, wide.nr1)
        coeffs = PotentialCoefficients(sigma=rng.uniform(0.1, 3.0, shape),
                                       rhs=rng.normal(size=shape),
                                       div_g=rng.normal(size=shape))
        phi = solve_potential(coeffs, wide).ravel()

        a = fv.diffusion_matrix(wide, fv.harmonic_face_coefficients(wide, coeffs.sigma))
        n = wide.n_nodes
        w = wide.node_volumes.ravel()
        b = (coeffs.div_g - coeffs.rhs * wide.node_volumes).ravel()
        b = b - w * (b.sum() / w.sum())
        bordered = np.zeros((n + 1, n + 1))
        bordered[:n, :n] = sp.csr_matrix((a.data, a.pattern.indices, a.pattern.indptr), shape=(n, n)).toarray()
        bordered[:n, n] = bordered[n, :n] = w
        rhs = np.append(b, 0.0).astype(np.longdouble)
        x = np.linalg.solve(bordered, rhs.astype(float)).astype(np.longdouble)
        for _ in range(4):
            x += np.linalg.solve(bordered, (rhs - bordered.astype(np.longdouble) @ x).astype(float))
        reference = x[:n].astype(float)
        assert np.abs(phi - reference).max() <= 1e-13 * np.abs(reference).max()
        # the gauge: zero total in the dual-cell measure
        assert abs(np.dot(w, phi)) <= 1e-14 * np.dot(w, np.abs(phi))

    def test_manufactured_solution_order(self):
        # Phi* = cos(pi r / R) cos(pi z / H) is flux-free on every boundary
        from verification import potential_order
        assert potential_order() >= 1.9


class TestJunctionOracle:
    def test_binary_salt_junction_matches_henderson(self):
        # 1-D column with a smooth NaCl ramp; drug and hydrogen absent.
        # Phi must match (RT/F) (D_Na - D_Cl)/(D_Na + D_Cl) ln c up to the
        # gauge constant, so the concentrated side is the positive one.
        mesh = build_graded_mesh(1.0, 5.0, 8, 96, focus=(0, 2.5), grading=1.0)
        species = DEFAULTS.species()
        c = 1.4e-4 * (1.0 + 2.0 / (1.0 + np.exp((mesh.zz - 2.5) / 0.3)))
        shape = (mesh.nz1, mesh.nr1)
        zero = np.zeros(shape)
        coeffs = assemble_potential(mesh, species, CONSTANTS, 0.1, c, zero, zero,
                                    zero, fv.face_averages(mesh, zero), j_l=0.0,
                                    binding_rate=0.0)
        phi = solve_potential(coeffs, mesh)

        d_na, d_cl = species.sodium.diffusivity, species.chloride.diffusivity
        ratio = (d_na - d_cl) / (d_na + d_cl)
        expected = -(CONSTANTS.rt / CONSTANTS.faraday) * ratio * np.log(c)
        expected -= nodal_integral(expected, mesh) / mesh.domain_volume
        assert np.allclose(phi, expected, atol=2e-5)
        # concentrated bottom sits above the dilute top
        assert phi[0, 0] > phi[-1, 0]
        assert phi[0, 0] - phi[-1, 0] == pytest.approx(
            -(CONSTANTS.rt / CONSTANTS.faraday) * ratio * np.log(3.0), rel=0.02)

    def test_binding_front_depresses_potential(self):
        # a localized uptake of positively charged drug acts as a negative
        # volumetric charge source and digs a local potential well
        mesh = build_graded_mesh(5, 5, 40, 40, focus=(0, 2.5), grading=1.0)
        species = DEFAULTS.species()
        shape = (mesh.nz1, mesh.nr1)
        c_na = np.full(shape, 1.4e-4)
        c_mab = np.full(shape, 5e-7)
        z = np.full(shape, 15.0)
        blob = np.exp(-((mesh.rr) ** 2 + (mesh.zz - 2.5) ** 2) / 0.25)
        rate = 1e-9 * blob  # mol/cm^3/s of drug binding
        coeffs = assemble_potential(mesh, species, CONSTANTS, 0.1, c_na,
                                    np.full(shape, 4e-11), c_mab, z,
                                    fv.face_averages(mesh, z), j_l=0.0, binding_rate=rate)
        phi = solve_potential(coeffs, mesh)
        inside = phi[mesh.ball_mask((0, 2.5), 0.4)].mean()
        outside = phi[mesh.ball_mask((4.0, 0.8), 0.5)].mean()
        assert inside < outside
