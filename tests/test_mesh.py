"""Mesh construction, axisymmetric quadrature, and field projection."""

from dataclasses import dataclass

import numpy as np
import pytest

from depotsim._assembly import csr_pattern
from depotsim.config import default_config
from depotsim.mesh import (AxiMesh, MeshError, build_graded_mesh, nodal_integral,
                           project_field)
from depotsim.metrics import ball
from depotsim.orchestrator import StaggeredStepper

CYLINDER_VOLUME = np.pi * 25.0 * 5.0  # R = H = 5


class TestBuildGradedMesh:
    def test_uniform_spacing(self):
        mesh = build_graded_mesh(5, 5, 10, 10, focus=(0, 4.2), grading=1.0)
        assert np.allclose(np.diff(mesh.r), 0.5)
        assert np.allclose(np.diff(mesh.z), 0.5)

    def test_cell_volumes_tile_the_cylinder(self):
        for grading in (1.0, 1.1, 1.25):
            mesh = build_graded_mesh(5, 5, 24, 24, focus=(0, 4.2), grading=grading)
            assert np.sum(mesh.cell_volumes) == pytest.approx(
                CYLINDER_VOLUME, rel=1e-10)
            assert np.sum(mesh.node_volumes) == pytest.approx(
                CYLINDER_VOLUME, rel=1e-10)

    def test_finest_row_contains_focus(self):
        mesh = build_graded_mesh(5, 5, 20, 20, focus=(0, 4.2), grading=1.2)
        j_min = int(np.argmin(np.diff(mesh.z)))
        z_lo, z_hi = mesh.z[j_min], mesh.z[j_min + 1]
        assert z_lo <= 4.2 <= z_hi + np.diff(mesh.z).min()

    def test_grading_above_cap_rejected(self):
        with pytest.raises(MeshError):
            build_graded_mesh(5, 5, 20, 20, focus=(0, 4.2), grading=1.35)

    def test_too_few_cells_rejected(self):
        with pytest.raises(MeshError):
            build_graded_mesh(5, 5, 4, 20, focus=(0, 4.2), grading=1.0)

    def test_deterministic_construction(self):
        a = build_graded_mesh(5, 5, 40, 40, focus=(0, 4.2), grading=1.05)
        b = build_graded_mesh(5, 5, 40, 40, focus=(0, 4.2), grading=1.05)
        assert np.array_equal(a.r, b.r)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.node_volumes, b.node_volumes)


class TestIntegrate:
    """`nodal_integral`, the dual-cell measure: the trapezoid rule in z, and in r
    the exact volume of each node's ring."""

    def setup_method(self):
        self.mesh = build_graded_mesh(5, 5, 32, 32, focus=(0, 4.2), grading=1.05)

    def test_constant_one(self):
        mesh = build_graded_mesh(5, 5, 20, 12, focus=(0, 4.2), grading=1.0)
        ones = np.ones((mesh.nz1, mesh.nr1))
        assert nodal_integral(ones, mesh) == pytest.approx(392.699, abs=1e-2)

    def test_zero(self):
        assert nodal_integral(np.zeros((self.mesh.nz1, self.mesh.nr1)), self.mesh) == 0.0

    def test_radial_field_closed_form(self):
        # 2 pi int r^2 dr dz = (2 pi / 3) R^3 H = 1308.997
        mesh = build_graded_mesh(5, 5, 64, 16, focus=(0, 4.2), grading=1.0)
        val = nodal_integral(mesh.rr, mesh)
        assert val == pytest.approx(2 * np.pi / 3 * 125 * 5, rel=2e-4)

    def test_linearity_with_random_fields(self):
        rng = np.random.default_rng(7)
        f = rng.normal(size=(self.mesh.nz1, self.mesh.nr1))
        g = rng.normal(size=(self.mesh.nz1, self.mesh.nr1))
        lhs = nodal_integral(f + g, self.mesh)
        rhs = nodal_integral(f, self.mesh) + nodal_integral(g, self.mesh)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_weights_reproduce_integral(self):
        # the node volumes integrate a field linear in z exactly on a graded
        # mesh: pi R^2 (a H + b H^2 / 2)
        f = 1.5 - 0.25 * self.mesh.zz
        assert nodal_integral(f, self.mesh) == pytest.approx(
            np.pi * 25.0 * (1.5 * 5.0 - 0.25 * 12.5), rel=1e-12)

    def test_nodal_integral_of_one(self):
        ones = np.ones((self.mesh.nz1, self.mesh.nr1))
        assert nodal_integral(ones, self.mesh) == pytest.approx(
            CYLINDER_VOLUME, rel=1e-10)


def mass_change(src_mesh, src_field, dst_mesh, dst_field):
    """Relative change of the dual-cell integral across a projection."""
    m_src = nodal_integral(src_field, src_mesh)
    return (nodal_integral(dst_field, dst_mesh) - m_src) / abs(m_src)


class TestProjectField:
    def setup_method(self):
        self.fine = build_graded_mesh(5, 5, 96, 96, focus=(0, 4.2), grading=1.0)
        self.coarse = build_graded_mesh(5, 5, 24, 24, focus=(0, 4.2), grading=1.0)

    def test_constant_field(self):
        f = np.full((self.fine.nz1, self.fine.nr1), 7.0)
        out = project_field(self.fine, f, self.coarse)
        assert np.allclose(out, 7.0)
        assert abs(mass_change(self.fine, f, self.coarse, out)) < 1e-12

    def test_linear_field_exact(self):
        f = self.fine.zz.copy()
        out = project_field(self.fine, f, self.coarse)
        assert np.allclose(out, self.coarse.zz, atol=1e-12)
        assert abs(mass_change(self.fine, f, self.coarse, out)) < 1e-12

    def test_bilinear_field_exact(self):
        def bilinear(mesh):
            return 1.0 + 2.0 * mesh.rr - 0.5 * mesh.zz + 0.25 * mesh.rr * mesh.zz
        out = project_field(self.fine, bilinear(self.fine), self.coarse)
        assert np.allclose(out, bilinear(self.coarse), atol=1e-12)

    def test_gaussian_bump_mass_report(self):
        # 4:1 reduction of a resolved bump keeps the integral within 2 percent
        f = np.exp(-((self.fine.rr - 0.0) ** 2 + (self.fine.zz - 4.0) ** 2)
                   / (2 * 0.7**2))
        out = project_field(self.fine, f, self.coarse)
        assert abs(mass_change(self.fine, f, self.coarse, out)) < 0.02

    def test_domain_mismatch_rejected(self):
        other = build_graded_mesh(4, 5, 16, 16, focus=(0, 4.0), grading=1.0)
        f = np.ones((self.fine.nz1, self.fine.nr1))
        with pytest.raises(MeshError):
            project_field(self.fine, f, other)


@dataclass(frozen=True)
class Table:
    values: np.ndarray
    size: int


class TestDerived:
    """`AxiMesh.derived`, the one per-mesh cache."""

    def test_built_once_per_key_read_only_and_per_mesh(self):
        mesh = build_graded_mesh(5, 5, 10, 10, focus=(0, 4.2), grading=1.0)
        built = []

        def build(m):
            built.append(m)
            return Table(np.arange(3.0), 3)

        first = mesh.derived("table", build)
        assert mesh.derived("table", build) is first and built == [mesh]
        with pytest.raises(ValueError):
            first.values[0] = 1.0
        other = build_graded_mesh(5, 5, 10, 10, focus=(0, 4.2), grading=1.0)
        assert other.derived("table", build) is not first
        assert built == [mesh, other]
        assert csr_pattern(other) is not csr_pattern(mesh)

    def test_two_balls_on_one_mesh_stay_distinct(self):
        mesh = build_graded_mesh(5, 5, 12, 12, focus=(0, 4.2), grading=1.0)
        small, large = ball(mesh, (0.0, 4.2), 0.5), ball(mesh, (0.0, 4.2), 1.0)
        assert 0 < small.weights.size < large.weights.size
        assert ball(mesh, (0.0, 4.2), 0.5) is small
        assert ball(mesh, (0.0, 4.2), 1.0) is large
        for arr in (small.mask, small.weights, large.mask, large.weights):
            assert not arr.flags.writeable


class TestFieldState:
    def test_rest_state_shapes_and_values(self):
        mesh = build_graded_mesh(5, 5, 12, 12, focus=(0, 4.2), grading=1.0)
        state = StaggeredStepper(mesh, default_config(), flow=False).rest_state()
        assert state.c_na.shape == (13, 13)
        assert np.all(state.c_na == 1.4e-4)
        assert np.all(state.c_mab == 0.0)
        assert state.u.shape == (mesh.n_faces,) == (13 * 12 + 12 * 13,)
        assert np.all(state.u == 0.0)
        # built complete: its derived fields and its drainage are set
        assert np.all(state.c_cl == 1.4e-4 + 4e-11)
        assert np.all(state.ph == state.ph[0, 0]) and np.all(state.j_l == 0.0)
        assert state.z_mab.shape == (13, 13)
