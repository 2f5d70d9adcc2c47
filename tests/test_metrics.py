"""Reported quantities: averages, plume volume, dose splits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depotsim.mesh import build_graded_mesh, nodal_integral
from depotsim.metrics import (CHANNELS, PLUME_FLOOR, MetricSeries, ball, ball_average,
                              domain_average, dose_fractions, net_charge_density,
                              plume_volume)
from depotsim.orchestrator import DoseLedger


@pytest.fixture(scope="module")
def mesh():
    return build_graded_mesh(5, 5, 40, 40, focus=(0, 4.2), grading=1.0)


@pytest.fixture(scope="module")
def oblong():
    """A graded mesh 17 nodes wide and 25 high, so a transposed field fits no axis."""
    return build_graded_mesh(3, 5, 16, 24, focus=(0, 4.2), grading=1.1)


def stacked_plume_volume(c, mesh):
    """`plume_volume` as it was written before its corners were taken pairwise:
    the four corner arrays stacked and reduced along the stack."""
    c = np.asarray(c, dtype=float)
    c_max = float(c.max(initial=0.0))
    if c_max <= PLUME_FLOOR:
        return 0.0
    thresh = 0.5 * c_max
    corners = np.stack([c[:-1, :-1], c[:-1, 1:], c[1:, :-1], c[1:, 1:]])
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    mean = corners.mean(axis=0)
    frac = np.where(lo >= thresh, 1.0, 0.0)
    cut = (lo < thresh) & (hi > thresh)
    if np.any(cut):
        lin = 0.5 + (mean[cut] - thresh) / (hi[cut] - lo[cut])
        frac[cut] = np.clip(lin, 0.0, 1.0)
    return float(np.sum(frac * mesh.cell_volumes))


class TestDomainAverage:
    def test_constant(self, mesh):
        assert domain_average(np.full((mesh.nz1, mesh.nr1), 3.0), mesh) == \
            pytest.approx(3.0)

    def test_zero(self, mesh):
        assert domain_average(np.zeros((mesh.nz1, mesh.nr1)), mesh) == 0.0

    def test_linear_height_field(self, mesh):
        assert domain_average(mesh.zz, mesh) == pytest.approx(2.5, rel=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bounded_by_extremes(self, mesh, seed):
        f = np.random.default_rng(seed).normal(size=(mesh.nz1, mesh.nr1))
        avg = domain_average(f, mesh)
        assert f.min() - 1e-12 <= avg <= f.max() + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_is_the_nodal_integral_over_the_cylinder_volume(self, oblong, seed):
        f = np.random.default_rng(seed).lognormal(size=(oblong.nz1, oblong.nr1))
        expected = nodal_integral(f, oblong) / oblong.domain_volume
        assert domain_average(f, oblong) == pytest.approx(expected, rel=1e-14)

    def test_transposed_field_is_rejected(self, oblong):
        f = np.ones((oblong.nz1, oblong.nr1))
        with pytest.raises(ValueError, match="does not match mesh"):
            domain_average(f.T, oblong)


class TestNetChargeDensity:
    def test_uniform_product(self, mesh):
        c = np.full((mesh.nz1, mesh.nr1), 2e-7)
        rho = net_charge_density(c, 5.0)
        assert np.allclose(rho, 1e-6)
        assert domain_average(rho, mesh) == pytest.approx(1e-6)

    def test_above_pi_everywhere_is_nonpositive(self, mesh):
        from depotsim.params import PhCurve
        curve = PhCurve([5.0, 9.0], [10.0, -2.0])  # pI ~ 8.33
        ph = np.full((mesh.nz1, mesh.nr1), 9.0)
        c = np.random.default_rng(0).random((mesh.nz1, mesh.nr1)) * 1e-7
        rho = net_charge_density(c, curve(ph))
        assert np.all(rho <= 0.0)


class TestBallAverage:
    def test_constant_field(self, mesh):
        f = np.full((mesh.nz1, mesh.nr1), 4.2)
        assert ball_average(f, ball(mesh, (0.0, 4.2), 0.3)) == pytest.approx(4.2)

    def test_ball_outside_compact_support(self, mesh):
        f = np.where(mesh.zz > 4.0, 1.0, 0.0)
        assert ball_average(f, ball(mesh, (3.0, 1.0), 0.4)) == 0.0

    def test_empty_ball_gives_the_field_at_the_nearest_node(self, mesh):
        nodes = ball(mesh, (2.03, 2.03), 1e-6)
        assert not nodes.mask.any()
        nearest = np.argmin(np.hypot(mesh.rr - 2.03, mesh.zz - 2.03))
        assert ball_average(mesh.rr + 10 * mesh.zz, nodes) == (
            mesh.rr + 10 * mesh.zz).ravel()[nearest]


class TestPlumeVolume:
    def test_constant_field_fills_domain(self, mesh):
        c = np.full((mesh.nz1, mesh.nr1), 1e-7)
        assert plume_volume(c, mesh) == pytest.approx(392.699, abs=1e-2)

    def test_indicator_cylinder(self):
        # sampled indicator of the cylinder r < a, z > b with both cuts
        # placed mid-cell, so the fractional-cell rule recovers pi a^2 (H - b)
        mesh = build_graded_mesh(5, 5, 40, 40, focus=(0, 4.2), grading=1.0)
        a, b = 0.9375, 4.0625  # mid-cell on the 0.125 grid
        c = ((mesh.rr < a) & (mesh.zz > b)).astype(float)
        assert plume_volume(c, mesh) == pytest.approx(
            np.pi * a**2 * (5.0 - b), rel=0.05)

    def test_gaussian_ball_half_max_volume(self):
        # exp(-rho^2 / (2 s^2)) crosses half max at rho = s sqrt(2 ln 2);
        # picking s so that radius is 1 gives the analytic ball volume 4pi/3
        mesh = build_graded_mesh(5, 5, 80, 80, focus=(0, 3.0), grading=1.0)
        s = 1.0 / np.sqrt(2.0 * np.log(2.0))
        rho2 = mesh.rr**2 + (mesh.zz - 3.0) ** 2
        c = 1e-6 * np.exp(-rho2 / (2 * s**2))
        assert plume_volume(c, mesh) == pytest.approx(4 * np.pi / 3, rel=0.02)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_stacked_corner_formula_bit_for_bit(self, oblong, seed):
        rng = np.random.default_rng(seed)
        shape = (oblong.nz1, oblong.nr1)
        fields = {
            "uniform noise, cut cells": rng.random(shape) * 1e-7,
            "a plume over noise": 1e-7 * np.exp(-rng.uniform(1, 4) * (
                oblong.rr**2 + (oblong.zz - 4.2) ** 2)) + 1e-12 * rng.random(shape),
            "all above half the maximum": rng.uniform(0.5, 1.0, shape),
            "some at half the maximum": rng.choice([0.5, 1.0], shape),
            "zero, half or the maximum": rng.choice([0.0, 0.5, 1.0], shape),
        }
        for name, c in fields.items():
            assert plume_volume(c, oblong) == stacked_plume_volume(c, oblong), name

    def test_floor_means_no_plume(self, mesh):
        c = np.full((mesh.nz1, mesh.nr1), 1e-19)
        assert plume_volume(c, mesh) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(lam=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
    def test_scale_invariance(self, mesh, lam, seed):
        rng = np.random.default_rng(seed)
        c = rng.random((mesh.nz1, mesh.nr1)) * 1e-7
        assert plume_volume(lam * c, mesh) == pytest.approx(
            plume_volume(c, mesh), rel=1e-9)


class TestDoseFractions:
    def test_all_free(self):
        ledger = DoseLedger(injected=1e-7, free=1e-7)
        assert dose_fractions(ledger) == pytest.approx((100.0, 0.0, 0.0))

    def test_closure_sums_to_100(self):
        ledger = DoseLedger(injected=2e-7, free=1e-7, bound=0.5e-7,
                            absorbed_lymph=0.5e-7)
        assert sum(dose_fractions(ledger)) == pytest.approx(100.0)

    def test_no_dose_yet_splits_zero(self):
        assert dose_fractions(DoseLedger()) == (0.0, 0.0, 0.0)


class TestMetricSeries:
    def test_requires_increasing_time(self):
        series = MetricSeries()
        row = {name: 0.0 for name in
               ("pressure_ball_avg", "velocity_ball_max", "phi_avg", "ph_avg",
                "rho_mab_avg", "plume_volume_cm3", "free_pct", "bound_pct",
                "absorbed_pct")}
        series.append(0.0, **row)
        series.append(1.0, **row)
        with pytest.raises(ValueError):
            series.append(1.0, **row)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_rejects_a_time_that_is_not_finite(self, t):
        # a NaN fails every comparison, so it would pass an ordering check
        series = MetricSeries()
        row = dict.fromkeys(CHANNELS, 0.0)
        series.append(0.0, **row)
        with pytest.raises(ValueError, match="finite"):
            series.append(t, **row)
        assert series.time == [0.0]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", CHANNELS)
    def test_rejects_a_value_that_is_not_finite_in_any_channel(self, name, value):
        series = MetricSeries()
        row = dict.fromkeys(CHANNELS, 0.0)
        series.append(0.0, **row)
        with pytest.raises(ValueError, match=f"{name} is not finite"):
            series.append(1.0, **{**row, name: value})
        assert series.time == [0.0]
        assert all(len(column) == 1 for column in series.channels.values())

    def test_rejects_out_of_range_percentage(self):
        series = MetricSeries()
        row = {name: 0.0 for name in
               ("pressure_ball_avg", "velocity_ball_max", "phi_avg", "ph_avg",
                "rho_mab_avg", "plume_volume_cm3", "free_pct", "bound_pct",
                "absorbed_pct")}
        row["free_pct"] = 150.0
        with pytest.raises(ValueError):
            series.append(0.0, **row)
