"""Parameter types, pH curves, and electroneutrality algebra."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depotsim.config import default_config, load_config_text
from depotsim.params import (Z_CL, Z_H, Z_NA, ConfigurationError, PhCurve,
                             load_drug_curves, recover_chloride,
                             syringe_composition)
from depotsim.transport import tissue_ph

DEFAULTS = default_config()
CONSTANTS = DEFAULTS.constants()
C_NA = DEFAULTS["species.c_na_init"]


def isoelectric_point(curve: PhCurve) -> float:
    """pH of a charge curve's first zero crossing (linear interpolation)."""
    v = curve.values
    k = int(np.nonzero(np.sign(v[:-1]) * np.sign(v[1:]) <= 0)[0][0])
    return float(curve.ph[k] - v[k] * (curve.ph[k + 1] - curve.ph[k]) / (v[k + 1] - v[k]))


class TestPhFromHydrogen:
    def test_neutral_reference(self):
        # 1e-10 mol/cm^3 is 1e-7 mol/L by construction
        assert tissue_ph(1.0e-10) == pytest.approx(7.0)

    def test_physiological_value(self):
        assert tissue_ph(4.0e-11) == pytest.approx(7.40, abs=0.01)

    def test_acidic_value(self):
        assert tissue_ph(1.0e-9) == pytest.approx(6.0)


class TestPhCurve:
    def test_interpolation_hits_zero_at_pi(self):
        curve = PhCurve([5.0, 9.0], [10.0, -2.0])
        pi = isoelectric_point(curve)
        assert pi == pytest.approx(5 + 4 * 10 / 12)
        assert abs(curve(pi)) < 1e-12

    def test_clamps_below_range(self):
        curve = PhCurve([5.0, 9.0], [10.0, -2.0])
        assert curve(4.0) == 10.0

    def test_hand_interpolated_segment(self):
        curve = PhCurve([5.0, 7.0, 9.0], [10.0, 4.0, -2.0])
        # hand interpolation on the (7,4)-(9,-2) segment
        assert curve(8.0) == pytest.approx(1.0)

    def test_needs_two_samples(self):
        with pytest.raises(ConfigurationError):
            PhCurve([7.0], [1.0])

    def test_rejects_non_increasing_ph(self):
        with pytest.raises(ConfigurationError):
            PhCurve([5.0, 5.0, 9.0], [1.0, 0.5, 0.0])

    def test_csv_that_is_not_utf8_is_rejected(self, tmp_path):
        path = tmp_path / "charge.csv"
        path.write_bytes(b"\xff\xfeph,value\n5,10\n9,-2\n")
        with pytest.raises(ConfigurationError, match="charge.csv: not UTF-8"):
            PhCurve.from_csv(path)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(3.0, 12.0), min_size=2, max_size=8, unique=True),
           st.lists(st.floats(-40.0, 40.0), min_size=8, max_size=8),
           st.floats(2.0, 13.0), st.floats(2.0, 13.0))
    def test_monotone_curve_gives_monotone_evaluation(self, phs, raw, a, b):
        phs = sorted(phs)
        values = sorted(raw[:len(phs)], reverse=True)  # non-increasing
        curve = PhCurve(phs, values)
        assert np.all(np.diff(curve.values) <= 0.0)
        lo, hi = min(a, b), max(a, b)
        assert curve(lo) >= curve(hi) - 1e-12


def with_rates(ka_curve, kd_curve):
    """The default binding parameters with the given rate curves."""
    return replace(DEFAULTS.binding(), ka_curve=ka_curve, kd_curve=kd_curve)


class TestRates:
    def test_constant_curve(self):
        binding = with_rates(PhCurve([5, 9], [2e6, 2e6]),
                             PhCurve([5, 9], [1e-4, 1e-4]))
        for ph in (3.0, 7.0, 12.0):
            ka = binding.ka_curve(ph)
            assert ka == 2e6

    def test_midpoint(self):
        binding = with_rates(PhCurve([5, 9], [1e5, 1e5]),
                             PhCurve([6, 8], [1e-4, 3e-4]))
        kd = binding.kd_curve(7.0)
        assert kd == pytest.approx(2e-4)

    def test_clamp_below_range(self):
        binding = with_rates(PhCurve([5, 9], [3e5, 1e5]),
                             PhCurve([5, 9], [1e-4, 2e-4]))
        ka = binding.ka_curve(4.0)
        assert ka == 3e5

    def test_rejects_negative_rates(self):
        with pytest.raises(ConfigurationError):
            with_rates(PhCurve([5, 9], [1e5, -1.0]),
                       PhCurve([5, 9], [1e-4, 1e-4]))


class TestRecoverChloride:
    def test_physiological_rest(self):
        c_cl = recover_chloride(1.4e-4, 4e-11, 0.0, 0.0)
        assert c_cl == pytest.approx(1.4e-4 + 4e-11, rel=1e-15)
        assert c_cl == pytest.approx(1.4e-4, rel=1e-6)

    def test_all_zero(self):
        assert recover_chloride(0.0, 0.0, 0.0, 5.0) == 0.0

    def test_charged_drug_alone(self):
        assert recover_chloride(0.0, 0.0, 2e-7, 5.0) == pytest.approx(1e-6)

    def test_negative_result_is_returned_unlogged_for_the_caller_to_judge(self, caplog):
        with caplog.at_level("DEBUG"):
            c_cl = recover_chloride(0.0, 0.0, 2e-7, -5.0)
        assert c_cl == pytest.approx(-1e-6)
        assert not caplog.records

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0, 1e-3), st.floats(0, 1e-8), st.floats(0, 1e-6),
           st.floats(-30, 30))
    def test_closes_electroneutrality(self, c_na, c_h, c_mab, z):
        c_cl = recover_chloride(c_na, c_h, c_mab, z)
        net = c_na + c_h + z * c_mab - c_cl
        scale = max(c_na, 1e-30)
        assert abs(net) / scale < 1e-12


class TestSyringeComposition:
    def test_formulation_molarity(self):
        syr = syringe_composition(6.0, 100.0, 150000.0, 19.0, C_NA)
        assert syr["mab"] == pytest.approx(6.667e-7, rel=1e-3)

    def test_buffer_ph_sets_hydrogen(self):
        syr = syringe_composition(6.0, 100.0, 150000.0, 0.0, C_NA)
        assert syr["h"] == pytest.approx(1e-9)

    def test_neutral_drug_balance(self):
        syr = syringe_composition(10.0, 0.0, 150000.0, 0.0, C_NA)
        assert syr["na"] == pytest.approx(4.2e-4)
        assert syr["cl"] == pytest.approx(4.2e-4, rel=1e-6)

    def test_unbalanced_formulation_rejected(self):
        # a hugely negative drug would demand negative chloride
        with pytest.raises(ConfigurationError):
            syringe_composition(7.4, 100.0, 150000.0, -1000.0, C_NA)

    def test_injectate_is_electroneutral(self):
        z = -12.5
        syr = syringe_composition(8.0, 150.0, 150000.0, z, C_NA)
        net = syr["na"] + syr["h"] + z * syr["mab"] - syr["cl"]
        assert abs(net) < 1e-20


class TestSpeciesAndLayers:
    def test_mobility_is_derived_exactly(self):
        table = DEFAULTS.species()
        for spec in (table.sodium, table.hydrogen, table.drug):
            assert spec.mobility(CONSTANTS) * CONSTANTS.rt == spec.diffusivity

    def test_eliminated_species_must_be_charged(self):
        # chloride recovery divides by the Cl- valence
        assert Z_CL == -1.0
        assert Z_NA == Z_H == +1.0

    def test_default_layer_stack(self):
        layers = DEFAULTS.layers()
        assert sum(l.thickness for l in layers.layers) == pytest.approx(5.0)
        names = [l.name for l in layers.layers]
        assert names == ["muscle", "adipose", "dermis-epidermis"]
        assert [l.thickness for l in layers.layers] == [3.3, 1.5, 0.2]
        assert [l.permeability for l in layers.layers] == [1e-11, 1e-9, 1e-10]

    def test_layer_lookup_by_height(self):
        layers = DEFAULTS.layers()
        z = np.array([0.5, 3.4, 4.9])
        assert list(layers.permeability_at(z)) == [1e-11, 1e-9, 1e-10]
        assert list(layers.slv_at(z)) == [0.0, 3.5, 70.0]

    def test_interfaces_belong_to_the_upper_layer(self):
        layers = DEFAULTS.layers()
        assert list(layers.layer_index([3.3, 4.8])) == [1, 2]
        assert list(layers.slv_at([3.3, 4.8])) == [3.5, 70.0]

    def test_layers_reject_overfull_stack(self):
        with pytest.raises(ConfigurationError):
            load_config_text("layers.adipose_cm = 4.9")

    def test_constants_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            replace(CONSTANTS, temperature=-1.0)


class TestPackagedCurves:
    def test_presets_load_and_have_expected_pi_ordering(self):
        z_ipi, ka_ipi, kd_ipi = load_drug_curves("ipilimumab_like")
        z_igg, ka_igg, kd_igg = load_drug_curves("igg1_like")
        assert isoelectric_point(z_ipi) > isoelectric_point(z_igg)
        # the high-pI molecule is at least as protonated up to its pI;
        # beyond both pIs the deprotonated tails are unconstrained
        probe = np.linspace(3, 9, 50)
        assert np.all(z_ipi(probe) >= z_igg(probe))
        # association strengthens toward low pH for both
        assert ka_ipi(5.0) > ka_ipi(9.0)
        assert ka_igg(5.0) > ka_igg(9.0)
        # dissociation trends run opposite ways
        assert kd_ipi(9.0) < kd_ipi(5.0)
        assert kd_igg(9.0) > kd_igg(5.0)

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            load_drug_curves("unobtainium")
