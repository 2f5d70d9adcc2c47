"""Matrix-binding exchange as the stepper runs it: rates, bound update, order,
and the stepper's acceptance of the bound field."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depotsim.binding import advance_bound, exchange_rates
from depotsim.config import default_config
from depotsim.mesh import build_graded_mesh
from depotsim.orchestrator import (ROUND_OFF, NegativeConcentrationError,
                                   StaggeredStepper, _admit)
from depotsim.params import BindingParams, PhCurve

N = 0.1
B_MAX = 1e-9
MESH = build_graded_mesh(5, 5, 8, 8, focus=(0, 4.2), grading=1.0)
CONFIG = default_config()
REST = StaggeredStepper(MESH, CONFIG, flow=False).rest_state()


def flat_binding(ka=5e4, kd=1e-4, k_e=0.0):
    return BindingParams(PhCurve([3, 11], [ka, ka]),
                         PhCurve([3, 11], [kd, kd]), k_e=k_e, b_max=B_MAX)


def uptake(c, cb, binding, ph=7.0):
    """Free-side uptake assoc c - release, mol/cm^3/s into the matrix."""
    assoc, release = exchange_rates(cb, ph, binding, N)
    return assoc * c - release


def step(cb, c, dt, binding, ph=7.0):
    assoc, release = exchange_rates(cb, ph, binding, N)
    return advance_bound(cb, c, assoc, release, dt, binding)


def admitted(cb):
    """The bound field ``cb`` as `orchestrator._admit` admits it beside the
    ions and drug of the tissue at rest, and the count of negatives it zeroed."""
    c_b = np.full_like(REST.c_b, cb)
    _, clipped = _admit(REST.c_na.copy(), REST.c_h.copy(), REST.c_mab.copy(), c_b,
                        B_MAX, CONFIG.charge_curve())
    return c_b, clipped


class TestBindingSink:
    def test_empty_system_is_silent(self):
        assert uptake(0.0, 0.0, flat_binding()) == 0.0

    def test_saturated_matrix_without_release(self):
        assert uptake(1e-7, B_MAX, flat_binding(kd=0.0)) == 0.0

    def test_pure_release_feeds_free_pool(self):
        phi = -uptake(0.0, 5e-10, flat_binding())
        assert phi == pytest.approx(1e-4 * 5e-10)
        assert phi > 0

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0, 1e-6), st.floats(0, B_MAX), st.floats(0, 1e5),
           st.floats(0, 1e-3), st.floats(0, 1e-5))
    def test_pairs_with_bound_update_for_any_ke(self, c, cb, ka, kd, ke):
        # what the bound field gains plus what elimination removes is
        # exactly what the free side gave up, assoc c - release
        binding = BindingParams(PhCurve([3, 11], [ka, ka]),
                                PhCurve([3, 11], [kd, kd]), k_e=ke, b_max=B_MAX)
        dt = 10.0  # small enough that no drawn case leaves [0, B_max]
        gained = step(cb, c, dt, binding) - cb
        eliminated = dt * ke * cb
        assert gained + eliminated == pytest.approx(
            dt * uptake(c, cb, binding), rel=1e-12, abs=1e-15 * B_MAX)

    def test_exchange_rate_is_negated_sink(self):
        # the uptake is minus the release-positive feed of the rate law,
        # phi_B = k_d c_B - k_a n c (B_max - c_B)
        c, cb = 3e-7, 4e-10
        phi_b = 1e-4 * cb - 5e4 * N * c * (B_MAX - cb)
        assert uptake(c, cb, flat_binding()) == pytest.approx(-phi_b, rel=1e-12)


class TestAdvanceBinding:
    def test_implicit_decay_with_no_free_drug(self):
        # release is explicit: one step multiplies c_B by (1 - k_d dt)
        binding = flat_binding(ka=0.0, kd=1e-4)
        cb0 = 5e-10
        dt = 100.0
        cb1 = step(cb0, 0.0, dt, binding)
        assert cb1 == pytest.approx(cb0 * (1 - 1e-4 * dt))

    def test_large_dt_reaches_equilibrium(self):
        # a step far past the exchange time overshoots B_max and is
        # rejected for the stepper to retry with half the dt
        binding = flat_binding(ka=5e4, kd=1e-4)
        with pytest.raises(NegativeConcentrationError, match="B_max"):
            admitted(step(0.0, 3e-7, 1e9, binding))

    def test_temporal_order_against_exact_solution(self):
        # dc_B/dt = a (B - c_B) - d c_B has the exact solution
        # c_B(t) = c_eq + (c_B0 - c_eq) exp(-(a + d) t)
        binding = flat_binding(ka=5e4, kd=2e-4)
        c = 5e-7
        a = 5e4 * N * c
        d = 2e-4
        lam = a + d
        c_eq = a * B_MAX / lam
        t_end = 2.0 / lam
        exact = c_eq + (0.0 - c_eq) * np.exp(-lam * t_end)

        errors, dts = [], []
        for n_steps in (8, 16, 32, 64):
            dt = t_end / n_steps
            cb = 0.0
            for _ in range(n_steps):
                cb = step(cb, c, dt, binding)
            errors.append(abs(float(cb) - exact))
            dts.append(dt)
        order = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert order >= 0.9
        assert order == pytest.approx(1.0, abs=0.1)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0, B_MAX), st.floats(0, 1e-6), st.floats(1e-3, 1e5),
           st.floats(4.0, 10.0))
    def test_clamp_never_needed_for_valid_inputs(self, cb0, c, dt, ph):
        # the update is returned as computed; the stepper admits it inside
        # [0, B_max] up to round-off, zeroing only a round-off negative, or
        # rejects the step; it never clamps it
        binding = flat_binding()
        assoc, release = exchange_rates(cb0, ph, binding, N)
        raw = cb0 + dt * (assoc * c - release)
        assert advance_bound(cb0, c, assoc, release, dt, binding) == raw
        inside = -ROUND_OFF * B_MAX <= raw and raw - B_MAX <= ROUND_OFF * B_MAX
        if not inside:
            with pytest.raises(NegativeConcentrationError):
                admitted(raw)
            return
        cb, clipped = admitted(raw)
        assert np.all(cb == max(raw, 0.0))
        assert clipped == (cb.size if raw < 0.0 else 0)

    def test_monotone_response_to_ph_on_decreasing_ka(self):
        # along a k_a-decreasing curve, raising pH never increases the
        # one-step bound increment at fixed free concentration
        binding = BindingParams(PhCurve([5, 9], [8e4, 1e4]),
                                PhCurve([5, 9], [1e-4, 1e-4]), k_e=0.0,
                                b_max=B_MAX)
        c, dt = 3e-7, 10.0
        increments = [float(step(0.0, c, dt, binding, ph=ph))
                      for ph in np.linspace(5, 9, 9)]
        assert all(a >= b - 1e-30 for a, b in zip(increments, increments[1:]))

