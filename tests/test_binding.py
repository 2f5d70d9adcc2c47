"""Matrix-binding kinetics: sink convention, implicit update, exact ODE."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depotsim.binding import advance_binding, binding_sink, exchange_rate
from depotsim.params import BindingParams, PhCurve

N = 0.1
B_MAX = 1e-9


def flat_binding(ka=5e4, kd=1e-4, k_e=0.0):
    return BindingParams(PhCurve([3, 11], [ka, ka]),
                         PhCurve([3, 11], [kd, kd]), k_e=k_e, b_max=B_MAX)


class TestBindingSink:
    def test_empty_system_is_silent(self):
        assert binding_sink(0.0, 0.0, 5e4, 1e-4, 0.0, N, B_MAX) == 0.0

    def test_saturated_matrix_without_release(self):
        assert binding_sink(1e-7, B_MAX, 5e4, 0.0, 0.0, N, B_MAX) == 0.0

    def test_pure_release_feeds_free_pool(self):
        phi = binding_sink(0.0, 5e-10, 5e4, 1e-4, 0.0, N, B_MAX)
        assert phi == pytest.approx(1e-4 * 5e-10)
        assert phi > 0

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0, 1e-6), st.floats(0, B_MAX), st.floats(0, 1e5),
           st.floats(0, 1e-3), st.floats(0, 1e-5))
    def test_pairs_with_bound_update_for_any_ke(self, c, cb, ka, kd, ke):
        # d(bound)/dt = -phi_B - k_e c_B must hold identically
        phi = binding_sink(c, cb, ka, kd, ke, N, B_MAX)
        dcb_dt = ka * N * c * (B_MAX - cb) - kd * cb - ke * cb
        assert dcb_dt == pytest.approx(-phi - ke * cb, rel=1e-12, abs=1e-30)

    def test_exchange_rate_is_negated_sink(self):
        c, cb = 3e-7, 4e-10
        assert exchange_rate(c, cb, 5e4, 1e-4, N, B_MAX) == pytest.approx(
            -binding_sink(c, cb, 5e4, 1e-4, 0.0, N, B_MAX))


class TestAdvanceBinding:
    def test_implicit_decay_with_no_free_drug(self):
        binding = flat_binding(ka=0.0, kd=1e-4)
        cb0 = 5e-10
        dt = 100.0
        cb1 = advance_binding(cb0, 0.0, 7.0, dt, binding, N)
        assert cb1 == pytest.approx(cb0 / (1 + 1e-4 * dt))

    def test_large_dt_reaches_equilibrium(self):
        # c_B* = B_max * k_a n c / (k_a n c + k_d) with k_e = 0
        binding = flat_binding(ka=5e4, kd=1e-4)
        c = 3e-7
        a = 5e4 * N * c
        expected = B_MAX * a / (a + 1e-4)
        cb = advance_binding(0.0, c, 7.0, 1e9, binding, N)
        assert cb == pytest.approx(expected, rel=1e-6)

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
                cb = advance_binding(cb, c, 7.0, dt, binding, N)
            errors.append(abs(float(cb) - exact))
            dts.append(dt)
        order = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert order >= 0.9
        assert order == pytest.approx(1.0, abs=0.1)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0, B_MAX), st.floats(0, 1e-6), st.floats(1e-3, 1e5),
           st.floats(4.0, 10.0))
    def test_clamp_never_needed_for_valid_inputs(self, cb0, c, dt, ph):
        binding = flat_binding()
        a = 5e4 * N * c
        raw = (cb0 + dt * a * B_MAX) / (1.0 + dt * (a + 1e-4))
        assert -1e-25 <= raw <= B_MAX * (1 + 1e-12)
        out = advance_binding(cb0, c, ph, dt, binding, N)
        assert 0.0 <= float(out) <= B_MAX

    def test_monotone_response_to_ph_on_decreasing_ka(self):
        # along a k_a-decreasing curve, raising pH never increases the
        # one-step bound increment at fixed free concentration
        binding = BindingParams(PhCurve([5, 9], [8e4, 1e4]),
                                PhCurve([5, 9], [1e-4, 1e-4]), k_e=0.0,
                                b_max=B_MAX)
        c, dt = 3e-7, 10.0
        increments = [float(advance_binding(0.0, c, ph, dt, binding, N))
                      for ph in np.linspace(5, 9, 9)]
        assert all(a >= b - 1e-30 for a, b in zip(increments, increments[1:]))

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            advance_binding(0.0, 0.0, 7.0, 0.0, flat_binding(), N)
