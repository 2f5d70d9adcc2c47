"""Staggered stepping, phase reduction, ledger bookkeeping, determinism."""

import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from depotsim import _assembly, binding, orchestrator, transport
from depotsim import config as config_module
from depotsim.config import load_config_text
from depotsim.flow import (PressureSolver, SolverError, injection_source,
                           tissue_pressure)
from depotsim.mesh import FieldState, build_graded_mesh, nodal_integral, project_field
from depotsim.metrics import (MetricSeries, ball, ball_average, domain_average,
                              dose_fractions, net_charge_density)
from depotsim.orchestrator import (PRESSURE_BALL_RADIUS, ROUND_OFF, DoseLedger,
                                   NegativeConcentrationError, Simulation,
                                   StaggeredStepper, _admit)
from depotsim.params import TissueLayers, recover_chloride

TINY = """
mesh.fine_nr = 24
mesh.fine_nz = 24
mesh.fine_grading = 1.1
mesh.coarse_nr = 16
mesh.coarse_nz = 16
phases.short_dt_s = 0.25
phases.short_horizon_s = 6
phases.long_horizon_h = 0.2
output.cadence_s = 0.5
output.long_cadence_s = 60
"""


#: a fine mesh 49 nodes wide, past the direct limit, so species take the kept-ILU path
WIDE_FINE = """
mesh.fine_nr = 48
mesh.fine_nz = 12
mesh.fine_grading = 1.1
mesh.coarse_nr = 16
mesh.coarse_nz = 16
phases.short_dt_s = 0.5
phases.short_horizon_s = 6
phases.long_horizon_h = 0.05
output.cadence_s = 1.0
output.long_cadence_s = 60
"""


def electroneutrality_residual(state: FieldState) -> float:
    """max |sum_i z_i c_i| / max c_Na with the recovered chloride."""
    net = state.c_na + state.c_h + state.z_mab * state.c_mab - state.c_cl
    return float(np.max(np.abs(net)) / np.max(state.c_na))


def net_charge_average(state: FieldState) -> float:
    return domain_average(net_charge_density(state.c_mab, state.z_mab), state.mesh)


def max_closure_residual(result):
    """The largest |ledger closure| at an emitted sample of either phase."""
    return max(rep["max_closure_residual"] for rep in result.phase_report.values())


@pytest.fixture(scope="module")
def tiny_sim():
    return Simulation(load_config_text(TINY))


@pytest.fixture(scope="module")
def tiny_pipeline(tiny_sim):
    return tiny_sim.run_pipeline()


class TestStepStaggered:
    def test_rest_state_is_fixed_point_without_exchange(self, tiny_sim):
        # no source and no vascular exchange: the rest state must not move
        config = tiny_sim.config.with_values(
            {"starling.l_pb": 0.0, "starling.l_pl": 0.0})
        stepper = StaggeredStepper(config.fine_mesh(), config, flow=True)
        state = stepper.rest_state()
        state.t = 5.5  # past the end of the injection
        ledger = DoseLedger()
        state, _ = stepper.step(state, ledger, 0.25)
        assert np.allclose(state.c_na, 1.4e-4, rtol=1e-12)
        assert np.allclose(state.c_h, 4e-11, rtol=1e-12)
        assert np.all(state.c_mab == 0.0)
        assert np.max(np.abs(state.p)) < 1e-12
        assert ledger.injected == 0.0

    def test_rest_state_drifts_slowly_under_exchange(self, tiny_sim):
        # with Starling exchange on, the rim drain concentrates leftover ions
        # at the 1e-4 relative level per quarter-second step and no faster
        config = tiny_sim.config
        stepper = StaggeredStepper(config.fine_mesh(), config, flow=True)
        state = stepper.rest_state()
        state.t = 5.5
        state, _ = stepper.step(state, DoseLedger(), 0.25)
        assert np.allclose(state.c_na, 1.4e-4, rtol=3e-4)
        assert np.allclose(state.c_h, 4e-11, rtol=3e-4)

    def test_electroneutrality_after_step(self, tiny_sim):
        config = tiny_sim.config
        stepper = StaggeredStepper(config.fine_mesh(), config, flow=True)
        state = stepper.rest_state()
        ledger = DoseLedger()
        for _ in range(4):
            state, _ = stepper.step(state, ledger, 0.25)
        assert electroneutrality_residual(state) < 1e-12

    def test_step_returns_the_next_state_and_leaves_its_input_untouched(self, tiny_sim):
        config = tiny_sim.config
        stepper = StaggeredStepper(config.fine_mesh(), config, flow=True)
        state = stepper.rest_state()
        arrays = {name: value.copy() for name, value in vars(state).items()
                  if isinstance(value, np.ndarray)}
        assert len(arrays) == 11  # every nodal field and the face velocity
        new, dt = stepper.step(state, DoseLedger(), 0.25)
        assert new is not state and new.t == dt == 0.25
        assert state.t == 0.0
        for name, before in arrays.items():
            assert np.array_equal(getattr(state, name), before), name
        assert not np.array_equal(new.c_mab, state.c_mab)

    def test_retry_halves_dt_then_succeeds(self, tiny_sim, monkeypatch):
        config = tiny_sim.config
        stepper = StaggeredStepper(config.fine_mesh(), config, flow=True)
        state = stepper.rest_state()
        real_attempt = StaggeredStepper.attempt
        calls = {"n": 0}

        def flaky(self, st, dt):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise NegativeConcentrationError("synthetic overshoot")
            return real_attempt(self, st, dt)

        monkeypatch.setattr(StaggeredStepper, "attempt", flaky)
        _, dt_used = stepper.step(state, DoseLedger(), 0.2)
        assert stepper.retries == 2
        assert dt_used == pytest.approx(0.05)

    def test_narrow_attempt_builds_no_scipy_matrix(self, tiny_sim, monkeypatch):
        # on a mesh within the direct limit every operator stays plain data
        config = tiny_sim.config
        stepper = StaggeredStepper(config.fine_mesh(), config, flow=True)
        assert stepper.mesh.nr1 <= _assembly._DIRECT_MAX_WIDTH
        state = stepper.rest_state()

        def refuse(*args, **kwargs):
            raise AssertionError("a scipy.sparse matrix was built")

        for constructor in ("csr_matrix", "csc_matrix"):
            monkeypatch.setattr(_assembly.sp, constructor, refuse)
        new, increments, _ = stepper.attempt(state, 0.25)
        assert increments[0] > 0.0
        assert np.all(np.isfinite(new.c_mab))

    def test_persistent_failure_aborts(self, tiny_sim, monkeypatch):
        config = tiny_sim.config
        stepper = StaggeredStepper(config.fine_mesh(), config, flow=True)
        state = stepper.rest_state()

        def always_fails(self, st, dt):
            raise NegativeConcentrationError("synthetic")

        monkeypatch.setattr(StaggeredStepper, "attempt", always_fails)
        with pytest.raises(SolverError, match="halvings"):
            stepper.step(state, DoseLedger(), 0.2)


def rest_fields(tiny_sim):
    """Clean fields of a step: the four transported fields of the tissue at
    rest on the tiny fine mesh."""
    config = tiny_sim.config
    state = StaggeredStepper(config.fine_mesh(), config, flow=False).rest_state()
    return {name: getattr(state, name) for name in ("c_na", "c_h", "c_mab", "c_b")}


def admit(tiny_sim, fields):
    """`_admit` on ``fields`` with B_max 1e-9 and the tiny scenario's charge curve."""
    return _admit(**fields, b_max=1e-9, charge_curve=tiny_sim.config.charge_curve())


def first_call_changed(monkeypatch, module, name, change):
    """Make ``module.name`` pass its first result through ``change``."""
    real = getattr(module, name)
    calls = []

    def changed(*args):
        out = real(*args)
        if not calls:
            change(out)
        calls.append(out)
        return out

    monkeypatch.setattr(module, name, changed)


class TestAdmit:
    """`_admit`, the one acceptance rule, directly and through `StaggeredStepper.step`."""

    def test_round_off_negative_is_zeroed_and_counted(self, tiny_sim):
        fields = rest_fields(tiny_sim)
        fields["c_mab"][:] = 1e-7
        fields["c_mab"][3, 3] = -1e-20  # within 1e-12 of the drug's maximum
        _, clipped = admit(tiny_sim, fields)
        assert clipped == 1
        assert fields["c_mab"][3, 3] == 0.0

    def test_clean_state_clips_nothing_and_keeps_its_arrays(self, tiny_sim):
        fields = rest_fields(tiny_sim)
        copies = {name: arr.copy() for name, arr in fields.items()}
        _, clipped = admit(tiny_sim, fields)
        assert clipped == 0
        for name, arr in fields.items():
            assert np.array_equal(arr, copies[name]), name

    def test_every_negative_of_every_field_is_zeroed_and_counted(self, tiny_sim):
        fields = rest_fields(tiny_sim)
        fields["c_na"][0, :3] = -1e-20
        fields["c_h"][5, 5] = -0.0  # not below zero, so kept
        fields["c_b"][2:4, 7:9] = -1e-22  # within 1e-12 of B_max
        _, clipped = admit(tiny_sim, fields)
        assert clipped == 3 + 4
        assert fields["c_na"].min() == 0.0 and fields["c_b"].min() == 0.0
        assert np.all(fields["c_na"][0, 3:] == 1.4e-4)

    def test_finiteness_is_checked_first_and_fails_the_run(self, tiny_sim):
        fields = rest_fields(tiny_sim)
        fields["c_na"][0, 0] = -1.0  # an overshoot, but H+ is not finite
        fields["c_h"][1, 1] = np.nan
        with pytest.raises(SolverError, match="H\\+ transport produced non-finite") as exc:
            admit(tiny_sim, fields)
        assert not isinstance(exc.value, NegativeConcentrationError)

    def test_derived_fields_are_those_of_the_admitted_arrays(self, tiny_sim):
        fields = rest_fields(tiny_sim)
        fields["c_mab"][:] = 1e-7
        fields["c_mab"][3, 3] = -1e-20  # zeroed before the chloride is recovered
        derived, _ = admit(tiny_sim, fields)
        assert set(derived) == {"ph", "z_mab", "c_cl"}
        ph = transport.tissue_ph(fields["c_h"])
        z_mab = tiny_sim.config.charge_curve()(ph)
        assert np.array_equal(derived["ph"], ph)
        assert np.array_equal(derived["z_mab"], z_mab)
        assert np.array_equal(derived["c_cl"], recover_chloride(
            fields["c_na"], fields["c_h"], fields["c_mab"], z_mab))
        assert derived["c_cl"][3, 3] == fields["c_na"][3, 3] + fields["c_h"][3, 3]

    @pytest.mark.parametrize("share, retried", [(0.5, False), (2.0, True)])
    def test_species_below_zero_is_zeroed_within_round_off_else_retried(
            self, tiny_sim, monkeypatch, caplog, share, retried):
        config = tiny_sim.config
        node = (0, -1)  # the far rim, where Na+ stays at its rest level

        def dip(fields):
            c_na = fields[0]
            c_na[node] = -share * ROUND_OFF * c_na.max()

        clean = StaggeredStepper(config.fine_mesh(), config, flow=True)
        clean.step(clean.rest_state(), DoseLedger(), 0.2)
        stepper = StaggeredStepper(config.fine_mesh(), config, flow=True)
        first_call_changed(monkeypatch, transport, "advance_species", dip)
        with caplog.at_level("WARNING", logger="depotsim"):
            new, dt = stepper.step(stepper.rest_state(), DoseLedger(), 0.2)
        rejected = [r for r in caplog.records if "rejected" in r.getMessage()]
        if retried:
            assert stepper.retries == len(rejected) == 1
            assert dt == 0.1 and new.c_na[node] > 0.0
        else:
            assert stepper.retries == 0 and not rejected
            assert new.c_na[node] == 0.0 and stepper.clipped == clean.clipped + 1

    @pytest.mark.parametrize("share, retried", [(0.5, False), (2.0, True)])
    def test_bound_above_b_max_is_admitted_unchanged_within_round_off_else_retried(
            self, tiny_sim, monkeypatch, caplog, share, retried):
        config = tiny_sim.config
        b_max = config.binding().b_max
        node = (3, 3)
        over = b_max + share * ROUND_OFF * b_max

        def overfill(c_b):
            c_b[node] = over

        stepper = StaggeredStepper(config.fine_mesh(), config, flow=True)
        first_call_changed(monkeypatch, binding, "advance_bound", overfill)
        with caplog.at_level("WARNING", logger="depotsim"):
            new, dt = stepper.step(stepper.rest_state(), DoseLedger(), 0.2)
        rejected = [r for r in caplog.records if "rejected" in r.getMessage()]
        if retried:
            assert stepper.retries == len(rejected) == 1
            assert dt == 0.1 and new.c_b[node] < b_max
        else:
            assert stepper.retries == 0 and not rejected
            assert new.c_b[node] == over


    @pytest.mark.parametrize("share, retried", [(0.5, False), (2.0, True)])
    def test_chloride_below_zero_is_admitted_unchanged_within_round_off_else_retried(
            self, tiny_sim, monkeypatch, caplog, share, retried):
        config = tiny_sim.config
        node, dipped = (3, 3), []

        def dip(c_cl):
            c_cl[node] = -share * ROUND_OFF * c_cl.max()
            dipped.append(c_cl[node])

        stepper = StaggeredStepper(config.fine_mesh(), config, flow=True)
        state = stepper.rest_state()  # before the first recovery is changed
        first_call_changed(monkeypatch, orchestrator, "recover_chloride", dip)
        with caplog.at_level("WARNING", logger="depotsim"):
            new, dt = stepper.step(state, DoseLedger(), 0.2)
        rejected = [r for r in caplog.records if "rejected" in r.getMessage()]
        if retried:
            assert stepper.retries == len(rejected) == 1
            assert "Cl-" in rejected[0].getMessage()
            assert dt == 0.1 and new.c_cl.min() > 0.0
        else:
            assert stepper.retries == 0 and not rejected
            assert dt == 0.2 and new.c_cl[node] == dipped[0] < 0.0


class TestAffinePressure:
    def test_pressure_matches_a_solve_through_the_injection(self, tiny_sim):
        config = tiny_sim.config
        mesh = config.fine_mesh()
        stepper = StaggeredStepper(mesh, config, flow=True)
        protocol = config.protocol()
        solver, _ = tissue_pressure(mesh, config.layers(), config.starling(),
                                    config["flow.viscosity"])
        ramp, end = protocol.ramp_time, protocol.duration
        # ramp-up, plateau, ramp-down, after the flow stops
        for t in (0.5 * ramp, 0.5 * end, end - 0.5 * ramp, end + 0.5):
            expected = solver.solve(injection_source(mesh, protocol)
                                    * protocol.flow_rate(t))
            assert (np.linalg.norm(stepper.pressure_at(t) - expected)
                    <= 1e-12 * np.linalg.norm(expected))

    def test_stepper_holds_no_pressure_factor(self, tiny_sim, monkeypatch):
        factors = []
        factorize = _assembly.factorize

        def keeping(mesh, a):
            factors.append(factorize(mesh, a))
            return factors[-1]

        monkeypatch.setattr(_assembly, "factorize", keeping)
        config = tiny_sim.config
        stepper = StaggeredStepper(config.fine_mesh(), config, flow=True)
        (lu,) = factors
        factors.clear()
        assert sys.getrefcount(lu) == 2  # the local name and the call's argument
        assert not any(isinstance(v, PressureSolver) for v in vars(stepper).values())


class TestCondensedFineMesh:
    def test_every_fine_mesh_factor_is_condensed_and_superlu_never_runs(self, monkeypatch):
        # TINY's 24 x 24 fine mesh is 25 nodes wide, past the band limit and
        # within the direct limit; its 16 x 16 coarse mesh takes the band LU
        factors, calls = [], []
        factorize, splu = _assembly.factorize, spla.splu

        def keeping(mesh, a):
            lu = factorize(mesh, a)
            factors.append((mesh.nr1, type(lu), getattr(lu, "piv", None) is None))
            return lu

        def counting(*args, **kwargs):
            calls.append(args)
            return splu(*args, **kwargs)

        monkeypatch.setattr(_assembly, "factorize", keeping)
        monkeypatch.setattr(spla, "splu", counting)
        config = load_config_text(TINY).with_values({"phases.long_horizon_h": 0.05})
        assert config.fine_mesh().nr1 == 25 > _assembly._BAND_MAX_WIDTH
        Simulation(config).run_pipeline()
        fine = {(kind, cholesky) for nr1, kind, cholesky in factors if nr1 == 25}
        # the pressure and the potential by Cholesky, the species by LU
        assert fine == {(_assembly.CondensedFactor, True), (_assembly.CondensedFactor, False)}
        assert {(nr1, kind) for nr1, kind, _ in factors if nr1 != 25} == {(17, _assembly.BandLU)}
        assert not calls


class TestWideFineMesh:
    def test_pipeline_closes_its_budget_and_reruns_bit_identically(self):
        config = load_config_text(WIDE_FINE)
        assert config.fine_mesh().nr1 > _assembly._DIRECT_MAX_WIDTH
        a = Simulation(config).run_pipeline()
        b = Simulation(config).run_pipeline()
        assert a.phase_counters["injection"]["krylov_solves"] > 0
        assert max_closure_residual(a) <= 1e-12
        assert a.series.channels == b.series.channels
        for name in ("p", "phi", "c_na", "c_h", "c_mab", "c_b"):
            assert np.array_equal(getattr(a.short_state, name), getattr(b.short_state, name))
            assert np.array_equal(getattr(a.final_state, name), getattr(b.final_state, name))
        assert a.phase_counters == b.phase_counters

    def test_pipeline_makes_no_full_superlu_factorization(self, monkeypatch):
        # the pressure and the potential take the band Cholesky, the species
        # their kept ILUs
        calls = []
        splu = spla.splu

        def counting(*args, **kwargs):
            calls.append(args)
            return splu(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting)
        result = Simulation(load_config_text(WIDE_FINE)).run_pipeline()
        assert result.phase_counters["injection"]["ilu_builds"] > 0
        assert not calls

    def test_forced_direct_species_solves_are_condensed_and_keep_the_split(self,
                                                                           monkeypatch):
        # every kept-ILU GMRES run fails, so each injection species solve goes
        # to `factorize`, which must not reach for SuperLU
        config = load_config_text(WIDE_FINE)
        unpatched = Simulation(config).run_pipeline()
        solves, factors = [], set()
        solve, factorize = _assembly.SpeciesSolver.solve, _assembly.factorize

        def counting(self, a, b):
            solves.append(self.mesh.nr1)
            return solve(self, a, b)

        def keeping(mesh, a):
            lu = factorize(mesh, a)
            factors.add((mesh.nr1, type(lu)))
            return lu

        def refuse(*args, **kwargs):
            raise AssertionError("SuperLU factor")

        monkeypatch.setattr(_assembly.SpeciesSolver, "solve", counting)
        monkeypatch.setattr(_assembly.SpeciesSolver, "_gmres", lambda self, a, b: None)
        monkeypatch.setattr(_assembly, "factorize", keeping)
        monkeypatch.setattr(spla, "splu", refuse)
        forced = Simulation(config).run_pipeline()
        nr1 = config.fine_mesh().nr1
        injection = forced.phase_counters["injection"]
        assert injection["krylov_solves"] == 0
        assert injection["direct_fallbacks"] == solves.count(nr1) > 0
        assert {kind for width, kind in factors if width == nr1} == {_assembly.CondensedFactor}
        assert max_closure_residual(forced) <= 1e-12
        assert np.allclose(dose_fractions(forced.ledger), dose_fractions(unpatched.ledger),
                           rtol=0.0, atol=1e-9)

    def test_phase_end_drops_the_preconditioners(self, monkeypatch):
        ilus = []
        spilu = spla.spilu

        def keeping(*args, **kwargs):
            ilus.append(spilu(*args, **kwargs))
            return ilus[-1]

        monkeypatch.setattr(spla, "spilu", keeping)
        # the result holds the fine mesh past the phase
        config = load_config_text(WIDE_FINE)
        short = Simulation(config).run_short_term(MetricSeries(), DoseLedger())
        assert short.counters["ilu_builds"] == len(ilus) > 0
        while ilus:
            ilu = ilus.pop()
            assert sys.getrefcount(ilu) == 2  # the local name and the call's argument


class TestFlowStop:
    def test_no_kept_ilu_fails_in_the_step_where_the_flow_stops(self, tiny_sim,
                                                                 monkeypatch):
        # every species solve takes the kept-ILU GMRES path, even on this narrow mesh
        monkeypatch.setattr(_assembly, "_DIRECT_MAX_WIDTH", 0)
        config = tiny_sim.config
        stepper = StaggeredStepper(config.fine_mesh(), config, flow=True)
        state = stepper.rest_state()
        ledger, dt, end = DoseLedger(), 0.25, stepper.protocol.duration
        while state.t + dt < end:
            state, _ = stepper.step(state, ledger, dt)
        assert stepper.protocol.flow_rate(state.t) > 0.0
        runs = []
        gmres = _assembly.SpeciesSolver._gmres

        def spying(self, a, b):
            runs.append(gmres(self, a, b))
            return runs[-1]

        monkeypatch.setattr(_assembly.SpeciesSolver, "_gmres", spying)
        state, _ = stepper.step(state, ledger, dt)
        assert state.t == end and stepper.protocol.flow_rate(end) == 0.0
        assert len(runs) == 3  # one run a species, each on a fresh ILU
        assert all(x is not None for x in runs)
        assert stepper.krylov.direct_fallbacks == 0


class TestNearSourceAverage:
    """`metrics.ball_average` over the near-source ball that `Simulation` reports,
    on both of its branches, with the ball asked for twice so that the second
    call reads the one the first cached on the mesh."""

    @staticmethod
    def explicit_ball(mesh, center):
        d2 = (mesh.rr - center[0]) ** 2 + (mesh.zz - center[1]) ** 2
        return d2 <= PRESSURE_BALL_RADIUS ** 2, int(np.argmin(d2))

    def test_ball_holding_nodes_gives_their_volume_weighted_average(self, tiny_sim):
        mesh = tiny_sim.config.fine_mesh()
        center = tiny_sim.config.protocol().center(mesh.height)
        mask, _ = self.explicit_ball(mesh, center)
        assert mask.sum() > 1
        fld = np.random.default_rng(2).random((mesh.nz1, mesh.nr1))
        w = mesh.node_volumes[mask]
        expected = float(np.sum(fld[mask] * w) / np.sum(w))
        for _ in range(2):
            assert ball_average(fld, ball(mesh, center, PRESSURE_BALL_RADIUS)) == expected

    def test_empty_ball_falls_back_to_the_nearest_node(self, tiny_sim):
        # no node of the 16x16 coarse mesh lies within 0.1 cm of the needle tip
        mesh = tiny_sim.config.coarse_mesh()
        center = tiny_sim.config.protocol().center(mesh.height)
        mask, nearest = self.explicit_ball(mesh, center)
        assert not mask.any()
        fld = np.random.default_rng(3).random((mesh.nz1, mesh.nr1))
        for _ in range(2):
            nodes = ball(mesh, center, PRESSURE_BALL_RADIUS)
            assert ball_average(fld, nodes) == fld.ravel()[nearest]


class TestShortTerm:
    def test_pressure_trace_rises_plateaus_decays(self, tiny_pipeline):
        series = tiny_pipeline.series
        t = np.asarray(series.time)
        p = series.column("pressure_ball_avg")
        short = t <= 6.0
        p_short, t_short = p[short], t[short]
        plateau = p_short[(t_short > 1.0) & (t_short < 4.5)]
        # rise: early values well under the plateau
        assert p_short[t_short <= 0.5][-1] > 0
        assert plateau.min() > 0.5 * plateau.max()
        # plateau is flat and dominates the trace
        assert plateau.max() == pytest.approx(p_short.max(), rel=0.05)
        # decay: pressure collapses after the flow stops
        assert p_short[-1] < 0.02 * plateau.max()

    def test_velocity_trace_follows_source(self, tiny_pipeline):
        series = tiny_pipeline.series
        t = np.asarray(series.time)
        u = series.column("velocity_ball_max")
        short = t <= 6.0
        assert u[short].max() > 100 * abs(u[short][-1])

    def test_depot_ph_matches_buffer(self, tiny_pipeline):
        # default buffer pH 6: the needle-tip neighborhood equilibrates to it
        state = tiny_pipeline.short_state
        mask = state.mesh.ball_mask(state.mesh.injection_point, 0.3)
        assert state.ph[mask].mean() == pytest.approx(6.0, abs=0.1)


class TestReduction:
    def test_drug_mass_conserved_exactly(self, tiny_sim, tiny_pipeline):
        short_state = tiny_pipeline.short_state
        reduced = tiny_sim.reduce_to_long_term(short_state)
        porosity = tiny_sim.config.layers().porosity
        fine_total = (porosity * np.sum(short_state.c_mab
                                        * short_state.mesh.node_volumes)
                      + np.sum(short_state.c_b * short_state.mesh.node_volumes))
        coarse_total = (porosity * np.sum(reduced.c_mab * reduced.mesh.node_volumes)
                        + np.sum(reduced.c_b * reduced.mesh.node_volumes))
        assert coarse_total == pytest.approx(fine_total, rel=1e-12)

    def test_frozen_drainage_layer_structure(self, tiny_sim, tiny_pipeline):
        reduced = tiny_sim.reduce_to_long_term(tiny_pipeline.short_state)
        mesh = reduced.mesh
        layers = tiny_sim.config.layers()
        idx = layers.layer_index(mesh.z)
        names = [layers.layers[i].name for i in idx]
        j_l = reduced.j_l
        for j, name in enumerate(names):
            if name == "muscle":
                assert np.all(j_l[j, :] == 0.0)
            else:
                assert np.all(j_l[j, :] >= 0.0)
        assert j_l.max() > 0.0

    def test_net_charge_average_continuity(self, tiny_sim, tiny_pipeline):
        short_state = tiny_pipeline.short_state
        reduced = tiny_sim.reduce_to_long_term(short_state)
        assert net_charge_average(reduced) == pytest.approx(
            net_charge_average(short_state), rel=0.02)

    def test_mass_change_before_rescale_is_reported(self, tiny_sim, tiny_pipeline,
                                                    caplog):
        # the drug mass the projection alone moves, before the exact rescale;
        # a change beyond 5% would be logged
        short_state = tiny_pipeline.short_state
        fine, coarse = short_state.mesh, tiny_sim.config.coarse_mesh()
        porosity = tiny_sim.config.layers().porosity

        def drug(c_mab, c_b, mesh):
            return porosity * nodal_integral(c_mab, mesh) + nodal_integral(c_b, mesh)

        before = drug(short_state.c_mab, short_state.c_b, fine)
        after = drug(project_field(fine, short_state.c_mab, coarse),
                     project_field(fine, short_state.c_b, coarse), coarse)
        assert abs(after - before) / before < 0.05
        with caplog.at_level("WARNING", logger="depotsim"):
            tiny_sim.reduce_to_long_term(short_state)
        assert not any("projection changed" in r.getMessage() for r in caplog.records)


class TestLongTerm:
    def test_no_retries_at_default_step(self, tiny_pipeline):
        assert tiny_pipeline.retries == 0

    def test_monotone_absorption(self, tiny_pipeline):
        absorbed = tiny_pipeline.series.column("absorbed_pct")
        assert np.all(np.diff(absorbed) >= -1e-12)

    def test_ledger_closure_everywhere(self, tiny_pipeline):
        assert max_closure_residual(tiny_pipeline) < 1e-10

    def test_electroneutrality_both_phases(self, tiny_pipeline):
        for state in (tiny_pipeline.short_state, tiny_pipeline.final_state):
            assert electroneutrality_residual(state) < 1e-12

    def test_chloride_min_bounds_the_recovered_chloride(self, tiny_pipeline):
        # taken over every accepted step, so no more than at the phase ends
        phase_ends = min(tiny_pipeline.short_state.c_cl.min(),
                         tiny_pipeline.final_state.c_cl.min())
        assert 0.0 < tiny_pipeline.chloride_min <= phase_ends

    def test_free_fraction_decays(self, tiny_pipeline):
        free = tiny_pipeline.series.column("free_pct")
        t = np.asarray(tiny_pipeline.series.time)
        long_mask = t > 6.0
        assert free[long_mask][-1] < free[long_mask][0]

    def test_hour_long_steps_retry_instead_of_clamping(self, tiny_sim, caplog):
        # an hour-long step carries c_B past B_max; the step is rejected and
        # retried with half the dt, never clamped, so the budget still closes
        config = tiny_sim.config.with_values({
            "phases.long_horizon_h": 6.0, "phases.long_dt_min_s": 3600.0,
            "phases.long_dt_max_s": 3600.0})
        with caplog.at_level("WARNING", logger="depotsim"):
            result = Simulation(config).run_pipeline()
        messages = [r.getMessage() for r in caplog.records]
        assert max_closure_residual(result) <= 1e-12
        assert result.retries > 0
        assert sum("rejected" in m for m in messages) == result.retries
        assert not any("clamped" in m for m in messages)


class TestScenarioSetUp:
    def test_each_mesh_is_built_once_and_the_phases_run_on_it(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(build_graded_mesh(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(config_module, "build_graded_mesh", counting)
        config = load_config_text(TINY)
        result = Simulation(config).run_pipeline()
        assert len(built) == 2
        assert result.short_state.mesh is config.fine_mesh()
        assert result.final_state.mesh is config.coarse_mesh()

    def test_only_flow_samples_the_tissue_layers(self, monkeypatch):
        callers = []
        for name in ("slv_at", "permeability_at"):
            def spy(layers, z, _name=name, _sample=getattr(TissueLayers, name)):
                callers.append((_name, sys._getframe(1).f_globals["__name__"]))
                return _sample(layers, z)
            monkeypatch.setattr(TissueLayers, name, spy)
        Simulation(load_config_text(TINY)).run_pipeline()
        assert set(callers) == {("slv_at", "depotsim.flow"),
                                ("permeability_at", "depotsim.flow")}


class TestDeterminism:
    def test_bit_identical_trajectories(self):
        config = load_config_text(TINY).with_values(
            {"phases.long_horizon_h": 0.05})
        a = Simulation(config).run_pipeline()
        b = Simulation(config).run_pipeline()
        assert a.series.time == b.series.time
        for name in a.series.channels:
            assert a.series.channels[name] == b.series.channels[name]
        assert np.array_equal(a.final_state.c_mab, b.final_state.c_mab)
        assert a.ledger.absorbed_lymph == b.ledger.absorbed_lymph


class TestPhasePlan:
    """The phases run on the `phases.*` keys read straight from the config."""

    def test_injection_steps_hold_to_the_flow_stop_and_long_steps_ramp_to_the_horizon(
            self, tiny_sim):
        config, series, ledger = tiny_sim.config, MetricSeries(), DoseLedger()
        short = tiny_sim.run_short_term(series, ledger)
        # 5 s of 0.25 s steps to the flow stop, then 0.25 * 1.2 and 0.25 * 1.2^2
        # (below the 1 s cap), and the rest of the 6 s horizon
        assert short.dts[:20] == [config["phases.short_dt_s"]] * 20
        assert short.dts[20:22] == [0.25 * 1.2, 0.25 * 1.2 * 1.2]
        assert short.dts[22] == pytest.approx(6.0 - 5.0 - 0.3 - 0.36, abs=1e-12)
        assert len(short.dts) == 23
        reduced = tiny_sim.reduce_to_long_term(short.state)
        long = tiny_sim.run_long_term(reduced, series, ledger)
        # every reduced step passes the frozen fields on as they are
        assert long.state.p is reduced.p and long.state.j_l is reduced.j_l
        # step k is min(dt_min 1.2^k, dt_max), by the loop's own multiplications
        dt, ramp = config["phases.long_dt_min_s"], []
        for _ in long.dts[:-1]:
            ramp.append(dt)
            dt = min(dt * 1.2, config["phases.long_dt_max_s"])
        assert long.dts[:-1] == ramp and ramp[-1] == config["phases.long_dt_max_s"]
        # the last step is cut short to end on the horizon
        assert 0.0 < long.dts[-1] <= dt
        assert long.state.t == pytest.approx(
            short.state.t + config["phases.long_horizon_h"] * 3600.0, abs=1e-9)

    def test_the_injection_step_lands_on_the_flow_stop_then_grows_to_the_long_phases_first(
            self):
        # 0.3 s does not divide the 5 s injection; the 10 s horizon reaches the cap
        config = load_config_text(TINY).with_values(
            {"phases.short_dt_s": 0.3, "phases.short_horizon_s": 10.0})
        short = Simulation(config).run_short_term(MetricSeries(), DoseLedger())
        dt, stop = config["phases.short_dt_s"], config["protocol.duration_s"]
        cap = max(dt, config["phases.long_dt_min_s"])
        # a step ends at the sum of the steps before it, added in the same order
        ends = np.cumsum(short.dts)
        k = int(np.argmin(np.abs(ends - stop)))
        assert abs(ends[k] - stop) <= 1e-12
        assert short.dts[:k] == [dt] * k and 0.0 < short.dts[k] <= dt
        # each later step is the one before it times DT_GROWTH, up to the cap
        grown, step = [], dt
        for _ in short.dts[k + 1:-1]:
            step = min(step * orchestrator.DT_GROWTH, cap)
            grown.append(step)
        assert short.dts[k + 1:-1] == grown and grown[-1] == cap
        # the last step is cut short to end on the horizon
        assert 0.0 < short.dts[-1] <= cap
        assert ends[-1] == short.state.t
        assert short.state.t == pytest.approx(config["phases.short_horizon_s"], abs=1e-9)

    def test_from_config(self):
        config = load_config_text(TINY).with_values({"phases.long_horizon_h": 0.05})
        result = Simulation(config).run_pipeline()
        short_end = config["phases.short_horizon_s"]
        assert result.short_state.t == pytest.approx(short_end, abs=1e-9)
        assert result.final_state.t == pytest.approx(
            short_end + config["phases.long_horizon_h"] * 3600.0, abs=1e-9)

    def test_rejects_inverted_ramp(self):
        with pytest.raises(ValueError):
            load_config_text("phases.long_dt_min_s = 10\nphases.long_dt_max_s = 1\n")
