"""Invariants of the whole pipeline on random small scenarios.

hypothesis draws a scenario (the two meshes, the needle depth, the layer
thicknesses, the injection's ramp and duration, the injection step, the
buffer pH, the drug preset and a long horizon of at most 0.2 h) and runs
`Simulation.run_pipeline` on it. Each test asserts one invariant the model
promises: the drug budget closes at every sample, every accepted state keeps
its bounds, a rerun is bit-identical, and a checkpoint round-trips. The
examples are the same on every run (``tests/conftest.py``).
"""

import tempfile
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from depotsim.config import default_config
from depotsim.io import load_checkpoint, save_checkpoint
from depotsim.orchestrator import ROUND_OFF, Simulation, StaggeredStepper
from depotsim.params import ConfigurationError

EXAMPLES = settings(max_examples=12)
STATE_ARRAYS = ("c_na", "c_h", "c_mab", "c_b", "p", "phi", "u", "c_cl", "ph",
                "z_mab", "j_l")


@st.composite
def scenarios(draw):
    """A small scenario. Settings that the configuration rejects (a graded
    mesh whose cells grow by more than 1.3 across the needle tip) or whose
    fine mesh cannot resolve the injection source (a coarse uniform one with
    no node near the tip) describe no scenario, and are drawn again."""
    # fine meshes 24 cells wide or wider reach the condensed factors
    fine, coarse = st.integers(8, 32), st.integers(8, 14)
    duration = draw(st.floats(1.0, 4.0))
    dt = draw(st.floats(0.2, 0.5))
    dermis = draw(st.floats(0.1, 0.4))
    adipose = draw(st.floats(0.4, 2.0))
    values = {
        "mesh.fine_nr": draw(fine), "mesh.fine_nz": draw(fine),
        "mesh.fine_grading": draw(st.floats(1.0, 1.15)),
        "mesh.coarse_nr": draw(coarse), "mesh.coarse_nz": draw(coarse),
        "layers.dermis_cm": dermis, "layers.adipose_cm": adipose,
        "protocol.depth_cm": draw(st.floats(0.2, dermis + adipose)),
        "protocol.duration_s": duration,
        "protocol.ramp_s": draw(st.floats(0.05, 0.4 * duration)),
        "phases.short_dt_s": dt,
        "phases.short_horizon_s": duration + draw(st.floats(0.0, 1.0)),
        "phases.long_horizon_h": draw(st.floats(0.01, 0.2)),
        "output.cadence_s": dt,
        "formulation.buffer_ph": draw(st.floats(4.0, 9.0)),
        "formulation.drug": draw(st.sampled_from(["ipilimumab_like", "igg1_like"])),
    }
    try:
        config = default_config().with_values(values)
    except ConfigurationError:
        reject()
    return config


@EXAMPLES
@given(scenarios())
def test_the_drug_budget_closes_at_every_sample(config):
    result = Simulation(config).run_pipeline()
    for phase, report in result.phase_report.items():
        assert report["max_closure_residual"] <= 1e-12, phase


@EXAMPLES
@given(scenarios())
def test_every_accepted_state_keeps_its_bounds(config):
    # a step is admitted with c_B up to ROUND_OFF of B_max above it and a
    # chloride down to ROUND_OFF of its largest value below zero; the species'
    # round-off negatives are zeroed
    accepted = []
    step = StaggeredStepper.step

    def recording(self, state, ledger, dt):
        new, taken = step(self, state, ledger, dt)
        accepted.append(new)
        return new, taken

    with mock.patch.object(StaggeredStepper, "step", recording):
        Simulation(config).run_pipeline()
    b_max = config.binding().b_max
    assert accepted
    for state in accepted:
        for name in ("c_na", "c_h", "c_mab"):
            assert getattr(state, name).min() >= 0.0, (name, state.t)
        assert 0.0 <= state.c_b.min() <= state.c_b.max() <= b_max * (1 + ROUND_OFF), state.t
        assert state.c_cl.min() >= -ROUND_OFF * state.c_cl.max(), state.t


@EXAMPLES
@given(scenarios())
def test_a_rerun_is_bit_identical(config):
    a, b = (Simulation(config).run_pipeline() for _ in range(2))
    assert a.series.time == b.series.time
    assert a.series.channels == b.series.channels
    assert asdict(a.ledger) == asdict(b.ledger)
    assert asdict(a.short_ledger) == asdict(b.short_ledger)
    assert a.phase_counters == b.phase_counters
    for name in STATE_ARRAYS:
        for state_a, state_b in ((a.short_state, b.short_state),
                                 (a.final_state, b.final_state)):
            assert np.array_equal(getattr(state_a, name), getattr(state_b, name)), name


@EXAMPLES
@given(scenarios())
def test_a_checkpoint_round_trips(config):
    result = Simulation(config).run_pipeline()
    text = config.to_text()
    with tempfile.TemporaryDirectory() as tmp:
        for phase, state, ledger in (
                ("short_end", result.short_state, result.short_ledger),
                ("final", result.final_state, result.ledger)):
            path = save_checkpoint(state, ledger, phase, Path(tmp) / phase, text)
            back, back_ledger, back_phase, back_text = load_checkpoint(path)
            assert (back_phase, back_text, back.t) == (phase, text, state.t)
            assert asdict(back_ledger) == asdict(ledger)
            assert np.array_equal(back.mesh.r, state.mesh.r)
            assert np.array_equal(back.mesh.z, state.mesh.z)
            assert back.mesh.injection_point == state.mesh.injection_point
            for name in STATE_ARRAYS:
                assert np.array_equal(getattr(back, name), getattr(state, name)), name
