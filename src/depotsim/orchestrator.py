"""Staggered time integration, long-term model reduction, dose bookkeeping.

Each step runs the substeps in a fixed order: (1) pressure + velocity and
potential (with concentrations lagged), (2) implicit species transport,
(3) binding exchange (`binding.py`), (4) pH update, chloride recovery and
ledger update.

A step is state in, state out: `StaggeredStepper.attempt` computes a step's
fields and leaves its input alone, `StaggeredStepper.step` returns the
accepted state and books the dose ledger, the one thing it changes in place.
`_admit` alone accepts a step's fields: a non-finite species fails the run; a
species below zero, or c_B outside [0, B_max], by more than `ROUND_OFF` of its
scale is retried with halved dt up to five times; the round-off negatives
left are zeroed and counted. Then `_admit` computes the admitted fields' pH,
drug charge and chloride (`_derived`), and retries likewise a chloride below
zero by more than `ROUND_OFF` of its largest value. Only then is the step's
`FieldState` built. Every `FieldState` is complete (the rest and the reduced
states take `_derived` too); a step reads its lagged derived fields there.

After the injection phase the problem is reduced: fields are projected onto
a coarse uniform mesh (with an exact drug-mass rescale), convection and
sources are dropped, and the lymphatic drainage field is frozen from one
steady pressure solve without the injection source. The reduced phase starts
from that coarse `FieldState`, whose ``p`` and ``j_l`` are the steady
pressure and the frozen drainage; each reduced step passes both arrays on.
The phases run on the config's two meshes and take their drainage from
`flow`, the only module that samples the tissue layers.

Both phases take one dt policy (`Simulation._run_phase`): dt grows by
`DT_GROWTH` a step from a minimum to a maximum. The injection phase passes
``phases.short_dt_s`` as both, so its steps stay constant.

A `StaggeredStepper` computes what its phase never changes once, when it is
built, and keeps it for as long as it lives: one phase. No step writes to
these arrays; the face mobilities and the zero velocity are marked read-only.

- Injection phase: the unit-rate source shape of `flow.injection_source`,
  which Q(t) scales, the two pressure fields ``p_rest`` and ``p_unit``
  whose Q(t) combination is the pressure at any time, and the face
  mobilities kappa/eta the pressure solver harmonically averaged and the
  drainage coefficient, from which each step takes u and J_l.
- Reduced phase: one zero face velocity that every state of the phase
  shares. Without flow a step passes no velocity and no injection
  source to the species transport, and books no injected dose.
"""

from __future__ import annotations

import logging
import time as _time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import _assembly as fv
from . import binding as bd
from . import flow as fl
from . import metrics as mt
from . import transport as tr
from .config import SimulationConfig
from .flow import SolverError
from .mesh import AxiMesh, FieldState, nodal_integral, project_field
from .params import recover_chloride
from .potential import assemble_potential, solve_potential

logger = logging.getLogger(__name__)

#: the "2 mm ball" about the needle tip used for near-source averages.
#: A 2 mm diameter sphere: volume-averaging over a 2 mm *radius* sphere
#: bounds the mean of a point-source pressure field at 1.5*Q*eta/(4*pi*kappa*R),
#: far below the near-source levels this channel is meant to report.
PRESSURE_BALL_RADIUS = 0.1  # cm

MAX_DT_RETRIES = 5

#: a field may leave its bounds by this share of its scale and be admitted
ROUND_OFF = 1e-12

#: geometric growth of a phase's step from its minimum to its maximum
DT_GROWTH = 1.2


class NegativeConcentrationError(SolverError):
    """A field left its bounds beyond round-off; the stepper retries at half the dt."""


def _derived(c_na, c_h, c_mab, charge_curve) -> dict[str, np.ndarray]:
    """The pH, drug charge and chloride that follow from the concentrations."""
    ph = tr.tissue_ph(c_h)
    z_mab = charge_curve(ph)
    return {"ph": ph, "z_mab": z_mab,
            "c_cl": recover_chloride(c_na, c_h, c_mab, z_mab)}


def _check_floor(name: str, arr: np.ndarray):
    """Raise unless ``arr`` stays above -`ROUND_OFF` times its largest value."""
    floor = -ROUND_OFF * max(float(arr.max(initial=0.0)), 1e-300)
    if float(arr.min()) < floor:
        raise NegativeConcentrationError(
            f"{name} overshot to {float(arr.min()):.3e} (floor {floor:.3e})")


def _admit(c_na, c_h, c_mab, c_b, b_max: float,
           charge_curve) -> tuple[dict[str, np.ndarray], int]:
    """Raise unless a step's fields are admitted (see the module docstring);
    zero their round-off negatives in place and return the derived fields of
    the admitted arrays and how many negatives were zeroed."""
    species = {"Na+": c_na, "H+": c_h, "mAb": c_mab}
    for name, arr in species.items():
        if not np.isfinite(arr).all():
            raise SolverError(f"{name} transport produced non-finite values")
    for name, arr in species.items():
        _check_floor(name, arr)
    low, high = float(c_b.min()), float(c_b.max())
    if low < -ROUND_OFF * b_max or high - b_max > ROUND_OFF * b_max:
        raise NegativeConcentrationError(
            f"bound field left [0, B_max = {b_max:.3e}]: min {low:.3e}, max {high:.3e}")
    clipped = 0
    for arr in (*species.values(), c_b):
        if not arr.min() >= 0.0:  # a NaN takes the masked path too
            neg = arr < 0.0
            clipped += int(np.count_nonzero(neg))
            arr[neg] = 0.0
    derived = _derived(c_na, c_h, c_mab, charge_curve)
    _check_floor("recovered Cl-", derived["c_cl"])
    return derived, clipped


@dataclass
class DoseLedger:
    """Running drug-mass totals (mol)."""

    injected: float = 0.0
    free: float = 0.0
    bound: float = 0.0
    absorbed_lymph: float = 0.0
    eliminated: float = 0.0

    def closure_residual(self) -> float:
        """(injected - accounted) / injected; 0 for a perfectly closed budget."""
        if self.injected <= 0.0:
            return 0.0
        accounted = self.free + self.bound + self.absorbed_lymph + self.eliminated
        return (self.injected - accounted) / self.injected

    def count_stock(self, state: FieldState, porosity: float):
        """Set the free and bound totals from the fields of ``state``."""
        self.free = porosity * nodal_integral(state.c_mab, state.mesh)
        self.bound = nodal_integral(state.c_b, state.mesh)


class StaggeredStepper:
    """One-phase stepping engine bound to a mesh and a parameter set.

    ``flow`` is True for the injection phase, on the config's fine mesh,
    whose source `SimulationConfig.injection_source` built at load, and
    False for the reduced one.
    It keeps one `fv.SpeciesSolver` per species, which decides alone how it
    solves, for as long as it lives: one phase. It counts its dt-halving
    ``retries``, the ``clipped`` round-off negatives and the species
    solvers' ``krylov`` work; the phase's end copies them into
    `PhaseResult.counters`, the ``phases`` block of ``ledger.json``.
    """

    def __init__(self, mesh: AxiMesh, config: SimulationConfig, flow: bool):
        self.mesh = mesh
        self.config = config
        self.flow = flow
        self.constants = config.constants()
        self.species = config.species()
        self.layers = config.layers()
        self.starling = config.starling()
        self.binding = config.binding()
        self.charge_curve = config.charge_curve()
        self.protocol = config.protocol()
        self.porosity = self.layers.porosity
        syr = config.syringe()
        self.c_max = {"na": syr["na"], "h": syr["h"], "mab": syr["mab"]}

        self.retries = 0
        self.clipped = 0
        self.krylov = fv.KrylovCounts()
        self._species_solvers = tuple(fv.SpeciesSolver(mesh, self.krylov)
                                      for _ in range(3))
        if flow:
            # the source shape never changes; only Q(t) rescales it
            self._source_shape = config.injection_source()
            # the pressure is affine in Q(t), so two solves serve the phase
            # and no factor outlives the constructor
            pressure, self._lymph = fl.tissue_pressure(
                mesh, self.layers, self.starling, config["flow.viscosity"])
            self._p_rest = pressure.solve(0.0)
            self._p_unit = pressure.solve(self._source_shape) - self._p_rest
            self._mobility = pressure.mobility
            self._mobility.flags.writeable = False
        else:
            # every state of the phase shares this zero face velocity
            self._still = np.zeros(mesh.n_faces)
            self._still.flags.writeable = False

    def rest_state(self) -> FieldState:
        """The tissue at rest at t = 0, with its derived fields and no drainage."""
        mesh, species = self.mesh, self.species
        shape = (mesh.nz1, mesh.nr1)
        c_na = np.full(shape, species.sodium.c_init)
        c_h = np.full(shape, species.hydrogen.c_init)
        c_mab = np.full(shape, species.drug.c_init)
        return FieldState(
            mesh=mesh, c_na=c_na, c_h=c_h, c_mab=c_mab, c_b=np.zeros(shape),
            p=np.zeros(shape), phi=np.zeros(shape), u=np.zeros(mesh.n_faces),
            t=0.0, j_l=np.zeros(shape),
            **_derived(c_na, c_h, c_mab, self.charge_curve))

    def pressure_at(self, t: float) -> np.ndarray:
        """Pore pressure at time t of the injection phase, p_rest + Q(t) p_unit."""
        return self._p_rest + self.protocol.flow_rate(t) * self._p_unit

    # -- one attempted step (pure: commits nothing) -------------------------
    def attempt(self, state: FieldState, dt: float):
        """The admitted state at ``state.t + dt``, the step's (injected,
        absorbed, eliminated) drug increments and the count of round-off
        negatives `_admit` zeroed."""
        mesh = self.mesh
        t_new = state.t + dt

        if self.flow:
            rate = self.protocol.flow_rate(t_new)
            q_p = self._source_shape * rate
            p = self.pressure_at(t_new)
            u = fl.velocity_from_pressure(mesh, self._mobility, p)
            carried = (u, q_p)  # what the species transport carries
            j_l = fl.starling_lymph(p, self.starling, self._lymph)
            injected = dt * nodal_integral(q_p, mesh) * self.c_max["mab"]
        else:
            p, j_l, u = state.p, state.j_l, self._still
            carried = (None, None)
            injected = 0.0

        # lagged fields for the staggered substeps
        z_old = state.z_mab
        z_old_faces = fv.face_averages(mesh, z_old)
        assoc, release = bd.exchange_rates(state.c_b, state.ph, self.binding,
                                           self.porosity)
        s_b_estimate = assoc * state.c_mab - release  # charge source estimate

        coeffs = assemble_potential(mesh, self.species, self.constants,
                                    self.porosity, state.c_na, state.c_h,
                                    state.c_mab, z_old, z_old_faces, j_l,
                                    s_b_estimate)
        phi = solve_potential(coeffs, mesh)

        inputs = tr.TransportStepInputs(
            dt=dt, u=carried[0], phi=phi, q_p=carried[1], c_max=self.c_max,
            j_l=j_l, binding_assoc=assoc, binding_release=release,
            porosity=self.porosity)
        c_na, c_h, c_mab = tr.advance_species(
            mesh, state.c_na, state.c_h, state.c_mab, z_old_faces,
            self.species, self.constants, inputs, self._species_solvers)

        c_b = bd.advance_bound(state.c_b, c_mab, assoc, release, dt,
                               self.binding)

        increments = (injected,
                      dt * nodal_integral(j_l * c_mab, mesh),
                      dt * self.binding.k_e * nodal_integral(state.c_b, mesh))
        derived, clipped = _admit(c_na, c_h, c_mab, c_b, self.binding.b_max,
                                  self.charge_curve)
        new = FieldState(mesh=mesh, c_na=c_na, c_h=c_h, c_mab=c_mab, c_b=c_b,
                         p=p, phi=phi, u=u, t=t_new, j_l=j_l, **derived)
        return new, increments, clipped

    def step(self, state: FieldState, ledger: DoseLedger,
             dt: float) -> tuple[FieldState, float]:
        """The state one (possibly shortened) step on, and the dt it took."""
        dt_eff = dt
        for attempt in range(MAX_DT_RETRIES + 1):
            try:
                new, (injected, absorbed, eliminated), clipped = self.attempt(state, dt_eff)
                break
            except NegativeConcentrationError as exc:
                self.retries += 1
                dt_eff *= 0.5
                logger.warning("step at t=%.3f rejected (%s); retrying with dt=%g",
                               state.t, exc, dt_eff)
        else:
            raise SolverError(
                f"step at t={state.t:.3f} failed after {MAX_DT_RETRIES} dt halvings")

        self.clipped += clipped
        ledger.injected += injected
        ledger.absorbed_lymph += absorbed
        ledger.eliminated += eliminated
        ledger.count_stock(new, self.porosity)
        return new, dt_eff


@dataclass
class PhaseResult:
    series: mt.MetricSeries
    state: FieldState
    counters: dict[str, int]  # retries, clipped nodal values, species-solve work
    max_closure_residual: float  # largest |ledger closure| at an emitted sample
    chloride_min: float  # minimum recovered chloride over every accepted step
    wall_time_s: float
    dts: list[float]  # the dt of every accepted step, in order
    ledger: DoseLedger  # a copy of the ledger as the last step left it

    def report(self) -> dict[str, float]:
        """The phase's accepted steps, their dt range and median, its wall time
        and its largest closure residual; a phase takes at least one step."""
        return {
            "steps": len(self.dts),
            "dt_min_s": min(self.dts),
            "dt_median_s": float(np.median(self.dts)),
            "dt_max_s": max(self.dts),
            "wall_s": self.wall_time_s,
            "max_closure_residual": self.max_closure_residual,
        }


@dataclass
class PipelineResult:
    config: SimulationConfig
    series: mt.MetricSeries
    ledger: DoseLedger
    short_state: FieldState
    short_ledger: DoseLedger  # the ledger of short_state, before the reduction
    final_state: FieldState
    chloride_min: float  # over every accepted step of both phases, mol/cm^3
    retries: int
    short_wall_s: float
    long_wall_s: float
    phase_counters: dict[str, dict[str, int]]  # "injection" and "long"
    phase_report: dict[str, dict[str, float]]  # likewise, `PhaseResult.report`


class Simulation:
    """Owns one scenario end to end."""

    def __init__(self, config: SimulationConfig):
        self.config = config

    # -- helpers -------------------------------------------------------------
    def _emit(self, series: mt.MetricSeries, state: FieldState,
              ledger: DoseLedger, stepper: StaggeredStepper):
        mesh = stepper.mesh
        center = stepper.protocol.center(mesh.height)
        free_pct, bound_pct, absorbed_pct = mt.dose_fractions(ledger)
        # without flow every face velocity of the phase is zero
        speed = (float(fl.node_speed(mesh, state.u).max())
                 if stepper.flow else 0.0)
        series.append(
            state.t,
            pressure_ball_avg=mt.ball_average(
                state.p, mt.ball(mesh, center, PRESSURE_BALL_RADIUS)),
            velocity_ball_max=speed,
            phi_avg=mt.domain_average(state.phi, mesh),
            ph_avg=mt.domain_average(state.ph, mesh),
            rho_mab_avg=mt.domain_average(
                mt.net_charge_density(state.c_mab, state.z_mab), mesh),
            plume_volume_cm3=mt.plume_volume(state.c_mab, mesh),
            free_pct=free_pct, bound_pct=bound_pct, absorbed_pct=absorbed_pct,
        )

    def _run_phase(self, stepper: StaggeredStepper, state: FieldState,
                   ledger: DoseLedger, t_end: float, dt_min: float, dt_max: float,
                   cadence: float, series: mt.MetricSeries) -> PhaseResult:
        """Step to ``t_end``, dt growing from ``dt_min`` by `DT_GROWTH` to ``dt_max``."""
        closure_max = 0.0
        chloride_min = np.inf
        dts = []
        t0 = _time.perf_counter()
        next_mark = state.t + cadence
        dt = dt_min
        while state.t < t_end - 1e-9:
            state, taken = stepper.step(state, ledger, min(dt, t_end - state.t))
            dts.append(taken)
            dt = min(dt * DT_GROWTH, dt_max)
            chloride_min = min(chloride_min, float(state.c_cl.min()))
            if state.t >= next_mark - 1e-9 or state.t >= t_end - 1e-9:
                self._emit(series, state, ledger, stepper)
                closure_max = max(closure_max, abs(ledger.closure_residual()))
                while next_mark <= state.t + 1e-9:
                    next_mark += cadence
        counters = {"retries": stepper.retries, "clipped": stepper.clipped,
                    **asdict(stepper.krylov)}
        return PhaseResult(series, state, counters, closure_max, chloride_min,
                           _time.perf_counter() - t0, dts, replace(ledger))

    # -- public phases -------------------------------------------------------
    def run_short_term(self, series: mt.MetricSeries, ledger: DoseLedger) -> PhaseResult:
        """Run the injection phase from the rest state, at a constant dt."""
        stepper = StaggeredStepper(self.config.fine_mesh(), self.config, flow=True)
        state = stepper.rest_state()
        self._emit(series, state, ledger, stepper)
        dt = self.config["phases.short_dt_s"]
        return self._run_phase(stepper, state, ledger,
                               self.config["phases.short_horizon_s"], dt, dt,
                               self.config["output.cadence_s"], series)

    def reduce_to_long_term(self, short_state: FieldState) -> FieldState:
        """Project onto the coarse mesh, rescale drug mass, freeze drainage."""
        coarse = self.config.coarse_mesh()
        fine = short_state.mesh
        layers = self.config.layers()
        porosity = layers.porosity

        # bilinear weights lie in [0, 1]: non-negative fields stay non-negative
        fields = {name: project_field(fine, getattr(short_state, name), coarse)
                  for name in ("c_na", "c_h", "c_mab", "c_b")}

        drug_fine = (porosity * nodal_integral(short_state.c_mab, fine)
                     + nodal_integral(short_state.c_b, fine))
        drug_coarse = (porosity * nodal_integral(fields["c_mab"], coarse)
                       + nodal_integral(fields["c_b"], coarse))
        change = (drug_coarse - drug_fine) / drug_fine if drug_fine > 0 else 0.0
        if abs(change) > 0.05:
            logger.warning("projection changed drug mass by %.2f%% before rescale",
                           100 * change)
        scale = drug_fine / drug_coarse if drug_coarse > 0 else 1.0
        fields["c_mab"] *= scale
        fields["c_b"] *= scale

        # steady post-injection pressure fixes the drainage for the whole phase
        pressure, lymph = fl.tissue_pressure(coarse, layers, self.config.starling(),
                                             self.config["flow.viscosity"])
        p_steady = pressure.solve(0.0)
        j_l = fl.starling_lymph(p_steady, self.config.starling(), lymph)

        return FieldState(
            mesh=coarse, **fields, p=p_steady,
            phi=np.zeros((coarse.nz1, coarse.nr1)), u=np.zeros(coarse.n_faces),
            t=short_state.t, j_l=j_l,
            **_derived(fields["c_na"], fields["c_h"], fields["c_mab"],
                       self.config.charge_curve()))

    def run_long_term(self, state: FieldState, series: mt.MetricSeries,
                      ledger: DoseLedger) -> PhaseResult:
        """Run the reduced phase from the coarse state of `reduce_to_long_term`."""
        c = self.config
        stepper = StaggeredStepper(state.mesh, c, flow=False)
        t_end = state.t + c["phases.long_horizon_h"] * 3600.0
        return self._run_phase(stepper, state, ledger, t_end, c["phases.long_dt_min_s"],
                               c["phases.long_dt_max_s"], c["output.long_cadence_s"], series)

    # -- full pipeline -------------------------------------------------------
    def run_pipeline(self) -> PipelineResult:
        series = mt.MetricSeries()
        ledger = DoseLedger()

        short = self.run_short_term(series, ledger)
        short_state = short.state
        reduced = self.reduce_to_long_term(short_state)
        # the rescale keeps the ledger's free+bound totals exact across meshes
        ledger.count_stock(reduced, self.config.layers().porosity)
        long = self.run_long_term(reduced, series, ledger)

        return PipelineResult(
            config=self.config, series=series, ledger=ledger,
            short_state=short_state, short_ledger=short.ledger,
            final_state=long.state,
            chloride_min=min(short.chloride_min, long.chloride_min),
            retries=short.counters["retries"] + long.counters["retries"],
            short_wall_s=short.wall_time_s, long_wall_s=long.wall_time_s,
            phase_counters={"injection": short.counters, "long": long.counters},
            phase_report={"injection": short.report(), "long": long.report()})
