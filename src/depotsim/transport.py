"""Implicit advection-diffusion-electromigration step for the ion fields.

Each transported species solves, per time step (backward Euler),

    n (c' - c)/dt + div( u c - D n grad c - z (D F / R T) n c grad Phi ) = rhs

on the dual cells. Advection and electromigration share one first-order
upwind flux built on the combined face-normal characteristic speed; diffusion
is central. All boundaries are flux-free, so the discrete operator conserves
mass to solver precision and the implicit matrix is an M-matrix (no spurious
negative concentrations from the transport terms themselves).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _assembly as fv
from .flow import SolverError
from .mesh import AxiMesh
from .params import (MOL_PER_CM3_TO_MOL_PER_L, Z_H, Z_NA, PhysicalConstants,
                     SpeciesSpec)

logger = logging.getLogger(__name__)

#: hydrogen concentrations below this floor are clipped before taking a log
H_FLOOR = 1.0e-16  # mol/cm^3


class NegativeConcentrationError(SolverError):
    """A step left a field outside its bounds beyond round-off; the stepper
    retries it with half the dt."""


@dataclass
class TransportStepInputs:
    """Frozen per-step context shared by the three species solves.

    ``binding_assoc`` and ``binding_release`` are the drug's matrix exchange
    as `binding.exchange_rates` returns it.
    """

    dt: float
    u_r: np.ndarray  # face velocities, (nz1, nr)
    u_z: np.ndarray  # face velocities, (nz, nr1)
    phi: np.ndarray  # nodal potential
    q_p: np.ndarray  # nodal injection source density, 1/s
    c_max: dict[str, float]  # syringe concentrations keyed 'na', 'h', 'mab'
    porosity: float
    j_l: np.ndarray | float  # lymphatic drainage rate, 1/s
    binding_assoc: np.ndarray | float  # 1/s, implicit sink coefficient
    binding_release: np.ndarray | float  # mol/cm^3/s, explicit source

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")


def migration_face_speeds(mesh: AxiMesh, phi: np.ndarray, diffusivity: float,
                          valence, porosity: float,
                          constants: PhysicalConstants):
    """Electromigration drift speed -z (D F / R T) n dPhi/dn on both face sets.

    A spatially varying valence (the drug) is averaged onto faces.
    """
    coef = diffusivity * constants.faraday / constants.rt * porosity
    g_r, g_z = fv.face_gradients(mesh, phi)
    z = np.asarray(valence, dtype=float)
    if z.ndim == 0:
        z_r = z
        z_f = z
    else:
        z_r = 0.5 * (z[:, :-1] + z[:, 1:])
        z_f = 0.5 * (z[:-1, :] + z[1:, :])
    return -z_r * coef * g_r, -z_f * coef * g_z


def _implicit_species_solve(mesh: AxiMesh, c_old: np.ndarray, spec: SpeciesSpec,
                            valence, inputs: TransportStepInputs,
                            constants: PhysicalConstants,
                            solver: fv.SpeciesSolver, source: np.ndarray,
                            sink_rate: np.ndarray | float = 0.0) -> np.ndarray:
    """Backward-Euler solve of one species; returns the new nodal field."""
    n = inputs.porosity
    w_r, w_z = migration_face_speeds(mesh, inputs.phi, spec.diffusivity,
                                     valence, n, constants)
    s_r = inputs.u_r + w_r
    s_z = inputs.u_z + w_z

    v = mesh.node_volumes
    cap = n * v / inputs.dt
    dn = spec.diffusivity * n
    a = fv.diffusion_matrix(mesh, dn, dn,
                            diag=cap + np.asarray(sink_rate, dtype=float) * v,
                            speeds=(s_r, s_z))

    b = (cap * c_old + v * source).ravel()
    try:
        c_new = solver.solve(a, b)
    except RuntimeError as exc:
        raise SolverError(f"{spec.name} transport solve failed: {exc}") from exc
    if not np.all(np.isfinite(c_new)):
        raise SolverError(f"{spec.name} transport produced non-finite values")
    return c_new.reshape(mesh.nz1, mesh.nr1)


def advance_species(mesh: AxiMesh, c_na: np.ndarray, c_h: np.ndarray,
                    c_mab: np.ndarray, z_mab: np.ndarray,
                    species, constants: PhysicalConstants,
                    inputs: TransportStepInputs,
                    solvers: tuple[fv.SpeciesSolver, ...]):
    """Advance Na+, H+ and the drug one implicit step.

    Na+ and H+ see only the injection source; the drug additionally carries
    the implicit lymphatic and association sinks plus the explicit release
    source. Rejects the step (for dt halving) on negative overshoot beyond
    round-off; with non-negative sources that can only come from degenerate
    inputs, not from the scheme.

    ``solvers`` holds the Na+, H+ and drug solvers that a caller stepping a
    whole phase keeps across steps.
    """
    na_solver, h_solver, mab_solver = solvers
    new_na = _implicit_species_solve(
        mesh, c_na, species.sodium, Z_NA, inputs, constants,
        na_solver, source=inputs.q_p * inputs.c_max["na"])
    new_h = _implicit_species_solve(
        mesh, c_h, species.hydrogen, Z_H, inputs, constants,
        h_solver, source=inputs.q_p * inputs.c_max["h"])
    drug_source = inputs.q_p * inputs.c_max["mab"] + np.asarray(inputs.binding_release)
    drug_sink = np.asarray(inputs.j_l) + np.asarray(inputs.binding_assoc)
    new_mab = _implicit_species_solve(
        mesh, c_mab, species.drug, z_mab, inputs, constants,
        mab_solver, source=drug_source, sink_rate=drug_sink)

    for name, arr in (("Na+", new_na), ("H+", new_h), ("mAb", new_mab)):
        floor = -1.0e-12 * max(float(arr.max(initial=0.0)), 1e-300)
        if float(arr.min()) < floor:
            raise NegativeConcentrationError(
                f"{name} overshot to {float(arr.min()):.3e} (floor {floor:.3e})")
    return new_na, new_h, new_mab


def tissue_ph(c_h: np.ndarray) -> np.ndarray:
    """Nodal pH with the concentration floored at 1e-16 mol/cm^3.

    Floored nodes (pH pinned at 13) are flagged in the log; they only appear
    when a solve has effectively zeroed the hydrogen field.
    """
    c = np.asarray(c_h, dtype=float)
    floored = c <= H_FLOOR
    if np.any(floored):
        logger.warning("hydrogen floor applied at %d node(s)", int(floored.sum()))
        c = np.maximum(c, H_FLOOR)
    return -np.log10(MOL_PER_CM3_TO_MOL_PER_L * c)
