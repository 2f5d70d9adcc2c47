"""Implicit advection-diffusion-electromigration step for the ion fields.

Each transported species solves, per time step (backward Euler),

    n (c' - c)/dt + div( u c - D n grad c - z (D F / R T) n c grad Phi ) = rhs

on the dual cells. Advection and electromigration share one first-order
upwind flux built on the combined face-normal characteristic speed; diffusion
is central. All boundaries are flux-free, so the discrete operator conserves
mass to solver precision and the implicit matrix is an M-matrix (no spurious
negative concentrations from the transport terms themselves). A step returns
what it solves; `orchestrator._admit` alone accepts, rejects or clips it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _assembly as fv
from .flow import SolverError
from .mesh import AxiMesh
from .params import MOL_PER_CM3_TO_MOL_PER_L, Z_H, Z_NA, PhysicalConstants

logger = logging.getLogger(__name__)

#: hydrogen concentrations below this floor are clipped before taking a log
H_FLOOR = 1.0e-16  # mol/cm^3


@dataclass
class TransportStepInputs:
    """Frozen per-step context shared by the three species solves.

    ``binding_assoc`` and ``binding_release`` are the drug's matrix exchange
    as `binding.exchange_rates` returns it. Without flow, as in the reduced
    phase, the face velocities and the injection source are None.
    """

    dt: float
    u: np.ndarray | None  # face velocities
    phi: np.ndarray  # nodal potential
    q_p: np.ndarray | None  # nodal injection source density, 1/s
    c_max: dict[str, float]  # syringe concentrations keyed 'na', 'h', 'mab'
    porosity: float
    j_l: np.ndarray | float  # lymphatic drainage rate, 1/s
    binding_assoc: np.ndarray | float  # 1/s, implicit sink coefficient
    binding_release: np.ndarray | float  # mol/cm^3/s, explicit source

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")


def migration_face_speeds(mesh: AxiMesh, phi: np.ndarray, diffusivities,
                          face_valences, porosity: float,
                          constants: PhysicalConstants):
    """Electromigration drift speeds -z (D F / R T) n dPhi/dn on every face.

    One speed per species, for species k of diffusivity ``diffusivities[k]``
    and face valence ``face_valences[k]`` (`_assembly.face_averages` of a
    nodal valence; an ion's constant valence is a scalar), stacked on a
    leading axis: shape (k, faces). The potential's gradient is taken once
    for all of them.
    """
    g = fv.face_gradients(mesh, phi)
    w = np.empty((len(diffusivities),) + g.shape)
    for k, (diffusivity, z) in enumerate(zip(diffusivities, face_valences)):
        coef = diffusivity * constants.faraday / constants.rt * porosity
        # z * -coef is -z * coef to the bit, one array operation fewer
        np.multiply(z * -coef, g, out=w[k])
    return w


def advance_species(mesh: AxiMesh, c_na: np.ndarray, c_h: np.ndarray,
                    c_mab: np.ndarray, z_mab_faces: np.ndarray,
                    species, constants: PhysicalConstants,
                    inputs: TransportStepInputs,
                    solvers: tuple[fv.SpeciesSolver, ...]):
    """Advance Na+, H+ and the drug one implicit step.

    Na+ and H+ see only the injection source; the drug additionally carries
    the implicit lymphatic and association sinks plus the explicit release
    source.

    ``z_mab_faces`` is the drug's valence on every face,
    `_assembly.face_averages` of the nodal valence. ``solvers`` holds the
    Na+, H+ and drug solvers that a caller stepping a whole phase keeps
    across steps.
    """
    n = inputs.porosity
    specs = (species.sodium, species.hydrogen, species.drug)
    speeds = migration_face_speeds(mesh, inputs.phi,
                                   [spec.diffusivity for spec in specs],
                                   [Z_NA, Z_H, z_mab_faces], n, constants)
    if inputs.u is not None:
        speeds += inputs.u

    v = mesh.node_volumes
    cap = n * v / inputs.dt
    drug_sink = np.asarray(inputs.j_l) + np.asarray(inputs.binding_assoc)
    diags = (cap, cap, cap + drug_sink * v)
    sources = (None, None, np.asarray(inputs.binding_release))
    if inputs.q_p is not None:
        sources = (inputs.q_p * inputs.c_max["na"], inputs.q_p * inputs.c_max["h"],
                   inputs.q_p * inputs.c_max["mab"] + sources[2])

    new = []
    for spec, c_old, diag, source, solver, s in zip(
            specs, (c_na, c_h, c_mab), diags, sources, solvers, speeds):
        a = fv.diffusion_matrix(mesh, spec.diffusivity * n, diag=diag, speeds=s)
        b = cap * c_old if source is None else cap * c_old + v * source
        try:
            c_new = solver.solve(a, b.ravel())
        except RuntimeError as exc:
            raise SolverError(f"{spec.name} transport solve failed: {exc}") from exc
        new.append(c_new.reshape(mesh.nz1, mesh.nr1))
    return tuple(new)


def tissue_ph(c_h: np.ndarray) -> np.ndarray:
    """Nodal pH with the concentration floored at 1e-16 mol/cm^3.

    Floored nodes (pH pinned at 13) are flagged in the log; they only appear
    when a solve has effectively zeroed the hydrogen field.
    """
    c = np.asarray(c_h, dtype=float)
    if not c.min() > H_FLOOR:  # a NaN takes the masked path too
        floored = np.count_nonzero(c <= H_FLOOR)
        if floored:
            logger.warning("hydrogen floor applied at %d node(s)", floored)
            c = np.maximum(c, H_FLOOR)
    return -np.log10(MOL_PER_CM3_TO_MOL_PER_L * c)
