"""Pressure equation with injection source and vascular exchange; Darcy velocity.

The pore pressure solves the quasi-static balance

    -div( (kappa/eta) grad p ) = q_p + J_b(p) - J_l(p)

with p = 0 on the outer rim (r = R) and no-flux everywhere else. The rim
nodes are pinned symmetrically, row and column, so the discrete operator is
symmetric positive definite. Both exchange terms are linear in p and kept
implicit, and the source is the fixed unit-rate shape of `injection_source`
scaled by the flow rate Q(t), so the pressure is affine in Q(t):
p(t) = p_rest + Q(t) p_unit. The injection-phase stepper solves the
`tissue_pressure` solver for p_rest and p_unit once and keeps no factor; the
long phase freezes the drainage of one steady solve of it without the
source. This is the only module that samples the `TissueLayers` on a mesh
(`tissue_pressure`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _assembly as fv
from .mesh import AxiMesh
from .params import ConfigurationError, StarlingParams, TissueLayers

class SolverError(RuntimeError):
    """A linear solve failed or produced an unusable field."""


@dataclass(frozen=True)
class InjectionProtocol:
    """Needle position and the trapezoidal delivery schedule."""

    depth: float  # cm below the skin surface
    volume: float  # cm^3 delivered in total
    duration: float  # s, flow stops exactly here
    ramp_time: float  # s, linear ramp at start and end
    source_radius: float  # cm; spatial bump sigma = source_radius/2 (calibrated)

    def __post_init__(self):
        if self.depth <= 0 or self.volume <= 0 or self.duration <= 0:
            raise ConfigurationError("depth, volume, duration must be > 0")
        if not 0 < self.ramp_time < 0.5 * self.duration:
            raise ConfigurationError("ramp time must lie in (0, duration/2)")
        if self.source_radius <= 0:
            raise ConfigurationError("source radius must be > 0")

    @property
    def plateau_rate(self) -> float:
        """Constant mid-injection flow rate; integrates to the full volume."""
        return self.volume / (self.duration - self.ramp_time)

    def flow_rate(self, t: float) -> float:
        """Q(t): trapezoid with linear ramps inside [0, duration]."""
        if t <= 0.0 or t >= self.duration:
            return 0.0
        q = self.plateau_rate
        if t < self.ramp_time:
            return q * t / self.ramp_time
        if t > self.duration - self.ramp_time:
            return q * (self.duration - t) / self.ramp_time
        return q

    def center(self, domain_height: float) -> tuple[float, float]:
        return (0.0, domain_height - self.depth)


def injection_source(mesh: AxiMesh, protocol: InjectionProtocol) -> np.ndarray:
    """Volumetric source density q_p (1/s) per unit flow rate: q_p = Q(t) times it.

    Spatial profile: exp(-d^2 / (2 sigma^2)) truncated at 3 sigma around the
    needle tip, scaled so that its primal-cell quadrature (bilinear cell
    averages times ``mesh.cell_volumes``) is 1. This is the package's last
    primal integral, and ROADMAP item 1's cause 1: the solvers and the dose
    ledger book the source in the dual measure, ``sum(node_volumes * q_p)``,
    which differs from Q(t) by the quadrature error on a coarse or graded
    mesh, so the dose they inject is not exactly the protocol's.
    """
    r0, z0 = protocol.center(mesh.height)
    if not (0.0 <= r0 <= mesh.radius and 0.0 <= z0 <= mesh.height):
        raise ConfigurationError("injection point lies outside the domain")
    sigma = 0.5 * protocol.source_radius
    d2 = (mesh.rr - r0) ** 2 + (mesh.zz - z0) ** 2
    shape = np.exp(-d2 / (2.0 * sigma**2))
    shape[d2 > (3.0 * sigma) ** 2] = 0.0
    cell_avg = 0.25 * (shape[:-1, :-1] + shape[:-1, 1:]
                       + shape[1:, :-1] + shape[1:, 1:])
    total = float(np.sum(cell_avg * mesh.cell_volumes))
    if total <= 0.0:
        raise ConfigurationError("mesh cannot resolve the injection source")
    return shape / total


def starling_lymph(p, params: StarlingParams, lymph):
    """Lymphatic drainage rate J_l = n L_pl (S_l/V) (p - p_l) from the ``lymph``
    coefficient n L_pl S_l/V of `exchange_coefficients`; zero where S_l/V = 0."""
    return lymph * (np.asarray(p) - params.p_l)


def exchange_coefficients(mesh: AxiMesh, layers: TissueLayers,
                          params: StarlingParams):
    """Split J_b - J_l into `const - reaction * p` on the nodes.

    Blood filtration is J_b = n L_pb (S_b/V) (p_b - p - sigma_r (pi_b - pi_i))
    and lymphatic drainage J_l = n L_pl (S_l/V) (p - p_l). Returns the
    ``(nz1, 1)`` columns ``(reaction, const, lymph)``; lymph = n L_pl S_l/V.
    """
    n = layers.porosity
    blood = n * params.l_pb * params.sbv
    lymph = n * params.l_pl * layers.slv_at(mesh.z)[:, None]
    reaction = blood + lymph
    const = (blood * (params.p_b - params.sigma_r * (params.pi_b - params.pi_i))
             + lymph * params.p_l)
    return reaction, const, lymph


class PressureSolver:
    """Factorized elliptic solver for the pressure equation on one mesh.

    ``reaction`` and ``const`` are the linearized exchange terms of
    `exchange_coefficients`. The rim is pinned symmetrically (`pin_nodes`),
    so past the band limit `factorize` takes its condensed Cholesky.
    """

    def __init__(self, mesh: AxiMesh, kappa_nodes: np.ndarray, viscosity: float,
                 reaction: np.ndarray | float, const: np.ndarray | float):
        self.mesh = mesh
        shape = (mesh.nz1, mesh.nr1)
        if np.any(np.asarray(kappa_nodes) <= 0):
            raise ConfigurationError("permeability must be positive everywhere")
        self.const = np.broadcast_to(np.asarray(const, dtype=float), shape).copy()

        #: face mobilities kappa/eta, the operator's and the velocity's coefficients
        self.mobility = darcy_mobility(mesh, kappa_nodes, viscosity)
        a = fv.diffusion_matrix(mesh, self.mobility, diag=reaction * mesh.node_volumes)

        # Dirichlet p = 0 on the outer rim
        self._rim = np.arange(mesh.n_nodes).reshape(shape)[:, -1]
        fv.pin_nodes(a, self._rim)
        try:
            self._lu = fv.factorize(mesh, a)
        except RuntimeError as exc:  # a singular or refused operator: misconfigured
            raise SolverError(f"pressure operator factorization failed: {exc}") from exc

    def solve(self, q_p: np.ndarray | float) -> np.ndarray:
        b = ((np.broadcast_to(np.asarray(q_p, dtype=float),
                              (self.mesh.nz1, self.mesh.nr1)) + self.const)
             * self.mesh.node_volumes).ravel().copy()
        b[self._rim] = 0.0
        p = self._lu.solve(b)
        if not np.all(np.isfinite(p)):
            raise SolverError("pressure solve produced non-finite values")
        return p.reshape(self.mesh.nz1, self.mesh.nr1)


def tissue_pressure(mesh: AxiMesh, layers: TissueLayers, starling: StarlingParams,
                    viscosity: float) -> tuple[PressureSolver, np.ndarray]:
    """The pressure solver of the layered tissue, from its permeability and its
    `exchange_coefficients`, and their ``lymph`` column for `starling_lymph`."""
    reaction, const, lymph = exchange_coefficients(mesh, layers, starling)
    return PressureSolver(mesh, layers.permeability_at(mesh.z)[:, None], viscosity,
                          reaction, const), lymph


def darcy_mobility(mesh: AxiMesh, kappa_nodes: np.ndarray | float, viscosity: float):
    """Face mobilities kappa/eta, one per face.

    Permeability is harmonically averaged across faces, which keeps the
    normal flux continuous across layer interfaces.
    """
    kappa = np.broadcast_to(np.asarray(kappa_nodes, dtype=float),
                            (mesh.nz1, mesh.nr1))
    return fv.harmonic_face_coefficients(mesh, kappa / viscosity)


def velocity_from_pressure(mesh: AxiMesh, mobility: np.ndarray, p: np.ndarray):
    """Face-normal Darcy velocities u = -(kappa/eta) grad p from the face
    mobilities of `darcy_mobility`."""
    return -mobility * fv.face_gradients(mesh, p)


def node_speed(mesh: AxiMesh, u: np.ndarray) -> np.ndarray:
    """Velocity magnitude interpolated to nodes from the face velocities."""
    u_r, u_z = fv.face_families(mesh, u)
    ur_n = np.zeros((mesh.nz1, mesh.nr1))
    ur_n[:, 1:-1] = 0.5 * (u_r[:, :-1] + u_r[:, 1:])
    ur_n[:, 0] = u_r[:, 0]
    ur_n[:, -1] = u_r[:, -1]
    uz_n = np.zeros((mesh.nz1, mesh.nr1))
    uz_n[1:-1, :] = 0.5 * (u_z[:-1, :] + u_z[1:, :])
    uz_n[0, :] = u_z[0, :]
    uz_n[-1, :] = u_z[-1, :]
    return np.hypot(ur_n, uz_n)
