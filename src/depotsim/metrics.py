"""Reported quantities: domain and ball averages, plume volume, dose splits.

Everything here is a pure function of a state; the only running totals live
in the orchestrator's dose ledger. The nodes of a ball (`ball`) depend only on
the mesh, so `AxiMesh.derived` keeps them on it, keyed on centre and radius.

Both averages weight nodes by their dual-cell volumes ``mesh.node_volumes``,
the conservation measure of the solvers and the ledger: `domain_average`
over the whole cylinder, `ball_average` over the nodes inside the ball.
`plume_volume` alone reads the primal cells, whose threshold crossings it
interpolates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mesh import AxiMesh

#: concentrations at or below this are treated as "no plume left"
PLUME_FLOOR = 1.0e-18  # mol/cm^3

#: the frozen column order of the timeseries CSV. Despite its name,
#: ``velocity_ball_max`` is the largest nodal Darcy speed |u| over the whole
#: domain, not only inside the near-source ball.
CHANNELS = (
    "pressure_ball_avg",
    "velocity_ball_max",
    "phi_avg",
    "ph_avg",
    "rho_mab_avg",
    "plume_volume_cm3",
    "free_pct",
    "bound_pct",
    "absorbed_pct",
)


def domain_average(fld: np.ndarray, mesh: AxiMesh) -> float:
    """Volume average over the whole cylinder: the field's `nodal_integral`,
    taken as one dot with the node volumes, over the cylinder's volume."""
    f = np.asarray(fld)
    if f.shape != (mesh.nz1, mesh.nr1):
        raise ValueError(f"field shape {f.shape} does not match mesh "
                         f"({mesh.nz1}, {mesh.nr1})")
    return float(np.dot(mesh.node_volumes.ravel(), f.ravel())) / mesh.domain_volume


def net_charge_density(c_mab: np.ndarray, z_mab: np.ndarray) -> np.ndarray:
    """Pointwise net charge drug density rho = z * c."""
    return np.asarray(z_mab) * np.asarray(c_mab)


@dataclass(frozen=True)
class Ball:
    """The nodes of one mesh inside a sphere; arrays read-only."""

    mask: np.ndarray  # nodes inside the sphere
    weights: np.ndarray  # their dual-cell volumes
    total: float  # the sum of the weights
    nearest: int  # flat index of the node nearest the centre


def ball(mesh: AxiMesh, center: tuple[float, float], radius: float) -> Ball:
    """The sphere's nodes on the mesh, built on first use and kept on the
    mesh for each (centre, radius) asked for; it lives as long as the mesh."""
    if radius <= 0:
        raise ValueError("ball radius must be positive")

    def build(mesh):
        mask = mesh.ball_mask(center, radius)
        weights = mesh.node_volumes[mask]
        return Ball(mask, weights, np.sum(weights),
                    int(np.argmin(mesh.distance_to(center))))

    return mesh.derived(("ball", float(center[0]), float(center[1]), float(radius)),
                        build)


def ball_average(fld: np.ndarray, nodes: Ball) -> float:
    """Volume-weighted average of a nodal field over the nodes of a `ball`;
    on a mesh too coarse for the ball to hold a node, the field at the node
    nearest its centre."""
    if not nodes.weights.size:
        return float(np.asarray(fld).ravel()[nodes.nearest])
    return float((np.asarray(fld)[nodes.mask] * nodes.weights).sum() / nodes.total)


def plume_volume(c_mab: np.ndarray, mesh: AxiMesh) -> float:
    """Axisymmetric volume of the half-maximum region of the free drug.

    Cells cut by the threshold contribute a linearly interpolated fraction,
    which keeps the volume-versus-time curves smooth on coarse meshes.
    """
    c = np.asarray(c_mab, dtype=float)
    c_max = float(c.max(initial=0.0))
    if c_max <= PLUME_FLOOR:
        return 0.0
    thresh = 0.5 * c_max

    # the smallest and largest of each cell's four corners, taken pairwise
    pairs = np.minimum(c[:, :-1], c[:, 1:])
    lo = np.minimum(pairs[:-1], pairs[1:])
    pairs = np.maximum(c[:, :-1], c[:, 1:])
    hi = np.maximum(pairs[:-1], pairs[1:])

    frac = np.where(lo >= thresh, 1.0, 0.0)
    cut = (lo < thresh) & (hi > thresh)
    if cut.any():
        # the corner mean, summed in corner order, on the cut cells only
        mean = (((c[:-1, :-1][cut] + c[:-1, 1:][cut]) + c[1:, :-1][cut])
                + c[1:, 1:][cut]) / 4.0
        lin = 0.5 + (mean - thresh) / (hi[cut] - lo[cut])
        frac[cut] = np.clip(lin, 0.0, 1.0)
    frac *= mesh.cell_volumes
    return float(frac.sum())


def dose_fractions(ledger) -> tuple[float, float, float]:
    """(free, bound, absorbed) each as a percentage of the injected dose;
    (0, 0, 0) before any dose."""
    if ledger.injected <= 0.0:
        return (0.0, 0.0, 0.0)
    scale = 100.0 / ledger.injected
    return (ledger.free * scale, ledger.bound * scale,
            ledger.absorbed_lymph * scale)


@dataclass
class MetricSeries:
    """Output channels sampled on a strictly increasing time grid."""

    time: list[float] = field(default_factory=list)
    channels: dict[str, list[float]] = field(
        default_factory=lambda: {name: [] for name in CHANNELS})

    def append(self, t: float, **values):
        if not math.isfinite(t) or self.time and t <= self.time[-1]:
            raise ValueError("metric samples must have finite, strictly increasing time")
        missing = set(CHANNELS) - set(values)
        if missing:
            raise ValueError(f"missing channels: {sorted(missing)}")
        for name in CHANNELS:
            if not math.isfinite(values[name]):
                raise ValueError(f"{name} is not finite: {values[name]}")
        for name in ("free_pct", "bound_pct", "absorbed_pct"):
            if not -1e-9 <= values[name] <= 101.0:
                raise ValueError(f"{name} out of range: {values[name]}")
        self.time.append(float(t))
        for name in CHANNELS:
            self.channels[name].append(float(values[name]))

    def __len__(self) -> int:
        return len(self.time)

    def column(self, name: str) -> np.ndarray:
        return np.asarray(self.channels[name])

    def at_time(self, t: float) -> dict[str, float]:
        """Channel values at the sample closest to t."""
        if not self.time:
            raise ValueError("empty series")
        k = int(np.argmin(np.abs(np.asarray(self.time) - t)))
        out = {name: self.channels[name][k] for name in CHANNELS}
        out["t_s"] = self.time[k]
        return out
