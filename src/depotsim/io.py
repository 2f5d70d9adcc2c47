"""Serialization: timeseries CSV, legacy-VTK snapshots, checkpoints, references.

The timeseries header is frozen; downstream tooling keys on the exact column
order. Snapshots, which the package writes but never reads, use the legacy
ASCII structured-grid dialect readable by standard scientific viewers.

Both text formats render every float as ``"%.17g"``: 17 significant digits,
so a reader recovers every double exactly. A whole column or field is
rendered in one ``%``-format (`_render`), which gives the same bytes as
formatting each value on its own. Checkpoints round-trip through
`save_checkpoint` and `load_checkpoint`; the frozen format
stores the face velocity as ``u_r`` (nz1, nr) and ``u_z`` (nz, nr1).
Reference curves are parsed by `params.read_two_column_csv`.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from ._assembly import face_families
from .flow import node_speed
from .mesh import AxiMesh, FieldState
from .metrics import CHANNELS, MetricSeries
from .orchestrator import DoseLedger
from .params import ConfigurationError, read_text, read_two_column_csv

CHECKPOINT_FORMAT_VERSION = 1

TIMESERIES_HEADER = "t_s," + ",".join(CHANNELS)

FLOAT_FORMAT = "%.17g"


def _render(values, width: int) -> str:
    """The values of an array in C order as text lines of ``width``
    comma-separated `FLOAT_FORMAT` renderings, each line ending in a newline."""
    values = np.asarray(values, dtype=float).ravel().tolist()
    line = ",".join([FLOAT_FORMAT] * width) + "\n"
    return line * (len(values) // width) % tuple(values)


# ---------------------------------------------------------------------------
# timeseries CSV
# ---------------------------------------------------------------------------

def write_timeseries(series: MetricSeries, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [series.time] + [series.channels[name] for name in CHANNELS]
    rows = np.array(columns, dtype=float).T  # (samples, 1 + channels)
    path.write_text(TIMESERIES_HEADER + "\n" + _render(rows, len(columns)))
    return path


def read_timeseries(path) -> MetricSeries:
    """The series of a timeseries CSV; a file that is not UTF-8 or holds no
    data rows raises `ConfigurationError` naming it, and a malformed row one
    naming the file and its 1-based line."""
    path = Path(path)
    rows = [(number, ln) for number, ln in enumerate(read_text(path).splitlines(), 1)
            if ln.strip()]
    if not rows or rows[0][1] != TIMESERIES_HEADER:
        raise ConfigurationError(f"{path}: not a depotsim timeseries file")
    if len(rows) == 1:
        raise ConfigurationError(f"{path}: no data rows")
    series = MetricSeries()
    for number, ln in rows[1:]:
        cells = ln.split(",")
        try:
            if len(cells) != len(CHANNELS) + 1:
                raise ValueError(f"expected {len(CHANNELS) + 1} values, "
                                 f"found {len(cells)}")
            vals = [float(c) for c in cells]
            series.append(vals[0], **dict(zip(CHANNELS, vals[1:])))
        except ValueError as exc:
            raise ConfigurationError(f"{path}, line {number}: {exc}") from None
    return series


# ---------------------------------------------------------------------------
# VTK structured-grid snapshots
# ---------------------------------------------------------------------------

def snapshot_fields(state: FieldState) -> dict[str, np.ndarray]:
    """Nodal fields carried by a snapshot, including the derived panels."""
    mesh = state.mesh
    speed = node_speed(mesh, state.u)
    gphi_r = np.zeros_like(state.phi)
    gphi_z = np.zeros_like(state.phi)
    gphi_r[:, 1:-1] = (state.phi[:, 2:] - state.phi[:, :-2]) / (
        mesh.r[2:] - mesh.r[:-2])[None, :]
    gphi_z[1:-1, :] = (state.phi[2:, :] - state.phi[:-2, :]) / (
        mesh.z[2:] - mesh.z[:-2])[:, None]
    return {
        "c_na": state.c_na,
        "c_cl": state.c_cl,
        "c_h": state.c_h,
        "c_mab": state.c_mab,
        "c_b": state.c_b,
        "ph": state.ph,
        "p": state.p,
        "phi": state.phi,
        "phi_grad_mag": np.hypot(gphi_r, gphi_z),
        "speed": speed,
        "log10_speed": np.log10(np.maximum(speed, 1e-30)),
        "z_mab": state.z_mab,
        "rho_mab": state.z_mab * state.c_mab,
    }


def write_snapshot(state: FieldState, path) -> Path:
    """Legacy ASCII VTK structured grid with all nodal fields at full precision."""
    mesh = state.mesh
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = snapshot_fields(state)

    with path.open("w") as out:
        out.write("# vtk DataFile Version 3.0\n"
                  f"depotsim snapshot t={FLOAT_FORMAT % state.t} s\n"
                  "ASCII\n"
                  "DATASET STRUCTURED_GRID\n"
                  f"DIMENSIONS {mesh.nr1} {mesh.nz1} 1\n"
                  f"POINTS {mesh.n_nodes} double\n")
        # each mesh axis is rendered once; a point line pairs r_i with z_j
        r_text = _render(mesh.r, 1).split()
        for z in _render(mesh.z, 1).split():
            out.write("".join([f"{r} {z} 0\n" for r in r_text]))
        out.write(f"POINT_DATA {mesh.n_nodes}\n")
        for name, arr in fields.items():
            out.write(f"SCALARS {name} double\nLOOKUP_TABLE default\n")
            out.write(_render(arr, 1))
    return path


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(state: FieldState, ledger: DoseLedger, phase: str,
                    path, config_text: str) -> Path:
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    mesh = state.mesh
    u_r, u_z = face_families(mesh, state.u)
    # stored, not zlib-compressed: on a 73x73 fine-mesh checkpoint compression
    # saved 15% of 517 KB and took 29 ms against 2 ms; `np.load` reads either form
    np.savez(
        path,
        format_version=np.array([CHECKPOINT_FORMAT_VERSION]),
        phase=np.array([phase]),
        t_s=np.array([state.t]),
        r_nodes=mesh.r, z_nodes=mesh.z,
        injection_r=np.array([mesh.injection_point[0]]),
        injection_z=np.array([mesh.injection_point[1]]),
        c_na=state.c_na, c_h=state.c_h, c_mab=state.c_mab, c_b=state.c_b,
        p=state.p, phi=state.phi, u_r=u_r, u_z=u_z,
        c_cl=state.c_cl, ph=state.ph, z_mab=state.z_mab, j_l=state.j_l,
        ledger=np.array(astuple(ledger)),
        config_text=np.array([config_text]),
    )
    return path


#: the checkpoint arrays that hold one value each
_CHECKPOINT_SCALARS = ("format_version", "phase", "t_s", "injection_r", "injection_z",
                       "config_text")
#: the nodal fields of a checkpoint, each (nz1, nr1) on its own mesh
_CHECKPOINT_NODAL = ("c_na", "c_h", "c_mab", "c_b", "p", "phi", "c_cl", "ph", "z_mab",
                     "j_l")
#: the dtype kinds of the checkpoint arrays that are not real numbers
_CHECKPOINT_KINDS = {"format_version": "iu", "phase": "U", "config_text": "U"}


def _checkpoint_arrays(data, path) -> dict[str, np.ndarray]:
    """Every array of a checkpoint whose format this package reads, each
    checked for its dtype kind (`_CHECKPOINT_KINDS`, else a real number) and shape:
    (1,) for a scalar, 1-D node axes of at least two nodes, nodal fields
    (nz1, nr1) and face families ``u_r`` (nz1, nr) and ``u_z`` (nz, nr1) on
    those axes, and one ledger value per `DoseLedger` field. Raises
    `ConfigurationError` naming the file and the array that does not fit,
    and `KeyError` for a missing array."""
    arrays = {}

    def take(name, shape):
        # ``shape`` None: a node axis, 1-D of at least two nodes
        arr = arrays[name] = data[name]
        kind = _CHECKPOINT_KINDS.get(name, "iuf")
        fits = arr.ndim == 1 and arr.size >= 2 if shape is None else arr.shape == shape
        if not fits or arr.dtype.kind not in kind:
            raise ConfigurationError(
                f"{path}: checkpoint array {name} has shape {arr.shape} and dtype "
                f"{arr.dtype}, not {shape or '(n,), n >= 2'} of dtype kind {kind!r}")

    for name in _CHECKPOINT_SCALARS:
        take(name, (1,))
    version = int(arrays["format_version"][0])
    if version > CHECKPOINT_FORMAT_VERSION:
        raise ConfigurationError(f"checkpoint format {version} is newer than supported")
    take("r_nodes", None)
    take("z_nodes", None)
    nr1, nz1 = arrays["r_nodes"].size, arrays["z_nodes"].size
    for name in _CHECKPOINT_NODAL:
        take(name, (nz1, nr1))
    take("u_r", (nz1, nr1 - 1))
    take("u_z", (nz1 - 1, nr1))
    take("ledger", (len(astuple(DoseLedger())),))
    return arrays


def load_checkpoint(path) -> tuple[FieldState, DoseLedger, str, str]:
    """Returns (state, ledger, phase, config_text); a file that is not an
    ``.npz`` archive of every checkpoint array, each of the shape and dtype
    kind `_checkpoint_arrays` checks, raises `ConfigurationError`."""
    try:
        data = np.load(path, allow_pickle=False)  # an array if the file is .npy
    except (ValueError, EOFError, zipfile.BadZipFile):  # neither .npy nor .npz
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ConfigurationError(f"{path} is not an .npz checkpoint")
    try:
        with data:
            a = _checkpoint_arrays(data, path)
    except KeyError as exc:  # an archive without every checkpoint array
        raise ConfigurationError(f"{path} is not a depotsim checkpoint: {exc}") from None
    one = {name: a[name][0] for name in _CHECKPOINT_SCALARS}
    mesh = AxiMesh(r=a["r_nodes"], z=a["z_nodes"],
                   injection_point=(float(one["injection_r"]), float(one["injection_z"])))
    state = FieldState(
        mesh=mesh, **{name: a[name] for name in _CHECKPOINT_NODAL},
        u=np.concatenate([a["u_r"], a["u_z"]], axis=None), t=float(one["t_s"]))
    return state, DoseLedger(*a["ledger"].tolist()), str(one["phase"]), str(one["config_text"])


# ---------------------------------------------------------------------------
# reference clearance curves
# ---------------------------------------------------------------------------

@dataclass
class ReferenceCurve:
    """Externally supplied depot-clearance data: remaining fraction vs time."""

    time_h: np.ndarray
    remaining: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.time_h = np.asarray(self.time_h, dtype=float)
        self.remaining = np.asarray(self.remaining, dtype=float)
        if self.time_h.ndim != 1 or self.time_h.shape != self.remaining.shape:
            raise ConfigurationError("reference curve arrays must match in shape")
        if np.any(np.diff(self.time_h) <= 0):
            raise ConfigurationError("reference times must be increasing")
        if np.any((self.remaining < 0) | (self.remaining > 1)):
            raise ConfigurationError("remaining fractions must lie in [0, 1]")


def load_reference_csv(path) -> ReferenceCurve:
    """CSV with header time_h,remaining_fraction; '#' comments allowed."""
    time_h, remaining = read_two_column_csv(path, ("time_h", "remaining_fraction"))
    return ReferenceCurve(time_h, remaining, label=Path(path).stem)


@dataclass
class ComparisonReport:
    rmse: float
    max_deviation: float
    time_h: np.ndarray
    reference: np.ndarray
    simulated: np.ndarray
    label: str = ""


def compare_reference(sim_time_h: np.ndarray, sim_remaining: np.ndarray,
                      reference: ReferenceCurve) -> ComparisonReport:
    """Align the run on the reference grid (linear interpolation) and score it."""
    sim_time_h = np.asarray(sim_time_h, dtype=float)
    sim_remaining = np.asarray(sim_remaining, dtype=float)
    t_lo = max(sim_time_h[0], reference.time_h[0])
    t_hi = min(sim_time_h[-1], reference.time_h[-1])
    mask = (reference.time_h >= t_lo) & (reference.time_h <= t_hi)
    if not mask.any():  # disjoint ranges, or an overlap between two samples
        raise ConfigurationError("no reference sample lies inside the simulated "
                                 "time range")
    t_ref = reference.time_h[mask]
    ref = reference.remaining[mask]
    sim = np.interp(t_ref, sim_time_h, sim_remaining)
    dev = sim - ref
    return ComparisonReport(
        rmse=float(np.sqrt(np.mean(dev**2))),
        max_deviation=float(np.max(np.abs(dev))),
        time_h=t_ref, reference=ref, simulated=sim, label=reference.label)


# ---------------------------------------------------------------------------
# run directories
# ---------------------------------------------------------------------------

def write_run_outputs(result, outdir) -> Path:
    """Standard layout of one run: timeseries, final checkpoint, snapshot."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_timeseries(result.series, outdir / "timeseries.csv")
    config_text = result.config.to_text()
    (outdir / "config.cfg").write_text(config_text)
    save_checkpoint(result.short_state, result.short_ledger, "short_end",
                    outdir / "checkpoint_short_end.npz", config_text)
    save_checkpoint(result.final_state, result.ledger, "final",
                    outdir / "checkpoint_final.npz", config_text)
    write_snapshot(result.short_state, outdir / "snapshot_short_end.vtk")
    (outdir / "ledger.json").write_text(json.dumps({
        "injected_mol": result.ledger.injected,
        "free_mol": result.ledger.free,
        "bound_mol": result.ledger.bound,
        "absorbed_lymph_mol": result.ledger.absorbed_lymph,
        "eliminated_mol": result.ledger.eliminated,
        "closure_residual": result.ledger.closure_residual(),
        # chloride is recovered from the very sum this residual checks, so it
        # is zero by construction; the key stays for readers of the report
        "electroneutrality_max": 0.0,
        "chloride_min": result.chloride_min,
        "retries": result.retries,
        "phases": result.phase_counters,
        "phase_report": result.phase_report,
    }, indent=2) + "\n")
    return outdir
