"""Per-scenario correctness gate, checked from outside the package.

The gate reads only what a finished run leaves on disk (``ledger.json``, the
two NPZ checkpoints and ``timeseries.csv``) and recomputes what it can with
plain numpy, so a defect in the package's own bookkeeping cannot vouch for
itself. ``electroneutrality_max`` is not checked: chloride is recovered from
the same sum, so the value is identically 0 and cannot fail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: |closure residual| the ledger may show; today's runs close to ~1e-14
CLOSURE_TOL = 1e-9
#: relative agreement of free/bound recomputed from the checkpoint
RECOMPUTE_RTOL = 1e-9
CHECKPOINTS = ("checkpoint_short_end.npz", "checkpoint_final.npz")
NON_NEGATIVE = ("c_na", "c_h", "c_mab", "c_b", "c_cl")
FINITE = NON_NEGATIVE + ("p", "phi", "ph", "z_mab")
#: the dose split is read at this time after the start of injection, or at
#: the end of the run when the run is shorter
REPORT_TIME_S = 30 * 3600.0


@dataclass
class GateResult:
    problems: list[str] = field(default_factory=list)
    split: tuple[float, float, float] | None = None


def split_at(time, free, bound, absorbed, report_time: float = REPORT_TIME_S):
    """(free, bound, absorbed) % linearly interpolated at the report time.

    Output rows land on the first step past each cadence mark, so their times
    depend on dt; interpolating to one fixed time keeps that offset out of
    the comparison with the reference.
    """
    t = min(float(report_time), float(time[-1]))
    return tuple(float(np.interp(t, time, col)) for col in (free, bound, absorbed))


def node_volumes(r: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Axisymmetric dual-cell volumes, the measure the dose ledger sums in."""
    r_dual = np.concatenate([[r[0]], 0.5 * (r[:-1] + r[1:]), [r[-1]]])
    z_dual = np.concatenate([[z[0]], 0.5 * (z[:-1] + z[1:]), [z[-1]]])
    ring = np.pi * (r_dual[1:] ** 2 - r_dual[:-1] ** 2)
    return np.diff(z_dual)[:, None] * ring[None, :]


def _check_ledger(ledger: dict, problems: list[str]) -> None:
    closure = ledger["closure_residual"]
    if not abs(closure) <= CLOSURE_TOL:
        problems.append(f"ledger closure residual {closure:.3e}")
    injected = ledger["injected_mol"]
    accounted = (ledger["free_mol"] + ledger["bound_mol"]
                 + ledger["absorbed_lymph_mol"] + ledger["eliminated_mol"])
    recomputed = (injected - accounted) / injected if injected > 0 else 0.0
    if not abs(recomputed - closure) <= 1e-12:
        problems.append(f"ledger closure {closure:.3e} disagrees with its "
                        f"totals ({recomputed:.3e})")


def _check_fields(name: str, data, b_max: float, problems: list[str]) -> None:
    for key in FINITE:
        if not np.all(np.isfinite(data[key])):
            problems.append(f"{name}: {key} is not finite")
    for key in NON_NEGATIVE:
        low = float(np.min(data[key]))
        if low < 0.0:
            problems.append(f"{name}: {key} min {low:.3e} < 0")
    high = float(np.max(data["c_b"]))
    if high > b_max * (1.0 + 1e-12):
        problems.append(f"{name}: c_b max {high:.6e} exceeds b_max {b_max:.6e}")


def _check_budget(data, ledger: dict, porosity: float,
                  problems: list[str]) -> None:
    v = node_volumes(data["r_nodes"], data["z_nodes"])
    free = porosity * float(np.sum(data["c_mab"] * v))
    bound = float(np.sum(data["c_b"] * v))
    scale = max(ledger["injected_mol"], 1e-300)
    for label, value, key in (("free", free, "free_mol"), ("bound", bound, "bound_mol")):
        if not abs(value - ledger[key]) <= RECOMPUTE_RTOL * scale:
            problems.append(f"{label} drug from checkpoint {value:.9e} != "
                            f"ledger {ledger[key]:.9e}")


def _read_timeseries(path: Path, header: str, problems: list[str]):
    with open(path) as f:
        first = f.readline().rstrip("\n")
    if first != header:
        problems.append(f"timeseries header {first!r} != {header!r}")
        return None
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not np.all(np.isfinite(rows)):
        problems.append("timeseries holds non-finite values")
        return None
    return rows


def check_run_dir(outdir, *, porosity: float, b_max: float,
                  channels: tuple[str, ...]) -> GateResult:
    """Check one finished run directory; never raises.

    ``channels`` is ``metrics.CHANNELS``; the CSV header must equal
    ``t_s`` followed by those names.
    """
    outdir = Path(outdir)
    result = GateResult()
    problems = result.problems
    try:
        ledger = json.loads((outdir / "ledger.json").read_text())
        _check_ledger(ledger, problems)
        for name in CHECKPOINTS:
            with np.load(outdir / name, allow_pickle=False) as data:
                _check_fields(name, data, b_max, problems)
                if name == "checkpoint_final.npz":
                    _check_budget(data, ledger, porosity, problems)
        header = ",".join(("t_s",) + tuple(channels))
        rows = _read_timeseries(outdir / "timeseries.csv", header, problems)
        if rows is not None:
            col = {name: rows[:, k] for k, name in enumerate(header.split(","))}
            result.split = split_at(col["t_s"], col["free_pct"],
                                    col["bound_pct"], col["absorbed_pct"])
    except Exception as exc:  # a broken run directory is a failed gate
        problems.append(f"gate could not read {outdir.name}: "
                        f"{type(exc).__name__}: {exc}")
    return result
