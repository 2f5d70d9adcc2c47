"""Scenario sweeps: independent runs over one axis plus a combined summary."""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .config import SimulationConfig
from .io import write_run_outputs
from .orchestrator import Simulation
from .params import ConfigurationError

logger = logging.getLogger(__name__)

WORKERS_ENV = "DEPOTSIM_WORKERS"

#: sweep axis -> config key receiving each value
AXES = {
    "buffer_ph": "formulation.buffer_ph",
    "bmi": "scenario.bmi",
    "depth": "protocol.depth_cm",
    "concentration": "formulation.mg_per_ml",
}

SUMMARY_TIME_H = 30.0  # dose splits reported at the sample nearest this time


@dataclass
class SweepEntry:
    value: object
    outdir: Path
    ok: bool
    t_h: float = float("nan")  # time of the sample the splits are taken at
    free_pct: float = float("nan")
    bound_pct: float = float("nan")
    absorbed_pct: float = float("nan")
    error: str = ""


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        logger.warning("ignoring invalid %s=%r", WORKERS_ENV, raw)
        return 1


def _run_one(base: SimulationConfig, key: str, value, outdir: str):
    config = base.with_values({key: value})
    result = Simulation(config).run_pipeline()
    write_run_outputs(result, outdir)
    at = result.series.at_time(SUMMARY_TIME_H * 3600.0)
    return at["t_s"] / 3600.0, at["free_pct"], at["bound_pct"], at["absorbed_pct"]


def run_sweep(base: SimulationConfig, axis: str, values: list,
              outdir) -> list[SweepEntry]:
    """Run one pipeline per axis value; failures are recorded, not fatal.

    Each run writes into its own subdirectory; a combined CSV of the dose
    splits at the sample nearest t = 30 h, and that sample's time ``t_h``,
    lands next to them. Two values that name one subdirectory are a
    `ConfigurationError`, raised before any run. The runs share a pool of
    min(``DEPOTSIM_WORKERS``, runs) processes if that is > 1.
    """
    if axis not in AXES:
        raise ConfigurationError(f"unknown sweep axis {axis!r}; "
                                 f"choose from {sorted(AXES)}")
    outdir = Path(outdir)
    key = AXES[axis]

    # each case is built and validated inside its run, so a bad value fails
    # only its own entry
    entries = [SweepEntry(value=v, outdir=outdir / f"{axis}_{v}", ok=False)
               for v in values]
    dirs = [e.outdir for e in entries]
    for entry in entries:
        if dirs.count(entry.outdir) > 1:
            raise ConfigurationError(f"sweep value {entry.value!r} is repeated: two "
                                     f"runs would both write {entry.outdir.name}/")
    outdir.mkdir(parents=True, exist_ok=True)

    # a fork pool starts all its workers at the first submit
    workers = min(_worker_count(), len(entries))
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else nullcontext()) as pool:
        jobs = [(_run_one, base, key, e.value, str(e.outdir)) for e in entries]
        # a pool starts every run at once; without one, each runs when read
        runs = ([pool.submit(*job).result for job in jobs] if pool
                else [partial(*job) for job in jobs])
        for entry, run in zip(entries, runs):
            try:
                (entry.t_h, entry.free_pct, entry.bound_pct,
                 entry.absorbed_pct) = run()
                entry.ok = True
            except Exception as exc:  # keep sweeping past individual failures
                entry.error = str(exc)
                logger.error("sweep value %r failed: %s", entry.value, exc)

    lines = [f"{axis},t_h,free_pct,bound_pct,absorbed_pct,status"]
    for entry in entries:  # a failed entry keeps its NaN time and splits
        lines.append(f"{entry.value},{entry.t_h:.17g},{entry.free_pct:.17g},"
                     f"{entry.bound_pct:.17g},{entry.absorbed_pct:.17g},"
                     f"{'ok' if entry.ok else 'failed'}")
    (outdir / "sweep_summary.csv").write_text("\n".join(lines) + "\n")
    return entries
