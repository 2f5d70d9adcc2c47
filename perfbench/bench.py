"""Measuring loop of the benchmark: units, gate, metrics and the result record.

A unit is one scenario pipeline (``load_config_text``, ``run_pipeline``,
``write_run_outputs``) for ``injection_fine`` and ``long_coarse``, and one
``run_sweep`` call for ``sweep_pair``: the calls ``depotsim run`` and
``depotsim sweep`` make. Units repeat until the next one would overrun the
measuring time, with at least ``MIN_UNITS``. Every scenario of every unit
goes through the correctness gate.

The package is called through module attributes (``dio.write_run_outputs``,
not a name imported here) so that the tracer's replacements are the ones
called.
"""

from __future__ import annotations

import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import depotsim
from depotsim import config as dconfig
from depotsim import io as dio
from depotsim import metrics as dmetrics
from depotsim import orchestrator as dorch
from depotsim import sweep as dsweep

import _env
import calibrate
import tracing
from gate import check_run_dir
from tracing import DATA, ERR, NAME, PID, T0, T1, Tracer
from workloads import PROFILES, SWEEP_AXIS, SWEEP_WORKERS, Workload, case_label

MIN_UNITS = 3
SETUP_PROBES = 5
REFERENCE_FILE = _env.BENCH_DIR / "reference.json"

#: end-to-end metric -> unit; every untraced run reports all of them
END_TO_END_UNITS = {
    "pipeline_s": "s",
    "injection_s": "s",
    "long_s": "s",
    "setup_s": "s",
    "scenarios_per_min": "1/min",
    "split_err_pp": "pp",
    "peak_rss_mb": "MB",
}


@dataclass
class Tally:
    """What the units of one run produced."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    pipeline_s: list[float] = field(default_factory=list)
    injection_s: list[float] = field(default_factory=list)
    long_s: list[float] = field(default_factory=list)
    scenarios_per_min: list[float] = field(default_factory=list)
    split_err_pp: list[float] = field(default_factory=list)
    traced_pipeline_s: list[float] = field(default_factory=list)
    layer_totals: dict = field(default_factory=dict)
    traced_capacity_s: float = 0.0
    units: list[dict] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)
    raw_setup_s: list[float] = field(default_factory=list)
    missing_targets: set[str] = field(default_factory=set)


def load_reference(profile: str, workload: str) -> dict:
    data = json.loads(REFERENCE_FILE.read_text())
    return data["profiles"].get(profile, {}).get("workloads", {}).get(workload, {})


def worker_count(workload: Workload) -> int:
    return min(SWEEP_WORKERS, os.cpu_count() or 1) if workload.is_sweep else 1


def _run_unit(workload: Workload, unit_dir: Path, order: list) -> tuple[float, dict]:
    """Run one unit; returns its wall time and {case label: (outdir, error)}."""
    if workload.is_sweep:
        base = dconfig.load_config_text(workload.config_text())
        t0 = perf_counter()
        entries = dsweep.run_sweep(base, SWEEP_AXIS, order, unit_dir)
        wall = perf_counter() - t0
        return wall, {case_label(e.value): (e.outdir, None if e.ok else e.error)
                      for e in entries}
    outdir = unit_dir / "base"
    error = None
    t0 = perf_counter()
    try:
        config = dconfig.load_config_text(workload.config_text())
        result = dorch.Simulation(config).run_pipeline()
        dio.write_run_outputs(result, outdir)
    except Exception as exc:  # a failed scenario is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, {"base": (outdir, error)}


def _scenario_walls(spans) -> tuple[list, list, list]:
    """Per-scenario (pipeline + write, injection phase, long phase) walls.

    Each process runs its scenarios one after another, so a successful
    ``write_run_outputs`` span belongs to the successful ``run_pipeline``
    span before it in the same process. Failed scenarios are left out.
    """
    pipe, inj, long = [], [], []
    pending = {}
    for s in sorted(spans, key=lambda s: s[T0]):
        if s[NAME] == "orchestrator.pipeline":
            pending[s[PID]] = s if s[ERR] is None else None
        elif s[NAME] == "io.write" and s[ERR] is None and pending.get(s[PID]):
            p = pending.pop(s[PID])
            pipe.append((p[T1] - p[T0]) + (s[T1] - s[T0]))
            inj.append(p[DATA]["short_wall_s"])
            long.append(p[DATA]["long_wall_s"])
    return pipe, inj, long


def _gate_unit(cases: dict, reference: dict, porosity: float, b_max: float,
               tally: Tally) -> list[float]:
    """Gate every scenario of a unit; returns each one's split error (pp)."""
    errors = []
    for label, (outdir, error) in cases.items():
        tally.attempted += 1
        problems = [f"run failed: {error}"] if error else []
        if not problems:
            gate = check_run_dir(outdir, porosity=porosity, b_max=b_max,
                                 channels=dmetrics.CHANNELS)
            problems = gate.problems
            ref = reference.get(label)
            if ref is None:
                problems.append("no committed reference split")
            elif gate.split is not None:
                errors.append(max(abs(a - b) for a, b in
                                  zip(gate.split, ref["split_pct"])))
        if problems:
            tally.failed += 1
            tally.problems.extend(f"{label}: {p}" for p in problems)
    return errors


def run_units(workload: Workload, profile: str, seed: int, seconds: float,
              trace: bool, workdir: Path) -> tuple[Tally, list]:
    reference = load_reference(profile, workload.name)
    values = dconfig.parse_config_text(workload.config_text())
    porosity = values["layers.porosity"]
    b_max = values["binding.b_max_mol_per_cm3"]
    order = random.Random(seed).sample(list(workload.sweep_values),
                                       len(workload.sweep_values))
    workers = worker_count(workload)
    os.environ["DEPOTSIM_WORKERS"] = str(workers)

    tally = Tally()
    all_spans: list = []
    walls: list[float] = []
    start = perf_counter()
    calibrate.kernel()  # warm-up: first-call costs are not machine speed
    tally.calibrations.append(calibrate.measure())
    k = 0
    while k < MIN_UNITS or perf_counter() - start + max(walls) <= seconds:
        traced = trace and k % 2 == 1
        tracer = Tracer(workdir / "spool")
        tracer.install(tracing.LAYER_TARGETS if traced else tracing.RECORDER_TARGETS)
        unit_dir = workdir / f"unit{k}"
        t_unit = perf_counter()
        try:
            unit_wall, cases = _run_unit(workload, unit_dir, order)
        finally:
            tracer.uninstall()
        tally.calibrations.append(calibrate.measure())
        speed = calibrate.speed(*tally.calibrations[-2:])
        spans, events = tracer.take()
        raw = _scenario_walls(spans)
        pipe, inj, long = ([x * speed for x in xs] for xs in raw)
        failed_before = tally.failed
        errors = _gate_unit(cases, reference, porosity, b_max, tally)
        if tally.failed == failed_before:  # keep failed outputs for inspection
            shutil.rmtree(unit_dir, ignore_errors=True)
        if traced:
            totals, problems = tracing.layer_totals(spans, events)
            tally.problems.extend(problems)
            for key, value in totals.items():
                tally.layer_totals[key] = tally.layer_totals.get(key, 0) + value
            tally.traced_capacity_s += workers * unit_wall
            tally.traced_pipeline_s.extend(pipe)
            all_spans.extend(spans)
        else:
            tally.pipeline_s.extend(pipe)
            tally.injection_s.extend(inj)
            tally.long_s.extend(long)
            tally.scenarios_per_min.append(60.0 * len(cases) / (unit_wall * speed))
            tally.split_err_pp.extend(errors)
        tally.units.append({"traced": traced, "scenarios": len(cases),
                            "speed": speed, "raw_wall_s": unit_wall,
                            "raw_pipeline_s": raw[0], "raw_injection_s": raw[1],
                            "raw_long_s": raw[2]})
        tally.missing_targets.update(tracer.missing)
        walls.append(perf_counter() - t_unit)
        k += 1
    return tally, all_spans


def measure_setup(profile: str, workload: str, tally: Tally,
                  n: int = SETUP_PROBES) -> list[float]:
    """Wall from process start to the first step, once per probe process.

    Each probe is scaled by the calibrations just before and after it.
    """
    times = []
    tally.calibrations.append(calibrate.measure())
    for _ in range(n):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(_env.BENCH_DIR / "setup_probe.py"), profile, workload],
            stdout=subprocess.PIPE, text=True, cwd=_env.ROOT)
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            tally.problems.append(f"set-up probe failed (exit {proc.returncode})")
            break
        tally.calibrations.append(calibrate.measure())
        tally.raw_setup_s.append(t1 - t0)
        times.append((t1 - t0) * calibrate.speed(*tally.calibrations[-2:]))
    return times


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (sweep worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment(seed: int, profile: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "depotsim": depotsim.__version__,
        "commit": _env.git_commit(),
        "seed": seed,
        "profile": profile,
        "threads": {var: os.environ.get(var) for var in _env.THREAD_VARS},
    }


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        profile: str = "bench") -> dict:
    """Measure one workload and return the result record."""
    workload = PROFILES[profile][workload_name]
    workdir = _env.WORK / f"run-{profile}-{workload_name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    tally, spans = run_units(workload, profile, seed, seconds, trace, workdir)
    rss = peak_rss_mb()
    setup = measure_setup(profile, workload_name, tally)

    if trace:
        overhead = _median(tally.traced_pipeline_s) - _median(tally.pipeline_s)
        values = tracing.per_scenario(tally.layer_totals, tally.traced_capacity_s,
                                      overhead)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.LAYER_UNITS.items()}
    else:
        values = {
            "pipeline_s": _median(tally.pipeline_s),
            "injection_s": _median(tally.injection_s),
            "long_s": _median(tally.long_s),
            "setup_s": _median(setup),
            "scenarios_per_min": _median(tally.scenarios_per_min),
            "split_err_pp": max(tally.split_err_pp, default=float("nan")),
            "peak_rss_mb": rss,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    finite = True
    for name, m in metrics.items():
        if not np.isfinite(m["value"]):  # JSON has no NaN; the run is not correct
            tally.problems.append(f"{name} has no finite value")
            m["value"] = 0.0
            finite = False
    record = {
        "workload": workload_name,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed, profile),
        "workers": worker_count(workload),
        "correct": not tally.problems and tally.failed == 0 and finite,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "untraced_targets": sorted(tally.missing_targets),
        "metrics": metrics,
        "samples": {"pipeline_s": tally.pipeline_s, "injection_s": tally.injection_s,
                    "long_s": tally.long_s, "setup_s": setup,
                    "scenarios_per_min": tally.scenarios_per_min,
                    "traced_pipeline_s": tally.traced_pipeline_s,
                    "raw_setup_s": tally.raw_setup_s,
                    "calibration_s": tally.calibrations},
        "units": tally.units,
    }
    write_record(record, spans, workdir)
    return record


def write_record(record: dict, spans: list, workdir: Path) -> None:
    env = record["environment"]
    stem = f"{record['workload']}-seed{env['seed']}-trace{record['trace']}"
    results = _env.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        fields = ("pid", "sid", "parent", "name", "t0", "t1", "err", "data")
        with open(results / f"{stem}-spans.jsonl", "w") as f:
            for s in spans:
                f.write(json.dumps(dict(zip(fields, s))) + "\n")
    if record["failed"] == 0:
        shutil.rmtree(workdir, ignore_errors=True)
