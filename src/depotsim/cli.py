"""Command line front end.

Subcommands: run, sweep, metrics, compare, snapshot. Exit codes: 0 success,
1 configuration/validation error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .config import load_config
from .flow import SolverError
from .io import (compare_reference, load_checkpoint, load_reference_csv,
                 read_timeseries, write_run_outputs, write_snapshot)
from .orchestrator import Simulation
from .params import ConfigurationError, read_text
from .sweep import AXES, run_sweep


def _cmd_run(args) -> int:
    config = load_config(args.config)
    outdir = Path(args.outdir or config["output.dir"] or "run_output")
    result = Simulation(config).run_pipeline()
    write_run_outputs(result, outdir)
    at = result.series.at_time(result.series.time[-1])
    print(f"run complete: t = {at['t_s']:.0f} s")
    print(f"  free {at['free_pct']:.2f}%  bound {at['bound_pct']:.2f}%  "
          f"absorbed {at['absorbed_pct']:.2f}%")
    print(f"  ledger closure residual {result.ledger.closure_residual():+.2e}")
    print(f"  outputs in {outdir}")
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    values: list = []
    for raw in args.values.split(","):
        raw = raw.strip()
        if args.axis == "bmi":
            values.append(raw)
            continue
        try:
            values.append(float(raw))
        except ValueError:
            raise ConfigurationError(
                f"--values: {raw!r} is not a number for axis {args.axis}") from None
    outdir = Path(args.outdir or "sweep_output")
    entries = run_sweep(config, args.axis, values, outdir)
    for e in entries:
        status = "ok" if e.ok else f"FAILED ({e.error})"
        print(f"  {args.axis}={e.value}: {status}")
    if all(not e.ok for e in entries):
        return 2
    print(f"summary in {outdir / 'sweep_summary.csv'}")
    return 0


def _cmd_metrics(args) -> int:
    run_dir = Path(args.run_dir)
    series = read_timeseries(run_dir / "timeseries.csv")
    t = np.asarray(series.time)
    print(f"rows: {len(series)}  span: {t[0]:.1f} .. {t[-1]:.1f} s")
    p = series.column("pressure_ball_avg")
    u = series.column("velocity_ball_max")
    pv = series.column("plume_volume_cm3")
    print(f"peak near-source pressure: {p.max():.3f} N/cm^2 at t={t[p.argmax()]:.2f} s")
    print(f"peak speed: {u.max():.4f} cm/s at t={t[u.argmax()]:.2f} s")
    if pv.max() > 0:
        print(f"peak plume volume: {pv.max():.2f} cm^3 at t={t[pv.argmax()]/3600:.2f} h")
    last = series.at_time(t[-1])
    print(f"final split: free {last['free_pct']:.2f}%  bound {last['bound_pct']:.2f}%"
          f"  absorbed {last['absorbed_pct']:.2f}%")
    path = run_dir / "ledger.json"
    if not path.exists():
        return 0
    ledger = _read_ledger(path)
    print(f"ledger closure residual: {ledger['closure_residual']:+.2e}")
    print(f"retries: {ledger['retries']}")
    if "chloride_min" in ledger:
        print(f"minimum chloride: {ledger['chloride_min']:.4e} mol/cm^3")
    for phase, counters in ledger.get("phases", {}).items():
        print(f"{phase} phase: " + "  ".join(f"{k} {v}" for k, v in counters.items()))
    for phase, rep in ledger.get("phase_report", {}).items():
        print(f"{phase} report: steps {rep['steps']}  dt min/median/max "
              f"{rep['dt_min_s']:.4g}/{rep['dt_median_s']:.4g}/{rep['dt_max_s']:.4g} s  "
              f"wall {rep['wall_s']:.3f} s  "
              f"max closure residual {rep['max_closure_residual']:.2e}")
    return 0


def _read_ledger(path) -> dict:
    """A run's ledger.json, in which every field `metrics` prints is a number;
    older ledgers lack ``chloride_min``, ``phases`` and ``phase_report``."""
    try:
        ledger = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not JSON ({exc})") from None
    if not (isinstance(ledger, dict) and {"closure_residual", "retries"} <= ledger.keys()):
        raise ConfigurationError(f"{path}: not a depotsim ledger")
    printed = {k: ledger[k] for k in ("closure_residual", "retries", "chloride_min")
               if k in ledger}
    report = ("steps", "dt_min_s", "dt_median_s", "dt_max_s", "wall_s",
              "max_closure_residual")
    for block, keys in (("phases", None), ("phase_report", report)):
        phases = ledger.get(block, {})
        if not isinstance(phases, dict):
            raise ConfigurationError(f"{path}: {block} is {phases!r}, not a dict")
        for phase, entries in phases.items():
            if not isinstance(entries, dict):
                raise ConfigurationError(f"{path}: {block}.{phase} is {entries!r}, not a dict")
            printed.update({f"{block}.{phase}.{k}": entries.get(k) for k in keys or entries})
    for where, value in printed.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"{path}: {where} is {value!r}, not a number")
    return ledger


def _cmd_compare(args) -> int:
    series = read_timeseries(Path(args.run_dir) / "timeseries.csv")
    reference = load_reference_csv(args.reference)
    t_h = np.asarray(series.time) / 3600.0
    remaining = (series.column("free_pct") + series.column("bound_pct")) / 100.0
    report = compare_reference(t_h, remaining, reference)
    print(f"reference: {report.label} ({report.time_h.size} points)")
    print(f"RMSE of remaining-depot fraction: {report.rmse:.4f}")
    print(f"max deviation: {report.max_deviation:.4f}")
    out = Path(args.run_dir) / "compare_report.csv"
    lines = ["time_h,reference,simulated"]
    lines += [f"{t:.6g},{r:.6g},{s:.6g}" for t, r, s in
              zip(report.time_h, report.reference, report.simulated)]
    out.write_text("\n".join(lines) + "\n")
    print(f"report written to {out}")
    return 0


def _cmd_snapshot(args) -> int:
    path = Path(args.checkpoint)
    if path.is_dir():
        candidates = sorted(path.glob("checkpoint_*.npz"))
        if not candidates:
            raise ConfigurationError(f"no checkpoints in {path}")
        if args.time is None:
            path = candidates[-1]
        else:
            times = []
            for c in candidates:
                state, _, _, _ = load_checkpoint(c)
                times.append(state.t)
            path = candidates[int(np.argmin(np.abs(np.asarray(times) - args.time)))]
    state, _, phase, _ = load_checkpoint(path)
    if args.time is not None and abs(state.t - args.time) > 1e-6:
        print(f"note: nearest checkpoint is t = {state.t:.2f} s ({phase})")
    out = Path(args.out or path.with_suffix(".vtk"))
    write_snapshot(state, out)
    print(f"snapshot written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depotsim",
        description="Axisymmetric electrodiffusion model of subcutaneous "
                    "antibody injection")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the full two-phase pipeline")
    p.add_argument("config")
    p.add_argument("--outdir", default="")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run a scenario sweep over one axis")
    p.add_argument("config")
    p.add_argument("--axis", required=True, choices=list(AXES))
    p.add_argument("--values", required=True,
                   help="comma-separated axis values")
    p.add_argument("--outdir", default="")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("metrics", help="summarize a finished run directory")
    p.add_argument("run_dir")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("compare", help="score a run against reference clearance data")
    p.add_argument("run_dir")
    p.add_argument("reference")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("snapshot", help="export a checkpoint as a VTK snapshot")
    p.add_argument("checkpoint", help="checkpoint file or run directory")
    p.add_argument("--time", type=float, default=None,
                   help="pick the checkpoint nearest this time (s)")
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_snapshot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ConfigurationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
