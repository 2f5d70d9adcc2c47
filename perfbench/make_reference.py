"""Regenerate reference.json: tight-tolerance dose splits for split_err_pp.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py [--profile bench|tiny ...]

Each scenario of each workload is rerun with both phases' time steps
(``phases.short_dt_s``, ``phases.long_dt_min_s``, ``phases.long_dt_max_s``)
divided by ``TIGHT_DIVISOR`` on the same meshes, and its free / bound /
absorbed split is read at the report time the benchmark uses. The file
records the settings and the commit that produced each value. Benchmark runs
only read it; rerun this script when the model's physics changes on purpose.
Takes about three minutes on a 2-core machine for the bench profile.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from time import perf_counter

import _env

_env.bootstrap()  # before numpy: pins BLAS threads, puts src/ on sys.path

import numpy as np  # noqa: E402

from depotsim import config as dconfig  # noqa: E402
from depotsim.orchestrator import Simulation  # noqa: E402
from gate import split_at  # noqa: E402
from workloads import PROFILES, TIGHT_DIVISOR, TIGHT_KEYS, Workload  # noqa: E402


def tight_settings(workload: Workload, overrides: dict) -> dict:
    config = dconfig.load_config_text(workload.config_text(overrides))
    tight = {**workload.settings, **overrides}
    for key in TIGHT_KEYS:
        tight[key] = config[key] / TIGHT_DIVISOR
    return tight


def reference_case(workload: Workload, overrides: dict) -> dict:
    settings = tight_settings(workload, overrides)
    text = Workload(workload.name, settings).config_text()
    t0 = perf_counter()
    result = Simulation(dconfig.load_config_text(text)).run_pipeline()
    series = result.series
    time = np.asarray(series.time)
    split = split_at(time, series.column("free_pct"), series.column("bound_pct"),
                     series.column("absorbed_pct"))
    print(f"  {workload.name} {overrides or ''}: {split} "
          f"({perf_counter() - t0:.1f} s)", flush=True)
    return {"settings": settings, "split_pct": list(split),
            "closure_residual": result.ledger.closure_residual()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", action="append", choices=tuple(PROFILES))
    args = parser.parse_args(argv)

    path = _env.BENCH_DIR / "reference.json"
    data = json.loads(path.read_text()) if path.exists() else {"profiles": {}}
    data.update({"generated_by": "python3 perfbench/make_reference.py",
                 "tight_divisor": TIGHT_DIVISOR, "tight_keys": list(TIGHT_KEYS)})
    for profile in args.profile or list(PROFILES):
        print(f"profile {profile}")
        data["profiles"][profile] = {
            "commit": _env.git_commit(),
            "generated_at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%MZ"),
            "workloads": {
                name: {label: reference_case(workload, overrides)
                       for label, overrides in workload.cases()}
                for name, workload in PROFILES[profile].items()},
        }
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
