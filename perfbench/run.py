"""depotsim benchmark: measure one workload for a fixed time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload injection_fine --seed 1 --seconds 25 --trace 0

Workloads: injection_fine, long_coarse, sweep_pair (see workloads.py). With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced units and reports the per-layer metrics and
the tracing overhead. ``--profile tiny`` runs the test-size scenarios.

Every metric is printed by name and unit, followed by the correctness gate's
verdict; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record with the
environment and every sample goes to ``.perfbench/results/``. The package is
imported from this checkout's ``src/``; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import sys

import _env
from workloads import PROFILES, WORKLOADS


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=tuple(PROFILES), default="bench")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        _env.bootstrap()
        import depotsim

        _env.check_imported_from_source(depotsim)
    except (_env.MissingSourceError, ImportError) as exc:
        print(f"error: cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2
    import bench

    record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       args.profile)
    env = record["environment"]
    print(f"# {args.workload} profile={args.profile} seed={args.seed} "
          f"trace={args.trace} nproc={env['nproc']} workers={record['workers']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"commit={env['commit']}")
    for name, m in record["metrics"].items():
        print(f"{name:30s} {m['value']:.6g} {m['unit']}")
    print("times are raw wall scaled by the calibration around each unit "
          "(calibrate.py); the result record keeps the raw samples")
    print(f"gate: {record['failed']} of {record['attempted']} scenarios failed "
          f"(fail_frac = {record['failed'] / max(record['attempted'], 1):g})")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    for target in record["untraced_targets"]:
        print(f"not found, so not traced: {target}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
