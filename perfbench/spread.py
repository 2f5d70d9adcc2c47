"""Run the benchmark once per seed and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload long_coarse --seeds 1-10 [--trace 0]

For every metric it prints the median of the runs and the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of that median, next to the bound in BENCHMARK.json. A metric whose
spread is not below a third of its bound is marked. The per-run JSON lines
are appended to ``.perfbench/spread-<workload>-trace<t>.jsonl`` so two
commits can be compared run by run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import _env


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((_env.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    log = _env.WORK / f"spread-{args.workload}-trace{args.trace}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=_env.ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, 0, med)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        mark = "" if bound is None or share < bound / 3 else "  <-- not below bound/3"
        print(f"{name:30s} median {med:.6g}  iqr/median {share:.4f}"
              f"  bound {bound}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
