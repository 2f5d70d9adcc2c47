"""Byte-identity check of two depotsim source trees over every benchmark scenario.

Usage, from the root of a checkout:

    python tests/compare_run_dirs.py SRC_A SRC_B [--profile {tiny,bench,all}]

Each SRC is a directory holding the ``depotsim`` package, such as a
checkout's ``src``. For each tree a separate Python process, with one BLAS
thread, runs every case of every workload of ``perfbench/workloads.PROFILES``
(every profile, or the one named) as one pipeline and writes its run
directory. The two sets of run directories are then compared file by file:
byte for byte, except ``ledger.json``, which is compared by value without the
``phase_report.*.wall_s`` wall times. The script prints each difference and
a summary, and exits 1 if a run fails or a file differs or is missing on one
side. ``SRC_A`` and ``SRC_B`` may be the same tree: the check is then
that reruns in separate processes are bit-identical.

pytest does not collect this file; it is a script.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def write_runs(src: Path, outdir: Path, profiles: list[str]) -> None:
    """Run every case of the profiles with the package in ``src``; each case's
    run directory is ``outdir/<profile>/<workload>/<case>``."""
    sys.path[:0] = [str(src), str(PERFBENCH)]
    import depotsim
    from depotsim.config import load_config_text
    from depotsim.io import write_run_outputs
    from depotsim.orchestrator import Simulation
    from workloads import PROFILES

    if src.resolve() not in Path(depotsim.__file__).resolve().parents:
        raise SystemExit(f"depotsim was imported from {depotsim.__file__}, not {src}")
    for profile in profiles:
        for name, workload in PROFILES[profile].items():
            for label, overrides in workload.cases():
                config = load_config_text(workload.config_text(overrides))
                result = Simulation(config).run_pipeline()
                write_run_outputs(result, outdir / profile / name / label)


def _ledger_without_wall_times(path: Path) -> dict:
    ledger = json.loads(path.read_text())
    for phase in ledger["phase_report"].values():
        phase.pop("wall_s")
    return ledger


def compare(root_a: Path, root_b: Path) -> tuple[int, int, list[str]]:
    """(run directories, files compared, differences) of two output roots."""
    files = {p.relative_to(root) for root in (root_a, root_b)
             for p in root.rglob("*") if p.is_file()}
    differences = []
    for rel in sorted(files):
        a, b = root_a / rel, root_b / rel
        if not (a.is_file() and b.is_file()):
            differences.append(f"{rel}: only under {root_a if a.is_file() else root_b}")
        elif rel.name == "ledger.json":
            if _ledger_without_wall_times(a) != _ledger_without_wall_times(b):
                differences.append(f"{rel}: values differ")
        elif a.read_bytes() != b.read_bytes():
            differences.append(f"{rel}: bytes differ")
    run_dirs = {rel.parent for rel in files}
    return len(run_dirs), len(files), differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--profile", choices=("tiny", "bench", "all"), default="all")
    parser.add_argument("--write-to", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    profiles = ["tiny", "bench"] if args.profile == "all" else [args.profile]
    if args.write_to is not None:  # the child process of one tree
        write_runs(args.src_a, args.write_to, profiles)
        return 0

    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    with tempfile.TemporaryDirectory() as work:
        roots = []
        for side, src in (("a", args.src_a), ("b", args.src_b)):
            root = Path(work) / side
            child = subprocess.run([sys.executable, __file__, str(src.resolve()),
                                    str(src.resolve()), "--profile", args.profile,
                                    "--write-to", str(root)], env=env)
            if child.returncode:
                print(f"error: the runs of {src} failed")
                return 1
            roots.append(root)
        n_dirs, n_files, differences = compare(*roots)
    for line in differences:
        print(f"differs: {line}")
    verdict = "identical" if not differences else f"{len(differences)} differ"
    print(f"{n_files} files in {n_dirs} run directories of {args.src_a} and "
          f"{args.src_b}: {verdict}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
