"""Byte-identity check of two depotsim source trees over every benchmark scenario.

Usage, from the root of a checkout:

    python tests/compare_run_dirs.py SRC_A SRC_B [--profile {tiny,bench,all}] [--rtol R]
    python tests/compare_run_dirs.py HEAD~1 src --rtol 1e-9

Each SRC is a directory holding the ``depotsim`` package, such as a
checkout's ``src``, or else a git revision of this checkout, such as
``HEAD~1``, whose ``src`` is exported by ``git archive`` into a temporary
directory; so ``python tests/compare_run_dirs.py HEAD~1 src`` compares the
working tree with its parent commit. An existing directory wins over a
revision of the same name. For each tree a separate Python process, with
one BLAS thread, runs every case of every workload of
``perfbench/workloads.PROFILES`` (every profile, or the one named) as one
pipeline and writes its run directory. The two sets of run directories are then compared file by file:
byte for byte, except ``ledger.json``, which is compared by value without the
``phase_report.*.wall_s`` wall times. The script prints each difference and
a summary, and exits 1 if a run fails or a file differs or is missing on one
side. ``SRC_A`` and ``SRC_B`` may be the same tree: the check is then
that reruns in separate processes are bit-identical.

With ``--rtol R`` a file that differs is compared by its numbers instead,
and the worst relative difference of each such file is printed with where it
is: the ``.npz`` array, CSV column, VTK block or ledger key that holds it:

- each ``.npz`` float array, each CSV column and each VTK block of numbers
  (the points, or one field) passes if ``max|a - b| <= R max|a|``, except
  the CSV columns of `FIELD_SCALES`, which pass if ``max|a - b| <= R`` times
  the largest ``|field|`` in the checkpoints of ``a``'s run directory;
- ``ledger.json`` numbers pass if ``|a - b| <= R |a|``, except its residual
  keys, which must be at most `RESIDUAL_BOUND` on both sides;
- strings, integers, array shapes and everything else must be equal.

pytest does not collect this file; it is a script.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CHECKOUT = Path(__file__).resolve().parent.parent
PERFBENCH = CHECKOUT / "perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: ``ledger.json`` residuals are checked against this bound, not each other
RESIDUAL_BOUND = 1e-12
#: CSV column -> the checkpoint field whose scale it is judged on. The
#: potential's gauge fixes its domain average at zero, so ``phi_avg`` holds
#: only round-off, and its own scale would make any change a 100% difference.
FIELD_SCALES = {"phi_avg": "phi"}


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


def source_tree(src: str, work: Path) -> Path:
    """The package directory that ``src`` names: the directory itself, or the
    ``src`` tree of the git revision ``src``, exported under ``work``."""
    if Path(src).is_dir():
        return Path(src).resolve()
    archive = subprocess.run(["git", "-C", str(CHECKOUT), "archive", "--format=tar", src,
                              "src"], capture_output=True)
    if archive.returncode:
        raise SystemExit(f"error: {src} is neither a directory nor a git revision "
                         f"with a src tree: {archive.stderr.decode().strip()}")
    work.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(work)], input=archive.stdout, check=True)
    return work / "src"


def _ledger_without_wall_times(path: Path) -> dict:
    ledger = json.loads(path.read_text())
    for phase in ledger["phase_report"].values():
        phase.pop("wall_s")
    return ledger


def scaled_difference(a, b, scale: float) -> float:
    """``max|a - b| / scale`` of two float arrays or numbers; 0 if they are
    equal, NaNs included, and inf if their shapes or NaNs differ."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    if same.all():
        return 0.0
    worst = np.abs(a - b)[~same].max()
    return float(worst / scale) if np.isfinite(worst) and scale > 0.0 else math.inf


def relative_difference(a, b) -> float:
    """`scaled_difference` on the scale of ``a``: ``max|a|`` over its finite values."""
    a = np.asarray(a, dtype=float)
    return scaled_difference(a, b, np.abs(a[np.isfinite(a)]).max(initial=0.0))


def field_scale(run_dir: Path, field: str) -> float:
    """The largest ``|field|`` in the checkpoints of a run directory."""
    scale = 0.0
    for path in run_dir.glob("checkpoint_*.npz"):
        with np.load(path) as data:
            scale = max(scale, float(np.abs(data[field]).max()))
    return scale


def _ledger_differences(a, b, key=""):
    """(relative difference, dotted key) of two ledgers' numbers; inf for
    anything else that differs and for a residual above `RESIDUAL_BOUND`."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for k in a:
            yield from _ledger_differences(a[k], b[k], f"{key}.{k}" if key else k)
    elif key.endswith("residual"):
        yield 0.0 if max(abs(a), abs(b)) <= RESIDUAL_BOUND else math.inf, key
    elif type(a) is float and type(b) is float:
        yield relative_difference(a, b), key
    else:
        yield 0.0 if type(a) is type(b) and a == b else math.inf, key or "the ledger"


def _npz_differences(a: Path, b: Path):
    with np.load(a) as x, np.load(b) as y:
        if x.files != y.files:
            yield math.inf, "the array names"
            return
        for name in x.files:
            xa, ya = x[name], y[name]
            if xa.dtype.kind == ya.dtype.kind == "f":
                yield relative_difference(xa, ya), f"array {name}"
            else:
                yield 0.0 if np.array_equal(xa, ya) else math.inf, f"array {name}"


def _text_blocks(path: Path) -> list[tuple[str, list[str]]]:
    """(label, number tokens) of a CSV's columns or of a VTK file's blocks;
    a VTK block is labelled by the text lines before it."""
    lines = path.read_text().splitlines()
    if path.suffix == ".csv":
        header, *rows = (line.split(",") for line in lines)
        if any(len(row) != len(header) for row in rows):
            return [("ragged rows", lines)]
        return [(name, [row[i] for row in rows]) for i, name in enumerate(header)]
    blocks, label = [], []
    for line in lines:
        try:
            [float(token) for token in line.split()]
        except ValueError:
            label.append(line)
            continue
        if label or not blocks:
            blocks.append(("\n".join(label), []))
            label = []
        blocks[-1][1].extend(line.split())
    return blocks + [("\n".join(label), [])]


def _block_name(path: Path, label: str) -> str:
    """A CSV column's name, or the line that names a VTK block (its
    ``POINTS`` or ``SCALARS`` line, not the ``LOOKUP_TABLE`` after it)."""
    if path.suffix == ".csv":
        return f"column {label}"
    lines = [line for line in label.splitlines() if not line.startswith("LOOKUP_TABLE")]
    return f"block {lines[-1]}" if lines else f"block {label!r}"


def _text_differences(a: Path, b: Path):
    blocks_a, blocks_b = _text_blocks(a), _text_blocks(b)
    if [label for label, _ in blocks_a] != [label for label, _ in blocks_b]:
        yield math.inf, "the column names" if a.suffix == ".csv" else "the block labels"
        return
    for (label, x), (_, y) in zip(blocks_a, blocks_b):
        where = _block_name(a, label)
        try:
            x, y = np.array(x, dtype=float), np.array(y, dtype=float)
        except ValueError:  # a column of strings
            yield 0.0 if x == y else math.inf, where
            continue
        if a.suffix == ".csv" and label in FIELD_SCALES:
            yield scaled_difference(x, y, field_scale(a.parent, FIELD_SCALES[label])), where
        else:
            yield relative_difference(x, y), where


def worst_relative_difference(a: Path, b: Path) -> tuple[float, str]:
    """The worst relative difference of two output files' numbers, as the
    module docstring sets out, and where it is; inf where they differ in
    anything else."""
    if a.name == "ledger.json":
        differences = _ledger_differences(_ledger_without_wall_times(a),
                                          _ledger_without_wall_times(b))
    elif a.suffix == ".npz":
        differences = _npz_differences(a, b)
    elif a.suffix in (".csv", ".vtk"):
        differences = _text_differences(a, b)
    else:
        return math.inf, "a file of unknown kind"
    return max(differences, key=lambda found: found[0], default=(0.0, "no number"))


def compare(root_a: Path, root_b: Path,
            rtol: float | None) -> tuple[int, int, list[str], list[str]]:
    """(run directories, files compared, differences, files within ``rtol``)
    of two output roots; with ``rtol`` None every file must be identical."""
    files = {p.relative_to(root) for root in (root_a, root_b)
             for p in root.rglob("*") if p.is_file()}
    differences, close = [], []
    for rel in sorted(files):
        a, b = root_a / rel, root_b / rel
        if not (a.is_file() and b.is_file()):
            differences.append(f"{rel}: only under {root_a if a.is_file() else root_b}")
            continue
        if rel.name == "ledger.json":
            same, what = _ledger_without_wall_times(a) == _ledger_without_wall_times(b), "values"
        else:
            same, what = a.read_bytes() == b.read_bytes(), "bytes"
        if same:
            continue
        if rtol is None:
            differences.append(f"{rel}: {what} differ")
            continue
        worst, where = worst_relative_difference(a, b)
        line = f"{rel}: worst relative difference {worst:.3g} in {where}"
        (close if worst <= rtol else differences).append(line)
    run_dirs = {rel.parent for rel in files}
    return len(run_dirs), len(files), differences, close


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", help="a directory holding depotsim, or a git revision")
    parser.add_argument("src_b", help="a directory holding depotsim, or a git revision")
    parser.add_argument("--profile", choices=("tiny", "bench", "all"), default="all")
    parser.add_argument("--rtol", type=float,
                        help="compare differing files by their numbers to this relative "
                             "tolerance (default: byte for byte)")
    parser.add_argument("--write-to", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    profiles = ["tiny", "bench"] if args.profile == "all" else [args.profile]
    if args.write_to is not None:  # the child process of one tree
        write_runs(Path(args.src_a), args.write_to, profiles)
        return 0

    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    with tempfile.TemporaryDirectory() as work:
        roots = []
        for side, name in (("a", args.src_a), ("b", args.src_b)):
            src = source_tree(name, Path(work) / f"src_{side}")
            root = Path(work) / side
            child = subprocess.run([sys.executable, __file__, str(src), str(src),
                                    "--profile", args.profile, "--write-to", str(root)],
                                   env=env)
            if child.returncode:
                print(f"error: the runs of {name} failed")
                return 1
            roots.append(root)
        n_dirs, n_files, differences, close = compare(*roots, args.rtol)
    for line in close:
        print(f"within rtol: {line}")
    for line in differences:
        print(f"differs: {line}")
    verdict = "identical" if not differences else f"{len(differences)} differ"
    if close and not differences:
        verdict = f"identical, or within rtol {args.rtol:g} ({len(close)} files)"
    print(f"{n_files} files in {n_dirs} run directories of {args.src_a} and "
          f"{args.src_b}: {verdict}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
