"""Smoke test of the benchmark itself, on the test-size profile.

Run from the root of a checkout (about a minute on 2 cores):

    python3 -m pytest -q perfbench/test_smoke.py

It is not part of the package's test suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import _env

_env.bootstrap()

from depotsim.config import load_config_text  # noqa: E402
from depotsim.io import write_run_outputs  # noqa: E402
from depotsim.metrics import CHANNELS  # noqa: E402
from depotsim.orchestrator import Simulation  # noqa: E402
from gate import check_run_dir  # noqa: E402
from workloads import PROFILES, WORKLOADS  # noqa: E402

SPEC = json.loads((_env.ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _bench(*args, cwd=_env.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_and_the_gate_passes(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--profile", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])


def test_a_tree_without_the_package_is_refused():
    tree = _env.WORK / "bare-tree"
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(_env.BENCH_DIR, tree / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(_env.ROOT / "BENCHMARK.json", tree)
    try:
        proc = _bench("--workload", "injection_fine", "--seed", "1",
                      "--seconds", "1", cwd=tree)
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def tiny_run_dir():
    workload = PROFILES["tiny"]["injection_fine"]
    config = load_config_text(workload.config_text())
    outdir = _env.WORK / "smoke-gate"
    shutil.rmtree(outdir, ignore_errors=True)
    write_run_outputs(Simulation(config).run_pipeline(), outdir)
    yield config, outdir
    shutil.rmtree(outdir, ignore_errors=True)


def _gate(config, outdir):
    return check_run_dir(outdir, porosity=config["layers.porosity"],
                         b_max=config["binding.b_max_mol_per_cm3"], channels=CHANNELS)


def test_gate_passes_a_clean_run(tiny_run_dir):
    assert _gate(*tiny_run_dir).problems == []


@pytest.mark.parametrize("breakage", ["closure", "bound_total", "header", "b_max",
                                      "missing"])
def test_gate_flags_a_broken_run(tiny_run_dir, breakage):
    config, outdir = tiny_run_dir
    broken = outdir.with_name(f"smoke-gate-{breakage}")
    shutil.rmtree(broken, ignore_errors=True)
    shutil.copytree(outdir, broken)
    ledger_path = broken / "ledger.json"
    ledger = json.loads(ledger_path.read_text())
    if breakage == "closure":
        ledger["absorbed_lymph_mol"] *= 0.5
        ledger["closure_residual"] = 0.3
        ledger_path.write_text(json.dumps(ledger))
    elif breakage == "bound_total":
        shift = 0.01 * ledger["bound_mol"]  # closure still holds
        ledger["bound_mol"] += shift
        ledger["free_mol"] -= shift
        ledger_path.write_text(json.dumps(ledger))
    elif breakage == "header":
        csv = broken / "timeseries.csv"
        lines = csv.read_text().splitlines()
        csv.write_text("\n".join([lines[0] + ",extra"] + lines[1:]) + "\n")
    elif breakage == "b_max":
        config = load_config_text(PROFILES["tiny"]["injection_fine"].config_text(
            {"binding.b_max_mol_per_cm3": 1e-14}))
    elif breakage == "missing":
        (broken / "checkpoint_final.npz").unlink()
    try:
        assert _gate(config, broken).problems
    finally:
        shutil.rmtree(broken, ignore_errors=True)


@pytest.mark.parametrize("sweep_values", [(), (5.0, 13.0)])
def test_failed_scenarios_are_counted_not_fatal(sweep_values):
    import bench

    tiny = PROFILES["tiny"]["sweep_pair"]
    settings = dict(tiny.settings)
    if not sweep_values:  # a single pipeline whose config does not validate
        settings["formulation.buffer_ph"] = 13.0
    workload = bench.Workload("sweep_pair", settings, sweep_values=sweep_values)
    workdir = _env.WORK / "smoke-failures"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        tally, _ = bench.run_units(workload, "tiny", seed=1, seconds=0.0,
                                   trace=False, workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert tally.attempted == bench.MIN_UNITS * max(len(sweep_values), 1)
    assert tally.failed == bench.MIN_UNITS
    assert any("run failed" in p for p in tally.problems)
