"""Command line subcommands and the scenario sweep runner."""

import json
import shutil
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

import compare_run_dirs
from depotsim import _assembly, sweep
from depotsim.cli import build_parser, main
from depotsim.config import load_config, load_config_text
from depotsim.io import load_checkpoint, read_timeseries
from depotsim.mesh import nodal_integral
from depotsim.sweep import run_sweep
from snapshot_reader import read_snapshot

TINY = """
mesh.fine_nr = 20
mesh.fine_nz = 20
mesh.fine_grading = 1.12
mesh.coarse_nr = 14
mesh.coarse_nz = 14
phases.short_dt_s = 0.5
phases.short_horizon_s = 6
phases.long_dt_max_s = 120
phases.long_horizon_h = 0.1
output.cadence_s = 1.0
output.long_cadence_s = 120
"""


@pytest.fixture(scope="module")
def tiny_cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text(TINY)
    return path


@pytest.fixture(scope="module")
def finished_run(tiny_cfg_file, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("run")
    rc = main(["run", str(tiny_cfg_file), "--outdir", str(outdir)])
    assert rc == 0
    return outdir


class TestRunCommand:
    def test_outputs_exist(self, finished_run):
        for name in ("timeseries.csv", "config.cfg", "ledger.json",
                     "checkpoint_short_end.npz", "checkpoint_final.npz",
                     "snapshot_short_end.vtk"):
            assert (finished_run / name).exists(), name

    def test_ledger_reports_per_phase_counters(self, finished_run):
        ledger = json.loads((finished_run / "ledger.json").read_text())
        phases = ledger["phases"]
        assert set(phases) == {"injection", "long"}
        for counters in phases.values():
            assert set(counters) == {"retries", "clipped", "krylov_solves",
                                     "gmres_iterations", "ilu_builds", "direct_fallbacks"}
            # both meshes are narrow, so no species solve is a Krylov one
            assert counters["krylov_solves"] == counters["gmres_iterations"] == 0
            assert counters["ilu_builds"] == counters["direct_fallbacks"] == 0
        assert sum(c["retries"] for c in phases.values()) == ledger["retries"]

    @pytest.mark.parametrize("name", ["checkpoint_short_end.npz", "checkpoint_final.npz"])
    def test_each_checkpoint_ledger_counts_the_drug_of_its_own_fields(self, finished_run,
                                                                       name):
        state, ledger, _, config_text = load_checkpoint(finished_run / name)
        porosity = load_config_text(config_text).layers().porosity
        scale = 1e-12 * ledger.injected
        assert ledger.injected > 0.0
        assert abs(porosity * nodal_integral(state.c_mab, state.mesh)
                   - ledger.free) <= scale
        assert abs(nodal_integral(state.c_b, state.mesh) - ledger.bound) <= scale

    def test_ledger_reports_each_phase_steps_dt_wall_and_closure(self, finished_run):
        ledger = json.loads((finished_run / "ledger.json").read_text())
        report = ledger["phase_report"]
        assert set(report) == {"injection", "long"}
        for rep in report.values():
            assert set(rep) == {"steps", "dt_min_s", "dt_median_s", "dt_max_s", "wall_s",
                                "max_closure_residual"}
            assert rep["steps"] >= 1 and rep["wall_s"] > 0
            assert 0 < rep["dt_min_s"] <= rep["dt_median_s"] <= rep["dt_max_s"]
        # 5 s of 0.5 s steps to the flow stop, then 0.5 * 1.2 and the 0.4 s left
        # of the 6 s horizon, none retried
        assert ledger["phases"]["injection"]["retries"] == 0
        assert report["injection"]["steps"] == 12
        assert report["injection"]["dt_median_s"] == 0.5
        assert report["injection"]["dt_max_s"] == 0.5 * 1.2
        assert report["injection"]["dt_min_s"] == pytest.approx(0.4, abs=1e-12)
        assert report["long"]["dt_max_s"] <= 120.0
        # the last sample closes the run, so its residual is in the long phase's
        assert abs(ledger["closure_residual"]) <= report["long"]["max_closure_residual"]

    def test_timeseries_parses(self, finished_run):
        series = read_timeseries(finished_run / "timeseries.csv")
        assert len(series) > 3
        assert series.time[0] == 0.0

    def test_missing_config_is_validation_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 1

    def test_bad_key_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("protocol.dept_cm = 1\n")
        assert main(["run", str(bad)]) == 1

    @pytest.mark.parametrize("line", ["phases.long_horizon_h = inf",
                                      "starling.p_l = nan"])
    def test_non_finite_value_is_validation_error(self, tmp_path, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(line + "\n")
        assert main(["run", str(bad)]) == 1


class TestMetricsCommand:
    def test_summary_prints(self, finished_run, capsys):
        assert main(["metrics", str(finished_run)]) == 0
        out = capsys.readouterr().out
        assert "peak near-source pressure" in out
        assert "final split" in out

    def test_summary_prints_the_run_report(self, finished_run, capsys):
        ledger = json.loads((finished_run / "ledger.json").read_text())
        assert main(["metrics", str(finished_run)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"ledger closure residual: {ledger['closure_residual']:+.2e}" in lines
        assert f"retries: {ledger['retries']}" in lines
        assert f"minimum chloride: {ledger['chloride_min']:.4e} mol/cm^3" in lines
        for phase, counters in ledger["phases"].items():
            (line,) = [x for x in lines if x.startswith(f"{phase} phase: ")]
            for key, value in counters.items():
                assert f"{key} {value}" in line
        for phase, rep in ledger["phase_report"].items():
            (line,) = [x for x in lines if x.startswith(f"{phase} report: ")]
            assert f"steps {rep['steps']} " in line
            assert f"wall {rep['wall_s']:.3f} s" in line
            assert f"max closure residual {rep['max_closure_residual']:.2e}" in line

    def test_summary_reads_a_ledger_without_the_run_report(self, finished_run, tmp_path,
                                                           capsys):
        # a ledger.json written before `phases` and `chloride_min` existed
        ledger = json.loads((finished_run / "ledger.json").read_text())
        del ledger["phases"], ledger["chloride_min"]
        (tmp_path / "ledger.json").write_text(json.dumps(ledger))
        (tmp_path / "timeseries.csv").write_bytes((finished_run / "timeseries.csv").read_bytes())
        assert main(["metrics", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert f"retries: {ledger['retries']}" in captured.out.splitlines()
        assert " phase: " not in captured.out
        assert "Traceback" not in captured.err

    def test_malformed_timeseries_row_exits_1_naming_the_line(self, finished_run,
                                                              tmp_path, capsys):
        (tmp_path / "ledger.json").write_bytes((finished_run / "ledger.json").read_bytes())
        lines = (finished_run / "timeseries.csv").read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",n/a"
        (tmp_path / "timeseries.csv").write_text("\n".join(lines) + "\n")
        assert main(["metrics", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "timeseries.csv, line 3: could not convert" in err
        assert "Traceback" not in err


class TestCompareCommand:
    def test_self_similar_reference_scores_well(self, finished_run, tmp_path,
                                                capsys):
        series = read_timeseries(finished_run / "timeseries.csv")
        t_h = np.asarray(series.time) / 3600.0
        remaining = (series.column("free_pct") + series.column("bound_pct")) / 100
        ref = tmp_path / "ref.csv"
        rows = ["time_h,remaining_fraction"]
        rows += [f"{t},{r}" for t, r in zip(t_h[1:], remaining[1:])]
        ref.write_text("\n".join(rows) + "\n")
        assert main(["compare", str(finished_run), str(ref)]) == 0
        out = capsys.readouterr().out
        assert "RMSE" in out
        rmse = float([ln for ln in out.splitlines() if "RMSE" in ln][0].split(":")[1])
        assert rmse < 1e-12
        assert (finished_run / "compare_report.csv").exists()

    def test_disjoint_reference_fails_cleanly(self, finished_run, tmp_path):
        ref = tmp_path / "far.csv"
        ref.write_text("time_h,remaining_fraction\n100,0.5\n200,0.2\n")
        assert main(["compare", str(finished_run), str(ref)]) == 1

    def test_reference_with_no_sample_inside_the_run_fails_cleanly(
            self, finished_run, tmp_path, capsys):
        # the ranges overlap, but both reference samples lie outside the run's
        ref = tmp_path / "around.csv"
        ref.write_text("time_h,remaining_fraction\n-1,1.0\n48,0.2\n")
        assert_clean_error(capsys, ["compare", str(finished_run), str(ref)],
                           "no reference sample")


class TestSnapshotCommand:
    def test_export_from_checkpoint(self, finished_run, tmp_path):
        out = tmp_path / "snap.vtk"
        rc = main(["snapshot", str(finished_run / "checkpoint_short_end.npz"),
                   "--out", str(out)])
        assert rc == 0
        mesh, fields, t = read_snapshot(out)
        assert "c_mab" in fields

    def test_select_nearest_time_in_directory(self, finished_run, tmp_path,
                                              capsys):
        out = tmp_path / "snap6.vtk"
        rc = main(["snapshot", str(finished_run), "--time", "6",
                   "--out", str(out)])
        assert rc == 0
        _, _, t = read_snapshot(out)
        assert t == pytest.approx(6.0, abs=1.0)


#: the UTF-16 byte-order mark, which no UTF-8 text starts with
NOT_UTF8 = b"\xff\xfe"


def assert_clean_error(capsys, argv, where):
    """The command exits 1 with one ``error:`` line naming ``where``."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err
    assert "Traceback" not in err


class TestBadInputFiles:
    def test_run_with_a_non_numeric_curve_row(self, tmp_path, capsys):
        for kind, rows in (("charge", "3.0,20.0\n7,x\n"), ("ka", "3,2e4\n11,2e3\n"),
                           ("kd", "3,1e-4\n11,1e-3\n")):
            (tmp_path / f"{kind}.csv").write_text("ph,value\n" + rows)
        cfg = tmp_path / "curves.cfg"
        cfg.write_text("formulation.drug = custom\n" + "".join(
            f"curves.{kind}_csv = {tmp_path / f'{kind}.csv'}\n"
            for kind in ("charge", "ka", "kd")))
        assert_clean_error(capsys, ["run", str(cfg)], "charge.csv:3")

    def test_run_with_a_mesh_the_mesh_builder_rejects(self, tmp_path, capsys):
        cfg = tmp_path / "mesh.cfg"
        cfg.write_text("mesh.fine_grading = 1.5\n")
        assert_clean_error(capsys, ["run", str(cfg)], "grading ratio")

    def test_run_with_a_fine_mesh_that_cannot_resolve_the_source(self, tmp_path, capsys):
        cfg = tmp_path / "mesh.cfg"
        cfg.write_text("mesh.fine_nr = 8\nmesh.fine_nz = 8\nmesh.fine_grading = 1.0\n")
        outdir = tmp_path / "out"
        assert_clean_error(capsys, ["run", str(cfg), "--outdir", str(outdir)],
                           "cannot resolve the injection source")
        assert not outdir.exists()

    def test_compare_with_a_non_numeric_reference_row(self, finished_run, tmp_path,
                                                       capsys):
        ref = tmp_path / "ref.csv"
        ref.write_text("time_h,remaining_fraction\n0,1.0\n1,abc\n")
        assert_clean_error(capsys, ["compare", str(finished_run), str(ref)], "ref.csv:3")

    def test_compare_with_a_one_column_reference_row(self, finished_run, tmp_path,
                                                      capsys):
        ref = tmp_path / "ref.csv"
        ref.write_text("time_h,remaining_fraction\n0,1.0\n1\n")
        assert_clean_error(capsys, ["compare", str(finished_run), str(ref)], "ref.csv:3")

    def test_sweep_with_a_non_numeric_value(self, tiny_cfg_file, tmp_path, capsys):
        assert_clean_error(capsys, ["sweep", str(tiny_cfg_file), "--axis", "buffer_ph",
                                    "--values", "abc", "--outdir", str(tmp_path)],
                           "'abc'")

    def test_run_with_a_directory_for_the_config(self, tmp_path, capsys):
        config_dir = tmp_path / "scenario.cfg"
        config_dir.mkdir()
        assert_clean_error(capsys, ["run", str(config_dir)], "scenario.cfg")

    def test_snapshot_of_a_file_that_is_not_an_npz(self, tmp_path, capsys):
        text = tmp_path / "notes.npz"
        text.write_text("not an archive\n")
        assert_clean_error(capsys, ["snapshot", str(text)], "notes.npz")

    def test_snapshot_of_an_npz_without_the_checkpoint_arrays(self, tmp_path, capsys):
        foreign = tmp_path / "foreign.npz"
        np.savez(foreign, x=np.zeros(3))
        assert_clean_error(capsys, ["snapshot", str(foreign)], "foreign.npz")

    @pytest.mark.parametrize("name, edit", [
        ("c_mab", lambda a: a[:-1]),           # a nodal field one row short
        ("u_z", lambda a: a[:, :-1]),          # a face family one column short
        ("ledger", lambda a: a[:3]),           # a ledger of 3 values
        ("format_version", lambda a: a[:0]),   # an empty scalar
    ])
    def test_snapshot_of_a_checkpoint_with_a_misshapen_array(self, finished_run, tmp_path,
                                                             capsys, name, edit):
        with np.load(finished_run / "checkpoint_final.npz") as data:
            arrays = dict(data)
        arrays[name] = edit(arrays[name])
        edited = tmp_path / "edited.npz"
        np.savez(edited, **arrays)
        out = tmp_path / "edited.vtk"
        assert_clean_error(capsys, ["snapshot", str(edited), "--out", str(out)],
                           f"edited.npz: checkpoint array {name} has shape")
        assert not out.exists()

    def test_snapshot_at_a_time_in_a_run_dir_holding_a_foreign_npz(self, tmp_path,
                                                                   capsys):
        np.savez(tmp_path / "checkpoint_foreign.npz", x=np.zeros(3))
        assert_clean_error(capsys, ["snapshot", str(tmp_path), "--time", "5"],
                           "checkpoint_foreign.npz")

    def test_metrics_with_a_ledger_that_is_not_json(self, finished_run, tmp_path,
                                                    capsys):
        (tmp_path / "timeseries.csv").write_bytes(
            (finished_run / "timeseries.csv").read_bytes())
        (tmp_path / "ledger.json").write_text("{truncated")
        assert_clean_error(capsys, ["metrics", str(tmp_path)], "ledger.json")

    @pytest.mark.parametrize("text", ["{}", "[1, 2]", '{"closure_residual": 0.0}',
                                      '{"retries": 0}'])
    def test_metrics_with_a_ledger_that_is_not_a_depotsim_ledger(
            self, finished_run, tmp_path, capsys, text):
        (tmp_path / "timeseries.csv").write_bytes(
            (finished_run / "timeseries.csv").read_bytes())
        (tmp_path / "ledger.json").write_text(text)
        assert_clean_error(capsys, ["metrics", str(tmp_path)], "not a depotsim ledger")

    @pytest.mark.parametrize("where, value", [
        ("closure_residual", "x"), ("retries", "3"), ("chloride_min", None),
        ("phases", []), ("phases.injection", 3), ("phases.long.clipped", "2"),
        ("phase_report", "x"), ("phase_report.injection", {}),
        ("phase_report.long.steps", True), ("phase_report.long.dt_min_s", "x"),
        ("phase_report.long.dt_median_s", [1.0]), ("phase_report.long.dt_max_s", {}),
        ("phase_report.long.wall_s", "fast"),
        ("phase_report.long.max_closure_residual", None),
    ])
    def test_metrics_with_a_ledger_field_it_cannot_print(self, finished_run, tmp_path,
                                                          capsys, where, value):
        (tmp_path / "timeseries.csv").write_bytes(
            (finished_run / "timeseries.csv").read_bytes())
        ledger = json.loads((finished_run / "ledger.json").read_text())
        *parents, key = where.split(".")
        block = ledger
        for parent in parents:
            block = block[parent]
        block[key] = value
        (tmp_path / "ledger.json").write_text(json.dumps(ledger))
        assert_clean_error(capsys, ["metrics", str(tmp_path)], f"ledger.json: {where}")

    @pytest.mark.parametrize("command", ["metrics", "compare"])
    def test_timeseries_without_data_rows(self, finished_run, tmp_path, capsys, command):
        (tmp_path / "timeseries.csv").write_text(
            (finished_run / "timeseries.csv").read_text().splitlines()[0] + "\n")
        ref = tmp_path / "ref.csv"
        ref.write_text("time_h,remaining_fraction\n0,1.0\n1,0.9\n")
        argv = [command, str(tmp_path)] + ([str(ref)] if command == "compare" else [])
        assert_clean_error(capsys, argv, "timeseries.csv: no data rows")

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_metrics_with_a_timeseries_value_that_is_not_finite(self, finished_run, tmp_path,
                                                                capsys, raw):
        shutil.copy(finished_run / "ledger.json", tmp_path / "ledger.json")
        header, first, *rest = (finished_run / "timeseries.csv").read_text().splitlines()
        cells = first.split(",")
        cells[1] = raw  # pressure_ball_avg
        (tmp_path / "timeseries.csv").write_text(
            "\n".join([header, ",".join(cells), *rest]) + "\n")
        assert_clean_error(capsys, ["metrics", str(tmp_path)],
                           f"timeseries.csv, line 2: pressure_ball_avg is not finite: {raw}")

    def test_run_with_a_config_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "utf16.cfg"
        cfg.write_bytes(NOT_UTF8 + b"mesh.fine_nr = 20\n")
        assert_clean_error(capsys, ["run", str(cfg)], "utf16.cfg")

    @pytest.mark.parametrize("name", ["timeseries.csv", "ledger.json"])
    def test_metrics_with_a_file_that_is_not_utf8(self, finished_run, tmp_path, capsys,
                                                  name):
        for kept in ("timeseries.csv", "ledger.json"):
            shutil.copy(finished_run / kept, tmp_path / kept)
        (tmp_path / name).write_bytes(NOT_UTF8 + (finished_run / name).read_bytes())
        assert_clean_error(capsys, ["metrics", str(tmp_path)], name)

    def test_compare_with_a_reference_that_is_not_utf8(self, finished_run, tmp_path,
                                                       capsys):
        ref = tmp_path / "ref.csv"
        ref.write_bytes(NOT_UTF8 + b"time_h,remaining_fraction\n0,1.0\n")
        assert_clean_error(capsys, ["compare", str(finished_run), str(ref)], "ref.csv")


class TestSolverFailure:
    def test_a_refused_operator_exits_2_naming_the_check(self, tmp_path, capsys, monkeypatch):
        # a 27-wide fine mesh is condensed red-black; condensation here sees
        # every eliminated pivot as zero, and refuses the first operator
        eliminable = _assembly._eliminable
        monkeypatch.setattr(_assembly, "_eliminable",
                            lambda d, *args: eliminable(np.zeros_like(d), *args))
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(TINY.replace("mesh.fine_nr = 20", "mesh.fine_nr = 26"))
        assert main(["run", str(cfg), "--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("solver failure: ") and "Traceback" not in err
        assert "operator refused: a red pivot is zero or not finite" in err


class TestSweep:
    def test_single_value_sweep_is_single_run(self, tmp_path):
        config = load_config_text(TINY)
        entries = run_sweep(config, "buffer_ph", [6.0], tmp_path)
        assert len(entries) == 1
        assert entries[0].ok
        assert (tmp_path / "buffer_ph_6.0" / "timeseries.csv").exists()
        summary = (tmp_path / "sweep_summary.csv").read_text().splitlines()
        assert summary[0] == "buffer_ph,t_h,free_pct,bound_pct,absorbed_pct,status"
        assert summary[1].startswith("6.0,")
        # a run shorter than 30 h splits at its last sample, and says when
        series = read_timeseries(tmp_path / "buffer_ph_6.0" / "timeseries.csv")
        assert float(summary[1].split(",")[1]) == series.time[-1] / 3600.0 < 30.0

    def test_order_independence(self, tmp_path):
        config = load_config_text(TINY)
        a = run_sweep(config, "depth", [0.6, 1.0], tmp_path / "fwd")
        b = run_sweep(config, "depth", [1.0, 0.6], tmp_path / "rev")
        fwd = {e.value: (e.free_pct, e.bound_pct, e.absorbed_pct) for e in a}
        rev = {e.value: (e.free_pct, e.bound_pct, e.absorbed_pct) for e in b}
        assert fwd == rev

    def test_failures_recorded_but_not_fatal(self, tmp_path):
        config = load_config_text(TINY)
        # depth beyond the domain height fails validation inside the run
        entries = run_sweep(config, "depth", [0.8, 99.0], tmp_path)
        assert entries[0].ok
        assert not entries[1].ok
        assert "height" in entries[1].error or "domain" in entries[1].error
        summary = (tmp_path / "sweep_summary.csv").read_text()
        assert "failed" in summary

    def test_unknown_axis_rejected(self, tmp_path):
        from depotsim.params import ConfigurationError
        with pytest.raises(ConfigurationError):
            run_sweep(load_config_text(TINY), "temperature", [1], tmp_path)

    def test_the_parser_takes_its_axes_from_the_sweep(self, capsys):
        parser = build_parser()
        for axis in sweep.AXES:
            args = parser.parse_args(["sweep", "x.cfg", "--axis", axis, "--values", "1"])
            assert args.axis == axis
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(["sweep", "x.cfg", "--axis", "temperature", "--values", "1"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        # every axis is offered, in the order of `sweep.AXES`
        offered = err[err.index("choose from"):]
        assert [offered.index(axis) for axis in sweep.AXES] == sorted(
            offered.index(axis) for axis in sweep.AXES)

    def test_cli_sweep_bmi(self, tiny_cfg_file, tmp_path):
        rc = main(["sweep", str(tiny_cfg_file), "--axis", "bmi",
                   "--values", "high,low", "--outdir", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "sweep_summary.csv").read_text()
        assert "high" in text and "low" in text

    def test_bmi_sweep_runs_each_preset_tissue(self, tmp_path):
        entries = run_sweep(load_config_text(TINY), "bmi", ["high", "low"],
                            tmp_path)
        assert all(e.ok for e in entries)
        adipose = {e.value: load_config(e.outdir / "config.cfg")["layers.adipose_cm"]
                   for e in entries}
        assert adipose == {"high": 1.5, "low": 0.6}
        rows = (tmp_path / "sweep_summary.csv").read_text().splitlines()[1:]
        assert rows[0].split(",")[1:] != rows[1].split(",")[1:]

    def test_repeated_value_is_rejected_before_any_run(self, tiny_cfg_file, tmp_path,
                                                        capsys):
        # 6 and 6.0 parse to one float, so both runs would write buffer_ph_6.0/
        outdir = tmp_path / "out"
        assert_clean_error(capsys, ["sweep", str(tiny_cfg_file), "--axis", "buffer_ph",
                                    "--values", "6,6.0", "--outdir", str(outdir)],
                           "buffer_ph_6.0")
        assert not outdir.exists()

    def test_workers_are_capped_at_the_number_of_runs(self, tmp_path, monkeypatch):
        # a fork pool starts every worker at its first submit; this one starts none
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                return SimpleNamespace(result=partial(fn, *args))

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(sweep, "_run_one", lambda *args: (30.0, 1.0, 2.0, 3.0))
        monkeypatch.setenv("DEPOTSIM_WORKERS", "64")
        config = load_config_text(TINY)
        entries = run_sweep(config, "buffer_ph", [5.0, 6.0, 7.0], tmp_path / "three")
        assert pools == [3] and all(e.ok for e in entries)
        assert run_sweep(config, "buffer_ph", [6.0], tmp_path / "one")[0].ok
        assert pools == [3]  # one run opens no pool

    def test_pool_sweep_matches_the_serial_one(self, tmp_path, monkeypatch):
        config = load_config_text(TINY)
        serial = run_sweep(config, "buffer_ph", [5.0, 7.5], tmp_path / "serial")
        monkeypatch.setenv("DEPOTSIM_WORKERS", "2")
        pooled = run_sweep(config, "buffer_ph", [5.0, 7.5], tmp_path / "pool")
        assert all(e.ok for e in serial + pooled)
        assert ((tmp_path / "pool" / "sweep_summary.csv").read_bytes()
                == (tmp_path / "serial" / "sweep_summary.csv").read_bytes())


class TestCompareRunDirs:
    def test_a_git_revision_reruns_identically_on_the_tiny_profile(self, capsys):
        assert compare_run_dirs.main(["HEAD", "HEAD", "--profile", "tiny"]) == 0
        assert "in 5 run directories of HEAD and HEAD: identical" in capsys.readouterr().out

    def test_phi_avg_is_judged_on_the_potential_scale(self, finished_run, tmp_path):
        a, b = tmp_path / "a" / "run", tmp_path / "b" / "run"
        for root in (a, b):
            shutil.copytree(finished_run, root)
        phi_max = 0.0
        for path in finished_run.glob("checkpoint_*.npz"):
            with np.load(path) as data:
                phi_max = max(phi_max, float(np.abs(data["phi"]).max()))
        header, *rows = (b / "timeseries.csv").read_text().splitlines()
        column = header.split(",").index("phi_avg")
        cells = rows[-1].split(",")
        cells[column] = "%.17g" % (float(cells[column]) + 1e-12 * phi_max)
        rows[-1] = ",".join(cells)
        (b / "timeseries.csv").write_text("\n".join([header, *rows]) + "\n")

        _, _, differences, close = compare_run_dirs.compare(a.parent, b.parent, 1e-11)
        assert differences == [] and len(close) == 1
        _, _, differences, _ = compare_run_dirs.compare(a.parent, b.parent, 1e-13)
        assert len(differences) == 1
        _, _, differences, _ = compare_run_dirs.compare(a.parent, b.parent, None)
        assert differences == ["run/timeseries.csv: bytes differ"]

    def test_names_the_array_column_block_and_key_of_each_worst_difference(
            self, finished_run, tmp_path):
        a, b = tmp_path / "a" / "run", tmp_path / "b" / "run"
        for root in (a, b):
            shutil.copytree(finished_run, root)
        # in each file a small change, and a larger one where the worst should be named
        path = b / "checkpoint_final.npz"
        with np.load(path) as data:
            arrays = dict(data)
        arrays["c_na"] = arrays["c_na"] * (1.0 + 1e-14)
        arrays["c_mab"] = arrays["c_mab"] * (1.0 + 1e-12)
        np.savez(path, **arrays)
        header, *rows = (b / "timeseries.csv").read_text().splitlines()
        cells = rows[-1].split(",")
        for name, scale in (("ph_avg", 1.0 + 1e-14), ("free_pct", 1.0 + 1e-12)):
            column = header.split(",").index(name)
            cells[column] = "%.17g" % (float(cells[column]) * scale)
        rows[-1] = ",".join(cells)
        (b / "timeseries.csv").write_text("\n".join([header, *rows]) + "\n")
        lines = (b / "snapshot_short_end.vtk").read_text().splitlines()
        for name, scale in (("c_na", 1.0 + 1e-14), ("c_mab", 1.0 + 1e-12)):
            k = lines.index(f"SCALARS {name} double") + 2  # past LOOKUP_TABLE
            while k < len(lines) and not lines[k][:1].isalpha():
                lines[k] = " ".join("%.17g" % (float(x) * scale) for x in lines[k].split())
                k += 1
        (b / "snapshot_short_end.vtk").write_text("\n".join(lines) + "\n")
        ledger = json.loads((b / "ledger.json").read_text())
        ledger["free_mol"] *= 1.0 + 1e-12
        ledger["bound_mol"] *= 1.0 + 1e-14
        (b / "ledger.json").write_text(json.dumps(ledger))

        _, _, differences, close = compare_run_dirs.compare(a.parent, b.parent, 1e-10)
        assert differences == []
        where = {line.split(":")[0]: line.rsplit(" in ", 1)[1] for line in close}
        assert where == {"run/checkpoint_final.npz": "array c_mab",
                         "run/timeseries.csv": "column free_pct",
                         "run/snapshot_short_end.vtk": "block SCALARS c_mab double",
                         "run/ledger.json": "free_mol"}
