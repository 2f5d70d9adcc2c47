"""Configuration format, serialization round-trips, snapshots, references."""

import ast
import re
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

import depotsim
from depotsim._assembly import face_families
from depotsim.config import (SCHEMA, default_config, load_config,
                             load_config_text)
from depotsim.io import (TIMESERIES_HEADER, ComparisonReport, ReferenceCurve,
                         compare_reference, load_checkpoint,
                         load_reference_csv, read_timeseries,
                         save_checkpoint, snapshot_fields, write_snapshot,
                         write_timeseries)
from depotsim.mesh import FieldState, build_graded_mesh
from depotsim.metrics import CHANNELS, MetricSeries
from depotsim.orchestrator import DoseLedger, StaggeredStepper
from depotsim.flow import InjectionProtocol, injection_source
from depotsim.params import (BindingParams, ConfigurationError, PhCurve,
                             PhysicalConstants, StarlingParams, TissueLayers)
from snapshot_reader import read_snapshot


#: a fine mesh none of whose nodes lies in the default source's 3 sigma ball
UNRESOLVED_SOURCE = "mesh.fine_nr = 8\nmesh.fine_nz = 8\nmesh.fine_grading = 1.0\n"


def curve_config_text(tmp_path, charge_header="ph,value"):
    """Config lines naming custom (charge, ka, kd) curve CSVs written to tmp_path."""
    tables = {
        "charge": (charge_header, "3.0,20.0\n7.0,5.0\n11.0,-10.0\n"),
        "ka": ("ph,value", "3.0,2.0e4\n11.0,2.0e3\n"),
        "kd": ("ph,value", "3.0,1.0e-4\n11.0,1.0e-3\n"),
    }
    lines = ["formulation.drug = custom\n"]
    for name, (header, rows) in tables.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(f"# custom {name} curve\n{header}\n{rows}")
        lines.append(f"curves.{name}_csv = {path}\n")
    return "".join(lines)


class TestConfigParsing:
    def test_empty_text_gives_full_defaults(self):
        config = load_config_text("")
        assert config["geometry.radius_cm"] == 5.0
        assert config["layers.adipose_cm"] == 1.5
        assert config["starling.p_b"] == 0.35
        assert config["binding.b_max_mol_per_cm3"] == 1e-9
        layers = config.layers()
        assert [l.thickness for l in layers.layers] == [3.3, 1.5, 0.2]

    def test_empty_file_loads(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        config = load_config(path)
        assert config["mesh.fine_nr"] == 200

    def test_deep_injection_scenario(self):
        config = load_config_text("protocol.depth_cm = 1.5\n")
        assert config.protocol().depth == 1.5
        # 1.5 cm below a 5 cm surface lands near the adipose-muscle interface
        z = config.protocol().center(5.0)[1]
        assert z == pytest.approx(3.5)

    def test_negative_layer_thickness_rejected(self):
        with pytest.raises(ConfigurationError):
            load_config_text("layers.adipose_cm = -1\n")

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            load_config_text("# fine\nprotocol.depht_cm = 1.5\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            load_config_text("protocol.depth_cm = 1\nprotocol.depth_cm = 2\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigurationError, match="line 1"):
            load_config_text("protocol.depth_cm = shallow\n")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["phases.short_dt_s", "starling.p_l"])
    def test_non_finite_value_rejected_naming_its_key(self, key, raw):
        # NaN fails both `x <= 0` and `x < 0`, and inf passes them
        with pytest.raises(ConfigurationError, match=re.escape(key)):
            load_config_text(f"{key} = {raw}\n")
        with pytest.raises(ConfigurationError, match=re.escape(key)):
            default_config().with_values({key: float(raw)})

    def test_infinite_integer_rejected_naming_its_key(self):
        with pytest.raises(ConfigurationError, match="mesh.fine_nr"):
            load_config_text("mesh.fine_nr = inf\n")

    @pytest.mark.parametrize("raw", ["24.7", "inf", "nan"])
    def test_with_values_converts_an_integer_key_as_config_text_does(self, raw):
        # a fractional value was truncated and an infinite one raised OverflowError
        with pytest.raises(ConfigurationError, match="as int for mesh.fine_nr"):
            load_config_text(f"mesh.fine_nr = {raw}\n")
        with pytest.raises(ConfigurationError, match="as int for mesh.fine_nr"):
            default_config().with_values({"mesh.fine_nr": float(raw)})
        whole = default_config().with_values({"mesh.fine_nr": 24.0})["mesh.fine_nr"]
        assert whole == 24 and type(whole) is int

    def test_mesh_settings_the_mesh_builder_rejects_fail_validation(self):
        with pytest.raises(ConfigurationError, match="grading ratio"):
            load_config_text("mesh.fine_grading = 1.5\n")
        with pytest.raises(ConfigurationError, match="8 cells"):
            default_config().with_values({"mesh.fine_nr": 4})
        with pytest.raises(ConfigurationError, match="8 cells"):
            load_config_text("mesh.coarse_nz = 7\n")

    def test_a_fine_mesh_that_cannot_resolve_the_source_fails_validation(self):
        with pytest.raises(ConfigurationError, match="cannot resolve the injection source"):
            load_config_text(UNRESOLVED_SOURCE)

    def test_the_injection_phase_takes_the_read_only_source_built_at_load(self):
        config = load_config_text("mesh.fine_nr = 20\nmesh.fine_nz = 20\n")
        source = config.injection_source()
        assert np.array_equal(source, injection_source(config.fine_mesh(), config.protocol()))
        with pytest.raises(ValueError):
            source[0, 0] = 1.0
        stepper = StaggeredStepper(config.fine_mesh(), config, flow=True)
        assert stepper._source_shape is source

    def test_comments_and_blank_lines_ignored(self):
        config = load_config_text(
            "\n# a comment\nprotocol.depth_cm = 0.9  # inline\n\n")
        assert config.protocol().depth == 0.9

    def test_bmi_presets(self):
        high = load_config_text("scenario.bmi = high\n")
        assert high["layers.adipose_cm"] == 1.5
        assert high["protocol.depth_cm"] == 0.8
        low = load_config_text("scenario.bmi = low\n")
        assert low["layers.adipose_cm"] == 0.6
        assert low["protocol.depth_cm"] == 0.5
        # the stack keeps the domain height by growing the muscle layer
        assert sum(l.thickness for l in low.layers().layers) == pytest.approx(5.0)

    def test_with_values_applies_and_checks_the_bmi_preset(self):
        low = default_config().with_values({"scenario.bmi": "low"})
        assert (low["layers.adipose_cm"], low["protocol.depth_cm"]) == (0.6, 0.5)
        with pytest.raises(ConfigurationError):
            default_config().with_values({"scenario.bmi": "medium"})

    def test_explicit_key_overrides_preset(self):
        config = load_config_text("scenario.bmi = low\nprotocol.depth_cm = 0.7\n")
        assert config["protocol.depth_cm"] == 0.7
        assert config["layers.adipose_cm"] == 0.6

    def test_round_trip_identity(self):
        config = load_config_text(
            "formulation.buffer_ph = 5\nformulation.drug = igg1_like\n"
            "mesh.fine_nr = 64\n")
        again = load_config_text(config.to_text())
        assert again.values == config.values

    def test_schema_types_are_sane(self):
        for key, (typ, default) in SCHEMA.items():
            assert typ in (int, float, str)
            assert isinstance(default, typ)

    def test_custom_curve_files_load_once_and_run(self, tmp_path, monkeypatch):
        config = load_config_text(
            curve_config_text(tmp_path)
            + "mesh.fine_nr = 16\nmesh.fine_nz = 16\nmesh.fine_grading = 1.1\n")
        charge, ka, kd = config.curves()
        assert charge(5.0) == pytest.approx(12.5)
        assert ka(7.0) == pytest.approx(1.1e4)
        assert kd(7.0) == pytest.approx(5.5e-4)

        def no_parse(*args, **kwargs):
            raise AssertionError("curve CSV parsed after the config was built")

        monkeypatch.setattr(PhCurve, "from_csv", no_parse)
        stepper = StaggeredStepper(config.fine_mesh(), config, flow=True)
        assert stepper.charge_curve is charge
        state = stepper.rest_state()
        ledger = DoseLedger()
        state, _ = stepper.step(state, ledger, 0.25)
        assert state.t == pytest.approx(0.25)
        assert ledger.injected > 0.0
        assert np.all(np.isfinite(state.c_mab)) and np.all(state.c_mab >= 0.0)

    def test_bad_curve_header_rejected_at_load(self, tmp_path):
        with pytest.raises(ConfigurationError, match="expected header"):
            load_config_text(curve_config_text(tmp_path, charge_header="ph,charge"))

    def test_non_finite_curve_value_rejected_at_load(self, tmp_path):
        path = tmp_path / "charge.csv"
        path.write_text("ph,value\n3.0,20.0\n7.0,nan\n11.0,-10.0\n")
        with pytest.raises(ConfigurationError, match="charge.csv:3"):
            PhCurve.from_csv(path)

    def test_syringe_sodium_is_three_times_tissue_sodium(self):
        syringe = load_config_text("species.c_na_init = 1.5e-4").syringe()
        assert syringe["na"] == pytest.approx(4.5e-4, rel=1e-15)
        assert default_config().syringe()["na"] == 3.0 * 1.4e-4

    def test_unbalanced_formulation_rejected_at_load(self):
        with pytest.raises(ConfigurationError, match="unbalanced formulation"):
            load_config_text("formulation.buffer_ph = 11.0\n"
                             "formulation.mg_per_ml = 10000\n")

    def test_schema_holds_the_only_parameter_defaults(self):
        for cls in (PhysicalConstants, StarlingParams, InjectionProtocol,
                    BindingParams, TissueLayers):
            for f in fields(cls):
                assert f.default is MISSING, f"{cls.__name__}.{f.name}"
                assert f.default_factory is MISSING, f"{cls.__name__}.{f.name}"

    #: (module, function, parameter) -> why a caller may leave it out
    ALLOWED_DEFAULTS = {
        ("_assembly", "diffusion_matrix", "diag"):
            "the potential operator has no storage or sink on its diagonal",
        ("_assembly", "diffusion_matrix", "speeds"):
            "the pressure and potential operators carry no advection",
        ("cli", "main", "argv"): "the console script calls main() to read sys.argv",
    }

    def test_package_functions_default_only_the_listed_parameters(self):
        found = set()

        def visit(node, module, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, module, prefix + child.name + ".")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    args = child.args
                    positional = args.posonlyargs + args.args
                    defaulted = positional[len(positional) - len(args.defaults):]
                    defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                                  if d is not None]
                    found.update((module, name, a.arg) for a in defaulted)
                    visit(child, module, name + ".")
                else:
                    visit(child, module, prefix)

        for path in Path(depotsim.__file__).parent.glob("*.py"):
            visit(ast.parse(path.read_text()), path.stem, "")
        assert found == set(self.ALLOWED_DEFAULTS)


#: doubles whose text is easy to get wrong: signed zero, the smallest
#: subnormal, extremes of the exponent, inexact decimals, non-finite values
AWKWARD = (-0.0, 5e-324, 1e-300, 0.1, 1e16, 1.7976931348623157e308,
           float("nan"), float("inf"))


def reference_fmt(x) -> str:
    """The per-value renderer the writers used before rendering whole
    columns; the byte-identity reference of `write_timeseries` and
    `write_snapshot`."""
    return format(float(x), ".17g")


def reference_timeseries_text(series: MetricSeries) -> str:
    lines = [TIMESERIES_HEADER]
    for k, t in enumerate(series.time):
        row = [t] + [series.channels[name][k] for name in CHANNELS]
        lines.append(",".join(reference_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def reference_snapshot_text(state: FieldState) -> str:
    mesh = state.mesh
    out = ["# vtk DataFile Version 3.0",
           f"depotsim snapshot t={reference_fmt(state.t)} s",
           "ASCII",
           "DATASET STRUCTURED_GRID",
           f"DIMENSIONS {mesh.nr1} {mesh.nz1} 1",
           f"POINTS {mesh.n_nodes} double"]
    for j in range(mesh.nz1):
        for i in range(mesh.nr1):
            out.append(f"{reference_fmt(mesh.r[i])} {reference_fmt(mesh.z[j])} 0")
    out.append(f"POINT_DATA {mesh.n_nodes}")
    for name, arr in snapshot_fields(state).items():
        out.append(f"SCALARS {name} double")
        out.append("LOOKUP_TABLE default")
        out.extend(reference_fmt(v) for v in np.asarray(arr).ravel())
    return "\n".join(out) + "\n"


class TestTimeseriesCsv:
    def make_series(self, n=3):
        series = MetricSeries()
        for k in range(n):
            series.append(float(k),
                          **{name: 0.1 * k + i for i, name in enumerate(CHANNELS)})
        return series

    def test_golden_header(self, tmp_path):
        path = write_timeseries(self.make_series(), tmp_path / "ts.csv")
        first = path.read_text().splitlines()[0]
        assert first == ("t_s,pressure_ball_avg,velocity_ball_max,phi_avg,"
                         "ph_avg,rho_mab_avg,plume_volume_cm3,free_pct,"
                         "bound_pct,absorbed_pct")
        assert first == TIMESERIES_HEADER

    def test_empty_series_writes_header_only(self, tmp_path):
        path = write_timeseries(MetricSeries(), tmp_path / "empty.csv")
        assert path.read_text() == TIMESERIES_HEADER + "\n"
        assert path.read_text() == reference_timeseries_text(MetricSeries())

    def test_bytes_equal_the_per_value_renderer(self, tmp_path):
        series = self.make_series(5)
        # written into the lists, since `append` takes no NaN or inf: the
        # writer still renders whatever a series holds
        for k, x in enumerate(AWKWARD):
            series.time.append(5.0 + 0.1 * k)
            for name in CHANNELS:
                series.channels[name].append(x if name == "pressure_ball_avg" else 0.1 * k)
        path = write_timeseries(series, tmp_path / "ts.csv")
        assert path.read_bytes() == reference_timeseries_text(series).encode()

    def test_round_trip(self, tmp_path):
        series = self.make_series(5)
        path = write_timeseries(series, tmp_path / "ts.csv")
        back = read_timeseries(path)
        assert back.time == series.time
        for name in CHANNELS:
            assert back.channels[name] == series.channels[name]

    @pytest.mark.parametrize("row, message", [
        ("9,0,0,0,7.4,0,0,0,0,x", "could not convert string to float: 'x'"),
        ("9,0,0,0,7.4,0,0,0,0", "expected 10 values, found 9"),
        ("9,0,0,0,7.4,0,0,0,0,0,0", "expected 10 values, found 11"),
    ], ids=["non-numeric", "short", "long"])
    def test_malformed_row_names_the_file_and_line(self, tmp_path, row, message):
        path = write_timeseries(self.make_series(2), tmp_path / "ts.csv")
        # header and two rows, a blank line 4, the bad row on line 5
        path.write_text(path.read_text() + "\n" + row + "\n")
        with pytest.raises(ConfigurationError) as info:
            read_timeseries(path)
        assert str(info.value) == f"{path}, line 5: {message}"


    def test_header_without_rows_names_the_file(self, tmp_path):
        path = write_timeseries(MetricSeries(), tmp_path / "ts.csv")
        with pytest.raises(ConfigurationError) as info:
            read_timeseries(path)
        assert str(info.value) == f"{path}: no data rows"

    def test_row_with_a_time_that_is_not_finite_names_the_line(self, tmp_path):
        path = write_timeseries(self.make_series(2), tmp_path / "ts.csv")
        path.write_text(path.read_text() + "nan,0,0,0,7.4,0,0,0,0,0\n")
        with pytest.raises(ConfigurationError, match=", line 4: .*finite"):
            read_timeseries(path)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_row_with_a_value_that_is_not_finite_names_the_line(self, tmp_path, raw):
        path = write_timeseries(self.make_series(2), tmp_path / "ts.csv")
        path.write_text(path.read_text() + f"9,{raw},0,0,7.4,0,0,0,0,0\n")
        with pytest.raises(ConfigurationError) as info:
            read_timeseries(path)
        assert str(info.value) == f"{path}, line 4: pressure_ball_avg is not finite: {raw}"


def small_state():
    mesh = build_graded_mesh(5, 5, 10, 10, focus=(0, 4.2), grading=1.0)
    state = StaggeredStepper(mesh, default_config(), flow=False).rest_state()
    rng = np.random.default_rng(1)
    state.c_mab = rng.random(state.c_na.shape) * 1e-7
    state.phi = rng.normal(0, 1e-3, state.c_na.shape)
    u_r, _ = face_families(mesh, state.u)
    u_r[...] = rng.normal(0, 0.1, u_r.shape)
    state.ph = np.full(state.c_na.shape, 7.4)
    state.z_mab = np.full(state.c_na.shape, 11.0)
    state.c_cl = state.c_na + state.c_h + state.z_mab * state.c_mab
    state.t = 10.0
    return state


class TestSnapshot:
    def test_round_trip_bit_identical(self, tmp_path):
        state = small_state()
        path = write_snapshot(state, tmp_path / "snap.vtk")
        mesh, fields, t = read_snapshot(path)
        assert t == 10.0
        assert np.array_equal(mesh.r, state.mesh.r)
        assert np.array_equal(mesh.z, state.mesh.z)
        for name, ref in (("c_na", state.c_na), ("c_mab", state.c_mab),
                          ("phi", state.phi), ("c_cl", state.c_cl)):
            assert np.array_equal(fields[name], ref), name

    def test_snapshot_carries_all_panels(self, tmp_path):
        # the post-injection panel set: ion concentrations, pH, potential,
        # its gradient magnitude, the speed (with log scale), net drug charge
        path = write_snapshot(small_state(), tmp_path / "snap.vtk")
        _, fields, _ = read_snapshot(path)
        for name in ("c_na", "c_cl", "ph", "phi", "phi_grad_mag",
                     "speed", "log10_speed", "rho_mab", "c_mab", "c_b"):
            assert name in fields, name

    def test_bytes_equal_the_per_value_renderer(self, tmp_path):
        state = small_state()
        path = write_snapshot(state, tmp_path / "snap.vtk")
        assert path.read_bytes() == reference_snapshot_text(state).encode()

    def test_awkward_doubles_render_as_the_per_value_renderer(self, tmp_path):
        state = small_state()
        state.c_b = np.resize(np.array(AWKWARD), state.c_b.shape)
        state.t = 0.1
        path = write_snapshot(state, tmp_path / "snap.vtk")
        text = path.read_text()
        assert text.encode() == reference_snapshot_text(state).encode()
        block = text.split("SCALARS c_b double\nLOOKUP_TABLE default\n")[1]
        assert block.split("\n")[:len(AWKWARD)] == [
            "-0", "4.9406564584124654e-324", "1e-300",
            "0.10000000000000001", "10000000000000000",
            "1.7976931348623157e+308", "nan", "inf"]

    def test_header_is_legacy_vtk(self, tmp_path):
        path = write_snapshot(small_state(), tmp_path / "snap.vtk")
        lines = path.read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET STRUCTURED_GRID"


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        state = small_state()
        ledger = DoseLedger(injected=1e-7, free=6e-8, bound=1e-8,
                            absorbed_lymph=3e-8)
        path = save_checkpoint(state, ledger, "short_end",
                               tmp_path / "chk.npz", config_text="x = 1")
        state2, ledger2, phase, text = load_checkpoint(path)
        assert phase == "short_end"
        assert text == "x = 1"
        assert state2.t == state.t
        assert np.array_equal(state2.c_mab, state.c_mab)
        assert np.array_equal(state2.u, state.u)
        assert ledger2.injected == ledger.injected
        assert ledger2.closure_residual() == pytest.approx(0.0, abs=1e-12)

    def test_the_ledger_is_stored_in_its_field_order(self, tmp_path):
        ledger = DoseLedger(injected=1e-7, free=5e-8, bound=2e-8, absorbed_lymph=2.5e-8,
                            eliminated=5e-9)
        path = save_checkpoint(small_state(), ledger, "final", tmp_path / "chk.npz",
                               config_text="")
        with np.load(path) as data:
            assert data["ledger"].dtype == np.float64
            assert data["ledger"].tolist() == [1e-7, 5e-8, 2e-8, 2.5e-8, 5e-9]
        assert load_checkpoint(path)[1] == ledger

    def test_a_compressed_checkpoint_loads_identically(self, tmp_path):
        # checkpoints were written by np.savez_compressed before; those still load
        ledger = DoseLedger(injected=1e-7, free=6e-8, bound=1e-8, absorbed_lymph=3e-8)
        stored = save_checkpoint(small_state(), ledger, "short_end",
                                 tmp_path / "stored.npz", config_text="x = 1")
        with np.load(stored) as data:
            arrays = dict(data)
        compressed = tmp_path / "compressed.npz"
        np.savez_compressed(compressed, **arrays)
        state, ledger, phase, text = load_checkpoint(stored)
        state2, ledger2, phase2, text2 = load_checkpoint(compressed)
        assert (phase2, text2, ledger2, state2.t) == (phase, text, ledger, state.t)
        assert np.array_equal(state2.mesh.r, state.mesh.r)
        assert np.array_equal(state2.mesh.z, state.mesh.z)
        for name in ("c_na", "c_h", "c_mab", "c_b", "p", "phi", "u",
                     "c_cl", "ph", "z_mab", "j_l"):
            assert np.array_equal(getattr(state2, name), getattr(state, name)), name

    @pytest.mark.parametrize("name, shape", [
        ("c_na", (10, 11)), ("j_l", (11, 12)), ("ph", (121,)), ("u_r", (11, 11)),
        ("u_z", (11, 11)), ("ledger", (3,)), ("ledger", (6,)), ("r_nodes", (0,)),
        ("t_s", (2,)), ("phase", (0,)), ("config_text", (1, 1)),
    ])
    def test_an_array_of_the_wrong_shape_is_named(self, tmp_path, name, shape):
        # the 10x10 mesh of small_state: nodal fields (11, 11), u_r (11, 10),
        # u_z (10, 11), a ledger of 5 values and one value per scalar
        path = save_checkpoint(small_state(), DoseLedger(), "final", tmp_path / "chk.npz",
                               config_text="")
        with np.load(path) as data:
            arrays = dict(data)
        arrays[name] = np.resize(arrays[name], shape)
        edited = tmp_path / "edited.npz"
        np.savez(edited, **arrays)
        with pytest.raises(ConfigurationError,
                           match=f"edited.npz: checkpoint array {name} has shape"):
            load_checkpoint(edited)

    @pytest.mark.parametrize("name, value", [
        ("format_version", np.array(["1"])), ("phase", np.array([1.0])),
        ("t_s", np.array(["10"])), ("c_h", np.full((11, 11), "1e-10")),
        ("u_z", np.zeros((10, 11), dtype=complex)), ("ledger", np.zeros(5, dtype=bool)),
    ])
    def test_an_array_of_the_wrong_dtype_is_named(self, tmp_path, name, value):
        path = save_checkpoint(small_state(), DoseLedger(), "final", tmp_path / "chk.npz",
                               config_text="")
        with np.load(path) as data:
            arrays = dict(data)
        assert arrays[name].shape == value.shape
        arrays[name] = value
        edited = tmp_path / "edited.npz"
        np.savez(edited, **arrays)
        with pytest.raises(ConfigurationError,
                           match=f"edited.npz: checkpoint array {name} has shape .* dtype"):
            load_checkpoint(edited)

    def test_the_velocity_is_stored_in_its_two_face_families(self, tmp_path):
        # checkpoint format 1 stores u_r (nz1, nr) and u_z (nz, nr1)
        state = small_state()
        mesh = state.mesh
        state.u = np.random.default_rng(2).normal(size=mesh.n_faces)
        path = save_checkpoint(state, DoseLedger(), "final", tmp_path / "chk.npz",
                               config_text="")
        n_r = mesh.nz1 * mesh.nr
        with np.load(path) as data:
            assert np.array_equal(data["u_r"], state.u[:n_r].reshape(mesh.nz1, mesh.nr))
            assert np.array_equal(data["u_z"], state.u[n_r:].reshape(mesh.nz, mesh.nr1))

    def test_a_checkpoint_in_the_frozen_layout_loads_to_the_same_u(self, tmp_path):
        # written as the format was written when the face velocity was two
        # arrays: the r faces row by row, then the z faces row by row
        path = save_checkpoint(small_state(), DoseLedger(), "final",
                               tmp_path / "chk.npz", config_text="")
        with np.load(path) as data:
            arrays = dict(data)
        rng = np.random.default_rng(3)
        arrays["u_r"] = rng.normal(size=arrays["u_r"].shape)
        arrays["u_z"] = rng.normal(size=arrays["u_z"].shape)
        frozen = tmp_path / "frozen.npz"
        np.savez(frozen, **arrays)
        state, _, _, _ = load_checkpoint(frozen)
        assert np.array_equal(state.u, np.concatenate([arrays["u_r"].ravel(),
                                                       arrays["u_z"].ravel()]))
        u_r, u_z = face_families(state.mesh, state.u)
        assert np.array_equal(u_r, arrays["u_r"]) and np.array_equal(u_z, arrays["u_z"])


class TestReferenceComparison:
    def test_run_against_itself_is_zero(self):
        t = np.linspace(0, 30, 31)
        remaining = np.exp(-t / 12.0)
        ref = ReferenceCurve(t, remaining, "self")
        report = compare_reference(t, remaining, ref)
        assert report.rmse == 0.0
        assert report.max_deviation == 0.0

    def test_constant_offset_rmse(self):
        t = np.linspace(0, 10, 11)
        ref = ReferenceCurve(t, np.zeros_like(t))
        report = compare_reference(t, np.ones_like(t), ref)
        assert report.rmse == pytest.approx(1.0)

    def test_disjoint_ranges_rejected(self):
        ref = ReferenceCurve([50.0, 60.0], [0.5, 0.4])
        with pytest.raises(ConfigurationError):
            compare_reference(np.array([0.0, 30.0]), np.array([1.0, 0.2]), ref)

    def test_reference_csv_loader(self, tmp_path):
        path = tmp_path / "ref.csv"
        path.write_text("# digitized clearance data\n"
                        "time_h,remaining_fraction\n0,1.0\n10,0.6\n30,0.2\n")
        ref = load_reference_csv(path)
        assert ref.label == "ref"
        assert ref.time_h.tolist() == [0.0, 10.0, 30.0]

    def test_reference_validation(self):
        with pytest.raises(ConfigurationError):
            ReferenceCurve([0.0, 1.0], [0.5, 1.5])  # fraction above 1
