"""Scenario configuration: flat `section.key = value` text files.

An empty file is a complete, runnable default scenario. Unknown keys are
errors (no silent typo acceptance); every physical value re-validates through
the parameter types it feeds. A `scenario.bmi` preset applies before the
keys given with it, in config text and in `SimulationConfig.with_values`
alike, so those keys always win.

`SCHEMA` holds the only default of every parameter: the parameter types have
no field defaults, and every parameter object is built by a
`SimulationConfig` factory (`constants()`, `layers()`, `species()`, ...).
The two meshes are built once, at validation, and the phases share them:
`fine_mesh()` and `coarse_mesh()` return those objects, with their caches.
So is the injection source on the fine mesh, `injection_source()`, so that
a fine mesh that cannot resolve the source fails at load.
Build a variant from config text, ``load_config_text("layers.adipose_cm =
4.9")``, or from a built object, ``dataclasses.replace(
default_config().starling(), l_pb=2e-6)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from . import params as pr
from .flow import InjectionProtocol, injection_source
from .mesh import AxiMesh, build_graded_mesh
from .params import ConfigurationError, PhCurve, PhysicalConstants

_DRUG_PRESETS = ("ipilimumab_like", "igg1_like")
_BMI_PRESETS = {
    "high": {"layers.adipose_cm": 1.5, "protocol.depth_cm": 0.8},
    "low": {"layers.adipose_cm": 0.6, "protocol.depth_cm": 0.5},
}

#: key -> (python type, default). The single source of truth for the format.
SCHEMA: dict[str, tuple[type, object]] = {
    "geometry.radius_cm": (float, 5.0),
    "geometry.height_cm": (float, 5.0),
    "layers.dermis_cm": (float, 0.2),
    "layers.adipose_cm": (float, 1.5),
    "layers.porosity": (float, 0.1),
    "layers.kappa_dermis_cm2": (float, 1.0e-10),
    "layers.kappa_adipose_cm2": (float, 1.0e-9),
    "layers.kappa_muscle_cm2": (float, 1.0e-11),
    "layers.slv_dermis_per_cm": (float, 70.0),
    "layers.slv_adipose_fraction": (float, 0.05),
    "mesh.fine_nr": (int, 200),
    "mesh.fine_nz": (int, 200),
    "mesh.fine_grading": (float, 1.01),
    "mesh.coarse_nr": (int, 80),
    "mesh.coarse_nz": (int, 80),
    "protocol.depth_cm": (float, 0.8),
    "protocol.volume_ml": (float, 1.0),
    "protocol.duration_s": (float, 5.0),
    "protocol.ramp_s": (float, 0.1),
    "protocol.source_radius_cm": (float, 0.1065),
    "formulation.drug": (str, "ipilimumab_like"),
    "formulation.mg_per_ml": (float, 100.0),
    "formulation.molar_mass_g_per_mol": (float, 150000.0),
    "formulation.buffer_ph": (float, 6.0),
    "curves.charge_csv": (str, ""),
    "curves.ka_csv": (str, ""),
    "curves.kd_csv": (str, ""),
    "species.d_na_cm2_s": (float, 1.33e-5),
    "species.d_cl_cm2_s": (float, 2.03e-5),
    "species.d_h_cm2_s": (float, 9.31e-5),
    "species.d_mab_cm2_s": (float, 1.0e-6),
    "species.c_na_init": (float, 1.4e-4),
    "species.c_h_init": (float, 4.0e-11),
    "constants.faraday": (float, 96485.0),
    "constants.gas_constant": (float, 8.314),
    "constants.temperature_k": (float, 293.0),
    "flow.viscosity": (float, 1.0e-7),  # N*s/cm^2, water
    "starling.l_pb": (float, 1.0e-6),
    "starling.l_pl": (float, 6.0e-5),
    "starling.sbv_per_cm": (float, 70.0),
    "starling.p_b": (float, 0.35),
    "starling.p_l": (float, 0.0),
    "starling.sigma_r": (float, 0.3),
    "starling.pi_b": (float, 0.35),
    "starling.pi_i": (float, 0.15),
    "binding.b_max_mol_per_cm3": (float, 1.0e-9),
    "binding.k_e_per_s": (float, 0.0),
    "phases.short_dt_s": (float, 0.02),
    "phases.short_horizon_s": (float, 10.0),
    # the long phase's first step; it also caps the injection step, which
    # grows toward it once the flow stops (`Simulation.run_short_term`)
    "phases.long_dt_min_s": (float, 1.0),
    "phases.long_dt_max_s": (float, 60.0),
    "phases.long_horizon_h": (float, 36.0),
    "output.cadence_s": (float, 0.1),
    "output.long_cadence_s": (float, 600.0),
    "output.dir": (str, ""),
    "scenario.bmi": (str, ""),
}


def _convert(key: str, value):
    """``value`` as its key's schema type, in config text and in
    `SimulationConfig.with_values` alike: an integer key takes only a finite
    whole number."""
    typ, _ = SCHEMA[key]
    try:
        if typ is int:
            as_float = float(value)
            if as_float != int(as_float):
                raise ValueError
            return int(as_float)
        return typ(value)
    except (TypeError, ValueError, OverflowError):  # int(float("inf")) overflows
        raise ConfigurationError(
            f"cannot parse {value!r} as {typ.__name__} for {key}") from None


def parse_config_text(text: str) -> dict:
    """Key/value dict from config text; defaults fill whatever is absent."""
    explicit: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected 'section.key = value'")
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key not in SCHEMA:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in explicit:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        try:
            explicit[key] = _convert(key, raw)
        except ConfigurationError as exc:
            raise ConfigurationError(f"line {lineno}: {exc}") from None

    return _updated({k: default for k, (_, default) in SCHEMA.items()}, explicit)


def _updated(values: dict, updates: dict) -> dict:
    """A copy of ``values`` with the preset of an updated `scenario.bmi`
    applied first and then ``updates``, so updated keys win over the preset."""
    out = dict(values)
    if "scenario.bmi" in updates:
        updates = {**updates, "scenario.bmi": str(updates["scenario.bmi"]).lower()}
        out.update(_BMI_PRESETS.get(updates["scenario.bmi"], {}))
    out.update(updates)
    return out


@dataclass
class SimulationConfig:
    """Validated scenario; factory methods build the physics objects."""

    values: dict

    def __post_init__(self):
        self.validate()

    # -- accessors ---------------------------------------------------------
    def __getitem__(self, key: str):
        return self.values[key]

    def with_values(self, updates: dict) -> "SimulationConfig":
        """A validated copy with ``updates`` applied as config text applies
        them: a changed `scenario.bmi` brings its preset."""
        for key in updates:
            if key not in SCHEMA:
                raise ConfigurationError(f"unknown key {key!r}")
        return SimulationConfig(_updated(
            self.values, {k: _convert(k, v) for k, v in updates.items()}))

    # -- validation --------------------------------------------------------
    def validate(self):
        v = self.values
        unknown = set(v) - set(SCHEMA)
        if unknown:
            raise ConfigurationError(f"unknown keys: {sorted(unknown)}")
        for key in SCHEMA:
            if key not in v:
                raise ConfigurationError(f"missing key {key}")
        non_negative = {
            "starling.l_pb", "starling.l_pl", "starling.sbv_per_cm",
            "starling.p_b", "starling.p_l", "starling.sigma_r",
            "starling.pi_b", "starling.pi_i", "binding.k_e_per_s",
            "formulation.mg_per_ml", "layers.slv_dermis_per_cm",
            "layers.slv_adipose_fraction",
        }
        for key, (typ, _) in SCHEMA.items():
            if typ not in (int, float):
                continue
            x = float(v[key])  # NaN fails every comparison, so test it apart
            bound = ">= 0" if key in non_negative else "> 0"
            if not math.isfinite(x) or (x < 0 if key in non_negative else x <= 0):
                raise ConfigurationError(f"{key} must be finite and {bound}, got {v[key]}")
        if v["scenario.bmi"] not in ("", *_BMI_PRESETS):
            raise ConfigurationError(
                f"scenario.bmi must be 'high' or 'low', got {v['scenario.bmi']!r}")
        if v["formulation.drug"] not in _DRUG_PRESETS and not v["curves.charge_csv"]:
            raise ConfigurationError(
                f"formulation.drug must be one of {_DRUG_PRESETS} "
                "unless explicit curve CSVs are given")
        if not 3.0 <= v["formulation.buffer_ph"] <= 12.0:
            raise ConfigurationError("formulation.buffer_ph must lie in [3, 12]")
        if v["phases.long_dt_min_s"] > v["phases.long_dt_max_s"]:
            raise ConfigurationError("phases.long_dt_min_s exceeds long_dt_max_s")
        if v["phases.short_horizon_s"] < v["protocol.duration_s"]:
            raise ConfigurationError("short horizon must cover the injection")
        if v["protocol.depth_cm"] >= v["geometry.height_cm"]:
            raise ConfigurationError("injection depth exceeds the domain height")
        # building the parameter objects runs their own invariant checks
        self.layers()
        self.constants()
        self.starling()
        self.protocol()
        self._curves = self._load_curves()
        self.syringe()
        height = v["geometry.height_cm"]
        self._fine_mesh, self._coarse_mesh = (build_graded_mesh(
            v["geometry.radius_cm"], height, v[f"mesh.{kind}_nr"], v[f"mesh.{kind}_nz"],
            focus=self.protocol().center(height), grading=grading)
            for kind, grading in (("fine", v["mesh.fine_grading"]), ("coarse", 1.0)))
        self._injection_source = injection_source(self._fine_mesh, self.protocol())
        self._injection_source.flags.writeable = False

    # -- factories ---------------------------------------------------------
    def constants(self) -> PhysicalConstants:
        v = self.values
        return PhysicalConstants(v["constants.faraday"], v["constants.gas_constant"],
                                 v["constants.temperature_k"])

    def layers(self) -> pr.TissueLayers:
        v = self.values
        dermis = v["layers.dermis_cm"]
        adipose = v["layers.adipose_cm"]
        muscle = v["geometry.height_cm"] - dermis - adipose
        if muscle <= 0:
            raise ConfigurationError("layers exceed the domain height")
        slv_dermis = v["layers.slv_dermis_per_cm"]
        return pr.TissueLayers(
            layers=(
                pr.TissueLayer("muscle", muscle, v["layers.kappa_muscle_cm2"], 0.0),
                pr.TissueLayer("adipose", adipose, v["layers.kappa_adipose_cm2"],
                               v["layers.slv_adipose_fraction"] * slv_dermis),
                pr.TissueLayer("dermis-epidermis", dermis,
                               v["layers.kappa_dermis_cm2"], slv_dermis),
            ),
            porosity=v["layers.porosity"],
        )

    def starling(self) -> pr.StarlingParams:
        v = self.values
        return pr.StarlingParams(
            l_pb=v["starling.l_pb"], l_pl=v["starling.l_pl"],
            sbv=v["starling.sbv_per_cm"], p_b=v["starling.p_b"],
            p_l=v["starling.p_l"], sigma_r=v["starling.sigma_r"],
            pi_b=v["starling.pi_b"], pi_i=v["starling.pi_i"])

    def protocol(self) -> InjectionProtocol:
        v = self.values
        return InjectionProtocol(
            depth=v["protocol.depth_cm"], volume=v["protocol.volume_ml"],
            duration=v["protocol.duration_s"], ramp_time=v["protocol.ramp_s"],
            source_radius=v["protocol.source_radius_cm"])

    def curves(self) -> tuple[PhCurve, PhCurve, PhCurve]:
        """The (charge, ka, kd) curves, parsed once when the config was built."""
        return self._curves

    def _load_curves(self) -> tuple[PhCurve, PhCurve, PhCurve]:
        v = self.values
        if v["curves.charge_csv"] or v["curves.ka_csv"] or v["curves.kd_csv"]:
            paths = (v["curves.charge_csv"], v["curves.ka_csv"], v["curves.kd_csv"])
            if not all(paths):
                raise ConfigurationError(
                    "curves.charge_csv, curves.ka_csv, curves.kd_csv must all be set")
            return tuple(PhCurve.from_csv(Path(p)) for p in paths)
        return pr.load_drug_curves(v["formulation.drug"])

    def binding(self) -> pr.BindingParams:
        _, ka, kd = self.curves()
        v = self.values
        return pr.BindingParams(ka_curve=ka, kd_curve=kd,
                                k_e=v["binding.k_e_per_s"],
                                b_max=v["binding.b_max_mol_per_cm3"])

    def charge_curve(self) -> PhCurve:
        return self.curves()[0]

    def syringe(self) -> dict[str, float]:
        v = self.values
        charge = self.charge_curve()
        return pr.syringe_composition(
            v["formulation.buffer_ph"], v["formulation.mg_per_ml"],
            v["formulation.molar_mass_g_per_mol"],
            float(charge(v["formulation.buffer_ph"])), v["species.c_na_init"])

    def species(self) -> pr.SpeciesTable:
        v = self.values
        c_na, c_h = v["species.c_na_init"], v["species.c_h_init"]
        return pr.SpeciesTable(
            sodium=pr.SpeciesSpec("Na+", v["species.d_na_cm2_s"], c_na),
            hydrogen=pr.SpeciesSpec("H+", v["species.d_h_cm2_s"], c_h),
            drug=pr.SpeciesSpec("mAb", v["species.d_mab_cm2_s"], 0.0),
            chloride=pr.SpeciesSpec("Cl-", v["species.d_cl_cm2_s"], c_na + c_h),
        )

    def fine_mesh(self) -> AxiMesh:
        """The injection phase's mesh, graded toward the needle tip."""
        return self._fine_mesh

    def coarse_mesh(self) -> AxiMesh:
        """The reduced phase's uniform mesh."""
        return self._coarse_mesh

    def injection_source(self):
        """`flow.injection_source` on the fine mesh, read-only."""
        return self._injection_source

    # -- serialization -----------------------------------------------------
    def to_text(self) -> str:
        # a float's str is its repr, which parses back to the same float
        lines = ["# depotsim scenario (all keys explicit)"]
        lines += [f"{key} = {self.values[key]}" for key in sorted(SCHEMA)]
        return "\n".join(lines) + "\n"


def load_config_text(text: str) -> SimulationConfig:
    return SimulationConfig(parse_config_text(text))


def load_config(path) -> SimulationConfig:
    """Load and fully validate a scenario file; empty file = all defaults."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    return load_config_text(pr.read_text(path))


def default_config() -> SimulationConfig:
    return load_config_text("")
