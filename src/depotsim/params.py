"""Physical parameters, unit system, pH curves, and electroneutrality algebra.

Unit system (CGS-pressure hybrid, used everywhere without conversion layers):
    length cm | time s | amount mol | pressure N/cm^2 | energy J
    charge C | potential V | temperature K | concentration mol/cm^3

The only unit conversion in the whole model is the pH one:
    c_H [mol/L] = 1000 * c_H [mol/cm^3]

Chloride is not transported: `recover_chloride`, the package's one chloride
formula, closes the electroneutral balance. `orchestrator._admit` computes it,
with the pH and drug charge, from each step's admitted fields and retries a
step whose chloride is negative beyond round-off; every `FieldState` is
built complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

#: Conversion factor between mol/cm^3 and mol/L, used by every pH computation.
MOL_PER_CM3_TO_MOL_PER_L = 1000.0

#: valences of the small ions; the drug's charge is a pH curve (`PhCurve`)
Z_NA = +1.0
Z_H = +1.0
Z_CL = -1.0  # chloride, eliminated through electroneutrality


class ConfigurationError(ValueError):
    """A parameter or configuration value violates its invariants."""


def read_text(path: Path) -> str:
    """The text of a UTF-8 file; a file that is not UTF-8 raises
    `ConfigurationError` naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text ({exc})") from None


@dataclass(frozen=True)
class PhysicalConstants:
    faraday: float  # C/mol
    gas_constant: float  # J/K/mol
    temperature: float  # K

    def __post_init__(self):
        for name in ("faraday", "gas_constant", "temperature"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be strictly positive")

    @property
    def rt(self) -> float:
        """Thermal energy R*T in J/mol."""
        return self.gas_constant * self.temperature


class PhCurve:
    """Tabulated pH -> value map with piecewise-linear interpolation.

    Evaluation clamps to the endpoint values outside the sampled pH range,
    so the curve is total on the real line.
    """

    def __init__(self, ph: np.ndarray, values: np.ndarray):
        ph = np.asarray(ph, dtype=float)
        values = np.asarray(values, dtype=float)
        if ph.ndim != 1 or ph.shape != values.shape:
            raise ConfigurationError("curve samples must be two equal-length 1-D arrays")
        if ph.size < 2:
            raise ConfigurationError("curve needs at least 2 samples")
        if not np.all(np.diff(ph) > 0):
            raise ConfigurationError("curve pH samples must be strictly increasing")
        self.ph = ph
        self.values = values

    def __call__(self, ph):
        """Evaluate at scalar or array pH (linear interpolation, clamped)."""
        return np.interp(ph, self.ph, self.values)

    @classmethod
    def from_csv(cls, path) -> "PhCurve":
        """Load a curve from CSV with header ``ph,value``; ``#`` comments allowed."""
        return cls(*read_two_column_csv(path, ("ph", "value")))


def read_two_column_csv(path, header: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    """The two numeric columns of a CSV whose first line is ``header``.

    Blank lines and ``#`` comments are skipped. A file that is not UTF-8, a
    wrong header, a row that is not two finite numbers, or a file without
    data rows raises `ConfigurationError` naming the file and line.
    """
    path = Path(path)
    rows = []
    seen_header = False
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cols = line.split(",")
        if not seen_header:
            if [c.strip().lower() for c in cols] != list(header):
                raise ConfigurationError(f"{path}:{lineno}: expected header "
                                         f"{','.join(header)!r}, got {line!r}")
            seen_header = True
            continue
        try:
            x, y = map(float, cols)  # also raises on a row of the wrong width
        except ValueError:
            x = y = math.nan
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ConfigurationError(f"{path}:{lineno}: expected two finite "
                                     f"numbers, got {line!r}")
        rows.append((x, y))
    if not rows:
        raise ConfigurationError(f"{path}: no data rows")
    arr = np.array(rows)
    return arr[:, 0], arr[:, 1]


def packaged_curve_path(stem: str) -> Path:
    """Path of a curve CSV shipped with the package (e.g. 'ipilimumab_like_charge')."""
    ref = resources.files("depotsim").joinpath(f"data/{stem}.csv")
    p = Path(str(ref))
    if not p.exists():
        raise ConfigurationError(f"no packaged curve named {stem!r}")
    return p


def load_drug_curves(preset: str) -> tuple["PhCurve", "PhCurve", "PhCurve"]:
    """Load the packaged (charge, ka, kd) curve triple for a drug preset."""
    return tuple(PhCurve.from_csv(packaged_curve_path(f"{preset}_{kind}"))
                 for kind in ("charge", "ka", "kd"))


@dataclass(frozen=True)
class SpeciesSpec:
    """Per-ion physical constants; valences are the module's ``Z_*``."""

    name: str
    diffusivity: float  # cm^2/s
    c_init: float  # mol/cm^3

    def __post_init__(self):
        if self.diffusivity <= 0:
            raise ConfigurationError(f"diffusivity of {self.name} must be > 0")

    def mobility(self, constants: PhysicalConstants) -> float:
        """Ion mobility mu = D/(R*T), derived, never stored."""
        return self.diffusivity / constants.rt


@dataclass
class SpeciesTable:
    """The four-species system: Na+, H+, drug, and the eliminated Cl-."""

    sodium: SpeciesSpec
    hydrogen: SpeciesSpec
    drug: SpeciesSpec
    chloride: SpeciesSpec  # eliminated via electroneutrality


@dataclass(frozen=True)
class BindingParams:
    """Matrix-binding kinetics: association/dissociation curves and capacity."""

    ka_curve: PhCurve  # cm^3/mol/s
    kd_curve: PhCurve  # 1/s
    k_e: float  # 1/s, elimination of bound drug
    b_max: float  # mol/cm^3, bound concentration at saturation

    def __post_init__(self):
        if self.k_e < 0:
            raise ConfigurationError("k_e must be >= 0")
        if self.b_max <= 0:
            raise ConfigurationError("b_max must be > 0")
        probe = np.linspace(3.0, 12.0, 181)
        if np.any(self.ka_curve(probe) < 0) or np.any(self.kd_curve(probe) < 0):
            raise ConfigurationError("rate curves must be >= 0 on pH in [3, 12]")


@dataclass(frozen=True)
class StarlingParams:
    """Blood filtration / lymphatic uptake coefficients."""

    l_pb: float  # cm^3/N/s, hydraulic conductivity of blood vessels
    l_pl: float  # cm^3/N/s, hydraulic conductivity of lymphatics
    sbv: float  # 1/cm, blood vessel area per tissue volume
    p_b: float  # N/cm^2, blood capillary pressure
    p_l: float  # N/cm^2, lymphatic pressure
    sigma_r: float  # reflection coefficient
    pi_b: float  # N/cm^2, blood osmotic pressure
    pi_i: float  # N/cm^2, interstitial osmotic pressure

    def __post_init__(self):
        if not 0.0 <= self.sigma_r <= 1.0:
            raise ConfigurationError("sigma_r must lie in [0, 1]")


@dataclass(frozen=True)
class TissueLayer:
    name: str
    thickness: float  # cm
    permeability: float  # cm^2
    slv: float  # 1/cm, lymphatic vessel area per tissue volume

    def __post_init__(self):
        if self.thickness <= 0:
            raise ConfigurationError(f"layer {self.name}: thickness must be > 0")
        if self.permeability <= 0:
            raise ConfigurationError(f"layer {self.name}: permeability must be > 0")
        if self.slv < 0:
            raise ConfigurationError(f"layer {self.name}: lymphatic area must be >= 0")


@dataclass
class TissueLayers:
    """Layer stack tiling [0, H] in z; skin surface at z = H (top = dermis)."""

    layers: tuple[TissueLayer, ...]  # ordered bottom (z=0) to top (z=H)
    porosity: float  # shared across layers

    def __post_init__(self):
        if not 0 < self.porosity < 1:
            raise ConfigurationError("porosity must lie in (0, 1)")
        if len(self.layers) == 0:
            raise ConfigurationError("need at least one tissue layer")
        bounds = np.concatenate([[0.0], np.cumsum([l.thickness for l in self.layers])])
        self._bounds = bounds

    def layer_index(self, z) -> np.ndarray:
        """Index of the layer containing each z (interfaces belong to the upper layer)."""
        return np.searchsorted(self._bounds[1:-1], np.asarray(z, dtype=float),
                               side="right")

    def permeability_at(self, z) -> np.ndarray:
        kappa = np.array([l.permeability for l in self.layers])
        return kappa[self.layer_index(z)]

    def slv_at(self, z) -> np.ndarray:
        slv = np.array([l.slv for l in self.layers])
        return slv[self.layer_index(z)]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def recover_chloride(c_na, c_h, c_mab, z_mab):
    """Chloride closing the electroneutrality constraint,
    c_Cl = -(1/z_Cl) * (z_Na c_Na + z_H c_H + z_mAb c_mAb).

    A negative result (possible only for strongly negative drug charge) is
    returned as it is, for the caller to judge: `orchestrator._admit` retries
    a step with one, `syringe_composition` rejects the formulation.
    """
    return -(Z_NA * np.asarray(c_na) + Z_H * np.asarray(c_h)
             + np.asarray(z_mab) * np.asarray(c_mab)) / Z_CL


def syringe_composition(buffer_ph: float, mg_per_ml: float, molar_mass: float,
                        z_drug_at_buffer: float, c_na_tissue: float) -> dict[str, float]:
    """Per-species syringe concentrations (mol/cm^3) for a formulation.

    Na+ rides at three times its tissue level ``c_na_tissue``; H+ follows the
    buffer pH; Cl- closes the electroneutral balance of the injectate.
    """
    if not 3.0 <= buffer_ph <= 12.0:
        raise ConfigurationError("buffer pH must lie in [3, 12]")
    if molar_mass <= 0:
        raise ConfigurationError("molar mass must be > 0")
    if mg_per_ml < 0:
        raise ConfigurationError("formulation concentration must be >= 0")
    c_na = 3.0 * c_na_tissue
    c_h = 10.0 ** (-buffer_ph) / MOL_PER_CM3_TO_MOL_PER_L
    c_mab = (mg_per_ml * 1.0e-3) / molar_mass
    c_cl = float(recover_chloride(c_na, c_h, c_mab, z_drug_at_buffer))
    if c_cl < 0:
        raise ConfigurationError(
            "unbalanced formulation: electroneutral chloride would be negative"
        )
    return {"na": c_na, "h": c_h, "mab": c_mab, "cl": c_cl}
