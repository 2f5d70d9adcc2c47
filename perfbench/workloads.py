"""Workload definitions: scenario settings per profile and the split measure.

Two profiles share the workload names. ``bench`` is what the benchmark
measures; ``tiny`` is the test-size mesh the smoke test uses so that every
workload finishes in about a second. Each profile's settings are applied on
top of the package defaults (``config.SCHEMA``).

Why these workloads:

- ``injection_fine``: a fine graded mesh and a 6 s injection phase with flow
  on, so large-matrix LU, the pressure solve and Darcy advection dominate;
  the reduced phase is only 0.5 h on a 16x16 mesh.
- ``long_coarse``: a small injection mesh and the full 36 h reduced phase on
  a 16x16 mesh, so step count, per-call sparse assembly and small LUs
  dominate. Its 30 h split is the accuracy guard for time-step changes.
- ``sweep_pair``: a ``buffer_ph`` sweep of eight small scenarios on a
  two-worker process pool, so per-scenario set-up, the pool and the output
  writes weigh more, and the pH-dependent binding and charge curves are
  spanned. The seed draws the order in which the eight values are submitted.

The bench sizes are cut down from the desk profile (72x72 fine, dt 0.05 s,
10 s injection phase) so that one run holds over a dozen pipelines, because
single pipelines on a shared 2-core machine vary by about 10% from one to
the next and only the median of many is steady: the injection phase lasts
6 s (the 5 s injection and 1 s after it) at dt 0.25 s (24 steps), and
``long_coarse`` caps the long-phase step at 600 s (about 250 steps).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: settings each tight-tolerance reference divides by this factor
TIGHT_DIVISOR = 10
TIGHT_KEYS = ("phases.short_dt_s", "phases.long_dt_min_s", "phases.long_dt_max_s")

SWEEP_AXIS = "buffer_ph"
SWEEP_VALUES = (4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0)
SWEEP_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    settings: dict
    sweep_values: tuple = field(default=())

    @property
    def is_sweep(self) -> bool:
        return bool(self.sweep_values)

    def config_text(self, overrides: dict | None = None) -> str:
        merged = {**self.settings, **(overrides or {})}
        return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                       for k, v in merged.items())

    def cases(self) -> list[tuple[str, dict]]:
        """(label, overrides) of every scenario the workload runs."""
        if not self.is_sweep:
            return [("base", {})]
        return [(case_label(v), {"formulation.buffer_ph": v})
                for v in self.sweep_values]


def case_label(value) -> str:
    return f"{SWEEP_AXIS}={value!r}"


_TINY_MESH = {
    "mesh.fine_nr": 20, "mesh.fine_nz": 20, "mesh.fine_grading": 1.12,
    "mesh.coarse_nr": 14, "mesh.coarse_nz": 14,
    "phases.short_dt_s": 0.5, "phases.short_horizon_s": 6.0,
    "phases.long_dt_max_s": 120.0,
    "output.cadence_s": 1.0, "output.long_cadence_s": 120.0,
}

PROFILES: dict[str, dict[str, Workload]] = {
    "bench": {
        "injection_fine": Workload("injection_fine", {
            "mesh.fine_nr": 72, "mesh.fine_nz": 72, "mesh.fine_grading": 1.035,
            "mesh.coarse_nr": 16, "mesh.coarse_nz": 16,
            "phases.short_dt_s": 0.25, "phases.short_horizon_s": 6.0,
            "phases.long_horizon_h": 0.5,
        }),
        "long_coarse": Workload("long_coarse", {
            "mesh.fine_nr": 24, "mesh.fine_nz": 24, "mesh.fine_grading": 1.06,
            "mesh.coarse_nr": 16, "mesh.coarse_nz": 16,
            "phases.short_dt_s": 0.25, "phases.short_horizon_s": 6.0,
            "phases.long_dt_max_s": 600.0, "phases.long_horizon_h": 36.0,
        }),
        "sweep_pair": Workload("sweep_pair", {
            "mesh.fine_nr": 24, "mesh.fine_nz": 24, "mesh.fine_grading": 1.08,
            "mesh.coarse_nr": 16, "mesh.coarse_nz": 16,
            "phases.short_dt_s": 0.5, "phases.long_horizon_h": 1.0,
        }, sweep_values=SWEEP_VALUES),
    },
    "tiny": {
        "injection_fine": Workload("injection_fine", {
            **_TINY_MESH, "phases.long_horizon_h": 0.1}),
        "long_coarse": Workload("long_coarse", {
            **_TINY_MESH, "phases.long_horizon_h": 0.5}),
        "sweep_pair": Workload("sweep_pair", {
            **_TINY_MESH, "phases.long_horizon_h": 0.1},
            sweep_values=(5.0, 6.5, 8.0)),
    },
}

WORKLOADS = tuple(PROFILES["bench"])

