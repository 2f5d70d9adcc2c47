"""Scoring a simulated depot-clearance curve against external reference data.

The comparator reads a user-supplied CSV of remaining-depot fractions over
time (for example digitized clearance measurements), aligns the simulation on
the reference time grid, and reports RMSE and maximum deviation. Here a
synthetic reference stands in for real data to show the workflow.
"""

import tempfile
from pathlib import Path

import numpy as np

import depotsim as ds
from depotsim.io import compare_reference, load_reference_csv
from depotsim.orchestrator import Simulation

config = ds.default_config().with_values({
    "mesh.fine_nr": 48, "mesh.fine_nz": 48, "mesh.fine_grading": 1.06,
    "mesh.coarse_nr": 32, "mesh.coarse_nz": 32,
    "phases.short_dt_s": 0.1, "formulation.drug": "igg1_like",
    "output.long_cadence_s": 1800.0,
})
print("running the lower-pI molecule pipeline ...")
result = Simulation(config).run_pipeline()
series = result.series
t_h = np.asarray(series.time) / 3600.0
remaining = (series.column("free_pct") + series.column("bound_pct")) / 100.0

# stand-in for digitized experimental clearance data
t_ref = np.arange(1.0, 33.0, 2.0)
ref_vals = np.exp(-t_ref / 40.0)
with tempfile.TemporaryDirectory(prefix="depotsim_ref_") as tmp:
    ref_path = Path(tmp) / "clearance.csv"
    ref_path.write_text("time_h,remaining_fraction\n" + "\n".join(
        f"{t},{v:.4f}" for t, v in zip(t_ref, ref_vals)) + "\n")
    reference = load_reference_csv(ref_path)

report = compare_reference(t_h, remaining, reference)
print(f"\nreference: {report.label} ({report.time_h.size} points)")
print(f"RMSE of remaining-depot fraction: {report.rmse:.4f}")
print(f"max deviation:                    {report.max_deviation:.4f}")
print("\nfirst rows of the aligned table:")
print(f"{'t (h)':>6s} {'reference':>10s} {'simulated':>10s}")
for t, r, s in list(zip(report.time_h, report.reference, report.simulated))[:6]:
    print(f"{t:6.1f} {r:10.3f} {s:10.3f}")
print("\nequivalent CLI:  depotsim compare <run-dir> clearance.csv")
