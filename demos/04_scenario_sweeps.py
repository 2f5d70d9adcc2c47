"""Scenario sweeps through the CLI machinery: buffer pH on a coarse profile.

Demonstrates the sweep runner that the `depotsim sweep` subcommand wraps;
each value lands in its own run directory with a combined summary CSV of the
30-hour dose splits.
"""

import tempfile
from pathlib import Path

import depotsim as ds
from depotsim.sweep import run_sweep

config = ds.default_config().with_values({
    "mesh.fine_nr": 48, "mesh.fine_nz": 48, "mesh.fine_grading": 1.06,
    "mesh.coarse_nr": 32, "mesh.coarse_nz": 32,
    "phases.short_dt_s": 0.1, "phases.long_horizon_h": 32.0,
    "output.long_cadence_s": 1800.0,
})

# the run directories go to a temporary directory removed at the end
with tempfile.TemporaryDirectory(prefix="depotsim_sweep_") as tmp:
    outdir = Path(tmp)
    print(f"sweeping buffer pH into {outdir} (coarse profile, a few minutes)")
    entries = run_sweep(config, "buffer_ph", [5.0, 7.4, 9.0], outdir)
    summary = (outdir / "sweep_summary.csv").read_text()

print(f"\n{'buffer pH':>9s} {'free %':>8s} {'bound %':>8s} {'absorbed %':>11s}")
for e in entries:
    if e.ok:
        print(f"{e.value:9.1f} {e.free_pct:8.2f} {e.bound_pct:8.2f} "
              f"{e.absorbed_pct:11.2f}")
    else:
        print(f"{e.value:9.1f}  failed: {e.error}")
print(f"\ncombined summary, sweep_summary.csv:\n{summary}", end="")
print("equivalent CLI:  depotsim sweep <config> --axis buffer_ph "
      "--values 5,7.4,9")
