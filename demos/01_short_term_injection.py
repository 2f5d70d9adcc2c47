"""Short-term injection dynamics on a desk-scale mesh.

Runs the 10-second injection phase and prints the near-source pressure and
velocity history, the depot pH, and the potential contrast between the depot
and the far field. Saves a figure when matplotlib is available.

Run time: about half a minute. For the full-resolution picture raise the
mesh to 200x200 and drop the step to 0.02 s (several minutes).
"""

import numpy as np

import depotsim as ds
from depotsim.orchestrator import Simulation

config = ds.default_config().with_values({
    "mesh.fine_nr": 72, "mesh.fine_nz": 72, "mesh.fine_grading": 1.035,
    "phases.short_dt_s": 0.05, "output.cadence_s": 0.1,
})

print("injecting 1 mL over 5 s at 8 mm depth (buffer pH "
      f"{config['formulation.buffer_ph']}, "
      f"{config['formulation.mg_per_ml']:.0f} mg/mL) ...")
result = Simulation(config).run_short_term(ds.MetricSeries(), ds.DoseLedger())
series = result.series
t = np.asarray(series.time)
p = series.column("pressure_ball_avg")
u = series.column("velocity_ball_max")

print(f"\npeak pressure near the needle tip: {p.max():6.1f} N/cm^2 "
      f"(at t = {t[p.argmax()]:.2f} s)")
print(f"peak interstitial speed:           {u.max():6.2f} cm/s")
print("the traces follow the source: rise, plateau, collapse at t = 5 s")
for probe in (0.2, 2.5, 4.8, 6.0, 10.0):
    k = np.argmin(np.abs(t - probe))
    print(f"  t = {t[k]:5.1f} s   p = {p[k]:8.3f} N/cm^2   |u| = {u[k]:7.4f} cm/s")

state = result.state
mesh = state.mesh
depot = mesh.ball_mask(mesh.injection_point, 0.3)
far = mesh.ball_mask((4.0, 1.0), 0.5)
print(f"\ndepot pH {state.ph[depot].mean():.2f} "
      f"(buffer was {config['formulation.buffer_ph']}); "
      f"far-field pH {state.ph[far].mean():.2f}")
print(f"potential depot minus far field: "
      f"{1e3 * (state.phi[depot].mean() - state.phi[far].mean()):+.2f} mV "
      "(the salt-rich depot sits above the dilute tissue)")
print(f"plume volume at t = 10 s: "
      f"{ds.plume_volume(state.c_mab, mesh):.1f} cm^3")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not available; skipping the figure")
else:
    fig, axes = plt.subplots(1, 2, figsize=(9, 3.4), constrained_layout=True)
    axes[0].plot(t, p)
    axes[0].axvspan(0, 5, alpha=0.15, color="gray")
    axes[0].set(xlabel="t (s)", ylabel="pressure (N/cm$^2$)",
                title="near-source pressure")
    axes[1].plot(t, u)
    axes[1].axvspan(0, 5, alpha=0.15, color="gray")
    axes[1].set(xlabel="t (s)", ylabel="max |u| (cm/s)",
                title="peak interstitial speed")
    fig.savefig("demo01_short_term.png", dpi=130)
    print("\nfigure written to demo01_short_term.png")
