"""Order-of-accuracy verification of the discrete operators.

Manufactured solutions for the pressure and potential solves, the analytic
spreading Gaussian for pure diffusion, and the exact linear-ODE solution for
the binding exchange. The binding study steps the pipeline's own update
(`depotsim.binding`: association implicit in the free field on the old
capacity, release explicit) with the free field held fixed. The spatial
schemes are second order; the time integrators are first order.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from verification import (binding_order, diffusion_order, potential_order,
                          pressure_order)

print("fitted convergence orders (4-mesh / 4-step ladders):")
for label, fn, expected in (
        ("pressure solve (manufactured solution)", pressure_order, 2.0),
        ("potential solve (manufactured solution)", potential_order, 2.0),
        ("pure diffusion vs heat kernel", diffusion_order, 2.0),
        ("binding update vs exact ODE", binding_order, 1.0)):
    order = fn()
    print(f"  {label:42s} {order:5.2f}   (formal {expected:.0f})")
