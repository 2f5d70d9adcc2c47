"""Pointwise kinetics of drug binding to the extracellular matrix.

Bound drug c_B (mol per tissue volume) evolves node-by-node:

    dc_B/dt = k_a(pH) n c (B_max - c_B) - k_d(pH) c_B - k_e c_B

The free pool exchanges only the association/dissociation part; elimination
(k_e) removes bound drug from the system directly and never passes through
the free equation. Keeping these two couplings consistent is what makes the
free + bound + eliminated budget close exactly.
"""

from __future__ import annotations

import numpy as np

from .params import BindingParams


def binding_sink(c_mab, c_b, k_a, k_d, k_e, porosity, b_max):
    """Rate at which matrix exchange feeds the free pool (release-positive).

    phi_B = k_d c_B - k_a n c (B_max - c_B); positive values mean dissociation
    is returning drug to the fluid, negative values mean net uptake. The free
    transport equation adds phi_B; the bound field gains -phi_B - k_e c_B.
    """
    c_mab = np.asarray(c_mab)
    c_b = np.asarray(c_b)
    return k_d * c_b - k_a * porosity * c_mab * (b_max - c_b)


def exchange_rate(c_mab, c_b, k_a, k_d, porosity, b_max):
    """Net association rate s_B = -phi_B (uptake-positive), used as the
    free-equation sink and as the charge source of the potential equation."""
    return -binding_sink(c_mab, c_b, k_a, k_d, 0.0, porosity, b_max)


def advance_binding(c_b, c_mab, ph, dt: float, binding: BindingParams,
                    porosity: float):
    """One backward-Euler step of the binding ODE with c frozen.

    The update has a closed form; for non-negative inputs it already lies in
    [0, B_max], so the clamp only guards round-off.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    k_a, k_d = binding.ka_curve(ph), binding.kd_curve(ph)
    a = k_a * porosity * np.asarray(c_mab)
    new = ((np.asarray(c_b) + dt * a * binding.b_max)
           / (1.0 + dt * (a + k_d + binding.k_e)))
    return np.clip(new, 0.0, binding.b_max)
