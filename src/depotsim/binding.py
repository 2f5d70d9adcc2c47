"""Matrix binding of the drug: the exchange every step of the pipeline runs.

Bound drug c_B (mol per tissue volume) evolves node by node:

    dc_B/dt = k_a(pH) n c (B_max - c_B) - k_d(pH) c_B - k_e c_B

A step linearises the exchange about the old bound field. Association is an
implicit sink on the new free field c', with its rate sized by the old
capacity, k_a n (B_max - c_B); release k_d c_B is an explicit source. The free
solve takes the flux k_a n (B_max - c_B) c' - k_d c_B out of the pore fluid
and `advance_bound` books the same flux into c_B, so free + bound + eliminated
closes to round-off at any dt. Elimination (k_e) removes bound drug directly
and never passes through the free equation. A dt too large for the
linearisation carries c_B outside [0, B_max]; `orchestrator._admit`, the one
place a step is accepted, rejects that step, never clamps it, and the stepper
retries it with half the dt.
"""

from __future__ import annotations

from .params import BindingParams


def exchange_rates(c_b, ph, binding: BindingParams, porosity: float):
    """(assoc, release) on the old bound field.

    ``assoc`` = k_a(pH) n (B_max - c_B) is the association rate (1/s) that
    multiplies the new free field; ``release`` = k_d(pH) c_B (mol/cm^3/s).
    """
    assoc = binding.ka_curve(ph) * porosity * (binding.b_max - c_b)
    release = binding.kd_curve(ph) * c_b
    return assoc, release


def advance_bound(c_b, c_mab_new, assoc, release, dt: float,
                  binding: BindingParams):
    """Bound field after one step that took ``assoc * c_mab_new - release``
    out of the free pool, as computed: it may leave [0, B_max]."""
    exchange = assoc * c_mab_new - release  # mol/cm^3/s into the matrix
    return c_b + dt * (exchange - binding.k_e * c_b)
