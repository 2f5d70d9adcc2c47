"""Electric potential from the summed, electroneutrality-reduced ion balance.

Multiplying each transported-species balance by its valence, summing, and
eliminating chloride through the electroneutrality constraint leaves one
elliptic equation for the potential:

    div( G ) + div( sigma grad Phi ) = z_drug * (J_l c_drug + s_B)

    G     = sum_i z_i n (D_i - D_Cl) grad c_i          (i = Na+, H+, drug)
    sigma = sum_i z_i F n (z_i mu_i - z_Cl mu_Cl) c_i

All boundaries are flux-free, so Phi is defined up to a constant. The solve
removes the discrete residual's total as a uniform volumetric source in the
dual-cell measure the balance rows are written in (compatibility), grounds
the operator at one node so that it is regular and stays symmetric positive
definite, and then shifts Phi to a zero domain average in the same measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _assembly as fv
from .flow import SolverError
from .mesh import AxiMesh
from .params import Z_CL, Z_H, Z_NA, PhysicalConstants, SpeciesTable


@dataclass
class PotentialCoefficients:
    """Assembled ingredients of the potential equation on one mesh."""

    sigma: np.ndarray  # effective conductivity-like coefficient, per node
    rhs: np.ndarray  # volumetric charge source z*(J_l c + s_B), per node
    div_g: np.ndarray  # outward-summed concentration-driven flux, per dual cell


def assemble_potential(mesh: AxiMesh, species: SpeciesTable,
                       constants: PhysicalConstants, porosity: float,
                       c_na: np.ndarray, c_h: np.ndarray, c_mab: np.ndarray,
                       z_mab: np.ndarray, z_mab_faces: np.ndarray,
                       j_l: np.ndarray | float,
                       binding_rate: np.ndarray | float) -> PotentialCoefficients:
    """Build sigma, the charge source, and the concentration-flux divergence.

    ``z_mab_faces`` is the drug's valence ``z_mab`` on every face,
    `_assembly.face_averages` of it, which the caller also hands to the
    drug's transport.

    ``binding_rate`` is the net free-to-bound exchange rate (association minus
    dissociation, mol/cm^3/s); together with the lymphatic sink it is the only
    charge source surviving the electroneutral summation.
    """
    n = porosity
    f_const = constants.faraday
    mu_cl = species.chloride.mobility(constants)
    d_cl = species.chloride.diffusivity

    # sigma and g start as 0.0, which the first species' term turns
    # into an array (0.0 + x is x), so no zero array is filled and added
    sigma = 0.0
    triples = (
        (species.sodium, c_na, Z_NA),
        (species.hydrogen, c_h, Z_H),
        (species.drug, c_mab, np.asarray(z_mab, dtype=float)),
    )
    for spec, c, z in triples:
        mu = spec.mobility(constants)
        sigma += z * f_const * n * (z * mu - Z_CL * mu_cl) * c

    if sigma.min() <= 0.0:
        raise SolverError("effective conductivity lost positivity; "
                          f"min sigma = {sigma.min():.3e}")

    # concentration-driven part: face fluxes of sum_i z_i n (D_i - D_Cl) grad c_i
    g = 0.0
    dg = fv.face_gradients(mesh, np.stack([c_na, c_h, c_mab]))
    for (spec, _, _), z, dc in zip(triples, (Z_NA, Z_H, z_mab_faces), dg):
        coef = n * (spec.diffusivity - d_cl)
        g += z * coef * dc
    div_g = fv.divergence_of_face_flux(mesh, g)

    # written into a full nodal array, even from scalar inputs
    rhs = np.multiply(np.asarray(z_mab, dtype=float),
                      np.asarray(j_l) * c_mab + np.asarray(binding_rate),
                      out=np.empty((mesh.nz1, mesh.nr1)))
    return PotentialCoefficients(sigma=sigma, rhs=rhs, div_g=div_g)


def solve_potential(coeffs: PotentialCoefficients, mesh: AxiMesh) -> np.ndarray:
    """Solve the pure-Neumann potential problem with zero-mean gauge.

    The summed balance div G + div(sigma grad Phi) = rhs rearranges to
    -div(sigma grad Phi) = div G - rhs, which is what the operator expects.
    """
    return _solve_neumann(mesh, coeffs.sigma,
                          coeffs.div_g - coeffs.rhs * mesh.node_volumes)


def _solve_neumann(mesh: AxiMesh, sigma: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A phi = b for the flux-free operator A = -div(sigma grad ./).

    The operator's nullspace is the constants, so b is first shifted to zero
    total (discrete compatibility): its total is taken out as the uniform
    volumetric source b.sum() / V of the domain volume V, integrated over
    each dual cell, the measure of the balance rows. The last node is then
    grounded: its own diagonal is added to its diagonal, which makes the
    operator regular and keeps it symmetric positive definite (Bochev &
    Lehoucq, SIAM Rev. 47, 2005). The columns of A sum to zero, so for a
    compatible b the grounded solution has phi = 0 at that node and solves
    every equation exactly. The gauge sum(node_volumes * phi) = 0 then
    fixes the constant. The last node is the last pivot of every band
    order: the condensed Cholesky of wide meshes keeps its colour and
    eliminates the other, so it stays the last node of the reduced band.
    Grounding it rather than node 0 left errors near 1e-13 instead of 1e-11
    of a refined solve on random 48x12 and 56x8 operators.
    """
    a = fv.diffusion_matrix(mesh, fv.harmonic_face_coefficients(mesh, sigma))
    a.data[a.pattern.diag[-1]] *= 2.0

    w = mesh.node_volumes.ravel()
    b = b.ravel() - w * (b.sum() / mesh.domain_volume)  # sums to zero to round-off

    try:
        lu = fv.factorize(mesh, a)
    except RuntimeError as exc:
        raise SolverError(f"potential factorization failed: {exc}") from exc
    phi = lu.solve(b)
    if not np.isfinite(phi).all():
        raise SolverError("potential solve produced non-finite values")
    phi -= np.dot(w, phi) / mesh.domain_volume
    return phi.reshape(mesh.nz1, mesh.nr1)
