"""Order-of-accuracy studies shared by the unit and acceptance tests.

Each study returns the fitted convergence slope. Spatial studies use
manufactured solutions whose boundary behavior matches the solver's built-in
conditions; the transport study uses the analytic spreading Gaussian with the
time step shrinking as h^2 so the first-order-in-time error stays
subdominant.
"""

import numpy as np

from depotsim._assembly import KrylovCounts, SpeciesSolver, face_averages
from depotsim.binding import advance_bound, exchange_rates
from depotsim.config import default_config
from depotsim.flow import PressureSolver
from depotsim.mesh import build_graded_mesh, nodal_integral
from depotsim.params import BindingParams, PhCurve
from depotsim.potential import _solve_neumann
from depotsim.transport import TransportStepInputs, advance_species

DEFAULTS = default_config()
ETA = DEFAULTS["flow.viscosity"]
CONSTANTS = DEFAULTS.constants()


def _fit_order(spacings, errors):
    return float(np.polyfit(np.log(spacings), np.log(errors), 1)[0])


def _l2(err, weight, mesh):
    return float(np.sqrt(nodal_integral(err**2, mesh)
                         / nodal_integral(weight**2, mesh)))


def pressure_order(sizes=(16, 24, 36, 54)) -> float:
    """Spatial order of the pressure solve on p* = cos(pi r/2R) cos(pi z/H)."""
    kappa, big_r, big_h = 1e-9, 5.0, 5.0
    a, b = np.pi / (2 * big_r), np.pi / big_h

    errors, spacings = [], []
    for n in sizes:
        mesh = build_graded_mesh(big_r, big_h, n, n, focus=(0, 2.5), grading=1.0)
        exact = np.cos(a * mesh.rr) * np.cos(b * mesh.zz)
        lap = (-a * np.cos(b * mesh.zz)
               * (a * np.sinc(a * mesh.rr / np.pi) + a * np.cos(a * mesh.rr))
               - b**2 * exact)
        p = PressureSolver(mesh, kappa, ETA, 0.0, 0.0).solve(-(kappa / ETA) * lap)
        errors.append(_l2(p - exact, exact, mesh))
        spacings.append(big_r / n)
    return _fit_order(spacings, errors)


def potential_order(sizes=(16, 24, 36, 54)) -> float:
    """Spatial order of the gauge-fixed Neumann solve on cos(pi r/R) cos(pi z/H)."""
    big_r = big_h = 5.0
    a, b = np.pi / big_r, np.pi / big_h
    sigma0 = 2e-8

    errors, spacings = [], []
    for n in sizes:
        mesh = build_graded_mesh(big_r, big_h, n, n, focus=(0, 2.5), grading=1.0)
        exact = np.cos(a * mesh.rr) * np.cos(b * mesh.zz)
        lap = (-a * np.cos(b * mesh.zz)
               * (a * np.sinc(a * mesh.rr / np.pi) + a * np.cos(a * mesh.rr))
               - b**2 * exact)
        phi = _solve_neumann(mesh, np.full((mesh.nz1, mesh.nr1), sigma0),
                             -sigma0 * lap * mesh.node_volumes)
        ref = exact - nodal_integral(exact, mesh) / mesh.domain_volume  # the solve's gauge
        errors.append(_l2(phi - ref, ref, mesh))
        spacings.append(big_r / n)
    return _fit_order(spacings, errors)


def diffusion_order(sizes=(24, 32, 48, 64)) -> float:
    """Spatial order of pure-diffusion transport against the heat kernel."""
    species = DEFAULTS.species()
    d_mab = species.drug.diffusivity
    z0 = 2.5
    t0 = 0.35**2 / (4 * d_mab)
    t1 = 0.45**2 / (4 * d_mab)

    def exact(mesh, t):
        rho2 = mesh.rr**2 + (mesh.zz - z0) ** 2
        return (4 * np.pi * d_mab * t) ** -1.5 * np.exp(-rho2 / (4 * d_mab * t))

    errors, spacings = [], []
    for n in sizes:
        mesh = build_graded_mesh(5, 5, n, n, focus=(0, z0), grading=1.0)
        shape = (mesh.nz1, mesh.nr1)
        steps = max(4, round(8 * (n / sizes[0]) ** 2))
        inputs = TransportStepInputs(
            dt=(t1 - t0) / steps,
            u=np.zeros(mesh.n_faces), phi=np.zeros(shape), q_p=np.zeros(shape),
            c_max={"na": 4.2e-4, "h": 1e-9, "mab": 6.67e-7}, porosity=0.1,
            j_l=0.0, binding_assoc=0.0, binding_release=0.0)
        c = exact(mesh, t0)
        c_na = np.full(shape, 1.4e-4)
        c_h = np.full(shape, 4e-11)
        for _ in range(steps):
            solvers = tuple(SpeciesSolver(mesh, KrylovCounts()) for _ in range(3))
            _, _, c = advance_species(mesh, c_na, c_h, c, face_averages(mesh, np.zeros(shape)),
                                      species, CONSTANTS, inputs, solvers)
        errors.append(_l2(c - exact(mesh, t1), exact(mesh, t1), mesh))
        spacings.append(5 / n)
    return _fit_order(spacings, errors)


def binding_order(step_counts=(8, 16, 32, 64)) -> float:
    """Temporal order of the stepper's binding exchange, with the free field
    held fixed, against the exact ODE."""
    binding = BindingParams(PhCurve([3, 11], [5e4, 5e4]),
                            PhCurve([3, 11], [2e-4, 2e-4]), k_e=0.0, b_max=1e-9)
    porosity, c = 0.1, 5e-7
    a = 5e4 * porosity * c
    lam = a + 2e-4
    c_eq = a * 1e-9 / lam
    t_end = 2.0 / lam
    exact = c_eq * (1.0 - np.exp(-lam * t_end))

    errors, dts = [], []
    for n_steps in step_counts:
        dt = t_end / n_steps
        cb = 0.0
        for _ in range(n_steps):
            assoc, release = exchange_rates(cb, 7.0, binding, porosity)
            cb = advance_bound(cb, c, assoc, release, dt, binding)
        errors.append(abs(float(cb) - exact))
        dts.append(dt)
    return _fit_order(dts, errors)
