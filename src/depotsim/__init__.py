"""Axisymmetric multiphysics model of subcutaneous antibody injection.

Couples electroneutral Nernst-Planck ion transport, Darcy porous-media flow
with capillary/lymphatic exchange, and pH-dependent matrix binding on a
graded (r, z) grid, with a coarse-mesh reduced model for multi-hour horizons.
"""

from .config import SimulationConfig, default_config, load_config, load_config_text
from .flow import (InjectionProtocol, PressureSolver, SolverError,
                   darcy_mobility, injection_source, node_speed, starling_lymph,
                   tissue_pressure, velocity_from_pressure)
from .mesh import AxiMesh, FieldState, build_graded_mesh, project_field
from .metrics import (MetricSeries, ball, ball_average, domain_average,
                      dose_fractions, net_charge_density, plume_volume)
from .orchestrator import (DoseLedger, PipelineResult, Simulation,
                           StaggeredStepper)
from .params import (BindingParams, ConfigurationError, PhCurve,
                     PhysicalConstants, SpeciesSpec, SpeciesTable,
                     StarlingParams, TissueLayer, TissueLayers, load_drug_curves,
                     recover_chloride, syringe_composition)
from .potential import PotentialCoefficients, assemble_potential, solve_potential
from .transport import TransportStepInputs, advance_species

__version__ = "0.1.0"
