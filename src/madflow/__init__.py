"""Spectral laboratory for wave mechanics and mass-transport geometry on the circle.

The package evolves the same physics through two exactly related lenses: a
split-step wave solver for complex fields, and hydrodynamic / gradient-descent
flows for probability densities equipped with the transport metric.  Scenario
configs tie solvers to property checks; the `madflow` CLI runs them.
"""

from .dynamics import (TrajectoryRecord, dlss_evolve, heat_evolve,
                       madelung_evolve, schrodinger_evolve)
from .errors import (AliasError, BaseMismatchError, CompatibilityError,
                     ConfigError, CutError, FoldError, MadflowError,
                     NodeError, NonFiniteError, StabilityError, WindingError)
from .fields import (DensityField, FunctionalValues, PhysicsConstants,
                     PotentialField, WaveField, density_floor, functionals,
                     normalize_density, unwrapped_phase)
from .grid import TAU, Grid
from .madelung import (complex_symplectic_form, madelung_section,
                       madelung_transform, polar_wave, submersion_pullback_defect,
                       wave_hamiltonian)
from .scenarios import (ScenarioConfig, builtin_config, builtin_names,
                        run_builtin, run_scenario, run_suite)
from .transport import (displacement_interpolation, path_action,
                        quantile_table, w2_distance)
from .wgeom import (StandardVectorFieldSpec, TangentBundlePoint, TangentVector,
                    covariant_acceleration, fisher_generator, hamiltonian,
                    hamiltonian_vector_field, lagrangian, pushforward_density,
                    solve_velocity_potential, symplectic_form, tangent_inner,
                    wasserstein_gradient)

__version__ = "0.1.0"
