"""Self-intersection local time functionals of planar Brownian motion.

Monte Carlo estimators for the renormalized k-fold self-intersection local
time of a planar Wiener path under scalar, Jacobian-induced, and
Hilbert-valued weight functions, together with covering-brick diagnostics
(isonormal sampling, entropy-integral estimates) and functionals of smooth
images of the path.
"""

__version__ = "0.1.0"

from .exceptions import ConfigError, NotPositiveSemidefiniteError, SingularityError
from .path_sim import PlanarPath, sample_path, sample_path_points
from .slt_core import (RENORM_DOUBLE_LIMIT, CauchyRow, EnsembleConfig,
                       EnsembleResult, MCStats, SimplexEstimate,
                       cauchy_diagnostic, double_mean, dynkin_renormalize,
                       ensemble_renormalized, renorm_double_mean,
                       simplex_functional, simplex_levels)
from .weights import (CovarianceOracle, HilbertSltResult, HilbertWeight,
                      OccupationField, RadialParameterMap, ScalarWeight,
                      SupProfile, coordinate_sup_profile, jacobian_weight,
                      occupation_density_field, occupation_kernel,
                      rare_spike_weight, spike_gram, spike_grid)
from .brick import (Brick, FiniteCompact, IsonormalSample, brick_contains,
                    canonical_metric, covering_brick, dudley_estimate,
                    isonormal_sample, minkowski_cover, project_cover)
from .image import (DeltaRow, Diffeomorphism, ImageIdentity, affine_map,
                    builtin_maps, bump_function, delta_family_check, image_slt,
                    perturbation_map)
from .cli import (CSV_COLUMNS, ExperimentConfig, ResultRow, RunResult, parse_config,
                  run_experiment)
