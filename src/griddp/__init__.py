"""User-level differentially private releases over grid-partitioned data.

The pipeline: exact sensitivity and worst-case-bias calculators feed
per-grid error budgets; the suppression routine trades those budgets for a
smaller composition factor; mechanisms release noisy statistics; synthetic
generators and Monte Carlo loops evaluate the whole stack.
"""

from types import ModuleType as _ModuleType

from .composition import (
    ClipUserResult,
    ErrorBudget,
    PseudoUserResult,
    Suppression,
    clip_user,
    grid_error,
    privacy_loss,
    pseudo_user_optimize,
)
from .dataset import (
    ClipPlan,
    Dataset,
    GridStats,
    OccupancyArray,
    grid_stats,
    parse_dataset,
    parse_occupancy,
    population_stats,
    write_dataset,
)
from .errors import GridDPError
from .grouping import (
    ArrayGroup,
    array_count_k,
    array_means,
    best_fit,
    best_fit_count,
    median_mub,
    optimized_mub,
    wrap_around,
)
from .harness import (
    CurvePoint,
    ExperimentConfig,
    ScalingLawCheck,
    check_scaling_laws,
    mae_eval,
    monte_carlo_error,
    monte_carlo_privacy,
)
from .mechanisms import (
    IntervalEstimate,
    MechanismOutput,
    MechanismParams,
    array_average_release,
    baseline_release,
    clip_release,
    concentration_tau,
    levy_release,
    post_release,
    private_interval,
    private_quantile,
    quantile_release,
    release,
    sample_laplace,
)
from .rng import RngStream, laplace_inverse_cdf
from .sensitivity import (
    GainReport,
    SensitivityReport,
    array_avg_sensitivity,
    brute_force_variance_sensitivity,
    clipped_mean_sensitivity,
    clipped_variance_sensitivity,
    gain_report,
    mean_sensitivity,
    variance_sensitivity,
)
from .synth import (
    SynthParams,
    ValueModel,
    generate_occupancy,
    generate_values,
    scale_occupancy,
)
from .worst_case_bias import (
    BiasReport,
    extremal_bias_dataset,
    mean_bias,
    variance_bias,
)

# every public name imported above that is not a module
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
