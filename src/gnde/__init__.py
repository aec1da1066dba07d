"""Graph neural differential equations on graphon-sampled graphs.

Kernel catalog, deterministic sampling regimes, spectral-convolution
dynamics with three interchangeable integrators, and the error/bound
machinery that turns the convergence and transferability estimates into
executable checks.  The ``gnde`` console script exposes the experiment
pipelines; see the module docstrings for library use.
"""

from . import analysis, catalog, dynamics, kernels, neural, sampling
from .analysis import (
    BoundInputs,
    fit_rate,
    rate_constant,
    rate_form,
    stability_bound_check,
    stability_constants,
    trajectory_sup_absolute_error,
    trajectory_sup_errors,
    transferability_gap_check,
)
from .catalog import (
    CATALOG_NAMES,
    GraphonSpec,
    box_counting_dimension,
    evaluate,
    from_name,
    hom_density_graph,
    hom_density_graphon,
    kernel_distance,
    subgraph_distances,
    support_boundary,
)
from .dynamics import SolverConfig, TrajectoryRecord, integrate
from .errors import (
    ComplexityGuardError,
    ConfigError,
    DegenerateReferenceError,
    DimensionMismatchError,
    DivergenceError,
    EdgeListParseError,
    GndeError,
    InsufficientDataError,
    InvalidParameterError,
    LogDomainError,
    NonConvergenceError,
    UnsupportedOperationError,
    WrongRegimeError,
)
from .neural import Activation, FilterBank, random_filter_bank
from .sampling import (
    FeatureFunctionSpec,
    FeatureMatrix,
    PiecewiseConstantFunction,
    SampledGraph,
    graph_shift,
    induce_features,
    induce_kernel,
    overlay_l2_distance,
    pwc_l2_norm,
    sample_features_cell_average,
    sample_features_pointwise,
    sample_system,
    sample_unweighted,
    sample_weighted,
)

__version__ = "0.1.0"
