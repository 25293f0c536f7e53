"""surveyblend: estimate a population mean by blending a nonprobability
sample with a probability sample.

The package provides reweighted point estimators (IPW and doubly robust),
closed-form variance and cross-covariance estimators for them, optimal
pooling with the probability-sample estimate, and a repeated-sampling
Monte Carlo harness that serves as the verification oracle.
"""

__version__ = "0.1.0"

from .combiner import PooledReport, combine, pool, pooled_variance, z_score
from .estimators import Analysis, EstimatorKind
from .nuisance import NuisanceFit, SolverError, fit_nuisance
from .simulate import (
    Covariate,
    EvalPlan,
    MonteCarloSummary,
    ScenarioConfig,
    SimulationError,
    SummaryRow,
    draw_samples,
    generate_population,
    run_replications,
)
from .types import (
    DesignKind,
    FinitePopulation,
    FitMethod,
    ModelSpec,
    ObservedData,
    OutcomeFamily,
    ValidationError,
    validate,
)
from .uncertainty import (
    CenteringTerms,
    Regime,
    ResidualVarianceModel,
    centering_terms,
    cov_estimate,
    regression_adjustment,
    residual_variance,
    variance,
)
