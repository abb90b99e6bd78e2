"""Regression imputation for survey samples under item nonresponse:
designs, estimators, model selection, variance estimation, and a Monte
Carlo study harness.
"""

import os

# single-threaded BLAS keeps replication arithmetic identical across
# worker counts; matrices here are far too small to benefit from more
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from .design import (  # noqa: E402
    SampleDraw,
    draw_srswor,
    draw_stratified,
    neyman_allocation,
    stratum_sizes,
)
from .errors import (  # noqa: E402
    ConfigError,
    EstimationFailureError,
    SelectionFailureError,
    SurveyImputeError,
)
from .estimators import (  # noqa: E402
    FitResult,
    ModelSpec,
    classify_model,
    design_matrix,
    fit_candidates,
    ht_mean,
    imputed_means,
    nested_candidates,
)
from .population import (  # noqa: E402
    generate_population,
    generate_response,
    true_support,
)
from .selection import (  # noqa: E402
    parse_criterion,
    score_candidates,
    select,
)
from .variance import (  # noqa: E402
    Estimate,
    confidence_interval,
    estimate_model,
    sigma2_hat,
    v1_hat,
)
from .config import (  # noqa: E402
    EstimateConfig,
    StudyConfig,
    load_json,
    parse_estimate_config,
    parse_study_config,
    resolved_config,
)
from .study import (  # noqa: E402
    ReplicationRecord,
    StudySummary,
    SummaryRow,
    coverage_probability,
    draw_replication,
    mc_loss,
    relative_bias,
    relative_efficiency,
    reps_to_csv,
    run_records,
    run_replication,
    summarize,
    summary_to_csv,
    variance_rb,
)

__version__ = "0.1.0"
