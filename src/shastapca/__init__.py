"""Streaming heteroscedastic PCA with missing data.

Library layout:

- model: factor-model types, observed-entry log-likelihood, posterior stats.
- batch: alternating minorize-maximize batch solver and closed-form PPCA.
- shasta: the streaming stochastic-MM estimator with bounded surrogate state.
- baselines: PETRELS and GROUSE streaming baselines.
- datagen: seeded synthetic streams (static, masked, dynamic scenarios).
- metrics: subspace error, log-likelihood gap, variance error, traces.
- harness: config-driven experiment runner and CSV ingestion.
- cli: `shasta-pca` command-line front end.
"""

from .baselines import Grouse, Petrels, StreamingEstimator
from .batch import BatchIterate, BatchProblem, batch_f_step, batch_solve, \
    batch_v_step, ppca_closed_form
from .datagen import Epoch, PlantedModel, ScenarioScript, draw_model, \
    draw_sample, mask_uniform, run_script
from .metrics import MetricTrace, loglik_gap, subspace_error, variance_error
from .model import (
    ObservedSample,
    ParameterError,
    PosteriorStats,
    RejectedSample,
    VARIANCE_FLOOR,
    dataset_log_likelihood,
    minorizer_value,
    posterior_stats,
    sample_log_likelihood,
)
from .shasta import ShastaConfig, ShastaPCA, ShastaState, WeightSchedule, \
    load_state, save_state

__all__ = [
    "BatchIterate",
    "BatchProblem",
    "Epoch",
    "Grouse",
    "MetricTrace",
    "ObservedSample",
    "ParameterError",
    "Petrels",
    "PlantedModel",
    "PosteriorStats",
    "RejectedSample",
    "ScenarioScript",
    "ShastaConfig",
    "ShastaPCA",
    "ShastaState",
    "StreamingEstimator",
    "VARIANCE_FLOOR",
    "WeightSchedule",
    "batch_f_step",
    "batch_solve",
    "batch_v_step",
    "dataset_log_likelihood",
    "draw_model",
    "draw_sample",
    "load_state",
    "loglik_gap",
    "mask_uniform",
    "minorizer_value",
    "posterior_stats",
    "ppca_closed_form",
    "run_script",
    "sample_log_likelihood",
    "save_state",
    "subspace_error",
    "variance_error",
]
