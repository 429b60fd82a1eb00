"""Streaming heteroscedastic PCA with missing data.

Library layout:

- model: factor-model types, observed-entry log-likelihood, posterior stats.
- batch: alternating minorize-maximize batch solver and closed-form PPCA.
- shasta: the streaming stochastic-MM estimator with bounded surrogate state.
- baselines: PETRELS and GROUSE streaming baselines.
- datagen: planted models and seeded scenario scripts (static, masked,
  dynamic streams).
- metrics: subspace error and per-run metric traces.
- harness: config-driven experiment runner and CSV ingestion.
- cli: `shasta-pca` command-line front end.
"""

from .baselines import Grouse, Petrels
from .batch import BatchIterate, BatchProblem, batch_f_step, batch_solve, \
    batch_v_step, ppca_closed_form
from .datagen import Epoch, PlantedModel, ScenarioScript, run_script
from .metrics import MetricTrace, subspace_error
from .model import (
    ObservedSample,
    ParameterError,
    PosteriorStats,
    RejectedSample,
    VARIANCE_FLOOR,
    posterior_stats,
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
    "VARIANCE_FLOOR",
    "WeightSchedule",
    "batch_f_step",
    "batch_solve",
    "batch_v_step",
    "load_state",
    "posterior_stats",
    "ppca_closed_form",
    "run_script",
    "save_state",
    "subspace_error",
]
