"""Exact filtering, smoothing and prediction for hidden Markov models whose
latent state is a measure-valued diffusion.

Conditional laws of the signal are finite mixtures of Dirichlet (frequency
model) or gamma (branching model) random-measure laws; the package computes
their weights exactly through the dual death processes, exposes predictive
urn sampling, and ships simulation oracles for validation.
"""

from .core import (
    BaseMeasure,
    DirichletMixtureLaw,
    GammaMixtureLaw,
    MultiIndex,
    ObservationTimeline,
    TypeRegistry,
    normalize,
)
from .dual import (
    DwDualSpec,
    FvDualSpec,
    TotalsTransitionTable,
    c_flow,
    dw_survival_prob,
    fv_totals_transition,
    s_t,
)
from .dw import (
    DwSmoothingResult,
    filter_backward_dw,
    filter_forward_dw,
    filter_posterior_dw,
    one_step_smoothing_dw,
    predict_count_mean,
    predict_count_pmf,
    predict_draw,
    predictive_label_pmf,
    propagate_dw,
    smooth_dw,
    update_gamma,
)
from .errors import (
    AllWeightsZero,
    DegeneracyError,
    DomainError,
    MvhmmError,
    OrderError,
    SchemaError,
)
from .fv import (
    FvSmoothingResult,
    SharedAtomSets,
    filter_backward,
    filter_forward,
    filter_posterior,
    one_step_smoothing_weights,
    predictive_pmf,
    predictive_sample,
    propagate_backward,
    propagate_forward,
    smooth,
    update_dirichlet,
)
from .io import RunConfig, load_config, load_timeline, serialize_timeline

__version__ = "0.1.0"

__all__ = [
    "AllWeightsZero",
    "BaseMeasure",
    "DegeneracyError",
    "DirichletMixtureLaw",
    "DomainError",
    "DwDualSpec",
    "DwSmoothingResult",
    "FvDualSpec",
    "FvSmoothingResult",
    "GammaMixtureLaw",
    "MultiIndex",
    "MvhmmError",
    "ObservationTimeline",
    "OrderError",
    "RunConfig",
    "SchemaError",
    "SharedAtomSets",
    "TotalsTransitionTable",
    "TypeRegistry",
    "c_flow",
    "dw_survival_prob",
    "filter_backward",
    "filter_backward_dw",
    "filter_forward",
    "filter_forward_dw",
    "filter_posterior",
    "filter_posterior_dw",
    "fv_totals_transition",
    "load_config",
    "load_timeline",
    "normalize",
    "one_step_smoothing_dw",
    "one_step_smoothing_weights",
    "predict_count_mean",
    "predict_count_pmf",
    "predict_draw",
    "predictive_label_pmf",
    "predictive_pmf",
    "predictive_sample",
    "propagate_backward",
    "propagate_dw",
    "propagate_forward",
    "s_t",
    "serialize_timeline",
    "smooth",
    "smooth_dw",
    "update_dirichlet",
    "update_gamma",
]
