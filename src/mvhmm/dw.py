"""Exact filtering, smoothing and prediction for the finite-measure-valued
branching signal with gamma-mixture conditional laws.

Conditional laws are finite mixtures of gamma random-measure laws sharing a
single rate offset: updates add the draw cardinality to the offset and shift
indices by the observed totals; propagation thins every component's index
binomially and moves the offset along the deterministic cardinality flow.
Thinning is independent per type, so propagation runs on the dense box of
indices up to the largest of each type, in the linear domain by exponent
bands, as one contraction per type with the integer Pascal matrix; the
powers of q are added in the log domain.  Boxes past that contraction's
float range thin in the log domain.  Smoothing weights
combine the thinned filter weights with a total-count marginal ratio, each
block's marginal at its own draw cardinality, and the per-type allocation
case term; the filter loop, pair combination, pruning and urn are the
Dirichlet engine's (fv.py).

A further draw mixes over components: given one, the size is negative
binomial and, independently, the elements follow its Polya urn.  The pmfs
mix the components and the sampler picks one, both through the Dirichlet
engine's prediction layer, with the size likelihood as the extra
per-component term when the size is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    _SPAN,
    BaseMeasure,
    GammaMixtureLaw,
    MultiIndex,
    ObservationTimeline,
    _box,
    _cells,
    _exp_box,
    _log_box,
    _log_summed,
)
from .dual import (
    DEFAULT_DW_RATE_CONSTANT,
    DwDualSpec,
    _log_binom_table,
    _table,
    c_flow,
    dw_survival_prob,
)
from .errors import DomainError
from .fv import (
    _case_score,
    _check_size,
    _filter,
    _PairDecomposition,
    _Pairs,
    _pick,
    _rescored,
    _smoothed,
    _urn_draws,
    _urn_pmf,
)
from .specfun import log_gamma_marginal, log_neg_bin_pmf

__all__ = [
    "DwSmoothingResult",
    "update_gamma",
    "propagate_dw",
    "filter_forward_dw",
    "filter_backward_dw",
    "filter_posterior_dw",
    "smooth_dw",
    "predict_count_pmf",
    "predict_count_mean",
    "predictive_label_pmf",
    "predict_draw",
]


# ---------------------------------------------------------------------------
# update and propagation
# ---------------------------------------------------------------------------


def update_gamma(
    law: GammaMixtureLaw, draws: Sequence[MultiIndex]
) -> GammaMixtureLaw:
    """Condition the mixture on a collection of point-process draws.

    Indices shift by the summed counts, the rate offset grows by the number
    of draws, and each weight picks up the component-specific marginal: the
    total-count gamma marginal times the type-allocation score.  Per-draw
    factorial factors are identical across components and are dropped.
    """
    draws = tuple(draws)
    c = len(draws)
    if c == 0:
        return law
    total = sum(draws, MultiIndex.zeros(law.registry.k))  # checks each length
    rate = law.beta + law.rate_offset
    comps = _rescored(
        law,
        total,
        lambda theta_eff: log_gamma_marginal(total.total, float(c), theta_eff, rate),
    )
    return law._built(*comps, rate_offset=law.rate_offset + c)


def propagate_dw(
    law: GammaMixtureLaw,
    dt: float,
    kappa: float = DEFAULT_DW_RATE_CONSTANT,
) -> GammaMixtureLaw:
    """Law of the signal an interval dt away (either direction).

    Components thin binomially with the per-lineage survival probability q
    and the rate offset moves along the cardinality flow.  Backward and
    forward propagation coincide on these laws, so a single operation serves
    both recursions.  Thinning is independent per type, and Bin(k; m, q) =
    C(m, k) (1 - q)^m (q / (1 - q))^k, so it runs on the box of shape
    max_j + 1 in the linear domain: x = log w + |m| log(1 - q) on each row,
    cut into exponent bands of _SPAN nats, each exp-shifted by its largest
    and contracted on every axis with the integer Pascal matrix (_thinned);
    the bands' logs are combined and |k| log(q / (1 - q)) added per cell.
    A box past the contraction's float64 range (its largest indices summing
    to about 1 000) runs in the log domain instead, with the table of
    binomial log-pmfs at q (_log_thinned).
    """
    if not 0.0 <= dt < math.inf:
        raise DomainError(f"time step must be finite and >= 0, got {dt}")
    if dt == 0.0:
        return law
    spec = DwDualSpec(law.base.theta, law.beta, law.rate_offset, kappa)
    q = dw_survival_prob(spec, dt)
    offset = c_flow(law.beta, law.rate_offset, dt)
    return law._built(*_thinning(law, q), rate_offset=offset)


def _thinning(law: GammaMixtureLaw, q: float) -> tuple[np.ndarray, np.ndarray]:
    """(log-weights, index rows) of ``law``'s components thinned binomially
    with survival probability q, merged and in C order (propagate_dw)."""
    if q == 1.0:  # every lineage survives
        return law._merged_arrays()
    log_weights, indices = law._arrays
    if q == 0.0:  # every lineage dies: all the mass at 0
        return np.zeros(1), np.zeros((1, indices.shape[1]), dtype=np.int64)
    side = (indices.max(axis=0) + 1).tolist()
    # A cell sums at most len(log_weights) band entries <= 1, each times
    # prod_j C(m_j, k_j) < 2^(sum_j (side_j - 1)): it must stay below 2^maxexp,
    # or the box thins in the log domain.
    if sum(side) - len(side) + len(log_weights).bit_length() >= np.finfo(float).maxexp:
        return _cells(_log_thinned(_box(log_weights, indices, side), q))
    log_p = math.log1p(-q)
    x = log_weights + indices.sum(axis=1) * log_p
    pascal = _pascal(max(side))
    box = None
    while (top := x.max()) > -math.inf:  # rows of weight 0 join no band
        band = x > top - _SPAN
        y, shift = _exp_box(np.where(band, x, -math.inf), indices, side)
        logs = _log_box(_thinned(y, pascal), shift)
        box = logs if box is None else np.logaddexp(box, logs)
        x = np.where(band, -math.inf, x)
    box += sum(np.indices(side, sparse=True)) * (math.log(q) - log_p)
    return _cells(box)


def _pascal(side: int) -> np.ndarray:
    """C(m, k) at [m, k] for 0 <= m, k < side, 0 above the diagonal, by the
    additive recurrence in float64: exact while every entry is below 2^53,
    i.e. for side <= 57, and beyond that each row m adds at most one
    rounding, so within (1 + 2^-53)^(m - 56) - 1 relative."""
    out = np.zeros((side, side))
    out[:, 0] = 1.0
    for m in range(1, side):
        out[m, 1 : m + 1] = out[m - 1, :m] + out[m - 1, 1 : m + 1]
    return out


def _thinned(y: np.ndarray, pascal: np.ndarray) -> np.ndarray:
    """sum y[m] C(m, k) over the cells m of the linear box ``y`` at each cell
    k, one product per axis with ``pascal``: on a band exp-shifted by its
    largest, every term lies between e^-_SPAN and the largest float."""
    side = y.shape
    for s in side:  # contracts the leading axis and puts it last
        y = y.reshape(s, -1).T @ pascal[:s, :s]
    return y.reshape(side)


def _log_thinned(box: np.ndarray, q: float) -> np.ndarray:
    """The log-domain ``box`` thinned at survival probability q: one
    contraction per axis with the table of binomial log-pmfs at q, each sum
    shifted by its largest term.  It holds box x side terms per axis."""
    side = box.shape
    binom = _log_binom_table(max(side) - 1, q)
    for j, s in enumerate(side):  # log sum_m exp(box[..., m, ...] + binom[m, k])
        table = binom[:s, :s].reshape((s, s) + (1,) * (len(side) - j - 1))
        box = _log_summed(np.expand_dims(box, j + 1) + table, j)
    return box


# ---------------------------------------------------------------------------
# filtering
# ---------------------------------------------------------------------------


def _dw_filter(timeline, i, base, beta, kappa, backward=False) -> GammaMixtureLaw:
    return _filter(
        timeline,
        i,
        GammaMixtureLaw.prior(base, timeline.registry, beta),
        update_gamma,
        lambda law, dt: propagate_dw(law, dt, kappa),
        timeline.dw_draws,
        (base, beta, kappa),
        backward,
    )


def filter_forward_dw(
    timeline: ObservationTimeline,
    i: int,
    base: BaseMeasure,
    beta: float,
    kappa: float = DEFAULT_DW_RATE_CONSTANT,
) -> GammaMixtureLaw:
    """Law of the signal at t_i given draws strictly before t_i."""
    return _dw_filter(timeline, i, base, beta, kappa)


def filter_backward_dw(
    timeline: ObservationTimeline,
    i: int,
    base: BaseMeasure,
    beta: float,
    kappa: float = DEFAULT_DW_RATE_CONSTANT,
) -> GammaMixtureLaw:
    """Law of the signal at t_i given draws strictly after t_i."""
    return _dw_filter(timeline, i, base, beta, kappa, backward=True)


def filter_posterior_dw(
    timeline: ObservationTimeline,
    i: int,
    base: BaseMeasure,
    beta: float,
    kappa: float = DEFAULT_DW_RATE_CONSTANT,
) -> GammaMixtureLaw:
    """Filtering law: signal at t_i given draws up to and including t_i."""
    law = filter_forward_dw(timeline, i, base, beta, kappa)
    return update_gamma(law, timeline.dw_draws[i])


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DwSmoothingResult(_PairDecomposition):
    """Smoothing law at one collection time with its pair decomposition."""

    n_now: MultiIndex
    cardinality_now: int
    law: GammaMixtureLaw
    _pairs: _Pairs = field(repr=False)


def _total_count_score(theta: float, beta: float):
    """Row score of the total-count marginal ratio, ``score(columns, a)``:
    log_gamma_marginal of a row's total at draw cardinality a, evaluated once
    per distinct total."""

    def score(columns, a):
        totals = sum(columns)
        top = int(totals.max())
        return _table(lambda v: log_gamma_marginal(v, a, theta, beta), top)[totals]

    return score


def smooth_dw(
    timeline: ObservationTimeline,
    i: int,
    base: BaseMeasure,
    beta: float,
    pruning_epsilon: float = 0.0,
    kappa: float = DEFAULT_DW_RATE_CONSTANT,
) -> DwSmoothingResult:
    """Law of the signal at t_i given the whole dataset.

    Combines the propagated forward and backward filter weights with the
    total-count marginal ratio and the allocation case term; the mixture's
    rate offset is the propagated past cardinality plus the present one plus
    the propagated future cardinality.
    """
    v1 = filter_forward_dw(timeline, i, base, beta, kappa)
    v2 = filter_backward_dw(timeline, i, base, beta, kappa)
    n_now = timeline.counts_at(i)
    c_now = timeline.cardinality_at(i)
    cards = (v1.rate_offset, c_now, v2.rate_offset)
    scores = [
        _total_count_score(base.theta, beta),
        _case_score(base, timeline.registry),
    ]
    pairs, law = _smoothed(
        v1, v2, n_now, scores, pruning_epsilon, cards, rate_offset=sum(cards)
    )
    return DwSmoothingResult(n_now, c_now, law, pairs)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def predict_count_pmf(
    law: GammaMixtureLaw, tail: float = 1e-12, max_support: int = 100000
) -> dict[int, float]:
    """Distribution of the size of one further draw from the population.

    A mixture of negative binomials with per-component failure parameter
    theta + |m| and success probability 1/(1 + beta + rate offset).  The
    support is truncated once the certified geometric tail bound drops below
    ``tail``; the returned masses are not renormalized.
    """
    if not 0.0 < tail < 1.0:
        raise DomainError(f"need 0 < tail < 1, got {tail}")
    _check_size("max_support", max_support)
    b_total = law.beta + law.rate_offset
    p = 1.0 / (1.0 + b_total)
    theta = law.base.theta
    log_weights, indices = law._arrays
    weights = np.array([math.exp(lw) for lw in log_weights.tolist()])
    totals = indices.sum(axis=1)
    top = int(totals.max())
    r_max = theta + top
    out: dict[int, float] = {}
    n = 0
    while n <= max_support:
        pmf = _table(lambda v: math.exp(log_neg_bin_pmf(n, theta + v, p)), top)
        out[n] = sum((weights * pmf[totals]).tolist())
        ratio = p * (r_max + n + 1) / (n + 2)
        if ratio < 1.0 and out[n] * ratio / (1.0 - ratio) < tail:
            break
        n += 1
    return out


def predict_count_mean(law: GammaMixtureLaw) -> float:
    """Analytic mean of the further-draw size: sum of w * (theta+|m|) / rate."""
    b_total = law.beta + law.rate_offset
    theta = law.base.theta
    return sum(math.exp(lw) * (theta + sum(m)) / b_total for lw, m in law._rows())


def _size_term(law: GammaMixtureLaw, m_count):
    """``log_extra`` of a further draw of ``m_count`` elements (checked):
    theta + |m| -> log NB(m_count; theta + |m|, 1/(1 + beta + rate offset))."""
    _check_size("draw size", m_count)
    p = 1.0 / (1.0 + (law.beta + law.rate_offset))
    return lambda theta_eff: log_neg_bin_pmf(m_count, theta_eff, p)


def predictive_label_pmf(
    law: GammaMixtureLaw,
    history: tuple[str, ...] = (),
    m_count: int | None = None,
) -> dict[str, float]:
    """Distribution of the next element of one further draw.

    Component weights are reweighted by the likelihood of the draw size (if
    given) and of the elements drawn so far; the urns then mix exactly as in
    the Dirichlet engine, with the rate parameters cancelling.
    """
    log_extra = None if m_count is None else _size_term(law, m_count)
    return _urn_pmf(law, history, log_extra)


def predict_draw(
    law: GammaMixtureLaw,
    rng: np.random.Generator,
    m_count: int | None = None,
) -> tuple[int, list[str]]:
    """Sample one further draw: a mixture component, its size, its elements.

    Given the component at m, the size is negative binomial, sampled exactly
    as Poisson(z) with z ~ Gamma(theta + |m|, rate beta + rate offset), and
    independent of the elements, which follow the component's Polya urn.  A
    given ``m_count`` reweights the pick by its likelihood; 0 returns at once
    and takes no random numbers.
    """
    if m_count is None:
        m = _pick(law, rng)
        z = rng.gamma(law.base.theta + sum(m), 1.0 / (law.beta + law.rate_offset))
        m_count = int(rng.poisson(z))
    else:
        log_extra = _size_term(law, m_count)
        if m_count == 0:
            return m_count, []
        m = _pick(law, rng, log_extra=log_extra)
    return m_count, _urn_draws(m, law.base, law.registry, m_count, rng, [], set())
