"""Exact filtering, smoothing and prediction for the finite-measure-valued
branching signal with gamma-mixture conditional laws.

Conditional laws are finite mixtures of gamma random-measure laws sharing a
single rate offset: updates add the draw cardinality to the offset and shift
indices by the observed totals; propagation thins every component's index
binomially and moves the offset along the deterministic cardinality flow.
Smoothing weights combine the thinning transition probabilities with a
total-count marginal ratio and the per-type allocation case term; the filter
loop, pair combination, pruning and urn are the Dirichlet engine's (fv.py).

Prediction is two-stage: the size of a further draw is a mixture of negative
binomials, and given the size the elements follow an urn mixture whose pair
weights are reweighted by the size likelihood and the elements drawn so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    BaseMeasure,
    GammaMixtureLaw,
    MultiIndex,
    ObservationTimeline,
    logsumexp_1d,
)
from .dual import (
    DEFAULT_DW_RATE_CONSTANT,
    DwDualSpec,
    _dw_typed_log_probs,
    c_flow,
)
from .errors import DomainError
from .fv import (
    _cached_tables,
    _check_size,
    _combine_pairs,
    _filter,
    _fresh_label,
    _idle_atoms,
    _PairDecomposition,
    _Pairs,
    _rescored,
    _result_from_pairs,
    _spread,
    _table,
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
    return law._renewed(*comps, rate_offset=law.rate_offset + c)


def propagate_dw(
    law: GammaMixtureLaw,
    dt: float,
    kappa: float = DEFAULT_DW_RATE_CONSTANT,
) -> GammaMixtureLaw:
    """Law of the signal an interval dt away (either direction).

    Components thin binomially with the per-lineage survival probability and
    the rate offset moves along the cardinality flow.  Backward and forward
    propagation coincide on these laws, so a single operation serves both
    recursions.
    """
    if not 0.0 <= dt < math.inf:
        raise DomainError(f"time step must be finite and >= 0, got {dt}")
    if dt == 0.0:
        return law
    spec = DwDualSpec(law.base.theta, law.beta, law.rate_offset, kappa)
    comps = _spread(*law._arrays, lambda m, k: _dw_typed_log_probs(spec, m, k, dt))
    return law._renewed(*comps, rate_offset=c_flow(law.beta, law.rate_offset, dt))


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


def _gamma_pair_term(n_now, a_past, c_now, a_future, theta, beta):
    """The total-count marginal ratio of retained pairs as a function of
    their totals |k| and |k'| (broadcast int arrays): the branching model's
    extra pair term.  Each log_gamma_marginal is evaluated once per distinct
    total."""
    n_tot = n_now.total

    def marginals(a, top):
        return _table(lambda v: log_gamma_marginal(v, a, theta, beta), top)

    def term(k_tot: np.ndarray, kp_tot: np.ndarray) -> np.ndarray:
        k_top, kp_top = int(k_tot.max()), int(kp_tot.max())
        at_sums = marginals(a_past + c_now + a_future, k_top + n_tot + kp_top)
        at_now = log_gamma_marginal(n_tot, c_now, theta, beta)
        return (
            (at_sums[k_tot + n_tot + kp_tot] - marginals(a_past, k_top)[k_tot])
            - at_now
        ) - marginals(a_future, kp_top)[kp_tot]

    return term


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
    extra = _gamma_pair_term(
        n_now, v1.rate_offset, c_now, v2.rate_offset, base.theta, beta
    )
    alpha_vec = base.alpha_vector(timeline.registry)
    pairs = _combine_pairs(v1._arrays, v2._arrays, n_now, base, alpha_vec, extra)
    offset = v1.rate_offset + c_now + v2.rate_offset
    pairs, law = _result_from_pairs(
        pairs, n_now, pruning_epsilon, v1, rate_offset=offset
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
    if m_count is None:
        return _urn_pmf(law, history)
    _check_size("draw size", m_count)
    p = 1.0 / (1.0 + (law.beta + law.rate_offset))
    return _urn_pmf(
        law, history, lambda theta_eff: log_neg_bin_pmf(m_count, theta_eff, p)
    )


class _DrawTables:
    """Static arrays backing the further-draw sampler of one mixture law."""

    def __init__(self, law: GammaMixtureLaw):
        self.theta = theta = law.base.theta
        self.b_total = law.beta + law.rate_offset
        self.p = 1.0 / (1.0 + self.b_total)
        self.log_w, indices = law._arrays
        self.m_mat = indices.astype(float)
        self.totals = indices.sum(axis=1)
        self.theta_eff = theta + self.totals
        self.alpha_vec = np.array(law.base.alpha_vector(law.registry))
        self.new_mass = theta * law.base.unseen_mass
        probs = np.exp(self.log_w - logsumexp_1d(self.log_w))
        self.comp_cum = np.cumsum(probs)


def predict_draw(
    law: GammaMixtureLaw,
    rng: np.random.Generator,
    m_count: int | None = None,
) -> tuple[int, list[str]]:
    """Sample one further draw: its size, then its elements sequentially.

    The size comes from the negative binomial mixture (sampled exactly via
    its gamma-Poisson representation); each element is then drawn from the
    urn mixture with component weights reweighted by the size likelihood and
    the elements sampled so far.
    """
    registry = law.registry
    t = _cached_tables(law, _DrawTables)
    theta_eff = t.theta_eff
    if m_count is None:
        pick = int(np.searchsorted(t.comp_cum, rng.random(), side="right"))
        pick = min(pick, len(t.comp_cum) - 1)
        z = rng.gamma(theta_eff[pick], 1.0 / t.b_total)
        m_count = int(rng.poisson(z))
    else:
        _check_size("draw size", m_count)
    new_mass = t.new_mass
    # component log-posteriors given the draw size, updated per element
    size_term = _table(
        lambda v: log_neg_bin_pmf(m_count, t.theta + v, t.p), int(t.totals.max())
    )
    lam = t.log_w + size_term[t.totals]
    numer = t.alpha_vec[None, :] + t.m_mat  # per-component known-label masses
    idle = _idle_atoms(law.base, registry)
    extra_labels = list(idle)  # labels off the registry: idle atoms, then new ones
    extra_counts = list(idle.values())
    labels: list[str] = []
    used: set[str] = set()
    for step in range(m_count):
        w = np.exp(lam - lam.max())
        w /= w.sum()
        denom = theta_eff + step
        w_denom = w / denom
        w_mass = float(w_denom.sum())
        new_prob = w_mass * new_mass
        extra_probs = [w_mass * cnt for cnt in extra_counts]
        cum = np.cumsum(
            np.concatenate([w_denom @ numer, np.array(extra_probs), [new_prob]])
        )
        u = rng.random() * cum[-1]
        j = int(np.searchsorted(cum, u, side="right"))
        if j < registry.k:
            lab = registry.labels[j]
            with np.errstate(divide="ignore"):
                lam = lam + np.log(numer[:, j]) - np.log(denom)
            numer[:, j] += 1.0
        elif j < registry.k + len(extra_labels):
            e = j - registry.k
            lab = extra_labels[e]
            lam = lam + math.log(extra_counts[e]) - np.log(denom)
            extra_counts[e] += 1
        else:
            lab = _fresh_label(registry, used)
            lam = lam + math.log(new_mass) - np.log(denom)
            extra_labels.append(lab)
            extra_counts.append(1)
        labels.append(lab)
    return m_count, labels
