"""Exact filtering, smoothing and prediction for the probability-measure-valued
signal with Dirichlet-mixture conditional laws.

Conditional laws of the signal given count data are finite mixtures of
Dirichlet random-measure laws indexed by multi-indices over the observed
types.  Updates are conjugate; propagation in either time direction expands
every component over the sub-lattice below its index with typed death-chain
transition probabilities (forward and backward propagation coincide for
these laws).

Two base-measure regimes are supported.  With a discrete mutation offspring
distribution every weight is a ratio of Dirichlet-categorical marginals.
With a nonatomic one the weights are the limits of those ratios under ever
finer discretizations: components that fail to carry an atom for a type
observed at more than one collection time are suppressed by a vanishing
factor and drop out, while the surviving components pick up explicit
Pochhammer/factorial coefficients.

The filter loop, lattice spread, pair combination, pruning and predictive
urn below serve both models: the branching engine (dw.py) passes in its own
update, propagation and total-count pair term.

Mixtures enter these kernels as a log-weight vector and an index-row matrix.
The update and the discrete case term score index rows from per-column tables
of the observation score's terms; the lattice spread builds every lattice
point at once and gathers transition log-probabilities from tables; the pair
combination scores all forward x backward pairs by broadcasting.  Each
scalar term is evaluated once per distinct argument by the scalar function
that defines it and then gathered, keeping the order of additions of the
per-component and per-pair formulas below, so the weights are the same
floats those formulas give.  Smoothing results hold their pairs as arrays
and build ``pair_log_weights`` on first access.

The ``rtol`` parameters are kept for callers that pass them by position and
have no effect: the totals transition tables have no tolerance to set (see
dual.py).
"""

from __future__ import annotations

import functools
import math
import numbers
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    BaseMeasure,
    DirichletMixtureLaw,
    MultiIndex,
    ObservationTimeline,
    TypeRegistry,
    _MixtureBase,
    _at_least,
    _normalized,
    logsumexp_1d,
)
from .dual import DEFAULT_ODE_RTOL, FvDualSpec, _fv_typed_log_probs
from .errors import AllWeightsZero, DomainError
from .specfun import log_dir_cat, log_pochhammer

__all__ = [
    "NEW_LABEL",
    "SharedAtomSets",
    "FvSmoothingResult",
    "update_dirichlet",
    "propagate_forward",
    "propagate_backward",
    "filter_forward",
    "filter_backward",
    "filter_posterior",
    "smooth",
    "predictive_pmf",
    "predictive_sample",
    "sharing_degree",
    "nonatomic_log_coefficient",
    "discrete_case_log",
    "observation_log_score",
]

# Reserved key for predictive mass on previously unseen types.
NEW_LABEL = "<new>"


# ---------------------------------------------------------------------------
# update
# ---------------------------------------------------------------------------


def _score_term(j, mj, nj, nonatomic: bool, alpha_vec, carriers) -> float:
    """Type j's term of observation_log_score: count ``nj`` of type j under
    a component holding ``mj`` of it (0.0 when ``nj`` is 0)."""
    if nj == 0:
        return 0.0
    if not nonatomic:
        aj = alpha_vec[j] + mj
        if aj <= 0.0:
            raise DomainError(f"nonpositive parameter {aj} at a positive count")
        return math.lgamma(aj + nj) - math.lgamma(aj)
    if mj > 0:
        return math.lgamma(mj + nj) - math.lgamma(mj)
    return -math.inf if carriers[j] else math.lgamma(nj)


def _total_term(theta_eff: float, n_total: int) -> float:
    """The total-mass term of observation_log_score."""
    if theta_eff <= 0.0:
        raise DomainError(f"nonpositive total mass {theta_eff}")
    return math.lgamma(theta_eff) - math.lgamma(theta_eff + n_total)


def observation_log_score(
    m: MultiIndex,
    n: MultiIndex,
    base: BaseMeasure,
    alpha_vec: tuple[float, ...],
    carriers: tuple[bool, ...],
    theta_eff: float | None = None,
) -> float:
    """Log marginal likelihood of counts ``n`` under the component at ``m``.

    ``theta_eff`` is the total parameter mass of the component before the
    observation (defaults to base.theta + |m|).  In the nonatomic regime the
    score is the discretization limit: a type re-observed while some mixture
    component carries it contributes -inf to components that do not, and
    types fresh to the whole mixture contribute a factor common to all
    components.
    """
    if not len(m) == len(n) == len(alpha_vec):
        raise DomainError("count and parameter vectors differ in length")
    if theta_eff is None:
        theta_eff = base.theta + m.total
    out = 0.0
    for j, (mj, nj) in enumerate(zip(m, n)):
        out += _score_term(j, mj, nj, base.is_nonatomic, alpha_vec, carriers)
    return out + _total_term(theta_eff, n.total)


def _table(fn, top: int) -> np.ndarray:
    """``fn(v)`` for v = 0..top, one call each."""
    return np.array([fn(v) for v in range(top + 1)], dtype=float)


def _row_scores(rows: np.ndarray, term, total_term) -> np.ndarray:
    """For every row r of ``rows``: ``term(j, rows[r, j])`` summed over the
    columns j from 0.0, plus ``total_term(sum(rows[r]))``.  Each term is
    evaluated once per value up to its column's largest and gathered."""
    out = np.zeros(len(rows))
    for j, col in enumerate(rows.T):
        out = out + _table(functools.partial(term, j), int(col.max()))[col]
    totals = rows.sum(axis=1)
    return out + _table(total_term, int(totals.max()))[totals]


def _rescored(law: _MixtureBase, n: MultiIndex, log_extra=None):
    """Components of ``law`` conditioned on the total counts ``n``, as
    (log-weights, index rows).

    Indices shift by n; log-weights gain ``log_extra(theta + |m|)``, if
    given, and the observation score.  Components the score rules out drop.
    """
    base = law.base
    alpha_vec = base.alpha_vector(law.registry)
    log_weights, indices = law._arrays
    nonatomic, carriers = base.is_nonatomic, (indices > 0).any(axis=0).tolist()
    scores = _row_scores(
        indices,
        lambda j, mj: _score_term(j, mj, n[j], nonatomic, alpha_vec, carriers),
        lambda total: _total_term(base.theta + total, n.total),
    )
    if log_extra is not None:
        totals = indices.sum(axis=1)
        extra = _table(lambda total: log_extra(base.theta + total), int(totals.max()))
        log_weights = log_weights + extra[totals]
    keep = scores != -math.inf
    shifted = indices[keep] + np.array(n.counts, dtype=np.int64)
    return log_weights[keep] + scores[keep], shifted


def update_dirichlet(law: DirichletMixtureLaw, n: MultiIndex) -> DirichletMixtureLaw:
    """Condition the mixture on counts ``n`` observed at the current time.

    Every component index shifts by n; weights are rescored by the
    component-specific marginal likelihood and renormalized.
    """
    if len(n) != law.registry.k:
        raise DomainError("observation length != registry size")
    if n.is_zero():
        return law
    return law._renewed(*_rescored(law, n))


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def _lattices(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index row below each row of ``indices``, row after row, each
    lattice in itertools.product order (the last type varies fastest).

    Returns (owner, points): ``points[p]`` lies below ``indices[owner[p]]``.
    """
    sizes = indices + 1
    counts = np.prod(sizes, axis=1)
    owner = np.repeat(np.arange(len(indices)), counts)
    rest = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
    points = np.empty((len(owner), indices.shape[1]), dtype=np.int64)
    for j in reversed(range(indices.shape[1])):
        size = sizes[owner, j]
        points[:, j] = rest % size
        rest //= size
    return owner, points


def _spread(log_weights: np.ndarray, indices: np.ndarray, log_prob):
    """Components spread over the lattice below each index, with transition
    log-probabilities ``log_prob(m, k)`` from index rows m to rows k;
    impossible moves drop.  Returns (log-weights, index rows)."""
    owner, points = _lattices(indices)
    lp = log_prob(indices[owner], points)
    keep = lp != -math.inf
    return log_weights[owner][keep] + lp[keep], points[keep]


def propagate_forward(
    law: DirichletMixtureLaw, dt: float, rtol: float = DEFAULT_ODE_RTOL
) -> DirichletMixtureLaw:
    """Law of the signal an interval dt later, the data staying fixed.

    Each component (w, m) spreads over {k <= m} with the typed death-chain
    transition probabilities; coinciding indices merge.
    """
    if not 0.0 <= dt < math.inf:
        raise DomainError(f"time step must be finite and >= 0, got {dt}")
    if dt == 0.0:
        return law
    spec = FvDualSpec(law.base.theta)
    return law._renewed(
        *_spread(
            *law._arrays, lambda m, k: _fv_typed_log_probs(spec, m, k, dt)
        )
    )


def propagate_backward(
    law: DirichletMixtureLaw, dt: float, rtol: float = DEFAULT_ODE_RTOL
) -> DirichletMixtureLaw:
    """Law of the signal an interval dt earlier.

    By reversibility this coincides with forward propagation on these laws;
    the separate name keeps the direction of each recursion readable.
    """
    return propagate_forward(law, dt)


# ---------------------------------------------------------------------------
# filtering
# ---------------------------------------------------------------------------


def _filter(timeline, i, prior, update, propagate, data, backward=False):
    """Law of the signal at t_i given the data strictly before t_i (after it
    if ``backward``), for either model: from ``prior``, alternates
    ``update(law, data[j])`` with ``propagate(law, dt)`` towards t_i.
    ``data`` is None when the timeline carries the other model's data.
    """
    if data is None:
        raise DomainError(f"timeline carries {timeline.mode} data, not this model's")
    if not 0 <= i < timeline.n_times:
        raise DomainError(f"time index {i} out of range")
    times = timeline.times
    law = prior
    for j in range(timeline.n_times - 1, i, -1) if backward else range(i):
        law = update(law, data[j])
        dt = times[j] - times[j - 1] if backward else times[j + 1] - times[j]
        law = propagate(law, dt)
    return law


def _fv_filter(timeline, i, base, backward=False) -> DirichletMixtureLaw:
    return _filter(
        timeline,
        i,
        DirichletMixtureLaw.prior(base, timeline.registry),
        update_dirichlet,
        propagate_forward,
        timeline.fv_counts,
        backward,
    )


def filter_forward(
    timeline: ObservationTimeline,
    i: int,
    base: BaseMeasure,
    rtol: float = DEFAULT_ODE_RTOL,
) -> DirichletMixtureLaw:
    """Law of the signal at time t_i given data strictly before t_i.

    Alternates conjugate updates with forward propagation, starting from the
    stationary single-component prior; the result is supported on the
    lattice below the summed past multiplicities.
    """
    return _fv_filter(timeline, i, base)


def filter_backward(
    timeline: ObservationTimeline,
    i: int,
    base: BaseMeasure,
    rtol: float = DEFAULT_ODE_RTOL,
) -> DirichletMixtureLaw:
    """Law of the signal at time t_i given data strictly after t_i.

    Mirror image of filter_forward, built with backward propagation from the
    prior at the final collection time.
    """
    return _fv_filter(timeline, i, base, backward=True)


def filter_posterior(
    timeline: ObservationTimeline,
    i: int,
    base: BaseMeasure,
    rtol: float = DEFAULT_ODE_RTOL,
) -> DirichletMixtureLaw:
    """Filtering law: signal at t_i given data up to and including t_i."""
    law = filter_forward(timeline, i, base)
    return update_dirichlet(law, timeline.fv_counts[i])


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharedAtomSets:
    """Types shared across the three blocks of a smoothing query.

    ``d_past`` holds types observed before the query time and again at or
    after it; ``d_future`` the mirror image.  A lattice pair is admissible
    when it keeps a positive count for every shared type on its side.
    """

    d_past: frozenset[int]
    d_future: frozenset[int]

    @staticmethod
    def from_counts(
        n_past: MultiIndex, n_now: MultiIndex, n_future: MultiIndex
    ) -> "SharedAtomSets":
        d_past = frozenset(
            j
            for j in range(len(n_past))
            if n_past[j] > 0 and (n_now[j] > 0 or n_future[j] > 0)
        )
        d_future = frozenset(
            j
            for j in range(len(n_future))
            if n_future[j] > 0 and (n_now[j] > 0 or n_past[j] > 0)
        )
        return SharedAtomSets(d_past, d_future)

    def contains(self, k_past: MultiIndex, k_future: MultiIndex) -> bool:
        return all(k_past[j] > 0 for j in self.d_past) and all(
            k_future[j] > 0 for j in self.d_future
        )


def sharing_degree(k: MultiIndex, n: MultiIndex, kp: MultiIndex) -> int:
    """Number of cross-block coincidences of types in (k, n, kp).

    Each type contributes (number of positive blocks - 1); components whose
    degree is below the achievable maximum carry weights of smaller order in
    the discretization limit and vanish under a nonatomic base measure.
    """
    d = 0
    for kj, nj, pj in zip(k, n, kp):
        pos = (kj > 0) + (nj > 0) + (pj > 0)
        if pos > 1:
            d += pos - 1
    return d


def nonatomic_log_coefficient(
    k: MultiIndex, n: MultiIndex, kp: MultiIndex, theta: float
) -> float:
    """Leading-order weight coefficient in the nonatomic regime.

    Pochhammer factor theta^(|k|) theta^(|kp|) / (theta+|n|)^(|k|+|kp|)
    times, for every type, (k+n+kp-1)! / ((k-1)!(n-1)!(kp-1)!) with zero
    counts contributing empty products.
    """
    out = (
        log_pochhammer(theta, k.total)
        + log_pochhammer(theta, kp.total)
        - log_pochhammer(theta + n.total, k.total + kp.total)
    )
    for kj, nj, pj in zip(k, n, kp):
        s = kj + nj + pj
        if s > 0:
            out += math.lgamma(s)
        if kj > 0:
            out -= math.lgamma(kj)
        if nj > 0:
            out -= math.lgamma(nj)
        if pj > 0:
            out -= math.lgamma(pj)
    return out


def discrete_case_log(
    k: MultiIndex,
    n: MultiIndex,
    kp: MultiIndex,
    alpha_vec: tuple[float, ...],
    theta: float,
) -> float:
    s = [a + b + c for a, b, c in zip(k, n, kp)]
    return (
        log_dir_cat(s, alpha_vec, total=theta)
        - log_dir_cat(k.counts, alpha_vec, total=theta)
        - log_dir_cat(n.counts, alpha_vec, total=theta)
        - log_dir_cat(kp.counts, alpha_vec, total=theta)
    )


@dataclass(frozen=True, eq=False)
class _Pairs:
    """Log-weights of retained pairs (k, k'): k a row of ``past``, k' a row
    of ``future``, at flat positions into past x future (row-major)."""

    past: np.ndarray
    future: np.ndarray
    positions: np.ndarray
    log_weights: np.ndarray

    def indices(self, n_now: MultiIndex) -> np.ndarray:
        """Mixture index rows k + n_now + k' of the pairs."""
        rows, cols = np.divmod(self.positions, len(self.future))
        n = np.array(n_now.counts, dtype=np.int64)
        return self.past[rows] + n + self.future[cols]

    def as_dict(self) -> dict[tuple[MultiIndex, MultiIndex], float]:
        past = list(map(MultiIndex, self.past.tolist()))
        future = list(map(MultiIndex, self.future.tolist()))
        rows, cols = np.divmod(self.positions, len(self.future))
        weights = self.log_weights.tolist()
        return {
            (past[i], future[j]): lw
            for i, j, lw in zip(rows.tolist(), cols.tolist(), weights)
        }


def _sharing_degrees(a: np.ndarray, n: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sharing_degree of every pair (row of a, row of b), as an |a| x |b| grid."""
    degrees = 0
    for j in range(len(n)):
        pos = (a[:, j, None] > 0).astype(int) + int(n[j] > 0) + (b[None, :, j] > 0)
        degrees = degrees + np.maximum(pos - 1, 0)
    return np.broadcast_to(degrees, (len(a), len(b)))


def _nonatomic_coefficients(a, n, b, theta: float) -> np.ndarray:
    """nonatomic_log_coefficient of every pair (row of a, row of b), with
    the same floats: each log-Pochhammer and log-gamma term is evaluated once
    per distinct argument."""
    k_tot, kp_tot = a.sum(axis=1)[:, None], b.sum(axis=1)[None, :]
    top = int(k_tot.max() + kp_tot.max())
    poch = _table(lambda v: log_pochhammer(theta, v), top)
    poch_now = _table(lambda v: log_pochhammer(theta + int(n.sum()), v), top)
    out = (poch[k_tot] + poch[kp_tot]) - poch_now[k_tot + kp_tot]
    top = int(a.max(initial=0) + n.max(initial=0) + b.max(initial=0))
    lgamma = _table(lambda v: math.lgamma(v) if v > 0 else 0.0, top)
    for j in range(len(n)):
        kj, nj, pj = a[:, j, None], int(n[j]), b[None, :, j]
        s = kj + nj + pj
        out = np.where(s > 0, out + lgamma[s], out)
        out = np.where(kj > 0, out - lgamma[kj], out)
        if nj > 0:
            out = out - lgamma[nj]
        out = np.where(pj > 0, out - lgamma[pj], out)
    return out


def _discrete_case_terms(a, n, b, alpha_vec, theta: float) -> np.ndarray:
    """discrete_case_log of every pair (row of a, row of b), with the same
    floats: log_dir_cat(r) is _score_term(j, 0, r_j) summed over the types
    plus _total_term(theta, |r|), each gathered from a table per column."""

    def log_dir_cats(rows: np.ndarray) -> np.ndarray:
        return _row_scores(
            rows,
            lambda j, rj: _score_term(j, 0, rj, False, alpha_vec, None),
            lambda total: _total_term(theta, total),
        )

    sums = (a[:, None, :] + n + b[None, :, :]).reshape(len(a) * len(b), len(n))
    at_sums = log_dir_cats(sums).reshape(len(a), len(b))
    at_now = log_dir_cat(n.tolist(), alpha_vec, total=theta)
    return ((at_sums - log_dir_cats(a)[:, None]) - at_now) - log_dir_cats(b)[None, :]


def _combine_pairs(
    first, second, n_now: MultiIndex, base: BaseMeasure, alpha_vec, extra=None
) -> _Pairs:
    """Unnormalized pair log-weights from propagated filter components,
    each given as (log-weights, index rows), and the case term.

    ``extra(|k|, |k'|)``, if given, is a model-specific term of the two
    totals (broadcast int arrays), added between the filter weights and the
    case term (the branching model's total-count marginal ratio).  Under a
    nonatomic base measure only the pairs of maximal sharing degree survive
    the discretization limit.
    """
    (lw1, a), (lw2, b) = first, second
    n = np.array(n_now.counts, dtype=np.int64)
    lw = lw1[:, None] + lw2[None, :]
    if extra is not None:
        lw = lw + extra(a.sum(axis=1)[:, None], b.sum(axis=1)[None, :])
    if base.is_nonatomic:
        lw = lw + _nonatomic_coefficients(a, n, b, base.theta)
        degrees = _sharing_degrees(a, n, b).ravel()
        positions = np.flatnonzero(degrees == degrees.max())
    else:
        lw = lw + _discrete_case_terms(a, n, b, alpha_vec, base.theta)
        positions = np.arange(lw.size)
    return _Pairs(a, b, positions, lw.ravel()[positions])


class _PairDecomposition:
    """Accessors shared by the smoothing results of both models."""

    _pairs: _Pairs

    @functools.cached_property
    def pair_log_weights(self) -> dict[tuple[MultiIndex, MultiIndex], float]:
        """Normalized log-weights of the retained (k, k') pairs, built on
        first access."""
        return self._pairs.as_dict()

    @property
    def component_count(self) -> int:
        return len(self._pairs.log_weights)

    def pair_weights(self) -> dict[tuple[MultiIndex, MultiIndex], float]:
        return {pair: math.exp(lw) for pair, lw in self.pair_log_weights.items()}


@dataclass(frozen=True, eq=False)
class FvSmoothingResult(_PairDecomposition):
    """Smoothing law at one collection time, with its pair decomposition.

    ``pair_log_weights`` maps (retained-past, retained-future) multi-index
    pairs to normalized log-weights; the mixture component of a pair sits at
    index k + n_now + k'.  ``law`` merges pairs with equal component index.
    """

    n_now: MultiIndex
    law: DirichletMixtureLaw
    _pairs: _Pairs = field(repr=False)


def _result_from_pairs(
    pairs: _Pairs, n_now: MultiIndex, pruning_epsilon: float, law, **changes
):
    """Normalize and prune the pair law, then merge it into a copy of the
    filter law ``law`` but for ``changes``.

    Returns (pairs, law).
    """
    log_weights = _normalized(pairs.log_weights)
    positions = pairs.positions
    if pruning_epsilon > 0.0:
        keep = _at_least(log_weights, pruning_epsilon)
        positions, log_weights = positions[keep], _normalized(log_weights[keep])
    pairs = replace(pairs, positions=positions, log_weights=log_weights)
    return pairs, law._renewed(log_weights, pairs.indices(n_now), **changes)


def smooth(
    timeline: ObservationTimeline,
    i: int,
    base: BaseMeasure,
    pruning_epsilon: float = 0.0,
    rtol: float = DEFAULT_ODE_RTOL,
) -> FvSmoothingResult:
    """Law of the signal at t_i given the whole dataset.

    Runs the forward and backward filters to t_i and combines their weights
    with the adjacency case term; summing the propagated filter weights
    first is algebraically identical to the double sum over pre-propagation
    components, because the case term depends only on the retained pair.
    """
    v1 = filter_forward(timeline, i, base)
    v2 = filter_backward(timeline, i, base)
    n_now = timeline.fv_counts[i]
    alpha_vec = base.alpha_vector(timeline.registry)
    pairs = _combine_pairs(v1._arrays, v2._arrays, n_now, base, alpha_vec)
    pairs, law = _result_from_pairs(pairs, n_now, pruning_epsilon, v1)
    return FvSmoothingResult(n_now, law, pairs)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def _idle_atoms(base: BaseMeasure, registry: TypeRegistry) -> dict[str, float]:
    """Parameter mass theta*p of each atom of the base measure that the data
    never shows, keyed by its label."""
    return {
        lab: base.theta * p
        for lab, p in (base.atom_probs or {}).items()
        if lab not in registry
    }


def _urn_mass(base: BaseMeasure, registry: TypeRegistry):
    """``mass(lab, m, counts)``: urn weight of ``lab`` in the component at
    ``m`` given the label ``counts`` of earlier further samples, before
    division by theta + |m| + sum(counts); other labels weigh as new ones.
    """
    index = {lab: j for j, lab in enumerate(registry.labels)}
    alpha_vec = base.alpha_vector(registry)
    idle = _idle_atoms(base, registry)
    new_mass = base.theta * base.unseen_mass

    def mass(lab: str, m: MultiIndex, counts: dict[str, int]) -> float:
        if lab in index:
            j = index[lab]
            return alpha_vec[j] + m[j] + counts.get(lab, 0)
        if lab in idle:
            return idle[lab] + counts.get(lab, 0)
        return counts.get(lab, 0) or new_mass

    return mass


def _component_weights(
    components, base: BaseMeasure, registry: TypeRegistry, history, log_extra=None
):
    """Mixture weights given the earlier further samples ``history``.

    Each component's log-weight gains the log-likelihood of ``history``
    under its Polya urn and, if given, ``log_extra(theta + |m|)``.  With
    nothing to condition on these are the mixture weights themselves.
    """
    if not history and log_extra is None:
        return [math.exp(lw) for lw, _ in components]
    mass = _urn_mass(base, registry)
    logs = []
    for lw, m in components:
        theta_eff = base.theta + sum(m)
        if log_extra is not None:
            lw += log_extra(theta_eff)
        seen: dict[str, int] = {}
        for step, lab in enumerate(history):
            num = mass(lab, m, seen)
            lw += math.log(num) - math.log(theta_eff + step) if num > 0 else -math.inf
            seen[lab] = seen.get(lab, 0) + 1
        logs.append(lw)
    logs = np.array(logs)
    shift = logsumexp_1d(logs)
    if shift == -math.inf:
        raise AllWeightsZero("history has probability zero under every component")
    return np.exp(logs - shift)


def _urn_pmf(law: _MixtureBase, history, log_extra=None) -> dict[str, float]:
    """Next-sample law of the urn mixture of ``law`` given ``history``; see
    predictive_pmf.  ``log_extra`` is as in _component_weights."""
    base, registry = law.base, law.registry
    components = law._rows()
    weights = _component_weights(components, base, registry, history, log_extra)
    mass = _urn_mass(base, registry)
    counts: dict[str, int] = {}
    for lab in history:
        counts[lab] = counts.get(lab, 0) + 1
    out = dict.fromkeys(
        (*registry.labels, *_idle_atoms(base, registry), *counts, NEW_LABEL), 0.0
    )
    for w, (_, m) in zip(weights, components):
        denom = base.theta + sum(m) + len(history)
        for lab in out:
            out[lab] += w * mass(lab, m, counts) / denom
    return out


def predictive_pmf(
    law: DirichletMixtureLaw, history: tuple[str, ...] = ()
) -> dict[str, float]:
    """Distribution of the next sample drawn from the smoothed population.

    Mixes the urn of every component, with component weights conditioned on
    the earlier further samples ``history``: mass at a label is proportional
    to its parameter mass plus its count in ``history``; base-measure atoms
    the data never shows get their own labels, and the NEW_LABEL entry
    carries the base-measure mass off every specified atom.
    """
    return _urn_pmf(law, history)


def _fresh_label(registry: TypeRegistry, used: set[str]) -> str:
    i = 1
    while True:
        lab = f"{NEW_LABEL}{i}"
        if lab not in used and lab not in registry:
            used.add(lab)
            return lab
        i += 1


_table_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _cached_tables(owner, build):
    """Sampler tables of ``owner``, built once and kept while it lives."""
    tables = _table_cache.get(owner)
    if tables is None:
        tables = _table_cache[owner] = build(owner)
    return tables


def _pair_components(result: "FvSmoothingResult"):
    """(log-weight, index row) components of the retained pairs of
    ``result``, in pair order, with their cumulative normalized weights."""
    pairs = result._pairs
    log_weights = pairs.log_weights.tolist()
    comps = list(zip(log_weights, pairs.indices(result.n_now).tolist()))
    cum = np.cumsum([math.exp(lw) for lw in log_weights])
    return comps, cum / cum[-1]


def _check_size(name: str, value, low: int = 0) -> None:
    """Reject a size that is not an integer >= ``low`` (numpy integers pass,
    bools do not)."""
    ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (ok and value >= low):
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")


def predictive_sample(
    result: FvSmoothingResult,
    count: int,
    rng: np.random.Generator,
    history: tuple[str, ...] = (),
) -> list[str]:
    """Sample further observations sequentially from the smoothed urn mixture.

    Picks one retained pair by its smoothing weight conditioned on
    ``history``, then runs that pair's Polya urn: each draw comes from one of
    three sources with probabilities proportional to (theta, retained atom
    count, number of earlier further samples): the base measure, the
    weighted observed atoms, or the empirical history.
    """
    _check_size("count", count, 1)
    components, cum = _cached_tables(result, _pair_components)
    base = result.law.base
    registry = result.law.registry
    theta = base.theta
    hist = list(history)
    used: set[str] = set(hist)
    if hist:
        cum = np.cumsum(_component_weights(components, base, registry, hist))
        cum /= cum[-1]
    m = components[int(np.searchsorted(cum, rng.random(), side="right"))][1]
    total = float(sum(m))
    atom_cum = np.cumsum(m, dtype=float)
    atoms = base.atom_probs or {}
    base_labels = tuple(atoms)
    base_cum = np.cumsum(list(atoms.values()))
    out: list[str] = []
    for _ in range(count):
        denom = theta + total + len(hist)
        v = rng.random() * denom
        if v < theta:
            u = v / theta
            j = int(np.searchsorted(base_cum, u, side="right"))
            if j < len(base_labels):
                lab = base_labels[j]
            else:
                lab = _fresh_label(registry, used)
        elif v < theta + total:
            j = int(np.searchsorted(atom_cum, v - theta, side="right"))
            lab = registry.labels[j]
        else:
            lab = hist[min(int(v - theta - total), len(hist) - 1)]
        out.append(lab)
        hist.append(lab)
    return out
