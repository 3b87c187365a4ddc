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
factor and drop out, while the surviving ones keep the ratio at zero atom
mass, each type contributing lgamma of its count (the paper's factorial
coefficients, nonatomic_log_coefficient).

The filter loop, lattice spread, pair combination, pruning and predictive
urn below serve both models: the branching engine (dw.py) passes in its own
update, propagation and the row score of its total-count pair term.  The
filter loop keeps the laws it meets on each live timeline (the filters at
t_i are prefixes of those at t_{i+1}), so smoothing every index runs each
filter step once per direction.

Mixtures enter these kernels as a log-weight vector and an index-row matrix.
The update scores index rows from per-column tables of the observation
score's terms; the lattice spread builds every lattice point at once and
gathers transition log-probabilities from tables; the pair combination
scores all forward x backward pairs by broadcasting, every pair term as one
ratio S(k + n + k') - S(k) - S(n) - S(k') of row scores gathered the same
way, the case term's S being the observation score under the prior.  Each
scalar term is evaluated once per distinct argument by the scalar function
that defines it and then gathered, keeping the order of additions of the
per-component and per-pair formulas below, so the weights are the same
floats those formulas give.  Pairs are merged by integer codes of their
indices k + n + k', summed from codes of k, n and k', and index rows are
built for the merged components only.  Smoothing results hold their pairs
as arrays and build ``pair_log_weights`` on first access.

Prediction reads only a law's arrays: the pmfs mix the Polya urns of its
components, and a sampler picks one component by its weight given the
earlier further samples and runs its urn, which depends only on the index
k + n + k', not on the (k, k') pairs merged into it.

The ``rtol`` parameters are kept for callers that pass them by position and
have no effect: the totals transition tables have no tolerance to set (see
dual.py).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import numbers
import threading
import weakref
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .core import (
    BaseMeasure,
    DirichletMixtureLaw,
    MultiIndex,
    ObservationTimeline,
    TypeRegistry,
    _MixtureBase,
    _at_least,
    _check_epsilon,
    _merged,
    _normalized,
    _place_values,
    _row_codes,
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
    aj = alpha_vec[j] + mj
    if aj > 0.0:
        return math.lgamma(aj + nj) - math.lgamma(aj)
    if not nonatomic:
        raise DomainError(f"nonpositive parameter {aj} at a positive count")
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


def _row_scores(columns, term, total_term) -> np.ndarray:
    """For every row r given by ``columns`` (int arrays of one broadcast
    shape, column j holding r_j): ``term(j, r_j)`` summed over the columns
    from 0.0, plus ``total_term(|r|)``.  Each term is evaluated once per value
    up to its column's largest and gathered; ``columns`` is iterated once."""
    out, totals = 0.0, 0
    for j, col in enumerate(columns):
        out = out + _table(functools.partial(term, j), int(col.max()))[col]
        totals = totals + col
    return out + _table(total_term, int(totals.max()))[totals]


def _rescored(law: _MixtureBase, n: MultiIndex, log_extra=None):
    """Components of ``law`` conditioned on the total counts ``n``, as
    (log-weights, index rows).

    Indices shift by n; log-weights gain ``log_extra(theta + |m|)``, if
    given, and the observation score: -inf where it rules a component out.
    """
    base = law.base
    alpha_vec = base.alpha_vector(law.registry)
    log_weights, indices = law._arrays
    nonatomic, carriers = base.is_nonatomic, (indices > 0).any(axis=0).tolist()
    scores = _row_scores(
        indices.T,
        lambda j, mj: _score_term(j, mj, n[j], nonatomic, alpha_vec, carriers),
        lambda total: _total_term(base.theta + total, n.total),
    )
    if log_extra is not None:
        totals = indices.sum(axis=1)
        extra = _table(lambda total: log_extra(base.theta + total), int(totals.max()))
        log_weights = log_weights + extra[totals]
    return log_weights + scores, indices + np.array(n.counts, dtype=np.int64)


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
    impossible moves weigh -inf.  Returns (log-weights, index rows)."""
    owner, points = _lattices(indices)
    return log_weights[owner] + log_prob(indices[owner], points), points


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


# id(timeline) -> (model key, forward laws at t_0, t_1, ..., backward laws at
# t_{T-1}, t_{T-2}, ...); replaced under the lock, dropped by a finalizer.
_kept: dict[int, tuple] = {}
_kept_lock = threading.Lock()


def _model_key(base: BaseMeasure, *params) -> tuple:
    """What filter laws depend on besides the timeline (atoms in order)."""
    atoms = None if base.atom_probs is None else tuple(base.atom_probs.items())
    return (base.theta, atoms, *params)


def _filter(timeline, i, prior, update, propagate, data, key, backward=False):
    """Law of the signal at t_i given the data strictly before t_i (after it
    if ``backward``), for either model: from ``prior``, alternates
    ``update(law, data[j])`` with ``propagate(law, dt)`` towards t_i.
    ``data`` is None when the timeline carries the other model's data.

    The laws met are kept while the timeline lives, under the model ``key``;
    a call with the same key resumes from the longest kept prefix.  Steps
    run outside the lock: each law is deterministic, so a lost race costs
    only recomputation.
    """
    if data is None:
        raise DomainError(f"timeline carries {timeline.mode} data, not this model's")
    _check_size("time index", i)
    if i >= timeline.n_times:
        raise DomainError(f"time index {i} out of range")
    times, last = timeline.times, timeline.n_times - 1
    at = last - i if backward else i
    entry = _kept.get(id(timeline))
    laws = entry[1 + backward] if entry and entry[0] == key else (prior,)
    chain = list(laws)
    while len(chain) <= at:
        j = last + 1 - len(chain) if backward else len(chain) - 1
        law = update(chain[-1], data[j])
        dt = times[j] - times[j - 1] if backward else times[j + 1] - times[j]
        chain.append(propagate(law, dt))
    if len(chain) > len(laws):
        with _kept_lock:
            entry = _kept.get(id(timeline))
            if entry is None:
                weakref.finalize(timeline, _kept.pop, id(timeline), None)
            chains = list(entry[1:]) if entry and entry[0] == key else [(prior,)] * 2
            chains[backward] = max(chains[backward], tuple(chain), key=len)
            _kept[id(timeline)] = (key, *chains)
    return chain[at]


def _fv_filter(timeline, i, base, backward=False) -> DirichletMixtureLaw:
    return _filter(
        timeline,
        i,
        DirichletMixtureLaw.prior(base, timeline.registry),
        update_dirichlet,
        propagate_forward,
        timeline.fv_counts,
        _model_key(base),
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

    def indices(self, n_now: MultiIndex, which=slice(None)) -> np.ndarray:
        """Mixture index rows k + n_now + k' of the pairs (those at ``which``)."""
        rows, cols = np.divmod(self.positions[which], len(self.future))
        n = np.array(n_now.counts, dtype=np.int64)
        return self.past[rows] + n + self.future[cols]

    def codes(self, n_now: MultiIndex) -> np.ndarray:
        """Codes of the rows k + n_now + k' ordered as by _row_codes, no row
        built: in radix max(k_j) + n_j + max(k'_j) + 1 a sum's code is the
        sum of the codes (rows are built if that span would overflow)."""
        n = np.array(n_now.counts, dtype=np.int64)
        place = _place_values(self.past.max(axis=0) + n + self.future.max(axis=0) + 1)
        if place is None:
            return _row_codes(self.indices(n_now))
        outer = (self.past @ place + n @ place)[:, None] + self.future @ place
        return outer.ravel()[self.positions]

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


class _PartScores(NamedTuple):
    """Row score S of each part of a pair ratio (see _ratio_terms), mapping
    the columns of rows (as in _row_scores) to S of those rows: for the sums
    k + n + k', the forward row k, the current counts n, the backward row k'."""

    sums: Callable
    past: Callable
    now: Callable
    future: Callable


def _ratio_terms(a, n, b, score: _PartScores) -> np.ndarray:
    """S(k + n + k') - S(k) - S(n) - S(k') for every pair (k a row of a, k'
    a row of b), as an |a| x |b| grid.  The sums are passed one column at a
    time."""
    sums = (a[:, None, j] + n[j] + b[None, :, j] for j in range(len(n)))
    at_sums = score.sums(sums)
    at_past, at_now = score.past(a.T)[:, None], score.now(n[:, None])
    return ((at_sums - at_past) - at_now) - score.future(b.T)[None, :]


def _case_score(base: BaseMeasure, registry: TypeRegistry) -> _PartScores:
    """Row score of the case term, the same for every part: the observation
    score of a row r under the prior, _score_term(j, 0, r_j) summed over the
    types plus _total_term(theta, |r|).  Under a discrete base this is
    log_dir_cat(r); under a nonatomic one (alpha = 0) the per-type term is
    lgamma(r_j), the discretization limit, and the ratio is
    nonatomic_log_coefficient."""
    alpha_vec = base.alpha_vector(registry)
    carriers = (False,) * registry.k

    def term(j, rj):
        return _score_term(j, 0, rj, base.is_nonatomic, alpha_vec, carriers)

    def score(columns):
        return _row_scores(columns, term, lambda t: _total_term(base.theta, t))

    return _PartScores(score, score, score, score)


def _combine_pairs(first, second, n_now: MultiIndex, base: BaseMeasure, scores):
    """Unnormalized pair log-weights from propagated filter components,
    each given as (log-weights, index rows).

    Every pair term is a ratio of row scores (see _ratio_terms), added in
    the order of ``scores`` after the filter weights: the case term, and
    for the branching model first its total-count marginal ratio.  Under a
    nonatomic base measure only the pairs of maximal sharing degree survive
    the discretization limit.
    """
    (lw1, a), (lw2, b) = first, second
    n = np.array(n_now.counts, dtype=np.int64)
    lw = lw1[:, None] + lw2[None, :]
    for score in scores:
        lw = lw + _ratio_terms(a, n, b, score)
    if base.is_nonatomic:
        degrees = _sharing_degrees(a, n, b).ravel()
        positions = np.flatnonzero(degrees == degrees.max())
    else:
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
    filter law ``law`` but for ``changes``, by the codes of the pairs.

    Returns (pairs, law).
    """
    _check_epsilon(pruning_epsilon)
    log_weights = _normalized(pairs.log_weights)
    positions = pairs.positions
    if pruning_epsilon > 0.0:
        keep = _at_least(log_weights, pruning_epsilon)
        positions, log_weights = positions[keep], _normalized(log_weights[keep])
    pairs = replace(pairs, positions=positions, log_weights=log_weights)
    log_weights, where = _merged(log_weights, pairs.codes(n_now))
    return pairs, law._built(log_weights, pairs.indices(n_now, where), **changes)


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
    case = _case_score(base, timeline.registry)
    pairs = _combine_pairs(v1._arrays, v2._arrays, n_now, base, [case])
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


def _urn_masses(law: _MixtureBase, labels, counts: dict[str, int]) -> np.ndarray:
    """Urn weight of each of ``labels`` (columns) in each component of
    ``law`` (rows) given the label ``counts`` of earlier further samples,
    before division by theta + |m| + sum(counts); labels neither observed nor
    atoms of the base measure weigh as new ones.
    """
    base, registry = law.base, law.registry
    indices = law._arrays[1]
    alpha_vec = base.alpha_vector(registry)
    idle = _idle_atoms(base, registry)
    out = np.empty((len(indices), len(labels)))
    for col, lab in enumerate(labels):
        count = counts.get(lab, 0)
        if lab in registry:
            j = registry.index_of(lab)
            out[:, col] = alpha_vec[j] + indices[:, j] + count
        elif lab in idle:
            out[:, col] = idle[lab] + count
        else:
            out[:, col] = count or base.theta * base.unseen_mass
    return out


def _per_value(fn, values: np.ndarray) -> np.ndarray:
    """``fn(v)`` for every entry v of ``values``, one call per distinct value."""
    distinct, where = np.unique(values, return_inverse=True)
    return np.array([fn(v) for v in distinct.tolist()], dtype=float)[where]


def _component_weights(law: _MixtureBase, history=(), log_extra=None) -> np.ndarray:
    """Mixture weights given the earlier further samples ``history``.

    Each component's log-weight gains the log-likelihood of ``history``
    under its Polya urn and, if given, ``log_extra(theta + |m|)``; logs are
    taken by math.log once per distinct argument.  With nothing to condition
    on these are the mixture weights themselves.
    """
    logs, indices = law._arrays
    if not history and log_extra is None:
        return np.array([math.exp(lw) for lw in logs.tolist()])
    theta = law.base.theta
    totals = indices.sum(axis=1)
    if log_extra is not None:
        logs = logs + _per_value(lambda v: log_extra(theta + v), totals)
    seen: dict[str, int] = {}
    for step, lab in enumerate(history):
        num = _urn_masses(law, (lab,), seen)[:, 0]
        log_num = _per_value(lambda v: math.log(v) if v > 0 else -math.inf, num)
        log_den = _per_value(lambda v: math.log(theta + v + step), totals)
        logs = logs + (log_num - log_den)
        seen[lab] = seen.get(lab, 0) + 1
    shift = logsumexp_1d(logs)
    if shift == -math.inf:
        raise AllWeightsZero("history has probability zero under every component")
    return np.exp(logs - shift)


def _urn_pmf(law: _MixtureBase, history, log_extra=None) -> dict[str, float]:
    """Next-sample law of the urn mixture of ``law`` given ``history``; see
    predictive_pmf.  ``log_extra`` is as in _component_weights.  Components
    are summed in order (a cumulative sum), as a loop over them would."""
    base, registry = law.base, law.registry
    counts: dict[str, int] = {}
    for lab in history:
        counts[lab] = counts.get(lab, 0) + 1
    idle = _idle_atoms(base, registry)
    labels = list(dict.fromkeys((*registry.labels, *idle, *counts, NEW_LABEL)))
    weights = _component_weights(law, history, log_extra)
    denoms = base.theta + law._arrays[1].sum(axis=1) + len(history)
    terms = weights[:, None] * _urn_masses(law, labels, counts) / denoms[:, None]
    return dict(zip(labels, np.cumsum(terms, axis=0)[-1].tolist()))


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


_cumulative: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _pick(law: _MixtureBase, rng, history=(), log_extra=None) -> list[int]:
    """Index row of one component of ``law``, drawn by its weight given
    ``history`` and ``log_extra`` (as in _component_weights).  With nothing
    to condition on, the cumulative weights are built once per law and kept
    while it lives."""
    if history or log_extra is not None:
        cum = np.cumsum(_component_weights(law, history, log_extra))
    else:
        cum = _cumulative.get(law)
        if cum is None:
            logs = law._arrays[0]
            cum = _cumulative[law] = np.cumsum(np.exp(logs - logsumexp_1d(logs)))
    j = min(int(np.searchsorted(cum, rng.random(), side="right")), len(cum) - 1)
    return law._arrays[1][j].tolist()


def _check_size(name: str, value, low: int = 0) -> None:
    """Reject a size that is not an integer >= ``low`` (numpy integers pass,
    bools do not)."""
    ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (ok and value >= low):
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")


def _urn_draws(m, base, registry, count, rng, hist, used) -> list[str]:
    """``count`` further samples from the Polya urn of the component at index
    row ``m``, after the earlier further samples ``hist`` (extended in place).

    Each sample takes one uniform draw and comes from one of three sources
    with probabilities proportional to (theta, |m|, len(hist)): the base
    measure, whose mass off its atoms gives a fresh label not in ``used``;
    the component's atoms, in proportion to ``m``; or ``hist``.
    """
    theta = base.theta
    total = float(sum(m))
    atom_cum = list(itertools.accumulate(m))
    atoms = base.atom_probs or {}
    base_labels = tuple(atoms)
    base_cum = list(itertools.accumulate(atoms.values()))
    out: list[str] = []
    for _ in range(count):
        denom = theta + total + len(hist)
        v = rng.random() * denom
        if v < theta:
            u = v / theta
            j = bisect.bisect_right(base_cum, u)
            if j < len(base_labels):
                lab = base_labels[j]
            else:
                lab = _fresh_label(registry, used)
        elif v < theta + total:
            j = bisect.bisect_right(atom_cum, v - theta)
            lab = registry.labels[j]
        else:
            lab = hist[min(int(v - theta - total), len(hist) - 1)]
        out.append(lab)
        hist.append(lab)
    return out


def predictive_sample(
    result: FvSmoothingResult,
    count: int,
    rng: np.random.Generator,
    history: tuple[str, ...] = (),
) -> list[str]:
    """Sample further observations sequentially from the smoothed urn mixture.

    Picks one component of ``result.law`` by its smoothing weight
    conditioned on ``history``, then runs that component's Polya urn: each
    draw comes from one of three sources with probabilities proportional to
    (theta, the component's atom count, number of earlier further samples):
    the base measure, the weighted observed atoms, or the empirical history.
    """
    _check_size("count", count, 1)
    law = result.law
    hist = list(history)
    m = _pick(law, rng, hist)
    return _urn_draws(m, law.base, law.registry, count, rng, hist, set(hist))
