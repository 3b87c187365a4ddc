"""Exact filtering, smoothing and prediction for the probability-measure-valued
signal with Dirichlet-mixture conditional laws.

Conditional laws of the signal given count data are finite mixtures of
Dirichlet random-measure laws indexed by multi-indices over the observed
types.  Updates are conjugate; propagation in either time direction moves
every component down the sub-lattice below its index by the typed death
chain (forward and backward propagation coincide for these laws).

Two base-measure regimes are supported.  With a discrete mutation offspring
distribution every weight is a ratio of Dirichlet-categorical marginals.
With a nonatomic one the weights are the limits of those ratios under ever
finer discretizations: components that fail to carry an atom for a type
observed at more than one collection time are suppressed by a vanishing
factor and drop out, while the surviving ones keep the ratio at zero atom
mass, each type contributing lgamma of its count (the paper's factorial
coefficients).

The filter loop, pair combination, pruning and predictive urn below serve
both models: the branching engine (dw.py) passes in its own update,
propagation and the row score of its total-count pair term.  Every pair-term
hook is one function ``score(columns, a)`` of the rows and a block's draw
cardinality a, which the case term ignores.  The filter loop keeps the laws
it meets on each live timeline (the filters at t_i are prefixes of those at
t_{i+1}), so smoothing every index runs each filter step once per direction.

Mixtures enter these kernels as a log-weight vector and an index-row matrix.
The update scores index rows from per-column tables of the observation
score's terms, each evaluated once per distinct argument by the scalar
function that defines it and then gathered, and shifts the rows, which
keeps a law's rows distinct and in order.  fv propagation runs the one-death
recursion of the dual on the dense box of indices up to the largest of each
type, in the log domain, at a cost of (largest total + 1) times the box; it
adds in another order than the per-move formulas, so fv filter laws agree
with them to about 1e-15 relative, not bit for bit.

The pair combination runs on dense boxes.  Every pair term is one ratio
S(k + n + k') - S(k) - S(n) - S(k') of row scores, the case term's S being
the observation score under the prior; it splits into a factor of k, one of
k' and one of the component index k + n + k'.  The first two go onto the
filter weights, which are folded over the box of sums k + k' (one lattice
convolution); the third is added cell by cell.  The fold runs in the linear
domain, one matrix product per row of the smaller box, on weights shifted
by their largest; pruning, and a law whose log-weights span 300 nats or
more (which could underflow), fold in the log domain, np.logaddexp slab by
slab.  The finite cells of the box, read in C order, are the merged
smoothing law in canonical order.  Smoothing results build
``pair_log_weights`` from the same factors on first access.

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
from dataclasses import dataclass, field

import numpy as np

from .core import (
    _SPAN,
    BaseMeasure,
    DirichletMixtureLaw,
    MultiIndex,
    ObservationTimeline,
    TypeRegistry,
    _MixtureBase,
    _at_least,
    _box,
    _cells,
    _check_epsilon,
    _exp_box,
    _log_box,
    _log_summed,
    _normalized,
    logsumexp_1d,
)
from .dual import DEFAULT_ODE_RTOL, _table, _totals_tables
from .errors import AllWeightsZero, DomainError

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
    (log-weights, index rows) in the law's canonical order.

    Indices shift by n, which keeps them distinct and in order; log-weights
    gain ``log_extra(theta + |m|)``, if given, and the observation score.
    Components it rules out (-inf) drop.
    """
    base = law.base
    alpha_vec = base.alpha_vector(law.registry)
    log_weights, indices = law._merged_arrays()
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
    log_weights = log_weights + scores
    keep = log_weights != -math.inf
    return log_weights[keep], indices[keep] + np.array(n.counts, dtype=np.int64)


def update_dirichlet(law: DirichletMixtureLaw, n: MultiIndex) -> DirichletMixtureLaw:
    """Condition the mixture on counts ``n`` observed at the current time.

    Every component index shifts by n; weights are rescored by the
    component-specific marginal likelihood and renormalized.
    """
    if len(n) != law.registry.k:
        raise DomainError("observation length != registry size")
    if n.is_zero():
        return law
    return law._built(*_rescored(law, n))


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def propagate_forward(
    law: DirichletMixtureLaw, dt: float, rtol: float = DEFAULT_ODE_RTOL
) -> DirichletMixtureLaw:
    """Law of the signal an interval dt later, the data staying fixed.

    A death removes a uniformly chosen lineage: (D w)(k) = sum_j w(k + e_j)
    (k_j + 1) / (|k| + 1).  So w'(k) = sum_d P[|k| + d, |k|] (D^d w)(k), P
    the totals table, on the box of shape max_j + 1 in the log domain.  On
    w(k) k_1! ... k_K! / |k|! a step D is the sum of the K shifted boxes; its
    powers are kept in one array, summed over d by one gather of P and one
    log-sum-exp.
    """
    if not 0.0 <= dt < math.inf:
        raise DomainError(f"time step must be finite and >= 0, got {dt}")
    log_weights, indices = law._arrays
    top = int(indices.sum(axis=1).max())
    if dt == 0.0 or top == 0:  # nothing to move
        return law
    log_p = _totals_tables(law.base.theta, dt, top)[1]
    side = tuple((indices.max(axis=0) + 1).tolist())
    grid = np.indices(side, sparse=True)
    totals = np.minimum(sum(grid), top)  # no mass lies past the largest total
    log_fact = _table(lambda v: math.lgamma(v + 1), top)
    tilt = sum(log_fact[g] for g in grid) - log_fact[totals]
    steps = np.empty((top + 1, *side))
    steps[0] = _box(log_weights, indices, side) + tilt
    others = [steps.swapaxes(1, j) for j in range(2, len(side) + 1)]
    for d in range(1, top + 1):
        steps[d, -1] = -math.inf
        steps[d, :-1] = steps[d - 1, 1:]
        for view in others:
            np.logaddexp(view[d, :-1], view[d - 1, 1:], out=view[d, :-1])
    depth = np.arange(top + 1).reshape((-1,) + (1,) * len(side))
    steps += log_p[np.minimum(totals + depth, top), totals]
    return law._built(*_cells(_log_summed(steps, 0) - tilt))


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


def _filter(timeline, i, prior, update, propagate, data, key, backward=False):
    """Law of the signal at t_i given the data strictly before t_i (after it
    if ``backward``), for either model: from ``prior``, alternates
    ``update(law, data[j])`` with ``propagate(law, dt)`` towards t_i.
    ``data`` is None when the timeline carries the other model's data.

    The laws met are kept while the timeline lives, under the model ``key``
    of parameters; a call with an equal key (equal bases, whatever the order
    of their atoms) resumes from the longest kept prefix.  Steps run outside
    the lock: each law is deterministic, so a lost race costs only
    recomputation.
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
        (base,),
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


@dataclass(frozen=True, eq=False)
class _Pairs:
    """Retained pairs (k, k'): k a row of ``past`` weighing ``u``, k' a row of
    ``future`` weighing ``v``.  A pair's normalized log-weight is
    u + v + f[k + k'] - log_z; with a positive ``epsilon`` the pairs it keeps
    (see _pair_fold) are renormalized.  ``count`` pairs are kept."""

    past: np.ndarray
    u: np.ndarray
    future: np.ndarray
    v: np.ndarray
    f: np.ndarray
    log_z: float
    epsilon: float
    count: int

    def as_dict(self) -> dict[tuple[MultiIndex, MultiIndex], float]:
        a, b = self.past, self.future
        sums = tuple(a[:, None, j] + b[None, :, j] for j in range(a.shape[1]))
        lw = ((self.u[:, None] + self.v[None, :]) + self.f[sums] - self.log_z).ravel()
        positions = np.arange(len(lw))
        if self.epsilon > 0.0:
            positions = np.flatnonzero(_at_least(lw, self.epsilon))
            lw = _normalized(lw[positions])
        past = list(map(MultiIndex, self.past.tolist()))
        future = list(map(MultiIndex, self.future.tolist()))
        rows, cols = np.divmod(positions, len(self.future))
        return {
            (past[i], future[j]): w
            for i, j, w in zip(rows.tolist(), cols.tolist(), lw.tolist())
        }


def _case_score(base: BaseMeasure, registry: TypeRegistry):
    """Row score of the case term, ``score(columns, a)``, which ignores the
    draw cardinality ``a``: the observation score of a row r under the
    prior, _score_term(j, 0, r_j) summed over the types plus
    _total_term(theta, |r|).  Under a discrete base this is log_dir_cat(r);
    under a nonatomic one (alpha = 0) the per-type term is lgamma(r_j), the
    discretization limit, and the ratio is the paper's factorial
    coefficient."""
    alpha_vec = base.alpha_vector(registry)
    carriers = (False,) * registry.k

    def term(j, rj):
        return _score_term(j, 0, rj, base.is_nonatomic, alpha_vec, carriers)

    def score(columns, a):
        return _row_scores(columns, term, lambda t: _total_term(base.theta, t))

    return score


def _sliced(w: np.ndarray, rows: np.ndarray, other: np.ndarray, n: np.ndarray):
    """(log-weights ``w``, index ``rows``) less the rows of lower sharing
    degree: those with a zero count of a type that some row carries and that
    ``n`` or some row of ``other`` carries too.  On filter laws, whose rows
    fill their box, the pairs of the rows kept are those of maximal sharing
    degree."""
    shared = (rows.max(axis=0) > 0) & ((n > 0) | (other.max(axis=0) > 0))
    keep = (rows[:, shared] > 0).all(axis=1)
    return w[keep], rows[keep]


def _pair_fold(u, a, v, b, f, log_z=0.0, epsilon=0.0):
    """log sum exp(u[k] + v[k']) over the pairs (k a row of ``a``, k' a row
    of ``b``) at each cell k + k' of the box of ``f``, -inf where no pair
    lands.  Unpruned, and when u and v each span less than _SPAN, in the
    linear domain (_linear_fold); otherwise in the log domain (_log_fold).
    With a positive ``epsilon`` a pair is left out when math.exp of its
    normalized log-weight u + v + f - log_z is below it.  Returns the box
    and the pairs folded."""
    if len(a) > len(b):
        u, a, v, b = v, b, u, a
    if epsilon > 0.0 or max(np.ptp(u), np.ptp(v)) >= _SPAN:
        return _log_fold(u, a, v, b, f, log_z, epsilon)
    (x, top_u), (y, top_v) = _exp_box(u, a), _exp_box(v, b)
    return _log_box(_linear_fold(x, y, f.shape), top_u + top_v), len(a) * len(b)


def _linear_fold(x: np.ndarray, y: np.ndarray, shape) -> np.ndarray:
    """sum x[k] y[k'] over the cells k of box ``x`` and k' of box ``y`` at
    each cell k + k' of an array of ``shape``, for nonnegative boxes.

    Both boxes are taken as matrices of rows along the last axis.  Each
    nonzero row p of ``x`` is one Toeplitz matrix T_p, of y's last side by
    that of ``shape``, with T_p[t, s] the entry s - t of row p (0 off the
    row), so y's rows times T_p are the pairs of row p, added into the
    window at p's leading index.  One matrix product per nonzero row of
    ``x``."""
    a_k, b_k, o_k = x.shape[-1], y.shape[-1], shape[-1]
    rows_a, rows_b = x.reshape(-1, a_k), y.reshape(-1, b_k)
    gather = np.arange(o_k) - np.arange(b_k)[:, None] + (b_k - 1)
    padded = np.zeros(a_k + 2 * (b_k - 1))
    out = np.zeros(shape)
    lead = y.shape[:-1] + (o_k,)
    live = np.flatnonzero(rows_a.any(axis=1))
    starts = np.array(np.unravel_index(live, x.shape[:-1] + (1,))).T.tolist()
    for p, start in zip(live.tolist(), starts):
        padded[b_k - 1 : b_k - 1 + a_k] = rows_a[p]
        window = tuple(slice(i, i + s) for i, s in zip(start, lead))
        out[window] += (rows_b @ padded[gather]).reshape(lead)
    return out


def _log_fold(u, a, v, b, f, log_z=0.0, epsilon=0.0):
    """_pair_fold in the log domain, ``a`` the shorter: one slab per row of
    ``a``, folded in by np.logaddexp, with pruning a mask of each slab.
    Raises DomainError when pruning leaves no pair."""
    side = (b.max(axis=0) + 1).tolist()
    slab = _box(v, b, side)
    out = np.full(f.shape, -math.inf)
    count = 0 if epsilon > 0.0 else len(a) * len(b)
    heaviest = -math.inf
    for x, k in zip(u.tolist(), a.tolist()):
        window = tuple(slice(kj, kj + s) for kj, s in zip(k, side))
        terms = slab + x
        if epsilon > 0.0:
            lw = (terms + f[window] - log_z).ravel()
            kept = _at_least(lw, epsilon).reshape(terms.shape)
            terms[~kept] = -math.inf
            count += int(np.count_nonzero(kept))
            heaviest = max(heaviest, float(lw.max()))
        np.logaddexp(out[window], terms, out=out[window])
    if epsilon > 0.0 and not count:
        raise DomainError(
            f"pruning epsilon {epsilon!r} leaves no smoothing pair: "
            f"the largest pair weight is {math.exp(heaviest)!r}"
        )
    return out, count


def _smoothed(
    first, second, n_now: MultiIndex, scores, epsilon: float, cards=(0, 0, 0), **changes
):
    """Smoothing law from the propagated filter laws ``first`` and
    ``second``, as (pairs, a copy of ``first`` but for ``changes``).

    Every pair term is a ratio of row scores S(k + n + k') - S(k) - S(n)
    - S(k'), one per ``scores`` (the case term, and for the branching model
    its total-count marginal ratio), each ``score(columns, a)`` at the draw
    cardinalities ``cards`` = (past, now, future), the sums at their total.
    It splits as F(k + n + k') + G(k) + H(k'): u = w1 + G on the forward
    rows and v = w2 + H on the backward ones are folded over the box of sums
    k + k' (one lattice convolution, in the linear domain when the weights
    allow), then F is added.  Under a nonatomic base measure only the pairs
    of maximal sharing degree survive the discretization limit (_sliced).
    Pruning folds again in the log domain, dropping pairs as a mask of each
    slab; it raises DomainError when no pair is left.
    """
    _check_epsilon(epsilon)
    (u, a), (v, b) = first._arrays, second._arrays
    n = np.array(n_now.counts, dtype=np.int64)
    a_past, c_now, a_future = cards
    for score in scores:
        u, v = u - score(a.T, a_past), v - score(b.T, a_future)
    if first.base.is_nonatomic:
        (u, a), (v, b) = _sliced(u, a, b, n), _sliced(v, b, a, n)
    if not (len(a) and len(b)):
        raise AllWeightsZero("no pair of filter components has maximal sharing degree")
    grid = np.indices(tuple(a.max(axis=0) + b.max(axis=0) + 1), sparse=True)
    sums = [g + nj for g, nj in zip(grid, n)]
    f = sum(score(sums, sum(cards)) - score(n[:, None], c_now) for score in scores)
    box, count = _pair_fold(u, a, v, b, f)
    log_weights, rows = _cells(box + f)
    log_z = logsumexp_1d(log_weights)
    if epsilon > 0.0:
        box, count = _pair_fold(u, a, v, b, f, log_z, epsilon)
        log_weights, rows = _cells(box + f)
    pairs = _Pairs(a, u, b, v, f, log_z, epsilon, count)
    return pairs, first._built(log_weights, rows + n, **changes)


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
        return self._pairs.count

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
    pairs, law = _smoothed(v1, v2, n_now, [case], pruning_epsilon)
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
