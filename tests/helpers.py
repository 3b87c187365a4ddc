"""Shared test utilities: randomized datasets and reference recursions.

The scalar reference engine at the end (``reference_spread``,
``reference_combine_pairs``, ``reference_merge``, the filters and smoother
built from them, and ``reference_predictive_pmf``) makes one Python call per
lattice point, per pair, per component and per label.  The engine's
predictive pmfs must reproduce its floats exactly; propagation of both
models and the pair combination reorder sums, so their laws and pair
weights must agree with it to ``assert_law_close``'s tolerance.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from mvhmm.core import (
    BaseMeasure,
    DirichletMixtureLaw,
    GammaMixtureLaw,
    MultiIndex,
    ObservationTimeline,
    TypeRegistry,
    logsumexp_1d,
)
from mvhmm.dual import (
    DEFAULT_DW_RATE_CONSTANT,
    DwDualSpec,
    FvDualSpec,
    c_flow,
    dw_typed_log_prob,
    fv_typed_log_prob,
)
from mvhmm.dw import propagate_dw, update_gamma
from mvhmm.errors import AllWeightsZero
from mvhmm.fv import (
    NEW_LABEL,
    SharedAtomSets,
    observation_log_score,
    propagate_forward,
    update_dirichlet,
)
from mvhmm.specfun import (
    log_dir_cat,
    log_gamma_marginal,
    log_neg_bin_pmf,
    log_pochhammer,
)


def assert_law_close(law, ref, rel=1e-13):
    """``law`` and ``ref`` list the same components in the same order, with
    the same rate offset (gamma laws), and log-weights within
    rel * max(1, |x|) of each other.  Pair log-weight dicts (keys (k, k'))
    compare the same way."""
    if isinstance(law, dict):
        items, ref_items = list(law.items()), list(ref.items())
    else:
        assert getattr(law, "rate_offset", None) == getattr(ref, "rate_offset", None)
        items = [(idx, lw) for lw, idx in law.components]
        ref_items = [(idx, lw) for lw, idx in ref.components]
    assert [key for key, _ in items] == [key for key, _ in ref_items]
    for (key, x), (_, y) in zip(items, ref_items):
        assert abs(x - y) <= rel * max(1.0, abs(y)), (key, x, y)


# dw draws over four types at six times 0.4 apart, two draws per time with
# Poisson(1) counts per type (numpy's default_rng(1)).  Under a uniform
# discrete base with theta = 2 and beta = 1, every smoothing pair at index 3
# weighs less than 1e-3.
FOUR_TYPE_DRAWS = (
    ((2, 1, 1, 1), (0, 2, 1, 1)),
    ((1, 0, 1, 3), (1, 0, 2, 2)),
    ((1, 1, 0, 2), (0, 2, 1, 3)),
    ((1, 0, 3, 0), (0, 3, 0, 3)),
    ((2, 1, 4, 0), (1, 1, 1, 1)),
    ((1, 1, 0, 1), (1, 2, 3, 1)),
)


def random_dataset(rng: np.random.Generator, mode: str, base_kind: str):
    """K <= 3 types, N <= 4 times, total counts <= 8."""
    k = int(rng.integers(1, 4))
    n_times = int(rng.integers(1, 5))
    times = np.sort(rng.uniform(0.0, 2.0, size=n_times))
    while np.any(np.diff(times) < 1e-3):
        times = np.sort(rng.uniform(0.0, 2.0, size=n_times))
    labels = tuple(f"y{j}" for j in range(k))
    registry = TypeRegistry(labels)
    total = int(rng.integers(1, 9))
    cells = rng.multinomial(total, np.full(n_times * k, 1.0 / (n_times * k)))
    counts = cells.reshape(n_times, k)
    theta = float(rng.uniform(0.5, 3.0))
    if base_kind == "discrete":
        probs = rng.dirichlet(np.ones(k + 1))
        base = BaseMeasure(theta, {lab: float(p) for lab, p in zip(labels, probs)})
    else:
        base = BaseMeasure(theta)
    if mode == "fv":
        timeline = ObservationTimeline(
            tuple(float(t) for t in times),
            registry,
            tuple(MultiIndex(row) for row in counts),
        )
        return timeline, base, None
    beta = float(rng.uniform(0.5, 2.0))
    draws_per_time = []
    for row in counts:
        c_i = int(rng.integers(1, 3))
        splits = [np.zeros(k, dtype=int) for _ in range(c_i)]
        for j, nj in enumerate(row):
            alloc = rng.multinomial(nj, np.full(c_i, 1.0 / c_i))
            for d in range(c_i):
                splits[d][j] = alloc[d]
        draws_per_time.append(tuple(MultiIndex(s) for s in splits))
    timeline = ObservationTimeline(
        tuple(float(t) for t in times), registry, dw_draws=tuple(draws_per_time)
    )
    return timeline, base, beta


def reference_smooth_pairs_fv(timeline, i, base, rtol=1e-10):
    """Double-sum reference combination over pre-propagation filter components.

    Dispatches the nonatomic case term per (h, l) block; agrees with the
    engine on any discrete-base dataset and on three-time nonatomic ones.
    """
    theta = base.theta
    spec = FvDualSpec(theta)
    registry = timeline.registry
    k_zero = MultiIndex.zeros(registry.k)

    def filtered_upto(idx):
        law = DirichletMixtureLaw.prior(base, registry)
        for j in range(idx):
            law = update_dirichlet(law, timeline.fv_counts[j])
            law = propagate_forward(law, timeline.times[j + 1] - timeline.times[j], rtol)
        return update_dirichlet(law, timeline.fv_counts[idx])

    def filtered_downto(idx):
        law = DirichletMixtureLaw.prior(base, registry)
        for j in range(timeline.n_times - 1, idx, -1):
            law = update_dirichlet(law, timeline.fv_counts[j])
            law = propagate_forward(law, timeline.times[j] - timeline.times[j - 1], rtol)
        return update_dirichlet(law, timeline.fv_counts[idx])

    if i > 0:
        v1 = filtered_upto(i - 1).log_weights()
        d_past = timeline.times[i] - timeline.times[i - 1]
    else:
        v1 = {k_zero: 0.0}
        d_past = 0.0
    if i < timeline.n_times - 1:
        v2 = filtered_downto(i + 1).log_weights()
        d_future = timeline.times[i + 1] - timeline.times[i]
    else:
        v2 = {k_zero: 0.0}
        d_future = 0.0
    n_now = timeline.fv_counts[i]
    alpha_vec = None if base.is_nonatomic else base.alpha_vector(registry)
    raw = {}
    for h, lw1 in v1.items():
        for ell, lw2 in v2.items():
            shared = SharedAtomSets.from_counts(h, n_now, ell)
            for k in h.lattice_below():
                lp1 = (
                    fv_typed_log_prob(spec, h, k, d_past, rtol)
                    if d_past > 0
                    else (0.0 if k == h else -math.inf)
                )
                if lp1 == -math.inf:
                    continue
                for kp in ell.lattice_below():
                    lp2 = (
                        fv_typed_log_prob(spec, ell, kp, d_future, rtol)
                        if d_future > 0
                        else (0.0 if kp == ell else -math.inf)
                    )
                    if lp2 == -math.inf:
                        continue
                    if base.is_nonatomic:
                        if not shared.contains(k, kp):
                            continue
                        case = nonatomic_log_coefficient(k, n_now, kp, theta)
                    else:
                        case = discrete_case_log(k, n_now, kp, alpha_vec, theta)
                    val = lw1 + lw2 + lp1 + lp2 + case
                    key = (k, kp)
                    raw[key] = (
                        val
                        if key not in raw
                        else float(np.logaddexp(raw[key], val))
                    )
    logs = np.array(list(raw.values()))
    shift = logs.max() + math.log(np.exp(logs - logs.max()).sum())
    return {key: lw - shift for key, lw in raw.items()}


def reference_smooth_pairs_dw(
    timeline, i, base, beta, kappa=DEFAULT_DW_RATE_CONSTANT
):
    """Double-sum reference combination for the branching model (discrete)."""
    theta = base.theta
    registry = timeline.registry
    k_zero = MultiIndex.zeros(registry.k)

    def filtered_upto(idx):
        law = GammaMixtureLaw.prior(base, registry, beta)
        for j in range(idx):
            law = update_gamma(law, timeline.dw_draws[j])
            law = propagate_dw(law, timeline.times[j + 1] - timeline.times[j], kappa)
        return update_gamma(law, timeline.dw_draws[idx])

    def filtered_downto(idx):
        law = GammaMixtureLaw.prior(base, registry, beta)
        for j in range(timeline.n_times - 1, idx, -1):
            law = update_gamma(law, timeline.dw_draws[j])
            law = propagate_dw(law, timeline.times[j] - timeline.times[j - 1], kappa)
        return update_gamma(law, timeline.dw_draws[idx])

    if i > 0:
        law1 = filtered_upto(i - 1)
        v1 = law1.log_weights()
        b1 = law1.rate_offset
        d_past = timeline.times[i] - timeline.times[i - 1]
        a_past = c_flow(beta, b1, d_past)
    else:
        v1 = {k_zero: 0.0}
        b1 = 0.0
        d_past = 0.0
        a_past = 0.0
    if i < timeline.n_times - 1:
        law2 = filtered_downto(i + 1)
        v2 = law2.log_weights()
        b2 = law2.rate_offset
        d_future = timeline.times[i + 1] - timeline.times[i]
        a_future = c_flow(beta, b2, d_future)
    else:
        v2 = {k_zero: 0.0}
        b2 = 0.0
        d_future = 0.0
        a_future = 0.0
    n_now = timeline.counts_at(i)
    c_now = timeline.cardinality_at(i)
    alpha_vec = None if base.is_nonatomic else base.alpha_vector(registry)
    spec1 = DwDualSpec(theta, beta, b1, kappa)
    spec2 = DwDualSpec(theta, beta, b2, kappa)
    raw = {}
    for h, lw1 in v1.items():
        for ell, lw2 in v2.items():
            shared = SharedAtomSets.from_counts(h, n_now, ell)
            for k in h.lattice_below():
                lp1 = (
                    dw_typed_log_prob(spec1, h, k, d_past)
                    if d_past > 0
                    else (0.0 if k == h else -math.inf)
                )
                if lp1 == -math.inf:
                    continue
                for kp in ell.lattice_below():
                    lp2 = (
                        dw_typed_log_prob(spec2, ell, kp, d_future)
                        if d_future > 0
                        else (0.0 if kp == ell else -math.inf)
                    )
                    if lp2 == -math.inf:
                        continue
                    if base.is_nonatomic:
                        if not shared.contains(k, kp):
                            continue
                        case = nonatomic_log_coefficient(k, n_now, kp, theta)
                    else:
                        case = discrete_case_log(k, n_now, kp, alpha_vec, theta)
                    s = k.total + n_now.total + kp.total
                    gpart = gamma_ratio_log(
                        s,
                        k.total,
                        n_now.total,
                        kp.total,
                        a_past,
                        float(c_now),
                        a_future,
                        theta,
                        beta,
                    )
                    val = lw1 + lw2 + lp1 + lp2 + gpart + case
                    key = (k, kp)
                    raw[key] = (
                        val
                        if key not in raw
                        else float(np.logaddexp(raw[key], val))
                    )
    logs = np.array(list(raw.values()))
    shift = logs.max() + math.log(np.exp(logs - logs.max()).sum())
    return {key: lw - shift for key, lw in raw.items()}


# ---------------------------------------------------------------------------
# scalar reference engine
# ---------------------------------------------------------------------------


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
    """The case term of one pair under a discrete base: a ratio of
    Dirichlet-categorical marginals."""
    s = [a + b + c for a, b, c in zip(k, n, kp)]
    return (
        log_dir_cat(s, alpha_vec, total=theta)
        - log_dir_cat(k.counts, alpha_vec, total=theta)
        - log_dir_cat(n.counts, alpha_vec, total=theta)
        - log_dir_cat(kp.counts, alpha_vec, total=theta)
    )


def gamma_ratio_log(
    s_tot, k_tot, n_tot, kp_tot, a_past, c_now, a_future, theta, beta
) -> float:
    """The branching model's total-count marginal ratio of one pair."""
    return (
        log_gamma_marginal(s_tot, a_past + c_now + a_future, theta, beta)
        - log_gamma_marginal(k_tot, a_past, theta, beta)
        - log_gamma_marginal(n_tot, c_now, theta, beta)
        - log_gamma_marginal(kp_tot, a_future, theta, beta)
    )


def reference_merge(components):
    """Merge equal indices by np.logaddexp in first-seen order, drop -inf,
    sort lexicographically, then normalize."""
    by_index: dict[MultiIndex, float] = {}
    for lw, idx in components:
        if lw == -math.inf:
            continue
        prev = by_index.get(idx)
        by_index[idx] = lw if prev is None else float(np.logaddexp(prev, lw))
    out = [(lw, idx) for idx, lw in by_index.items()]
    out.sort(key=lambda pair: pair[1].counts)
    if not out:
        raise AllWeightsZero("mixture has no component with positive weight")
    shift = logsumexp_1d(np.array([lw for lw, _ in out]))
    return tuple((lw - shift, idx) for lw, idx in out)


def reference_sort_fold(log_weights: np.ndarray, codes: np.ndarray):
    """The merge as a stable sort and a segmented reduce: -inf weights drop,
    the rest sort stably by code, and np.logaddexp.reduceat folds each run of
    equal codes left to right from its first member.  Returns the folded
    log-weights in code order and the position of the first member of each
    group."""
    kept = np.flatnonzero(log_weights != -math.inf)
    order = kept[np.argsort(codes[kept], kind="stable")]
    if not len(order):
        return log_weights[order], order
    starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
    return np.logaddexp.reduceat(log_weights[order], starts), order[starts]


def reference_normalized(raw: dict) -> dict:
    shift = logsumexp_1d(np.array(list(raw.values())))
    return {key: lw - shift for key, lw in raw.items()}


def reference_spread(components, log_prob) -> list:
    """Components spread over the lattice below each index, one
    ``log_prob(m, k)`` call per lattice point; impossible moves drop."""
    comps = []
    for lw, m in components:
        for k in m.lattice_below():
            lp = log_prob(m, k)
            if lp != -math.inf:
                comps.append((lw + lp, k))
    return comps


def reference_case_log(k, n, kp, base, alpha_vec):
    """The case term of one pair as a ratio of prior observation scores,
    S(k + n + kp) - S(k) - S(n) - S(kp), for either base measure: under a
    discrete one it is discrete_case_log, under a nonatomic one
    nonatomic_log_coefficient (in another order of operations)."""
    zeros = MultiIndex.zeros(len(k))
    no_carriers = (False,) * len(k)

    def score(r):
        return observation_log_score(
            zeros, r, base, alpha_vec, no_carriers, base.theta
        )

    return ((score(k + n + kp) - score(k)) - score(n)) - score(kp)


def reference_combine_pairs(comps1, comps2, n_now, base, alpha_vec, extra=None):
    """Unnormalized pair log-weights, one case-term call per pair."""
    pairs = ((k, kp, lw1 + lw2) for lw1, k in comps1 for lw2, kp in comps2)
    if base.is_nonatomic:
        pairs = list(pairs)
        degrees = [sharing_degree(k, n_now, kp) for k, kp, _ in pairs]
        best = max(degrees)
        pairs = [pair for pair, d in zip(pairs, degrees) if d == best]
    raw = {}
    for k, kp, lw in pairs:
        if extra is not None:
            lw += extra(k, kp)
        if base.is_nonatomic:
            case = reference_case_log(k, n_now, kp, base, alpha_vec)
        else:
            case = discrete_case_log(k, n_now, kp, alpha_vec, base.theta)
        raw[(k, kp)] = lw + case
    return raw


def reference_update(law, block):
    """Conjugate update of either model's law, scored component by component."""
    gamma = isinstance(law, GammaMixtureLaw)
    if gamma:
        c = len(block)
        if c == 0:
            return law
        n = sum(block, MultiIndex.zeros(law.registry.k))
        rate = law.beta + law.rate_offset
        changes = {"rate_offset": law.rate_offset + c}
    else:
        n = block
        if n.is_zero():
            return law
        changes = {}
    alpha_vec = law.base.alpha_vector(law.registry)
    carriers = tuple(
        any(idx[j] > 0 for _, idx in law.components) for j in range(law.registry.k)
    )
    comps = []
    for lw, m in law.components:
        theta_eff = law.base.theta + m.total
        score = observation_log_score(m, n, law.base, alpha_vec, carriers, theta_eff)
        if score == -math.inf:
            continue
        if gamma:
            lw += log_gamma_marginal(n.total, float(c), theta_eff, rate)
        comps.append((lw + score, m + n))
    return dataclasses.replace(law, components=reference_merge(comps), **changes)


def reference_propagate(law, dt, kappa=DEFAULT_DW_RATE_CONSTANT):
    """Propagation of either model's law, one transition call per lattice
    point."""
    if dt == 0.0:
        return law
    if isinstance(law, GammaMixtureLaw):
        spec = DwDualSpec(law.base.theta, law.beta, law.rate_offset, kappa)
        comps = reference_spread(
            law.components, lambda m, k: dw_typed_log_prob(spec, m, k, dt)
        )
        changes = {"rate_offset": c_flow(law.beta, law.rate_offset, dt)}
    else:
        spec = FvDualSpec(law.base.theta)
        comps = reference_spread(
            law.components, lambda m, k: fv_typed_log_prob(spec, m, k, dt)
        )
        changes = {}
    return dataclasses.replace(law, components=reference_merge(comps), **changes)


def reference_filter(timeline, i, base, beta=None, backward=False):
    """filter_forward/filter_backward (``_dw`` when ``beta`` is given)."""
    if beta is None:
        law = DirichletMixtureLaw.prior(base, timeline.registry)
        data = timeline.fv_counts
    else:
        law = GammaMixtureLaw.prior(base, timeline.registry, beta)
        data = timeline.dw_draws
    times = timeline.times
    for j in range(timeline.n_times - 1, i, -1) if backward else range(i):
        law = reference_update(law, data[j])
        dt = times[j] - times[j - 1] if backward else times[j + 1] - times[j]
        law = reference_propagate(law, dt)
    return law


def reference_smooth(timeline, i, base, pruning_epsilon, beta=None):
    """smooth/smooth_dw: returns (pair log-weights, law)."""
    v1 = reference_filter(timeline, i, base, beta)
    v2 = reference_filter(timeline, i, base, beta, backward=True)
    n_now = timeline.counts_at(i)
    extra, changes = None, {}
    if beta is not None:
        c_now = timeline.cardinality_at(i)
        a_past, a_future = v1.rate_offset, v2.rate_offset

        def extra(k, kp):
            s = k.total + n_now.total + kp.total
            return gamma_ratio_log(
                s, k.total, n_now.total, kp.total, a_past, c_now, a_future,
                base.theta, beta,
            )

        changes = {"rate_offset": a_past + c_now + a_future}
    alpha_vec = base.alpha_vector(timeline.registry)
    raw = reference_combine_pairs(
        v1.components, v2.components, n_now, base, alpha_vec, extra
    )
    pairs = reference_normalized(raw)
    if pruning_epsilon > 0.0:
        pairs = reference_normalized(
            {pair: lw for pair, lw in pairs.items() if math.exp(lw) >= pruning_epsilon}
        )
    comps = [(lw, k + n_now + kp) for (k, kp), lw in pairs.items()]
    return pairs, dataclasses.replace(v1, components=reference_merge(comps), **changes)


def _reference_urn_mass(base, registry):
    """``mass(lab, m, counts)``: urn weight of ``lab`` in the component at
    ``m`` given the label ``counts`` of earlier further samples, before
    division by theta + |m| + sum(counts); other labels weigh as new ones."""
    index = {lab: j for j, lab in enumerate(registry.labels)}
    alpha_vec = base.alpha_vector(registry)
    idle = {
        lab: base.theta * p
        for lab, p in (base.atom_probs or {}).items()
        if lab not in registry
    }
    new_mass = base.theta * base.unseen_mass

    def mass(lab, m, counts):
        if lab in index:
            j = index[lab]
            return alpha_vec[j] + m[j] + counts.get(lab, 0)
        if lab in idle:
            return idle[lab] + counts.get(lab, 0)
        return counts.get(lab, 0) or new_mass

    return mass, idle


def _reference_component_weights(components, base, registry, history, log_extra):
    """Mixture weights given ``history``, one urn term per component and
    history step and one ``log_extra(theta + |m|)`` call per component."""
    if not history and log_extra is None:
        return [math.exp(lw) for lw, _ in components]
    mass, _ = _reference_urn_mass(base, registry)
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


def reference_predictive_pmf(law, history=(), m_count=None):
    """fv.predictive_pmf, or dw.predictive_label_pmf given the draw size
    ``m_count``: the urn mixture summed component by component and label by
    label."""
    base, registry = law.base, law.registry
    log_extra = None
    if m_count is not None:
        p = 1.0 / (1.0 + (law.beta + law.rate_offset))

        def log_extra(theta_eff):
            return log_neg_bin_pmf(m_count, theta_eff, p)

    components = law.components
    weights = _reference_component_weights(
        components, base, registry, history, log_extra
    )
    mass, idle = _reference_urn_mass(base, registry)
    counts: dict[str, int] = {}
    for lab in history:
        counts[lab] = counts.get(lab, 0) + 1
    out = dict.fromkeys((*registry.labels, *idle, *counts, NEW_LABEL), 0.0)
    for w, (_, m) in zip(weights, components):
        denom = base.theta + sum(m) + len(history)
        for lab in out:
            out[lab] += w * mass(lab, m, counts) / denom
    return out
