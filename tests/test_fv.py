"""Dirichlet-mixture engine: updates, propagation, filtering, smoothing,
prediction."""

import math
import time
from collections import Counter

import numpy as np
import pytest

from helpers import (
    nonatomic_log_coefficient,
    random_dataset,
    reference_smooth_pairs_fv,
    sharing_degree,
)
from mvhmm.core import (
    BaseMeasure,
    DirichletMixtureLaw,
    MultiIndex,
    ObservationTimeline,
    TypeRegistry,
)
from mvhmm.dual import clear_transition_cache
from mvhmm.errors import AllWeightsZero, DomainError
from mvhmm.fv import (
    NEW_LABEL,
    SharedAtomSets,
    filter_backward,
    filter_forward,
    filter_posterior,
    observation_log_score,
    predictive_pmf,
    predictive_sample,
    propagate_backward,
    propagate_forward,
    smooth,
    update_dirichlet,
)
from mvhmm.specfun import log_dir_cat


@pytest.fixture
def reg2():
    return TypeRegistry(("a", "b"))


@pytest.fixture
def flat2(reg2):
    # two equally likely atoms carrying the full mass, theta = 2
    return BaseMeasure(2.0, {"a": 0.5, "b": 0.5})


def mk_timeline(reg, times, counts):
    return ObservationTimeline(
        tuple(times), reg, tuple(MultiIndex(c) for c in counts)
    )


class TestUpdate:
    def test_observation_score_is_log_dir_cat(self, reg2, flat2):
        alpha, carriers = flat2.alpha_vector(reg2), (True, False)
        rng = np.random.default_rng(4)
        for _ in range(50):
            m, n = (MultiIndex(rng.integers(0, 5, size=2)) for _ in range(2))
            shifted = [a + mj for a, mj in zip(alpha, m)]
            expected = log_dir_cat(n.counts, shifted, total=flat2.theta + m.total)
            assert observation_log_score(m, n, flat2, alpha, carriers) == expected
        # a zero parameter is allowed at a zero count, as in log_dir_cat
        m, n = MultiIndex((1, 0)), MultiIndex((2, 0))
        score = observation_log_score(m, n, flat2, (1.0, 0.0), carriers)
        assert score == log_dir_cat((2, 0), (2.0, 0.0), total=3.0)

    @pytest.mark.parametrize(
        "m,n,alpha,theta_eff",
        [
            ((1, 0), (1, 1, 1), (1.0, 1.0), None),  # count length
            ((1, 0, 0), (1, 1), (1.0, 1.0), None),  # index length
            ((1, 0), (1, 1), (1.0,), None),  # parameter length
            ((0, 0), (2, 1), (0.0, 1.0), None),  # zero parameter, positive count
            ((1, 0), (2, 1), (1.0, 1.0), 0.0),  # nonpositive total mass
        ],
        ids=["count-length", "index-length", "alpha-length", "alpha-zero", "mass"],
    )
    def test_observation_score_rejects(self, flat2, m, n, alpha, theta_eff):
        m, n = MultiIndex(m), MultiIndex(n)
        with pytest.raises(DomainError):
            observation_log_score(m, n, flat2, alpha, (True, False), theta_eff)

    def test_single_component_conjugate(self, reg2, flat2):
        law = DirichletMixtureLaw.prior(flat2, reg2)
        out = update_dirichlet(law, MultiIndex((2, 1)))
        assert len(out) == 1
        assert out.components[0][1] == MultiIndex((2, 1))
        assert out.components[0][0] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n", [(1,), (1, 0, 0)], ids=["short", "long"])
    def test_wrong_count_length_rejected(self, reg2, flat2, n):
        law = DirichletMixtureLaw.prior(flat2, reg2)
        with pytest.raises(DomainError, match="registry size"):
            update_dirichlet(law, MultiIndex(n))

    def test_empty_observation(self, reg2, flat2):
        law = DirichletMixtureLaw.prior(flat2, reg2)
        assert update_dirichlet(law, MultiIndex((0, 0))) is law

    def test_two_component_rescoring(self, reg2):
        # alpha = (1,1): scores 1/2 and 2/3, posterior weights (3/7, 4/7)
        base = BaseMeasure(2.0, {"a": 0.5, "b": 0.5})
        law = DirichletMixtureLaw.from_components(
            [
                (math.log(0.5), MultiIndex((0, 0))),
                (math.log(0.5), MultiIndex((1, 0))),
            ],
            base,
            reg2,
        )
        out = update_dirichlet(law, MultiIndex((1, 0)))
        w = out.weights()
        assert w[MultiIndex((1, 0))] == pytest.approx(3 / 7, abs=1e-12)
        assert w[MultiIndex((2, 0))] == pytest.approx(4 / 7, abs=1e-12)

    def test_nonatomic_reobservation_kills_noncarriers(self, reg2):
        base = BaseMeasure(1.0)
        law = DirichletMixtureLaw.from_components(
            [
                (math.log(0.5), MultiIndex((0, 0))),
                (math.log(0.5), MultiIndex((1, 0))),
            ],
            base,
            reg2,
        )
        out = update_dirichlet(law, MultiIndex((1, 0)))
        assert set(out.weights()) == {MultiIndex((2, 0))}

    def test_nonatomic_fresh_type_keeps_all(self, reg2):
        base = BaseMeasure(1.0)
        law = DirichletMixtureLaw.from_components(
            [
                (math.log(0.5), MultiIndex((0, 0))),
                (math.log(0.5), MultiIndex((1, 0))),
            ],
            base,
            reg2,
        )
        out = update_dirichlet(law, MultiIndex((0, 1)))
        w = out.weights()
        # scores 1/theta and 1/(theta+1) with theta = 1
        assert w[MultiIndex((0, 1))] == pytest.approx(2 / 3, abs=1e-12)
        assert w[MultiIndex((1, 1))] == pytest.approx(1 / 3, abs=1e-12)


class TestPropagation:
    def test_zero_dt(self, reg2, flat2):
        law = DirichletMixtureLaw.from_components(
            [(0.0, MultiIndex((2, 1)))], flat2, reg2
        )
        assert propagate_forward(law, 0.0) is law

    def test_single_atom_split(self, reg2, flat2):
        theta = flat2.theta
        dt = 0.4
        law = DirichletMixtureLaw.from_components(
            [(0.0, MultiIndex((1, 0)))], flat2, reg2
        )
        out = propagate_forward(law, dt)
        w = out.weights()
        p11 = math.exp(-theta * dt / 2.0)
        assert w[MultiIndex((1, 0))] == pytest.approx(p11, abs=1e-10)
        assert w[MultiIndex((0, 0))] == pytest.approx(1.0 - p11, abs=1e-10)

    def test_long_horizon_collapses_to_prior(self, reg2, flat2):
        law = DirichletMixtureLaw.from_components(
            [(0.0, MultiIndex((2, 3)))], flat2, reg2
        )
        out = propagate_forward(law, 200.0 / flat2.theta)
        assert out.weights()[MultiIndex((0, 0))] > 1.0 - 1e-6

    def test_backward_equals_forward(self, reg2, flat2):
        law = DirichletMixtureLaw.from_components(
            [
                (math.log(0.3), MultiIndex((1, 2))),
                (math.log(0.7), MultiIndex((0, 1))),
            ],
            flat2,
            reg2,
        )
        f = propagate_forward(law, 0.8)
        b = propagate_backward(law, 0.8)
        assert f.components == b.components

    def test_total_variation_limit(self, reg2, flat2):
        # retained-component weight is monotone in t and -> 1 as t -> 0
        for theta in (1.0, 5.0):
            base = BaseMeasure(theta, {"a": 0.5, "b": 0.5})
            n = MultiIndex((3, 2))
            law = DirichletMixtureLaw.from_components([(0.0, n)], base, reg2)
            weights = []
            for t in (1.0, 0.1, 0.01, 1e-4, 1e-6):
                weights.append(propagate_backward(law, t).weights()[n])
            assert all(a < b for a, b in zip(weights, weights[1:]))
            assert weights[-1] > 1.0 - 1e-4


class TestFilter:
    def test_prior_at_origin(self, reg2, flat2):
        tl = mk_timeline(reg2, (0.0, 0.5), [(1, 0), (0, 1)])
        law = filter_forward(tl, 0, flat2)
        assert len(law) == 1
        assert law.components[0][1] == MultiIndex((0, 0))

    def test_one_past_time_split(self, reg2, flat2):
        dt = 0.7
        tl = mk_timeline(reg2, (0.0, dt), [(1, 0), (0, 0)])
        law = filter_forward(tl, 1, flat2)
        w = law.weights()
        p11 = math.exp(-flat2.theta * dt / 2.0)
        assert w[MultiIndex((1, 0))] == pytest.approx(p11, abs=1e-10)
        assert w[MultiIndex((0, 0))] == pytest.approx(1.0 - p11, abs=1e-10)

    def test_component_count_formula(self, reg2, flat2):
        tl = mk_timeline(reg2, (0.0, 0.3, 0.9), [(2, 1), (1, 0), (0, 2)])
        for i in (1, 2):
            law = filter_forward(tl, i, flat2)
            past = np.sum([tl.fv_counts[j].counts for j in range(i)], axis=0)
            expected = int(np.prod(past + 1))
            assert len(law) == expected

    def test_backward_mirror_symmetry(self, flat2, reg2):
        tl = mk_timeline(reg2, (0.0, 0.4, 1.0), [(2, 0), (1, 1), (0, 2)])
        span = tl.times[0] + tl.times[-1]
        mirrored = mk_timeline(
            reg2,
            tuple(span - t for t in reversed(tl.times)),
            [c.counts for c in reversed(tl.fv_counts)],
        )
        for i in range(3):
            bwd = filter_backward(tl, i, flat2).log_weights()
            fwd = filter_forward(mirrored, 2 - i, flat2).log_weights()
            assert set(bwd) == set(fwd)
            for key, lw in bwd.items():
                assert lw == pytest.approx(fwd[key], abs=1e-10)

    def test_prior_at_terminal(self, reg2, flat2):
        tl = mk_timeline(reg2, (0.0, 0.5), [(1, 0), (0, 1)])
        law = filter_backward(tl, 1, flat2)
        assert len(law) == 1


def one_step(reg, n_past, n_now, n_future, d_past, d_future, base):
    """Pair log-weights of a query flanked by single blocks at lags d_past
    and d_future: smooth at the middle of the three-time timeline."""
    times = (0.0, d_past, d_past + d_future)
    tl = mk_timeline(reg, times, [n_past, n_now, n_future])
    return smooth(tl, 1, base).pair_log_weights


class TestOneStep:
    def test_no_adjacent_data(self, reg2, flat2):
        weights = one_step(reg2, (0, 0), (2, 1), (0, 0), 0.5, 0.5, flat2)
        assert set(weights) == {(MultiIndex((0, 0)), MultiIndex((0, 0)))}
        assert next(iter(weights.values())) == pytest.approx(0.0, abs=1e-12)

    def test_worked_shared_set_example(self):
        # three types; the second is shared across the flanking times and the
        # third between the present and the future
        reg = TypeRegistry(("y1", "y2", "y3"))
        base = BaseMeasure(1.0)
        n_past = MultiIndex((1, 3, 0))
        n_now = MultiIndex((0, 0, 1))
        n_future = MultiIndex((0, 2, 1))
        shared = SharedAtomSets.from_counts(n_past, n_now, n_future)
        assert shared.d_past == frozenset({1})
        assert shared.d_future == frozenset({1, 2})
        weights = one_step(reg, n_past, n_now, n_future, 0.4, 0.6, base)
        expected_pairs = {
            (k, kp)
            for k in n_past.lattice_below()
            for kp in n_future.lattice_below()
            if k[1] > 0 and kp[1] > 0 and kp[2] > 0
        }
        assert set(weights) == expected_pairs
        total = sum(math.exp(lw) for lw in weights.values())
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_case_b_term_value(self):
        # disjoint single observations, theta = 1: case factor for the
        # both-retained pair is 1/(theta (theta+1)) relative to none-retained
        reg = TypeRegistry(("y1", "y2"))
        base = BaseMeasure(1.0)
        coeff = nonatomic_log_coefficient(
            MultiIndex((1, 0)), MultiIndex((0, 0)), MultiIndex((0, 1)), 1.0
        )
        assert math.exp(coeff) == pytest.approx(0.5, abs=1e-12)
        weights = one_step(reg, (1, 0), (0, 0), (0, 1), 0.5, 0.5, base)
        p11 = math.exp(-0.5 * 0.5)
        raw = {
            (0, 0): (1 - p11) * (1 - p11),
            (1, 0): p11 * (1 - p11),
            (0, 1): (1 - p11) * p11,
            (1, 1): p11 * p11 * 0.5,
        }
        z = sum(raw.values())
        assert len(weights) == len(raw)
        for (kk, kpkp), expected in raw.items():
            pair = (MultiIndex((kk, 0)), MultiIndex((0, kpkp)))
            assert math.exp(weights[pair]) == pytest.approx(expected / z, abs=1e-10)

    def test_discrete_epsilon_limit_recovers_nonatomic(self):
        # case A with vanishing atom mass converges to the nonatomic weights
        reg = TypeRegistry(("y1", "y2"))
        blocks = ((1, 0), (0, 0), (0, 1))
        target = one_step(reg, *blocks, 0.5, 0.5, BaseMeasure(1.0))
        for eps, tol in ((1e-4, 1e-3), (1e-6, 1e-5)):
            base = BaseMeasure(1.0, {"y1": eps, "y2": eps})
            approx = one_step(reg, *blocks, 0.5, 0.5, base)
            for pair, lw in target.items():
                assert math.exp(approx[pair]) == pytest.approx(
                    math.exp(lw), abs=tol
                )


class TestSmooth:
    def test_single_time_posterior(self, reg2, flat2):
        tl = mk_timeline(reg2, (0.0,), [(2, 1)])
        result = smooth(tl, 0, flat2)
        assert len(result.law) == 1
        assert result.law.components[0][1] == MultiIndex((2, 1))

    def test_boundary_reduces_to_filtering(self, reg2, flat2):
        tl = mk_timeline(reg2, (0.0, 0.4, 1.0), [(2, 0), (1, 1), (0, 2)])
        left = smooth(tl, 0, flat2).law.log_weights()
        # shift smoothing indices back by n_0 to compare supports directly
        direct = update_dirichlet(filter_backward(tl, 0, flat2), tl.fv_counts[0])
        dw = direct.log_weights()
        assert set(left) == set(dw)
        for key, lw in left.items():
            assert lw == pytest.approx(dw[key], abs=1e-10)

    def test_erasing_future_degenerates_to_filtering(self, reg2, flat2):
        tl = mk_timeline(reg2, (0.0, 0.4, 1.0), [(2, 0), (1, 1), (0, 2)])
        erased = mk_timeline(reg2, (0.0, 0.4, 1.0), [(2, 0), (1, 1), (0, 0)])
        s = smooth(erased, 1, flat2).law.log_weights()
        f = filter_posterior(erased, 1, flat2).log_weights()
        assert set(s) == set(f)
        for key, lw in s.items():
            assert lw == pytest.approx(f[key], abs=1e-10)

    def test_erasing_past_degenerates_to_backward_filtering(self, reg2, flat2):
        erased = mk_timeline(reg2, (0.0, 0.4, 1.0), [(0, 0), (1, 1), (0, 2)])
        s = smooth(erased, 1, flat2).law.log_weights()
        f = update_dirichlet(
            filter_backward(erased, 1, flat2), erased.fv_counts[1]
        ).log_weights()
        assert set(s) == set(f)
        for key, lw in s.items():
            assert lw == pytest.approx(f[key], abs=1e-10)

    def test_erasing_future_degenerates_nonatomic(self, reg2):
        base = BaseMeasure(0.8)
        erased = mk_timeline(reg2, (0.0, 0.4, 1.0), [(2, 1), (1, 1), (0, 0)])
        s = smooth(erased, 1, base).law.log_weights()
        f = filter_posterior(erased, 1, base).log_weights()
        assert set(s) == set(f)
        for key, lw in s.items():
            assert lw == pytest.approx(f[key], abs=1e-10)

    def test_matches_reference_double_sum_discrete(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            timeline, base, _ = random_dataset(rng, "fv", "discrete")
            i = int(rng.integers(0, timeline.n_times))
            result = smooth(timeline, i, base)
            reference = reference_smooth_pairs_fv(timeline, i, base)
            assert set(result.pair_log_weights) == set(reference)
            for pair, lw in reference.items():
                assert result.pair_log_weights[pair] == pytest.approx(
                    lw, abs=1e-9
                )

    def test_time_gap_monotonicity(self, reg2, flat2):
        theta = flat2.theta
        far = 200.0 / theta
        tl = mk_timeline(reg2, (0.0, far, 2 * far), [(2, 0), (1, 1), (0, 2)])
        result = smooth(tl, 1, flat2)
        zero = MultiIndex((0, 0))
        assert result.pair_weights()[(zero, zero)] > 1.0 - 1e-6

    def test_case_c_support(self):
        reg = TypeRegistry(("y1", "y2", "y3"))
        base = BaseMeasure(1.0)
        tl = mk_timeline(
            reg, (0.0, 0.5, 1.0), [(1, 3, 0), (0, 0, 1), (0, 2, 1)]
        )
        result = smooth(tl, 1, base)
        shared = SharedAtomSets.from_counts(*tl.fv_counts)
        for k, kp in result.pair_log_weights:
            assert shared.contains(k, kp)
        n_admissible = sum(
            1
            for k in tl.fv_counts[0].lattice_below()
            for kp in tl.fv_counts[2].lattice_below()
            if shared.contains(k, kp)
        )
        assert result.component_count == n_admissible

    def test_component_count_discrete(self, reg2, flat2):
        tl = mk_timeline(reg2, (0.0, 0.3, 0.8, 1.1), [(1, 1), (1, 0), (0, 1), (1, 1)])
        for i in range(4):
            result = smooth(tl, i, flat2)
            past = np.sum(
                [tl.fv_counts[j].counts for j in range(i)] or [(0, 0)], axis=0
            )
            future = np.sum(
                [tl.fv_counts[j].counts for j in range(i + 1, 4)] or [(0, 0)],
                axis=0,
            )
            expected = int(np.prod((past + 1) * (future + 1)))
            assert result.component_count == expected

    def test_normalization_randomized(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            kind = "discrete" if rng.random() < 0.5 else "nonatomic"
            timeline, base, _ = random_dataset(rng, "fv", kind)
            for i in range(timeline.n_times):
                result = smooth(timeline, i, base)
                assert result.law.weight_sum() == pytest.approx(1.0, abs=1e-10)
                assert sum(result.pair_weights().values()) == pytest.approx(
                    1.0, abs=1e-10
                )

    def test_pruning(self, reg2, flat2):
        tl = mk_timeline(reg2, (0.0, 0.4, 1.0), [(2, 0), (1, 1), (0, 2)])
        pruned = smooth(tl, 1, flat2, pruning_epsilon=1e-3)
        full = smooth(tl, 1, flat2)
        assert pruned.component_count <= full.component_count
        assert sum(pruned.pair_weights().values()) == pytest.approx(1.0, abs=1e-10)


class TestSharingDegree:
    def test_counts_coincidences(self):
        assert (
            sharing_degree(MultiIndex((1, 0)), MultiIndex((1, 0)), MultiIndex((1, 0)))
            == 2
        )
        assert (
            sharing_degree(MultiIndex((1, 0)), MultiIndex((0, 0)), MultiIndex((0, 1)))
            == 0
        )


class TestPredictive:
    def test_prior_urn(self, reg2):
        base = BaseMeasure(1.5)
        tl = mk_timeline(reg2, (0.0,), [(0, 0)])
        result = smooth(tl, 0, base)
        pmf = predictive_pmf(result.law)
        assert pmf[NEW_LABEL] == pytest.approx(1.0, abs=1e-14)

    def test_sums_to_one(self, reg2, flat2):
        tl = mk_timeline(reg2, (0.0, 0.4, 1.0), [(2, 0), (1, 1), (0, 2)])
        result = smooth(tl, 1, flat2)
        pmf = predictive_pmf(result.law, history=("a", "a"))
        assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)

    def test_single_component_is_polya_urn(self, reg2, flat2):
        theta = flat2.theta
        alpha = flat2.alpha_vector(reg2)
        law = DirichletMixtureLaw.from_components(
            [(0.0, MultiIndex((2, 1)))], flat2, reg2
        )
        history = ("a", "b", "a")
        pmf = predictive_pmf(law, history)
        m = MultiIndex((2, 1))
        denom = theta + m.total + len(history)
        assert pmf["a"] == pytest.approx((alpha[0] + 2 + 2) / denom, abs=1e-14)
        assert pmf["b"] == pytest.approx((alpha[1] + 1 + 1) / denom, abs=1e-14)

    def test_sampler_first_draw_matches_pmf(self, reg2, flat2):
        tl = mk_timeline(reg2, (0.0, 0.4, 1.0), [(2, 0), (1, 1), (0, 2)])
        result = smooth(tl, 1, flat2)
        pmf = predictive_pmf(result.law)
        rng = np.random.default_rng(12)
        reps = 40_000
        counts: dict[str, int] = {}
        for _ in range(reps):
            lab = predictive_sample(result, 1, rng)[0]
            key = lab if lab in reg2 else NEW_LABEL
            counts[key] = counts.get(key, 0) + 1
        for lab, p in pmf.items():
            freq = counts.get(lab, 0) / reps
            se = math.sqrt(max(p * (1 - p), 1 / reps) / reps)
            assert abs(freq - p) <= 3.5 * se

    def test_history_and_two_draws_follow_the_urn_mixture(self, reg2):
        # a further sample sequence picks one component, then runs its Polya
        # urn, so the second draw and the pmf given a history depend on the
        # first draw through the component posterior
        base = BaseMeasure(1.0, {"a": 0.5, "b": 0.5})
        tl = mk_timeline(reg2, (0.0, 0.05, 0.1), [(6, 0), (0, 0), (0, 6)])
        result = smooth(tl, 1, base)
        assert len(result.law) == 49
        alpha = base.alpha_vector(reg2)
        joint = {}
        for x in (0, 1):
            for y in (0, 1):
                joint[(reg2.labels[x], reg2.labels[y])] = math.fsum(
                    math.exp(lw)
                    * (alpha[x] + m[x])
                    / (base.theta + m.total)
                    * (alpha[y] + m[y] + (x == y))
                    / (base.theta + m.total + 1)
                    for lw, m in result.law.components
                )
        assert joint[("a", "a")] == pytest.approx(0.27697, abs=5e-6)
        conditional = joint[("a", "a")] / (joint[("a", "a")] + joint[("a", "b")])
        assert conditional == pytest.approx(0.55395, abs=5e-6)
        pmf = predictive_pmf(result.law, ("a",))
        assert pmf["a"] == pytest.approx(conditional, abs=1e-12)
        assert pmf["b"] == pytest.approx(1.0 - conditional, abs=1e-12)
        rng = np.random.default_rng(2024)
        reps = 100_000
        counts: dict[tuple[str, ...], int] = {}
        for _ in range(reps):
            key = tuple(predictive_sample(result, 2, rng))
            counts[key] = counts.get(key, 0) + 1
        assert set(counts) <= set(joint)
        for pair, p in joint.items():
            freq = counts.get(pair, 0) / reps
            assert abs(freq - p) <= 3.0 * math.sqrt(p * (1 - p) / reps)
        reps = 40_000
        hits = sum(
            predictive_sample(result, 1, rng, history=("a",))[0] == "a"
            for _ in range(reps)
        )
        se = math.sqrt(conditional * (1 - conditional) / reps)
        assert abs(hits / reps - conditional) <= 3.0 * se

    def test_idle_atoms_get_their_own_labels(self, reg2):
        # configured atom "c" never shows in the data: it keeps its mass
        # theta * 0.4 plus its count among earlier further samples
        base = BaseMeasure(2.0, {"a": 0.3, "b": 0.3, "c": 0.4})
        tl = mk_timeline(reg2, (0.0, 0.4, 1.0), [(2, 0), (1, 1), (0, 2)])
        result = smooth(tl, 1, base)
        for history in ((), ("c",), ("c", "a", "c")):
            pmf = predictive_pmf(result.law, history)
            assert list(pmf)[:3] == ["a", "b", "c"]
            assert math.fsum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
        assert predictive_pmf(result.law)[NEW_LABEL] == pytest.approx(0.0, abs=1e-15)
        law = DirichletMixtureLaw.from_components(
            [(0.0, MultiIndex((1, 1)))], base, reg2
        )
        pmf = predictive_pmf(law, ("c",))
        assert pmf["c"] == pytest.approx((0.8 + 1) / (2.0 + 2 + 1), abs=1e-14)

    def test_impossible_history_raises(self, reg2):
        # the atoms carry the whole base mass, so a new label has urn mass 0
        # under every component
        base = BaseMeasure(2.0, {"a": 0.3, "b": 0.3, "c": 0.4})
        tl = mk_timeline(reg2, (0.0, 0.4, 1.0), [(2, 0), (1, 1), (0, 2)])
        result = smooth(tl, 1, base)
        history = ("c", "a", f"{NEW_LABEL}1")
        with pytest.raises(AllWeightsZero):
            predictive_pmf(result.law, history)
        with pytest.raises(AllWeightsZero):
            predictive_sample(result, 1, np.random.default_rng(0), history)

    @pytest.mark.parametrize("count", [0, -1, 2.5, 2.0, True, "2", np.float64(1.0)])
    def test_bad_sample_count_rejected(self, reg2, flat2, count):
        result = smooth(mk_timeline(reg2, (0.0, 0.5), [(1, 0), (1, 1)]), 1, flat2)
        with pytest.raises(DomainError):
            predictive_sample(result, count, np.random.default_rng(0))
        draws = predictive_sample(result, np.int64(2), np.random.default_rng(0))
        assert len(draws) == 2

    def test_theta_to_zero_no_new_mass(self, reg2):
        base = BaseMeasure(1e-8)
        tl = mk_timeline(reg2, (0.0, 0.5), [(1, 0), (1, 1)])
        result = smooth(tl, 1, base)
        pmf = predictive_pmf(result.law)
        assert pmf[NEW_LABEL] < 1e-6

    def test_no_history_source_without_history(self, reg2, flat2):
        # with an empty history the third urn source has zero weight, so a
        # single draw must come from the base measure or the observed atoms
        tl = mk_timeline(reg2, (0.0, 0.5), [(1, 0), (1, 1)])
        result = smooth(tl, 1, flat2)
        rng = np.random.default_rng(5)
        draws = [predictive_sample(result, 1, rng)[0] for _ in range(200)]
        assert all(lab in reg2 or lab.startswith(NEW_LABEL) for lab in draws)

    @pytest.mark.parametrize(
        "base",
        [BaseMeasure(2.0, {"a": 0.3, "b": 0.3, "c": 0.2}), BaseMeasure(2.0, None)],
        ids=["discrete-idle-atom", "nonatomic"],
    )
    @pytest.mark.parametrize("history", [(), ("a",)], ids=["no-history", "history"])
    def test_joint_law_of_first_labels(self, reg2, base, history):
        # the sampler picks one component of the smoothing law, then runs its
        # urn; the chained exact pmfs mix over components at every step.  Here
        # several (k, k') pairs merge into one component (32 pairs into 14
        # components with the discrete base, 18 into 10 with the nonatomic one),
        # and the components differ in total and in type, so a pick that
        # ignores the weights or the history shifts the joint law
        tl = mk_timeline(reg2, (0.0, 0.4, 1.0), [(0, 3), (0, 1), (1, 3)])
        result = smooth(tl, 1, base)
        assert result.component_count > len(result.law) > 1
        count = 1 if history else 2
        exact = _first_labels_law(result.law, history, count)
        rng = np.random.default_rng(13)
        reps = 20_000 if history else 40_000
        draws = Counter(
            tuple(predictive_sample(result, count, rng, history)) for _ in range(reps)
        )
        own = _assert_frequencies(exact, draws, reps)
        new1, new2 = f"{NEW_LABEL}1", f"{NEW_LABEL}2"
        if not history:
            # a repeated new label, and a second new one or a repeated idle
            # atom, are common enough to be compared cell by cell
            assert (new1, new1) in own
            assert ((new1, new2) if base.is_nonatomic else ("c", "c")) in own


def _first_labels_law(law, history, count):
    """Exact law of the first ``count`` (1 or 2) labels of a further sample
    sequence after ``history``, chained from predictive_pmf; NEW_LABEL
    becomes the fresh label the sampler names (``<new>1``, then ``<new>2``)."""
    out = {}
    for key1, p1 in predictive_pmf(law, history).items():
        l1 = f"{NEW_LABEL}1" if key1 == NEW_LABEL else key1
        if count == 1:
            out[(l1,)] = p1
            continue
        fresh = f"{NEW_LABEL}{2 if l1.startswith(NEW_LABEL) else 1}"
        for key2, p2 in predictive_pmf(law, (*history, l1)).items():
            out[(l1, fresh if key2 == NEW_LABEL else key2)] = p1 * p2
    return out


def _assert_frequencies(exact, draws, reps):
    """Compare the frequency of every cell of ``draws`` with its exact rate.
    Cells expected fewer than 100 times are pooled into one, so that the
    normal approximation holds.  Returns the cells compared one by one."""
    assert math.fsum(exact.values()) == pytest.approx(1.0, abs=1e-12)
    own = {key for key, p in exact.items() if p * reps >= 100}
    rare = [key for key in set(exact) | set(draws) if key not in own]
    cells = [((key,), exact[key]) for key in own]
    cells.append((rare, math.fsum(exact.get(key, 0.0) for key in rare)))
    for keys, p in cells:
        freq = sum(draws[key] for key in keys) / reps
        se = math.sqrt(max(p * (1 - p), 1 / reps) / reps)
        assert abs(freq - p) <= 3.5 * se, keys
    return own


@pytest.mark.parametrize("i", [True, 1.0, np.float64(1.0), "1", -1, 3])
def test_bad_time_index_rejected(reg2, flat2, i):
    tl = mk_timeline(reg2, (0.0, 0.4, 1.0), [(2, 0), (1, 1), (0, 2)])
    for call in (filter_forward, filter_backward, filter_posterior, smooth):
        with pytest.raises(DomainError):
            call(tl, i, flat2)


def test_numpy_integer_time_index_accepted(reg2, flat2):
    tl = mk_timeline(reg2, (0.0, 0.4, 1.0), [(2, 0), (1, 1), (0, 2)])
    fresh = mk_timeline(reg2, (0.0, 0.4, 1.0), [(2, 0), (1, 1), (0, 2)])
    result, ref = smooth(tl, np.int64(1), flat2), smooth(fresh, 1, flat2)
    assert result.pair_log_weights == ref.pair_log_weights


@pytest.mark.parametrize("epsilon", [math.nan, -1.0, 1.0, 2.0])
def test_bad_pruning_epsilon_rejected(reg2, flat2, epsilon):
    tl = mk_timeline(reg2, (0.0, 0.4, 1.0), [(2, 0), (1, 1), (0, 2)])
    with pytest.raises(DomainError):
        smooth(tl, 1, flat2, epsilon)
    with pytest.raises(DomainError):
        smooth(tl, 1, flat2).law.pruned(epsilon)


def test_filter_requires_fv_timeline(reg2, flat2):
    draws = ((MultiIndex((1, 0)),),)
    tl = ObservationTimeline((0.0,), reg2, dw_draws=draws)
    with pytest.raises(DomainError):
        filter_forward(tl, 0, flat2)


class TestRobustness:
    def test_long_gap_smooth_finishes_quickly(self, reg2):
        clear_transition_cache()
        tl = mk_timeline(reg2, (0.0, 1e6), [(20, 20), (20, 20)])
        start = time.perf_counter()
        result = smooth(tl, 1, BaseMeasure(2.0))
        assert time.perf_counter() - start < 1.0
        assert result.law.weight_sum() == pytest.approx(1.0, abs=1e-10)

    def test_smooth_every_index_over_exponential_gaps(self, reg2):
        # nonatomic base, two types, Exp(1) gaps, 6 counts per time
        base = BaseMeasure(2.0)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            times = np.concatenate([[0.0], np.cumsum(rng.exponential(1.0, 7))])
            counts = rng.multinomial(6, [0.5, 0.5], size=8).tolist()
            tl = mk_timeline(reg2, times.tolist(), counts)
            for i in range(tl.n_times):
                law = smooth(tl, i, base).law
                assert law.weight_sum() == pytest.approx(1.0, abs=1e-10)
