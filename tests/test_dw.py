"""Gamma-mixture engine: updates, propagation, smoothing, prediction."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import (
    FOUR_TYPE_DRAWS,
    assert_law_close,
    random_dataset,
    reference_propagate,
    reference_smooth_pairs_dw,
)
from mvhmm.core import (
    BaseMeasure,
    DirichletMixtureLaw,
    GammaMixtureLaw,
    MultiIndex,
    ObservationTimeline,
    TypeRegistry,
)
from mvhmm import dw
from mvhmm.dual import DwDualSpec, c_flow, dw_survival_prob
from mvhmm.dw import (
    filter_backward_dw,
    filter_forward_dw,
    filter_posterior_dw,
    predict_count_mean,
    predict_count_pmf,
    predict_draw,
    predictive_label_pmf,
    propagate_dw,
    smooth_dw,
    update_gamma,
)
from mvhmm.errors import AllWeightsZero, DomainError
from mvhmm.fv import NEW_LABEL, predictive_pmf
from mvhmm.specfun import log_neg_bin_pmf


@pytest.fixture
def reg2():
    return TypeRegistry(("a", "b"))


@pytest.fixture
def flat2():
    return BaseMeasure(2.0, {"a": 0.5, "b": 0.5})


def mk_dw_timeline(reg, times, draws):
    return ObservationTimeline(
        tuple(times),
        reg,
        dw_draws=tuple(tuple(MultiIndex(d) for d in per_time) for per_time in draws),
    )


class TestUpdateGamma:
    def test_zero_draws_noop(self, reg2, flat2):
        law = GammaMixtureLaw.prior(flat2, reg2, beta=1.0)
        assert update_gamma(law, ()) is law

    @pytest.mark.parametrize("draw", [(1,), (1, 0, 0)], ids=["short", "long"])
    def test_wrong_draw_width_rejected(self, reg2, flat2, draw):
        law = GammaMixtureLaw.prior(flat2, reg2, beta=1.0)
        with pytest.raises(DomainError, match="length mismatch"):
            update_gamma(law, (MultiIndex((1, 0)), MultiIndex(draw)))

    def test_single_component_conjugacy(self, reg2, flat2):
        law = GammaMixtureLaw.prior(flat2, reg2, beta=1.0)
        out = update_gamma(law, (MultiIndex((2, 1)),))
        assert len(out) == 1
        assert out.components[0][1] == MultiIndex((2, 1))
        assert out.rate_offset == 1.0
        out2 = update_gamma(out, (MultiIndex((0, 1)), MultiIndex((1, 0))))
        assert out2.rate_offset == 3.0
        assert out2.components[0][1] == MultiIndex((3, 2))

    def test_rescoring_against_quadrature(self, reg2):
        # one observed point of one type, two components: posterior odds from
        # numerically integrating the point-process likelihood against each
        # of the two gamma densities
        reg1 = TypeRegistry(("a",))
        base = BaseMeasure(1.5, {"a": 1.0})
        beta = 1.2
        offset = 0.5
        comps = [
            (math.log(0.4), MultiIndex((0,))),
            (math.log(0.6), MultiIndex((2,))),
        ]
        law = GammaMixtureLaw.from_components(
            comps, base, reg1, beta=beta, rate_offset=offset
        )
        out = update_gamma(law, (MultiIndex((1,)),))

        def marginal(shape):
            rate = beta + offset
            dens = lambda z: (
                math.exp(-z)
                * z
                * rate**shape
                * z ** (shape - 1.0)
                * math.exp(-rate * z)
                / math.gamma(shape)
            )
            val, err = quad(dens, 0.0, 60.0, epsabs=1e-13, limit=200)
            assert err < 1e-8
            return val

        m0 = 0.4 * marginal(1.5)
        m2 = 0.6 * marginal(3.5)
        w = out.weights()
        assert w[MultiIndex((1,))] == pytest.approx(m0 / (m0 + m2), abs=1e-8)
        assert w[MultiIndex((3,))] == pytest.approx(m2 / (m0 + m2), abs=1e-8)

    def test_nonatomic_reobservation(self, reg2):
        base = BaseMeasure(1.0)
        comps = [
            (math.log(0.5), MultiIndex((0, 0))),
            (math.log(0.5), MultiIndex((1, 0))),
        ]
        law = GammaMixtureLaw.from_components(comps, base, reg2, beta=1.0)
        out = update_gamma(law, (MultiIndex((1, 0)),))
        assert set(out.weights()) == {MultiIndex((2, 0))}


class TestPropagateDw:
    def test_zero_dt(self, reg2, flat2):
        law = GammaMixtureLaw.prior(flat2, reg2, beta=1.0)
        assert propagate_dw(law, 0.0) is law

    def test_offset_follows_flow(self, reg2, flat2):
        beta = 0.9
        law = GammaMixtureLaw.from_components(
            [(0.0, MultiIndex((1, 1)))], flat2, reg2, beta=beta, rate_offset=2.0
        )
        out = propagate_dw(law, 0.7)
        assert out.rate_offset == pytest.approx(c_flow(beta, 2.0, 0.7), abs=1e-14)

    def test_two_stage_equals_one_stage(self, reg2, flat2):
        law = GammaMixtureLaw.from_components(
            [
                (math.log(0.3), MultiIndex((2, 0))),
                (math.log(0.7), MultiIndex((1, 2))),
            ],
            flat2,
            reg2,
            beta=1.1,
            rate_offset=1.0,
        )
        once = propagate_dw(law, 1.3)
        twice = propagate_dw(propagate_dw(law, 0.55), 0.75)
        assert once.rate_offset == pytest.approx(twice.rate_offset, abs=1e-12)
        w1, w2 = once.log_weights(), twice.log_weights()
        assert set(w1) == set(w2)
        for key, lw in w1.items():
            assert lw == pytest.approx(w2[key], abs=1e-10)

    def test_constructor_law_as_given(self, reg2, flat2):
        # the positional constructor keeps components out of order and
        # repeated; the box folds repeats as the merge does, in order
        comps = [
            (math.log(0.2), MultiIndex((2, 1))),
            (math.log(0.5), MultiIndex((0, 3))),
            (math.log(0.3), MultiIndex((2, 1))),
        ]
        given = GammaMixtureLaw(comps, flat2, reg2, 1.1, 0.5)
        merged = GammaMixtureLaw.from_components(comps, flat2, reg2, 1.1, 0.5)
        assert len(given) == 3 and len(merged) == 2
        out = propagate_dw(given, 0.4)
        assert out.components == propagate_dw(merged, 0.4).components
        assert len(out) == 8  # the lattices below (2, 1) and (0, 3)

    def test_long_horizon_collapse(self, reg2, flat2):
        beta = 1.0
        law = GammaMixtureLaw.from_components(
            [(0.0, MultiIndex((2, 2)))], flat2, reg2, beta=beta, rate_offset=2.0
        )
        out = propagate_dw(law, 200.0 / beta)
        assert out.rate_offset < 1e-12
        assert out.weights()[MultiIndex((0, 0))] > 1.0 - 1e-6

    def test_conjugacy_recovery_small_dt(self, reg2, flat2):
        law = GammaMixtureLaw.prior(flat2, reg2, beta=0.8)
        post = update_gamma(law, (MultiIndex((2, 1)),))
        prop = propagate_dw(post, 1e-6)
        assert prop.weights()[MultiIndex((2, 1))] > 1.0 - 1e-4

    # At beta = 1 and rate offset 2 (_law's), q is 0.0 at dt = 2000, 1.0 at
    # dt = 1e-17 and 1 - 1.5e-12 at dt = 1e-12, where log(1 - q) is -27 and
    # the rows' x = log w + |m| log(1 - q) span several bands.
    @pytest.mark.parametrize(
        "dt,q_is",
        [
            (2000.0, lambda q: q == 0.0),
            (1e-17, lambda q: q == 1.0),
            (1e-12, lambda q: 1e-12 < 1.0 - q < 2e-12),
            (0.7, lambda q: 0.0 < q < 1.0),
        ],
        ids=["q=0", "q=1", "q=1-1.5e-12", "q=0.44"],
    )
    def test_survival_extremes_match_scalar_reference(self, reg2, flat2, dt, q_is):
        q = dw_survival_prob(DwDualSpec(flat2.theta, 1.0, 2.0), dt)
        assert q_is(q)
        rng = np.random.default_rng(21)
        rows = np.indices((7, 6)).reshape(2, -1).T
        law = _law(rows, rng.normal(0.0, 3.0, len(rows)), reg2, flat2)
        out = propagate_dw(law, dt)
        assert_law_close(out, reference_propagate(law, dt))
        assert len(out) == (1 if q == 0.0 else len(rows))

    def test_wide_span_in_many_bands(self, reg2, flat2):
        # log-weights spanning more than 3 000 nats, far past the float
        # range, run in bands of _SPAN nats; the lightest keep their
        # relative accuracy
        rng = np.random.default_rng(22)
        rows = np.indices((5, 6)).reshape(2, -1).T
        logs = rng.normal(0.0, 3.0, len(rows))
        logs += rng.choice([0.0, -700.0, -1500.0, -2200.0, -3100.0], len(rows))
        assert np.ptp(logs) > 3000.0
        law = _law(rows, logs, reg2, flat2)
        assert_law_close(propagate_dw(law, 0.7), reference_propagate(law, 0.7))

    def test_side_past_exact_pascal_entries(self, reg2, flat2):
        # C(m, k) for m >= 57 passes 2^53 and is rounded
        # (test_pascal_matrix_against_math_comb)
        rng = np.random.default_rng(23)
        rows = {(119, 2)} | set(zip(rng.integers(0, 120, 30), rng.integers(0, 3, 30)))
        rows = np.array(sorted(rows))
        law = _law(rows, rng.normal(0.0, 3.0, len(rows)), reg2, flat2)
        for dt in (0.05, 0.7):
            assert_law_close(propagate_dw(law, dt), reference_propagate(law, dt))

    @pytest.mark.parametrize("dt", [2000.0, 1e-17, 0.4])
    def test_positional_law_with_repeats(self, reg2, flat2, dt):
        # out of order, with repeated rows: the scatter sums them
        rows = np.array([(2, 1), (0, 3), (2, 1), (1, 0), (0, 3), (2, 1)])
        logs = np.log([0.1, 0.2, 0.15, 0.05, 0.3, 0.2])
        law = _law(rows, logs, reg2, flat2, positional=True)
        assert len(law) == 6
        assert_law_close(propagate_dw(law, dt), reference_propagate(law, dt))

    def test_positional_law_with_a_zero_weight_component(self, reg2, flat2):
        # the positional constructor keeps a component of log-weight -inf;
        # its row (the largest index) is left out of the bands
        rows = np.array([(2, 1), (0, 3), (4, 4), (1, 0)])
        logs = np.array([math.log(0.4), math.log(0.35), -math.inf, math.log(0.25)])
        law = _law(rows, logs, reg2, flat2, positional=True)
        for dt in (0.7, 1e-12):
            out = propagate_dw(law, dt)
            assert_law_close(out, reference_propagate(law, dt))

    def test_zero_weight_rows_join_no_band(self, reg2, flat2):
        # a row of log-weight -inf (inside the box of the others) enters no
        # exponent band, so the law thins to the same bits as without it:
        # in one band, in several (x = log w + |m| log(1 - q) spans more than
        # 300 nats at dt = 1e-12), and with finite rows spanning more than
        # 3 000 nats
        rows = np.array([(2, 1), (0, 3), (7, 7), (1, 0), (6, 8)])
        flat = np.log([0.3, 0.2, 0.1, 0.25, 0.15])
        wide = flat + np.array([0.0, -1000.0, -3100.0, -300.0, -2000.0])
        assert np.ptp(wide) > 3000.0
        cases = ((0.7, flat, True), (1e-12, flat, False), (0.7, wide, False))
        for dt, logs, one_band in cases:
            q = dw_survival_prob(DwDualSpec(flat2.theta, 1.0, 2.0), dt)
            span = np.ptp(logs + rows.sum(axis=1) * math.log1p(-q))
            assert (span < 300.0) == one_band
            without = _law(rows, logs, reg2, flat2, positional=True)
            with_zero = _law(
                np.insert(rows, 2, (1, 2), axis=0),
                np.insert(logs, 2, -math.inf),
                reg2,
                flat2,
                positional=True,
            )
            got, want = propagate_dw(with_zero, dt), propagate_dw(without, dt)
            assert got.rate_offset == want.rate_offset
            assert np.array_equal(got._arrays[1], want._arrays[1])
            assert got._arrays[0].tobytes() == want._arrays[0].tobytes()

    @pytest.mark.parametrize("top", [1022, 1023])
    def test_one_type_at_the_float_range_against_mpmath(self, top):
        # a cell of the Pascal contraction can reach C(m, m / 2) ~ 2^m: on
        # one type, index 1 022 is the largest it takes, and 1 023 runs in
        # the log domain.  Each is checked against 40 digits: the Pascal
        # contraction to 1e-13, the log domain to 1e-12, since its lgamma
        # differences lose up to about 4e-13 there.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        reg1 = TypeRegistry(("a",))
        base = BaseMeasure(2.0, {"a": 0.5})
        law = _law(np.array([(top,)]), [0.0], reg1, base)
        q = mp.mpf(dw_survival_prob(DwDualSpec(2.0, 1.0, 2.0), 0.3))
        out = propagate_dw(law, 0.3)
        assert [idx.counts for (_, idx) in out.components] == [
            (k,) for k in range(top + 1)
        ]
        rel = 1e-13 if top == 1022 else 1e-12
        for lw, (k,) in out.components:
            x = float(mp.log(mp.binomial(top, k) * q**k * (1 - q) ** (top - k)))
            assert abs(lw - x) <= rel * max(1.0, abs(x)), (k, lw, x)

    def test_two_types_past_the_float_range_against_mpmath(self, reg2, flat2):
        # largest indices summing to 1 023 over two types, with three rows,
        # pass the float range and run in the log domain; the box is kept
        # small (1 019 x 6), since that path holds box x side terms per axis
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        rows = np.array([(0, 5), (3, 2), (1018, 0)])
        logs = np.log([0.5, 0.3, 0.2])
        law = _law(rows, logs, reg2, flat2)
        q = mp.mpf(dw_survival_prob(DwDualSpec(flat2.theta, 1.0, 2.0), 0.3))
        out = propagate_dw(law, 0.3)
        below = {
            (a, b) for m, n in rows.tolist() for a in range(m + 1) for b in range(n + 1)
        }
        assert [idx.counts for _, idx in out.components] == sorted(below)

        def pmf(m):
            return [mp.binomial(m, k) * q**k * (1 - q) ** (m - k) for k in range(m + 1)]

        terms = [
            (mp.exp(mp.mpf(float(lw))), pmf(m[0]), pmf(m[1]))
            for lw, m in zip(law._arrays[0], law._arrays[1].tolist())
        ]
        for lw, (a, b) in out.components:
            exact = sum(
                w * pa[a] * pb[b] for w, pa, pb in terms if a < len(pa) and b < len(pb)
            )
            x = float(mp.log(exact))
            assert abs(lw - x) <= 1e-12 * max(1.0, abs(x)), (a, b, lw, x)


def _law(rows, logs, reg, base, positional=False):
    """Gamma law at beta = 1 and rate offset 2 on ``rows`` with ``logs``
    normalized; by the positional constructor, rows stay as given."""
    logs = np.asarray(logs, dtype=float)
    logs = logs - np.logaddexp.reduce(logs)
    comps = [(float(lw), MultiIndex(r)) for lw, r in zip(logs, rows.tolist())]
    make = GammaMixtureLaw if positional else GammaMixtureLaw.from_components
    return make(comps, base, reg, 1.0, 2.0)


def test_pascal_matrix_against_math_comb():
    """The Pascal matrix is exact, to the last bit, while its entries are
    below 2^53 (side 57); past that each row m adds at most one rounding, so
    an entry is within (1 + 2^-53)^(m - 56) - 1 of C(m, k), relative."""
    side = 200
    pascal = dw._pascal(side)
    assert pascal.shape == (side, side)
    assert dw._pascal(1).tolist() == [[1.0]]
    for m in range(side):
        assert not pascal[m, m + 1 :].any()
        slack = (1 + Fraction(1, 2**53)) ** max(m - 56, 0) - 1
        for k in range(m + 1):
            exact = math.comb(m, k)
            assert abs(Fraction(pascal[m, k]) - exact) <= slack * exact, (m, k)
            if m < 57:
                assert pascal[m, k] == exact


def one_step_dw(reg, blocks, cardinalities, d_past, d_future, base, beta):
    """smooth_dw at the middle of the three-time timeline (0, d_past,
    d_past + d_future) whose c draws at a time are the block's total counts
    followed by c - 1 zero draws."""
    zero = (0,) * reg.k
    draws = [
        [n, *[zero] * (c - 1)] if c else []
        for n, c in zip(blocks, cardinalities)
    ]
    tl = mk_dw_timeline(reg, (0.0, d_past, d_past + d_future), draws)
    return smooth_dw(tl, 1, base, beta)


class TestOneStepDw:
    def test_pure_update_when_isolated(self, reg2, flat2):
        result = one_step_dw(
            reg2, ((0, 0), (2, 1), (0, 0)), (0, 1, 0), 0.5, 0.5, flat2, 1.0
        )
        law = result.law
        assert len(law) == 1
        assert law.components[0][1] == MultiIndex((2, 1))
        assert law.rate_offset == pytest.approx(1.0, abs=1e-14)

    def test_rate_offset_identity(self, reg2, flat2):
        beta = 0.7
        d1, d2 = 0.4, 0.9
        cards = (2, 1, 3)
        result = one_step_dw(
            reg2, ((1, 0), (0, 1), (1, 1)), cards, d1, d2, flat2, beta
        )
        expected = c_flow(beta, 2.0, d1) + 1.0 + c_flow(beta, 3.0, d2)
        assert result.law.rate_offset == pytest.approx(expected, abs=1e-13)


class TestSmoothDw:
    def test_single_time_posterior(self, reg2, flat2):
        tl = mk_dw_timeline(reg2, (0.0,), [[(2, 1)]])
        result = smooth_dw(tl, 0, flat2, 1.0)
        assert len(result.law) == 1
        assert result.law.rate_offset == 1.0

    def test_matches_reference_double_sum(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            kind = "discrete" if rng.random() < 0.5 else "nonatomic"
            timeline, base, beta = random_dataset(rng, "dw", kind)
            i = int(rng.integers(0, timeline.n_times))
            result = smooth_dw(timeline, i, base, beta)
            # the double-sum reference only coincides with the global support
            # rule when at most three times carry data around the query, so
            # restrict the nonatomic comparison accordingly
            if kind == "nonatomic" and timeline.n_times > 3:
                continue
            if kind == "nonatomic" and timeline.n_times == 3 and i != 1:
                continue
            reference = reference_smooth_pairs_dw(timeline, i, base, beta)
            assert set(result.pair_log_weights) == set(reference)
            for pair, lw in reference.items():
                assert result.pair_log_weights[pair] == pytest.approx(
                    lw, abs=1e-9
                )

    def test_boundary_reduces_to_filtering(self, reg2, flat2):
        beta = 0.9
        tl = mk_dw_timeline(
            reg2, (0.0, 0.4, 1.0), [[(2, 0)], [(1, 1)], [(0, 1)]]
        )
        s = smooth_dw(tl, 2, flat2, beta)
        f = filter_posterior_dw(tl, 2, flat2, beta)
        assert s.law.rate_offset == pytest.approx(f.rate_offset, abs=1e-13)
        sw, fw = s.law.log_weights(), f.log_weights()
        assert set(sw) == set(fw)
        for key, lw in sw.items():
            assert lw == pytest.approx(fw[key], abs=1e-10)

    def test_normalization_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            kind = "discrete" if rng.random() < 0.5 else "nonatomic"
            timeline, base, beta = random_dataset(rng, "dw", kind)
            for i in range(timeline.n_times):
                result = smooth_dw(timeline, i, base, beta)
                assert result.law.weight_sum() == pytest.approx(1.0, abs=1e-10)

    def test_mirror_symmetry(self, reg2, flat2):
        beta = 1.3
        tl = mk_dw_timeline(
            reg2, (0.0, 0.4, 1.0), [[(2, 0)], [(1, 1)], [(0, 1)]]
        )
        span = tl.times[0] + tl.times[-1]
        mirrored = mk_dw_timeline(
            reg2,
            tuple(span - t for t in reversed(tl.times)),
            [
                [d.counts for d in per_time]
                for per_time in reversed(tl.dw_draws)
            ],
        )
        for i in range(3):
            bwd = filter_backward_dw(tl, i, flat2, beta)
            fwd = filter_forward_dw(mirrored, 2 - i, flat2, beta)
            assert bwd.rate_offset == pytest.approx(fwd.rate_offset, abs=1e-13)
            b, f = bwd.log_weights(), fwd.log_weights()
            assert set(b) == set(f)
            for key, lw in b.items():
                assert lw == pytest.approx(f[key], abs=1e-10)


@pytest.mark.parametrize("i", [True, 1.0, "1", -1, 3])
def test_bad_time_index_rejected(reg2, flat2, i):
    tl = mk_dw_timeline(reg2, (0.0, 0.4, 1.0), [[(1, 0)], [(0, 1), (1, 1)], [(2, 0)]])
    for call in (filter_forward_dw, filter_backward_dw, filter_posterior_dw, smooth_dw):
        with pytest.raises(DomainError):
            call(tl, i, flat2, 1.0)


@pytest.mark.parametrize("epsilon", [math.nan, -1.0, 1.0])
def test_bad_pruning_epsilon_rejected(reg2, flat2, epsilon):
    tl = mk_dw_timeline(reg2, (0.0, 0.4, 1.0), [[(1, 0)], [(0, 1), (1, 1)], [(2, 0)]])
    with pytest.raises(DomainError):
        smooth_dw(tl, 1, flat2, 1.0, epsilon)
    with pytest.raises(DomainError):
        smooth_dw(tl, 1, flat2, 1.0).law.pruned(epsilon)


def test_pruning_that_leaves_no_pair_names_epsilon():
    """Pruning at the largest accepted epsilon, 1e-3, drops every pair of
    this dataset at index 3: the error names epsilon and the largest pair
    weight (4.2e-4), and a smaller epsilon keeps 258 components."""
    labels = ("a", "b", "c", "d")
    base = BaseMeasure(2.0, {lab: 0.25 for lab in labels})
    times = [0.4 * i for i in range(6)]
    tl = mk_dw_timeline(TypeRegistry(labels), times, FOUR_TYPE_DRAWS)
    with pytest.raises(DomainError, match=r"epsilon 0\.001 .* weight is 0\.00042"):
        smooth_dw(tl, 3, base, 1.0, 1e-3)
    assert len(smooth_dw(tl, 3, base, 1.0, 1e-4).law) == 258


class TestSeriesOracle:
    def test_smoothing_mean_against_transition_series(self, reg2, flat2):
        # one observed cell evolves independently; its smoothing density can
        # be assembled directly from the transition-density series (Poisson
        # mixture of gammas), never touching the dual-chain machinery
        from scipy.special import gammaln

        from mvhmm.dual import s_t

        beta = 1.0
        tl = mk_dw_timeline(
            reg2, (0.0, 0.4, 0.9), [[(2, 0)], [(1, 1)], [(0, 1)]]
        )
        result = smooth_dw(tl, 1, flat2, beta)
        alpha_vec = flat2.alpha_vector(reg2)
        rate = beta + result.law.rate_offset
        grid = np.linspace(1e-9, 30.0, 30001)
        h = grid[1] - grid[0]
        w = np.full(grid.size, h)
        w[0] = w[-1] = h / 2
        logz = np.log(grid)
        ms = np.arange(250)

        def series_mean(alpha, n0, n1, n2, d1, d2):
            s1, s2 = s_t(beta, d1), s_t(beta, d2)
            r1, r2 = beta + s1, beta + s2
            log_am = (
                ms * math.log(s1)
                - gammaln(ms + 1)
                + gammaln(alpha + n0 + ms)
                - gammaln(alpha)
                + alpha * math.log(beta)
                - (alpha + n0 + ms) * math.log(beta + 1.0 + s1)
            )
            fwd = np.zeros(grid.size)
            for m in ms:
                sh = alpha + m
                fwd += math.exp(log_am[m]) * np.exp(
                    sh * math.log(r1) + (sh - 1) * logz - r1 * grid - gammaln(sh)
                )
            log_bm = (
                gammaln(alpha + ms + n2)
                - gammaln(alpha + ms)
                + (alpha + ms) * math.log(r2)
                - (alpha + ms + n2) * math.log(r2 + 1.0)
            )
            bwd = np.zeros(grid.size)
            for m in ms:
                bwd += np.exp(
                    -grid * s2 + m * (math.log(s2) + logz) - gammaln(m + 1) + log_bm[m]
                )
            post = fwd * np.exp(-grid + n1 * logz) * bwd
            return float(np.sum(grid * post * w) / np.sum(post * w))

        for cell, (n0, n1, n2) in enumerate([(2, 1, 0), (0, 1, 1)]):
            exact = sum(
                math.exp(lw) * (alpha_vec[cell] + m[cell]) / rate
                for lw, m in result.law.components
            )
            oracle = series_mean(alpha_vec[cell], n0, n1, n2, 0.4, 0.5)
            assert exact == pytest.approx(oracle, rel=1e-6)


class TestPredictCount:
    def test_prior_negative_binomial(self, reg2, flat2):
        beta = 1.4
        law = GammaMixtureLaw.prior(flat2, reg2, beta=beta)
        pmf = predict_count_pmf(law)
        p = 1.0 / (1.0 + beta)
        for n in range(10):
            assert pmf[n] == pytest.approx(
                math.exp(log_neg_bin_pmf(n, flat2.theta, p)), abs=1e-13
            )

    def test_sums_to_one_after_truncation(self, reg2, flat2):
        tl = mk_dw_timeline(reg2, (0.0, 0.5), [[(2, 1)], [(1, 0)]])
        result = smooth_dw(tl, 1, flat2, 1.0)
        pmf = predict_count_pmf(result.law)
        assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-10)

    def test_mean_identity(self, reg2, flat2):
        tl = mk_dw_timeline(reg2, (0.0, 0.5), [[(2, 1)], [(1, 0)]])
        result = smooth_dw(tl, 1, flat2, 1.0)
        pmf = predict_count_pmf(result.law, tail=1e-14)
        empirical_mean = sum(n * p for n, p in pmf.items())
        assert empirical_mean == pytest.approx(
            predict_count_mean(result.law), abs=1e-8
        )


    @pytest.mark.parametrize("tail", [0.0, -1e-12, 1.0, 2.0, math.nan])
    def test_tail_outside_unit_interval_rejected(self, reg2, flat2, tail):
        law = GammaMixtureLaw.prior(flat2, reg2, beta=1.0)
        with pytest.raises(DomainError):
            predict_count_pmf(law, tail)

    def test_negative_support_rejected(self, reg2, flat2):
        law = GammaMixtureLaw.prior(flat2, reg2, beta=1.0)
        with pytest.raises(DomainError):
            predict_count_pmf(law, 1e-12, -5)
        assert list(predict_count_pmf(law, 1e-12, 0)) == [0]

    @pytest.mark.parametrize("max_support", [2.5, 2.0, True, "2", np.float64(3.0)])
    def test_non_integer_support_rejected(self, reg2, flat2, max_support):
        law = GammaMixtureLaw.prior(flat2, reg2, beta=1.0)
        with pytest.raises(DomainError):
            predict_count_pmf(law, 1e-12, max_support)
        assert list(predict_count_pmf(law, 1e-12, np.int64(2))) == [0, 1, 2]


def _first_two_labels_law(law, m_count=None):
    """Exact law of (size, first label, second label) of one further draw,
    chained from predict_count_pmf and predictive_label_pmf; labels a draw
    does not reach are None, and NEW_LABEL becomes the fresh label the
    sampler names (``<new>1``, then ``<new>2``)."""
    sizes = predict_count_pmf(law) if m_count is None else {m_count: 1.0}
    out = {}
    for n, p_n in sizes.items():
        if n == 0:
            out[(0, None, None)] = p_n
            continue
        for key1, p1 in predictive_label_pmf(law, (), n).items():
            l1 = f"{NEW_LABEL}1" if key1 == NEW_LABEL else key1
            if n == 1:
                out[(1, l1, None)] = p_n * p1
                continue
            fresh = f"{NEW_LABEL}{2 if l1.startswith(NEW_LABEL) else 1}"
            for key2, p2 in predictive_label_pmf(law, (l1,), n).items():
                l2 = fresh if key2 == NEW_LABEL else key2
                out[(n, l1, l2)] = p_n * p1 * p2
    return out


def _assert_draws_follow(law, exact, rng, m_count, reps):
    """Draw ``reps`` times and compare the frequency of every (size, first
    label, second label) cell with its exact rate.  Cells expected fewer
    than 100 times are pooled into one, so that the normal approximation
    holds.  Returns the cells compared one by one."""
    counts = Counter()
    for _ in range(reps):
        m, labels = predict_draw(law, rng, m_count)
        counts[(m, *(labels + [None, None])[:2])] += 1
    assert math.fsum(exact.values()) == pytest.approx(1.0, abs=1e-9)
    own = {key for key, p in exact.items() if p * reps >= 100}
    rare = [key for key in set(exact) | set(counts) if key not in own]
    cells = [((key,), exact[key]) for key in own]
    cells.append((rare, math.fsum(exact.get(key, 0.0) for key in rare)))
    for keys, p in cells:
        freq = sum(counts[key] for key in keys) / reps
        se = math.sqrt(max(p * (1 - p), 1 / reps) / reps)
        assert abs(freq - p) <= 3.5 * se, keys
    return own


class TestPredictDraw:
    @pytest.mark.parametrize(
        "base",
        [BaseMeasure(2.0, {"a": 0.3, "b": 0.3, "c": 0.2}), BaseMeasure(2.0, None)],
        ids=["discrete-idle-atom", "nonatomic"],
    )
    @pytest.mark.parametrize("m_count", [None, 2])
    def test_joint_law_of_size_and_first_two_labels(self, reg2, base, m_count):
        # the sampler picks one component, draws the size from it, then runs
        # its urn; the chained exact pmfs mix over components at every step.
        # The components differ in total and in type, so a size or an urn
        # taken from the wrong component shifts the joint law.
        comps = [
            (math.log(0.5), MultiIndex((5, 0))),
            (math.log(0.5), MultiIndex((0, 1))),
        ]
        law = GammaMixtureLaw.from_components(
            comps, base, reg2, beta=1.0, rate_offset=0.5
        )
        exact = _first_two_labels_law(law, m_count)
        own = _assert_draws_follow(
            law, exact, np.random.default_rng(21), m_count, 40_000
        )
        # a repeated new label, and a second new one or a repeated idle atom,
        # are common enough to be compared cell by cell
        new1, new2 = f"{NEW_LABEL}1", f"{NEW_LABEL}2"
        assert (2, new1, new1) in own
        assert ((2, new1, new2) if base.is_nonatomic else (2, "c", "c")) in own

    def test_zero_count_empty(self, reg2, flat2):
        law = GammaMixtureLaw.prior(flat2, reg2, beta=1.0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        m, labels = predict_draw(law, rng, m_count=0)
        assert m == 0 and labels == []
        assert rng.bit_generator.state == state  # no random numbers taken

    @pytest.mark.parametrize("m_count", [-1, 2.5, 2.0, True, "2", np.float64(1.0)])
    def test_bad_draw_size_rejected(self, reg2, flat2, m_count):
        law = GammaMixtureLaw.prior(flat2, reg2, beta=1.0)
        with pytest.raises(DomainError):
            predict_draw(law, np.random.default_rng(0), m_count)
        with pytest.raises(DomainError):
            predictive_label_pmf(law, (), m_count)

    def test_numpy_integer_draw_size_accepted(self, reg2, flat2):
        law = GammaMixtureLaw.prior(flat2, reg2, beta=1.0)
        m, labels = predict_draw(law, np.random.default_rng(0), np.int64(2))
        assert m == 2 and len(labels) == 2
        assert predictive_label_pmf(law, (), np.int64(2)) == predictive_label_pmf(
            law, (), 2
        )

    def test_single_component_urn(self, reg2, flat2):
        law = GammaMixtureLaw.from_components(
            [(0.0, MultiIndex((2, 1)))], flat2, reg2, beta=1.0, rate_offset=1.0
        )
        pmf = predictive_label_pmf(law, (), m_count=2)
        alpha = flat2.alpha_vector(reg2)
        denom = flat2.theta + 3
        assert pmf["a"] == pytest.approx((alpha[0] + 2) / denom, abs=1e-13)
        assert pmf["b"] == pytest.approx((alpha[1] + 1) / denom, abs=1e-13)

    def test_rate_independence_matches_fv_urn(self, reg2, flat2):
        # with no size conditioning the rate terms cancel and the urn pmf
        # coincides with the Dirichlet-mixture predictive for equal weights
        comps = [
            (math.log(0.3), MultiIndex((2, 0))),
            (math.log(0.7), MultiIndex((0, 1))),
        ]
        glaw = GammaMixtureLaw.from_components(
            comps, flat2, reg2, beta=1.7, rate_offset=2.5
        )
        dlaw = DirichletMixtureLaw.from_components(comps, flat2, reg2)
        g = predictive_label_pmf(glaw)
        d = predictive_pmf(dlaw)
        assert set(g) == set(d)
        for key, p in d.items():
            assert g[key] == pytest.approx(p, abs=1e-10)

    def test_first_element_matches_pmf(self, reg2, flat2):
        tl = mk_dw_timeline(reg2, (0.0, 0.5), [[(2, 1)], [(1, 0)]])
        result = smooth_dw(tl, 1, flat2, 1.0)
        pmf = predictive_label_pmf(result.law, (), m_count=1)
        rng = np.random.default_rng(3)
        reps = 20_000
        counts: dict[str, int] = {}
        for _ in range(reps):
            _, labels = predict_draw(result.law, rng, m_count=1)
            key = labels[0] if labels[0] in reg2 else NEW_LABEL
            counts[key] = counts.get(key, 0) + 1
        for lab, p in pmf.items():
            freq = counts.get(lab, 0) / reps
            se = math.sqrt(max(p * (1 - p), 1 / reps) / reps)
            assert abs(freq - p) <= 3.5 * se

    def test_idle_atom_label(self, reg2):
        # configured atom "c" never shows in the data: the label pmf keeps its
        # mass, and the draw sampler produces it at that rate
        base = BaseMeasure(2.0, {"a": 0.3, "b": 0.3, "c": 0.4})
        tl = mk_dw_timeline(reg2, (0.0, 0.5), [[(2, 1)], [(1, 0)]])
        result = smooth_dw(tl, 1, base, 1.0)
        pmf = predictive_label_pmf(result.law, (), m_count=1)
        assert math.fsum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
        assert pmf[NEW_LABEL] == pytest.approx(0.0, abs=1e-15)
        given = predictive_label_pmf(result.law, ("c",), m_count=2)
        assert math.fsum(given.values()) == pytest.approx(1.0, abs=1e-12)
        assert given["c"] > pmf["c"]
        rng = np.random.default_rng(11)
        reps = 20_000
        hits = sum(
            predict_draw(result.law, rng, m_count=1)[1][0] == "c" for _ in range(reps)
        )
        se = math.sqrt(pmf["c"] * (1 - pmf["c"]) / reps)
        assert abs(hits / reps - pmf["c"]) <= 3.5 * se

    def test_impossible_history_raises(self, reg2):
        base = BaseMeasure(2.0, {"a": 0.3, "b": 0.3, "c": 0.4})
        tl = mk_dw_timeline(reg2, (0.0, 0.5), [[(2, 1)], [(1, 0)]])
        result = smooth_dw(tl, 1, base, 1.0)
        history = ("c", "a", f"{NEW_LABEL}1")
        for m_count in (None, 4):
            with pytest.raises(AllWeightsZero):
                predictive_label_pmf(result.law, history, m_count)

    def test_sampled_sizes_match_pmf(self, reg2, flat2):
        tl = mk_dw_timeline(reg2, (0.0, 0.5), [[(1, 1)], [(1, 0)]])
        result = smooth_dw(tl, 1, flat2, 1.0)
        pmf = predict_count_pmf(result.law)
        rng = np.random.default_rng(7)
        reps = 20_000
        sizes = np.array([predict_draw(result.law, rng)[0] for _ in range(reps)])
        for n in range(4):
            p = pmf[n]
            freq = float(np.mean(sizes == n))
            se = math.sqrt(max(p * (1 - p), 1 / reps) / reps)
            assert abs(freq - p) <= 3.5 * se
