"""Dual death chains: flows, totals tables, typed transitions, simulation."""

import math
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from mvhmm import dual, dw
from mvhmm.core import BaseMeasure, GammaMixtureLaw, MultiIndex, TypeRegistry
from mvhmm.dual import (
    DwDualSpec,
    FvDualSpec,
    c_flow,
    c_flow_integral,
    clear_transition_cache,
    dw_survival_prob,
    dw_typed_log_prob,
    fv_totals_transition,
    fv_typed_log_prob,
    s_t,
)
from mvhmm.errors import DomainError
from mvhmm.oracles import gillespie_dw, gillespie_fv
from mvhmm.specfun import log_binom_pmf, log_falling_binom


class TestSt:
    def test_small_t_asymptote(self):
        # S_t ~ 2/t as t -> 0, so S_t * t -> 2
        assert s_t(2.0, 1e-8) * 1e-8 == pytest.approx(2.0, abs=1e-6)

    def test_large_t(self):
        assert s_t(2.0, 100.0) < 1e-12

    def test_value(self):
        assert s_t(1.0, 2.0) == pytest.approx(1.0 / (math.e - 1.0), abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            s_t(1.0, 0.0)


class TestCFlow:
    def test_start(self):
        assert c_flow(1.0, 3.0, 0.0) == 3.0

    def test_decreases_to_zero(self):
        beta = 0.7
        assert c_flow(beta, 3.0, 200.0 / beta) < 1e-12

    def test_flow_property(self):
        beta, c, t, s = 1.0, 3.0, 0.7, 1.3
        direct = c_flow(beta, c, t + s)
        composed = c_flow(beta, c_flow(beta, c, t), s)
        assert direct == pytest.approx(composed, abs=1e-13)


class TestSurvival:
    def test_at_zero(self):
        spec = DwDualSpec(1.0, 1.0, 2.0)
        assert dw_survival_prob(spec, 0.0) == 1.0

    def test_integral_against_quadrature(self):
        beta, c, t = 1.0, 2.0, 1.5
        oracle, err = quad(lambda s: c_flow(beta, c, s), 0.0, t, epsabs=1e-13)
        assert err < 1e-10
        assert c_flow_integral(beta, c, t) == pytest.approx(oracle, abs=1e-10)

    def test_monotone(self):
        spec = DwDualSpec(1.0, 0.8, 1.5)
        qs = [dw_survival_prob(spec, t) for t in np.linspace(0.0, 5.0, 40)]
        assert all(a >= b for a, b in zip(qs, qs[1:]))

    def test_flow_compatibility(self):
        # q over t+s started at c equals q over t at c times q over s at C_t
        beta, c, t, s = 0.9, 2.5, 0.6, 1.1
        spec = DwDualSpec(1.0, beta, c)
        lhs = dw_survival_prob(spec, t + s)
        rhs = dw_survival_prob(spec, t) * dw_survival_prob(
            DwDualSpec(1.0, beta, c_flow(beta, c, t)), s
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestTotalsTable:
    def test_golden_p11(self):
        for theta in (0.5, 1.0, 2.0, 5.0):
            for t in (0.01, 0.1, 1.0, 10.0):
                table = fv_totals_transition(theta, 1, t)
                assert table.prob(1) == pytest.approx(
                    math.exp(-theta * t / 2.0), abs=1e-8
                )

    def test_zero_time_point_mass(self):
        table = fv_totals_transition(1.3, 4, 0.0)
        assert table.prob(4) == 1.0
        assert table.probs[:4].sum() == 0.0

    def test_rows_normalized(self):
        for theta, n, t in [(0.5, 6, 0.3), (2.5, 8, 1.2), (1.0, 5, 5.0)]:
            table = fv_totals_transition(theta, n, t)
            assert np.all(table.probs >= 0.0)
            assert table.probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_against_matrix_exponential(self):
        # independent route: expm of the generator on {0..n}
        theta, n, t = 1.7, 6, 0.8
        rates = np.array([i * (theta + i - 1) / 2.0 for i in range(n + 1)])
        gen = -np.diag(rates)
        for i in range(1, n + 1):
            gen[i, i - 1] = rates[i]
        oracle = expm(gen.T * t)[:, n]
        table = fv_totals_transition(theta, n, t)
        assert np.allclose(table.probs, oracle, atol=1e-10)

    def test_chapman_kolmogorov(self):
        theta, n = 1.2, 5
        t, s = 0.4, 0.9

        def matrix(t):
            # row r is the law started from total r, zero above the diagonal
            rows = [fv_totals_transition(theta, r, t).probs for r in range(n + 1)]
            return np.array([np.pad(row, (0, n + 1 - len(row))) for row in rows])

        pt, ps, pts = matrix(t), matrix(s), matrix(t + s)
        assert np.allclose(pts, pt @ ps, atol=1e-8)

    def test_stochastic_monotonicity(self):
        theta, n = 1.5, 5
        times = np.linspace(0.05, 3.0, 25)
        cdfs = np.array(
            [np.cumsum(fv_totals_transition(theta, n, t).probs) for t in times]
        )
        assert np.all(np.diff(cdfs, axis=0) >= -1e-9)

    @pytest.mark.parametrize(
        "probs,match",
        [
            ([0.5, 0.5], "cover states"),
            ([[0.2, 0.3, 0.5]], "cover states"),
            ([0.5, 0.5, -2e-12], "negative"),
        ],
        ids=["short", "two-dimensional", "negative"],
    )
    def test_direct_table_rejects(self, probs, match):
        with pytest.raises(DomainError, match=match):
            dual.TotalsTransitionTable(2, 0.5, np.array(probs))

    def test_direct_table_clips_and_derives_logs(self):
        table = dual.TotalsTransitionTable(2, 0.5, np.array([0.25, 0.75, -1e-13]))
        assert table.probs.tolist() == [0.25, 0.75, 0.0]
        assert table.log_prob(2) == -math.inf
        assert table.log_probs[:2].tolist() == np.log([0.25, 0.75]).tolist()


def _eigen_expansion_row(theta, n, t, digits=250):
    """P(|M_t| = k | |M_0| = n) for k = 0..n at ``digits`` decimal digits,
    from P[n, k](t) = sum_j A_kj exp(-lambda_j t): A_nn = 1,
    A_kj = lambda_{k+1} A_{k+1,j} / (lambda_k - lambda_j) for j > k, and A_kk
    set by P[n, k](0) = 0."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(digits):
        lam = [mp.mpf(i) * (mp.mpf(theta) + i - 1) / 2 for i in range(n + 1)]
        decay = [mp.exp(-rate * mp.mpf(t)) for rate in lam]
        coef = {n: mp.mpf(1)}
        out = [decay[n]]
        for k in range(n - 1, -1, -1):
            coef = {j: lam[k + 1] * a / (lam[k] - lam[j]) for j, a in coef.items()}
            coef[k] = -sum(coef.values())
            out.append(sum(a * decay[j] for j, a in coef.items()))
        return out[::-1]


class TestTotalsAccuracy:
    @pytest.mark.parametrize("theta", [0.3, 2.0, 8.0])
    def test_against_eigen_expansion(self, theta):
        mp = pytest.importorskip("mpmath")
        worst = 0.0
        # 31 and 63 are the last rows of their blocks, the rows that need the
        # most series terms
        for n in (5, 24, 31, 45, 63):
            for t in (1e-3, 0.05, 0.3, 3.0, 50.0):
                probs = fv_totals_transition(theta, n, t).probs
                for k, ref in enumerate(_eigen_expansion_row(theta, n, t)):
                    if ref >= mp.mpf("1e-300"):
                        assert probs[k] > 0.0, (n, t, k)
                        err = abs(math.log(probs[k]) - float(mp.log(ref)))
                        worst = max(worst, err)
        assert worst <= 1e-12

    def test_far_tail_entries_are_resolved(self):
        # the top state has the one exit rate 6*7/2, so the entry is e^-315
        top = fv_totals_transition(2.0, 6, 15.0).probs[6]
        assert math.log(top) == pytest.approx(-315.0, abs=1e-12)
        assert np.all(fv_totals_transition(2.0, 8, 15.0).probs > 0.0)

    def test_rows_do_not_depend_on_history(self):
        clear_transition_cache()
        first = fv_totals_transition(0.7, 20, 1.3).log_probs.copy()
        fv_totals_transition(0.7, 100, 1.3)
        assert np.array_equal(fv_totals_transition(0.7, 20, 1.3).log_probs, first)
        clear_transition_cache()
        assert np.array_equal(fv_totals_transition(0.7, 20, 1.3).log_probs, first)

    def test_cache_drops_least_recently_used_past_its_bytes(self, monkeypatch):
        block = 2 * 16 * 16 * 8  # probabilities and logs over totals 0..15
        monkeypatch.setattr(dual, "_CACHE_BYTES", 3 * block)
        clear_transition_cache()
        for t in (0.1, 0.2, 0.3, 0.4):
            fv_totals_transition(1.0, 5, t)
        fv_totals_transition(1.0, 5, 0.2)  # now the most recently used
        fv_totals_transition(1.0, 5, 0.5)
        assert list(dual._table_cache._tables) == [(1.0, 0.4), (1.0, 0.2), (1.0, 0.5)]
        assert dual._table_cache._bytes == 3 * block
        fv_totals_transition(1.0, 20, 0.4)  # grown to totals 0..31: 4 blocks
        assert list(dual._table_cache._tables) == [(1.0, 0.4)]
        clear_transition_cache()

    def test_cache_under_concurrent_callers(self, monkeypatch):
        monkeypatch.setattr(dual, "_CACHE_BYTES", 6 * 2 * 16 * 16 * 8)
        keys = [(theta, n, t) for theta in (0.5, 2.0) for n in (3, 15, 20)
                for t in (0.1, 0.7, 3.0)]
        clear_transition_cache()
        expected = {key: fv_totals_transition(*key).probs for key in keys}
        clear_transition_cache()
        errors = []

        def work(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(300):
                    key = keys[rng.integers(len(keys))]
                    probs = fv_totals_transition(*key).probs
                    if not np.array_equal(probs, expected[key]):
                        errors.append(key)
            except Exception as exc:  # a failure in a thread would go unseen
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        held = dual._table_cache._tables.values()
        assert dual._table_cache._bytes == sum(2 * probs.nbytes for probs, _ in held)
        assert dual._table_cache._bytes <= dual._CACHE_BYTES or len(held) == 1
        clear_transition_cache()

    def test_rejects_invalid_arguments(self):
        for theta, n, t in [(1.0, -1, 0.5), (1.0, 3, -0.5), (1.0, 3, math.nan),
                            (1.0, 3, math.inf), (math.nan, 3, 0.5), (0.0, 3, 0.5)]:
            with pytest.raises(DomainError):
                fv_totals_transition(theta, n, t)


class TestTypedTransitions:
    def test_identity_at_zero(self):
        spec = FvDualSpec(1.0)
        n = MultiIndex((2, 1))
        assert fv_typed_log_prob(spec, n, n, 0.0) == 0.0
        dspec = DwDualSpec(1.0, 1.0, 1.0)
        assert dw_typed_log_prob(dspec, n, n, 0.0) == 0.0

    def test_rejects_bad_index(self):
        spec = FvDualSpec(1.0)
        with pytest.raises(IndexError):
            fv_typed_log_prob(spec, MultiIndex((1, 0)), MultiIndex((0, 1)), 0.5)

    def test_hypergeometric_split(self):
        # n=(1,1) to k=(1,0) carries half of the totals mass p_{2,1}(t)
        spec = FvDualSpec(1.3)
        t = 0.6
        p21 = fv_totals_transition(1.3, 2, t).prob(1)
        lp = fv_typed_log_prob(spec, MultiIndex((1, 1)), MultiIndex((1, 0)), t)
        assert math.exp(lp) == pytest.approx(p21 / 2.0, abs=1e-12)

    def test_fv_marginalizes_to_totals(self):
        spec = FvDualSpec(0.9)
        n = MultiIndex((2, 1, 1))
        t = 0.7
        table = fv_totals_transition(0.9, n.total, t)
        sums = np.zeros(n.total + 1)
        for k in n.lattice_below():
            sums[k.total] += math.exp(fv_typed_log_prob(spec, n, k, t))
        assert np.allclose(sums, table.probs, atol=1e-10)

    def test_dw_binomial_hypergeometric_factorization(self):
        # product of per-type binomials equals Bin(total) times hypergeometric
        rng = np.random.default_rng(2)
        spec = DwDualSpec(1.0, 0.8, 1.5)
        t = 0.5
        q = dw_survival_prob(spec, t)
        for _ in range(20):
            n = MultiIndex(rng.integers(0, 4, size=3))
            if n.total == 0:
                continue
            for k in n.lattice_below():
                direct = dw_typed_log_prob(spec, n, k, t)
                alt = log_binom_pmf(k.total, n.total, q) - log_falling_binom(
                    n.total, k.total
                )
                for nj, kj in zip(n, k):
                    alt += log_falling_binom(nj, kj)
                assert direct == pytest.approx(alt, abs=1e-12)


@pytest.mark.parametrize(
    "q", [0.0, 1e-300, 1e-5, 0.3, 0.5, 0.77, 1.0 - 1e-6, 1.0 - 1e-16, 1.0]
)
def test_log_binom_table_equals_scalar_pmf(q):
    """dw's table of binomial log-pmfs holds log_binom_pmf's floats, bit for
    bit, at every size, q = 0 and q = 1 included."""
    for top in (0, 1, 30, 200):
        table = dual._log_binom_table(top, q)
        assert table.shape == (top + 1, top + 1)
        expected = np.full_like(table, -math.inf)
        for n in range(top + 1):
            expected[n, : n + 1] = [log_binom_pmf(k, n, q) for k in range(n + 1)]
        assert table.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "q", [0.0, 1e-300, 1e-5, 0.3, 0.5, 0.77, 1.0 - 1e-6, 1.0 - 1e-16, 1.0]
)
def test_thinning_a_point_mass_equals_scalar_pmf(q):
    """dw's thinning at q of the point mass at n is the row of log_binom_pmf
    at n, at every size, q = 0 and q = 1 included: the same cells, exactly
    at q = 0 and q = 1, and otherwise within 1e-14 of the magnitude
    n (|log q| + |log(1 - q)|) of the terms the log-domain sum cancels."""
    reg = TypeRegistry(("a",))
    base = BaseMeasure(2.0, {"a": 0.5})
    for top in (0, 1, 30, 200):
        law = GammaMixtureLaw.from_components(
            [(0.0, MultiIndex((top,)))], base, reg, 1.0, 2.0
        )
        log_weights, indices = dw._thinning(law, q)
        expected = [log_binom_pmf(k, top, q) for k in range(top + 1)]
        cells = [k for k, x in enumerate(expected) if x != -math.inf]
        assert indices.tolist() == [[k] for k in cells]
        if q in (0.0, 1.0):
            assert log_weights.tolist() == [expected[k] for k in cells] == [0.0]
            continue
        scale = max(1.0, top * (abs(math.log(q)) + abs(math.log1p(-q))))
        for x, k in zip(log_weights, cells):
            assert abs(x - expected[k]) <= 1e-14 * scale, (top, k, x, expected[k])


@pytest.mark.parametrize(
    "call",
    [
        lambda: DwDualSpec(1.0, 1.0, -0.5),
        lambda: s_t(0.0, 1.0),
        lambda: s_t(-1.0, 1.0),
        lambda: c_flow(1.0, 2.0, -0.1),
        lambda: c_flow_integral(1.0, 2.0, -0.1),
        lambda: dw_survival_prob(DwDualSpec(1.0, 1.0, 2.0), -0.1),
    ],
    ids=[
        "spec-negative-c", "s_t-beta-zero", "s_t-beta-negative",
        "c_flow-negative-t", "c_flow_integral-negative-t",
        "survival-negative-t",
    ],
)
def test_out_of_domain_arguments_rejected(call):
    with pytest.raises(DomainError):
        call()


class TestGillespie:
    def test_zero_time(self):
        rng = np.random.default_rng(0)
        spec = FvDualSpec(1.0)
        n = MultiIndex((2, 1))
        res = gillespie_fv(spec, n, 0.0, 100, rng)
        assert res.freq(n) == 1.0

    def test_fv_single_lineage_survival(self):
        rng = np.random.default_rng(1)
        spec = FvDualSpec(1.0)
        res = gillespie_fv(spec, MultiIndex((1,)), 1.0, 200_000, rng)
        exact = math.exp(-0.5)
        assert abs(res.totals_freq(1) - exact) <= 3.0 * res.totals_se(1)

    def test_fv_totals_match_ode(self):
        rng = np.random.default_rng(2)
        spec = FvDualSpec(1.0)
        res = gillespie_fv(spec, MultiIndex((1, 1)), 1.0, 200_000, rng)
        table = fv_totals_transition(1.0, 2, 1.0)
        for k in range(3):
            assert abs(res.totals_freq(k) - table.prob(k)) <= 3.0 * res.totals_se(k)

    def test_dw_totals_binomial(self):
        rng = np.random.default_rng(3)
        spec = DwDualSpec(1.0, 0.8, 2.0)
        n = MultiIndex((3, 2))
        t = 0.7
        res = gillespie_dw(spec, n, t, 200_000, rng)
        q = dw_survival_prob(spec, t)
        for k in range(n.total + 1):
            exact = math.exp(log_binom_pmf(k, n.total, q))
            assert abs(res.totals_freq(k) - exact) <= 3.0 * res.totals_se(k)
