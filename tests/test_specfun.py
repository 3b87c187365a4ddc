"""Scalar special functions: golden values, oracles and identities."""

import math

import numpy as np
import pytest

from helpers import discrete_case_log
from mvhmm.core import MultiIndex
from mvhmm.errors import DomainError
from mvhmm.specfun import (
    log_binom_pmf,
    log_dir_cat,
    log_gamma_marginal,
    log_neg_bin_pmf,
    log_pochhammer,
)


class TestLogDirCat:
    def test_empty_sample(self):
        assert log_dir_cat((0, 0), (1.0, 1.0)) == 0.0

    def test_single_draw(self):
        assert log_dir_cat((1, 0), (1.0, 1.0)) == pytest.approx(
            math.log(0.5), abs=1e-13
        )

    def test_one_one_against_quadrature(self):
        # marginal of one draw of each type under a flat prior on the simplex:
        # integral of x(1-x) over [0,1] times the multinomial factor 2
        grid = np.linspace(0.0, 1.0, 200001)
        oracle = 2.0 * np.trapezoid(grid * (1 - grid), grid)
        assert oracle == pytest.approx(1 / 3, abs=1e-9)
        # the ordered-sample marginal drops the factor 2
        assert log_dir_cat((1, 1), (1.0, 1.0)) == pytest.approx(
            math.log(1 / 6), abs=1e-13
        )

    def test_extended_total_matches_padded_vector(self):
        # unseen-atom mass folded into `total` equals an explicit zero-count atom
        a = log_dir_cat((2, 1), (0.5, 0.7), total=2.0)
        b = log_dir_cat((2, 1, 0), (0.5, 0.7, 0.8))
        assert a == pytest.approx(b, abs=1e-13)

    def test_additivity(self):
        # m(n+m) = m(n) * m_{a+n}(m), checked on random small counts
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = rng.integers(1, 4)
            alpha = rng.uniform(0.2, 2.0, size=k)
            n = rng.integers(0, 4, size=k)
            m = rng.integers(0, 4, size=k)
            lhs = log_dir_cat(n + m, alpha)
            rhs = log_dir_cat(n, alpha) + log_dir_cat(m, alpha + n)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def _h_log_fv(x, n, alpha):
    return float(np.dot(n, np.log(x))) - log_dir_cat(n, alpha)


def test_h_product_identity_fv():
    # h(x,n) h(x,m) = c(n,m) h(x,n+m) at 100 random simplex points; log c is
    # the engine's discrete case term with an empty third block
    rng = np.random.default_rng(3)
    alpha = np.array([0.7, 1.3, 0.5])
    n = np.array([2, 0, 1])
    m = np.array([1, 1, 0])
    log_c = discrete_case_log(
        MultiIndex(n), MultiIndex(m), MultiIndex.zeros(3), tuple(alpha), alpha.sum()
    )
    for _ in range(100):
        x = rng.dirichlet(np.ones(3))
        lhs = _h_log_fv(x, n, alpha) + _h_log_fv(x, m, alpha)
        rhs = log_c + _h_log_fv(x, n + m, alpha)
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestLogGammaMarginal:
    def test_zero_count(self):
        theta, beta, a = 1.7, 2.2, 1.5
        assert log_gamma_marginal(0, a, theta, beta) == pytest.approx(
            theta * (math.log(beta) - math.log(beta + a)), abs=1e-13
        )

    def test_worked_value(self):
        assert log_gamma_marginal(1, 1.0, 1.0, 1.0) == pytest.approx(
            math.log(0.25), abs=1e-13
        )

    def test_matches_negative_binomial(self):
        # gamma marginal at unit cardinality is the NegBin pmf times n!
        theta, beta = 2.0, 3.0
        for n in range(11):
            lhs = log_gamma_marginal(n, 1.0, theta, beta) - math.lgamma(n + 1)
            rhs = log_neg_bin_pmf(n, theta, 1.0 / (beta + 1.0))
            assert lhs == pytest.approx(rhs, abs=1e-12)


def _h_log_dw(z, counts, c, alpha, theta, beta):
    z = np.asarray(z, dtype=float)
    out = (
        -c * z.sum()
        + theta * (math.log(beta + c) - math.log(beta))
        + sum(counts) * math.log(beta + c)
    )
    for aj, nj, zj in zip(alpha, counts, z):
        out += math.lgamma(aj) - math.lgamma(aj + nj) + nj * math.log(zj)
    return out


def test_h_product_identity_dw():
    # h(z,N,c) h(z,M,d) = [r_{c+d}(N+M)/(r_c(N) r_d(M))] h(z,N+M,c+d); the
    # per-draw factorials cancel from the ratio, which leaves the engine's
    # total-count marginals times its discrete case term (empty third block)
    rng = np.random.default_rng(5)
    theta, beta = 1.4, 0.8
    alpha = (0.9, 0.5)
    n = (2, 2)
    m = (1, 1)
    log_ratio = (
        log_gamma_marginal(6, 3.0, theta, beta)
        - log_gamma_marginal(4, 2.0, theta, beta)
        - log_gamma_marginal(2, 1.0, theta, beta)
    ) + discrete_case_log(
        MultiIndex(n), MultiIndex(m), MultiIndex.zeros(2), alpha, theta
    )
    for _ in range(50):
        z = rng.uniform(0.05, 3.0, size=2)
        lhs = _h_log_dw(z, n, 2, alpha, theta, beta) + _h_log_dw(
            z, m, 1, alpha, theta, beta
        )
        rhs = log_ratio + _h_log_dw(z, (3, 3), 3, alpha, theta, beta)
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestLogNegBin:
    def test_zero(self):
        r, p = 1.7, 0.4
        assert log_neg_bin_pmf(0, r, p) == pytest.approx(
            r * math.log1p(-p), abs=1e-13
        )

    def test_normalization(self):
        r, p = 2.5, 0.3
        total = sum(math.exp(log_neg_bin_pmf(n, r, p)) for n in range(300))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_neg_bin_pmf(-1, 1.0, 0.5)
        with pytest.raises(DomainError):
            log_neg_bin_pmf(1, 1.0, 1.0)


def test_binom_edges():
    assert log_binom_pmf(0, 3, 0.0) == 0.0
    assert log_binom_pmf(1, 3, 0.0) == -math.inf
    assert log_binom_pmf(3, 3, 1.0) == 0.0
    assert math.exp(log_binom_pmf(1, 2, 0.25)) == pytest.approx(0.375, abs=1e-13)


def test_pochhammer():
    assert log_pochhammer(2.0, 0) == 0.0
    assert log_pochhammer(2.0, 3) == pytest.approx(math.log(24.0), abs=1e-13)


def test_multiindex_inputs_accepted():
    n = MultiIndex((1, 1))
    assert log_dir_cat(n.counts, (1.0, 1.0)) == pytest.approx(
        math.log(1 / 6), abs=1e-13
    )
