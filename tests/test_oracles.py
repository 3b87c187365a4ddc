"""Simulation and quadrature oracles, plus the validation suite plumbing."""

import math

import numpy as np
import pytest

from mvhmm.core import (
    BaseMeasure,
    MultiIndex,
    ObservationTimeline,
    TypeRegistry,
)
from mvhmm.errors import DomainError
from mvhmm.fv import smooth
from mvhmm.oracles import (
    OracleReport,
    beta_mixture_density,
    dw_h_log,
    fv_h_log,
    particle_smoother_dw,
    particle_smoother_fv,
    quadrature_posterior,
    run_duality_suite,
    select_dw_rate_constant,
    simulate_cir,
    simulate_wf,
)


@pytest.fixture
def reg2():
    return TypeRegistry(("a", "b"))


@pytest.fixture
def flat2():
    return BaseMeasure(2.0, {"a": 0.5, "b": 0.5})


class TestOracleReport:
    def test_pass_rule(self):
        rep = OracleReport.compare("x", 1.0, 1.01, 0.005)
        assert rep.z == pytest.approx(2.0)
        assert rep.passed
        rep = OracleReport.compare("x", 1.0, 1.1, 0.005)
        assert not rep.passed
        rep = OracleReport.compare("x", 1.0, 1.1, 0.005, abs_tol=0.2)
        assert rep.passed

    def test_seeded_reproducibility(self):
        a = run_duality_suite(seed=123, replicates=2000)
        b = run_duality_suite(seed=123, replicates=2000)
        assert a == b


class TestSimulateWf:
    def test_zero_time(self):
        rng = np.random.default_rng(0)
        x = simulate_wf((1.0, 1.0), (0.3, 0.7), 0.0, 1e-4, rng, 5)
        assert np.allclose(x, [0.3, 0.7])

    def test_step_size_guard(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            simulate_wf((1.0, 1.0), (0.5, 0.5), 0.1, 0.01, rng, 1)

    @pytest.mark.parametrize(
        "t,dt",
        [(math.nan, 1e-4), (math.inf, 1e-4), (-1.0, 1e-4), (1.0, 0.0),
         (1.0, -1e-4), (1.0, math.nan), (1.0, math.inf)],
    )
    def test_bad_times_rejected_before_drawing(self, t, dt):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DomainError):
            simulate_wf((1.0, 1.0), (0.5, 0.5), t, dt, rng, 1)
        assert rng.bit_generator.state == state

    def test_stationary_moments(self):
        # theta = 2 symmetric: stationary law of the first cell is Beta(1,1)
        rng = np.random.default_rng(1)
        n = 20_000
        x = simulate_wf((1.0, 1.0), (0.5, 0.5), 5.0, 1e-3, rng, n)[:, 0]
        mean_se = x.std(ddof=1) / math.sqrt(n)
        assert abs(x.mean() - 0.5) <= 3.0 * mean_se
        var = x.var(ddof=1)
        var_se = np.square(x - x.mean()).std(ddof=1) / math.sqrt(n)
        assert abs(var - 1.0 / 12.0) <= 3.0 * var_se + 2e-3


class TestSimulateCir:
    def test_transition_mean(self):
        rng = np.random.default_rng(2)
        alpha, beta, z0, t = 1.3, 0.9, 2.0, 0.8
        from mvhmm.dual import s_t

        s = s_t(beta, t)
        exact = (alpha + z0 * s) / (beta + s)
        z = simulate_cir(alpha, beta, np.full(200_000, z0), t, rng)
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - exact) <= 3.0 * se

    def test_long_horizon_stationary(self):
        rng = np.random.default_rng(3)
        alpha, beta = 1.1, 0.7
        z = simulate_cir(alpha, beta, np.full(200_000, 4.0), 60.0 / beta, rng)
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - alpha / beta) <= 3.0 * se

    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_time_rejected_before_drawing(self, t):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DomainError):
            simulate_cir(1.5, 1.0, np.ones(3), t, rng)
        assert rng.bit_generator.state == state

    def test_zero_start_no_jumps(self):
        rng = np.random.default_rng(4)
        z = simulate_cir(1.5, 1.0, np.zeros(50_000), 0.5, rng)
        from mvhmm.dual import s_t

        s = s_t(1.0, 0.5)
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - 1.5 / (1.0 + s)) <= 3.0 * se


class TestParticleSmoother:
    def test_no_data_prior_mean(self, reg2, flat2):
        tl = ObservationTimeline((0.0,), reg2, (MultiIndex((0, 0)),))
        rng = np.random.default_rng(5)
        means, ses = particle_smoother_fv(tl, 0, flat2, 20_000, rng)
        alpha = flat2.alpha_vector(reg2)
        for j in range(2):
            exact = alpha[j] / flat2.theta
            assert abs(means[j] - exact) <= 3.0 * ses[j] + 1e-3

    def test_single_time_conjugate_posterior(self, reg2, flat2):
        tl = ObservationTimeline((0.0,), reg2, (MultiIndex((3, 1)),))
        rng = np.random.default_rng(6)
        means, ses = particle_smoother_fv(tl, 0, flat2, 20_000, rng)
        alpha = flat2.alpha_vector(reg2)
        denom = flat2.theta + 4
        for j in range(2):
            exact = (alpha[j] + tl.fv_counts[0][j]) / denom
            assert abs(means[j] - exact) <= 3.0 * ses[j] + 1e-3

    def test_single_time_conjugate_posterior_dw(self, reg2, flat2):
        draws = ((MultiIndex((2, 0)), MultiIndex((1, 1))),)
        tl = ObservationTimeline((0.0,), reg2, dw_draws=draws)
        rng = np.random.default_rng(7)
        beta = 1.0
        means, ses = particle_smoother_dw(tl, 0, flat2, beta, 20_000, rng)
        alpha = flat2.alpha_vector(reg2)
        for j in range(2):
            exact = (alpha[j] + tl.counts_at(0)[j]) / (beta + 2.0)
            assert abs(means[j] - exact) <= 3.0 * ses[j] + 1e-3

    def test_requires_discrete_base(self, reg2):
        tl = ObservationTimeline((0.0,), reg2, (MultiIndex((1, 0)),))
        rng = np.random.default_rng(8)
        with pytest.raises(DomainError):
            particle_smoother_fv(tl, 0, BaseMeasure(1.0), 20_000, rng)

    def test_degenerate_weights_raise(self, reg2, flat2):
        # an extreme observation crushes the effective sample size
        from mvhmm.errors import DegeneracyError

        tl = ObservationTimeline((0.0,), reg2, (MultiIndex((120, 0)),))
        rng = np.random.default_rng(9)
        with pytest.raises(DegeneracyError):
            particle_smoother_fv(tl, 0, flat2, 10_000, rng, n_reps=16)


class TestQuadrature:
    def test_stationary_reduces_to_prior_density(self, reg2, flat2):
        tl = ObservationTimeline(
            (0.0, 0.5), reg2, (MultiIndex((0, 0)), MultiIndex((0, 0)))
        )
        grid, dens = quadrature_posterior(tl, 0, flat2, 801)
        alpha = flat2.alpha_vector(reg2)
        exact = np.exp(
            (alpha[0] - 1) * np.log(grid)
            + (alpha[1] - 1) * np.log(1 - grid)
            + math.lgamma(sum(alpha))
            - math.lgamma(alpha[0])
            - math.lgamma(alpha[1])
        )
        assert np.allclose(dens, exact / exact.mean(), rtol=1e-10)

    def test_reduces_to_pure_update(self, reg2, flat2):
        tl = ObservationTimeline((0.0,), reg2, (MultiIndex((2, 1)),))
        grid, dens = quadrature_posterior(tl, 0, flat2, 801)
        from mvhmm.core import DirichletMixtureLaw
        from mvhmm.fv import update_dirichlet

        law = update_dirichlet(
            DirichletMixtureLaw.prior(flat2, reg2), MultiIndex((2, 1))
        )
        ref = beta_mixture_density(law, grid)
        assert np.allclose(dens, ref / ref.mean(), rtol=1e-10)

    def test_reduces_to_forward_propagation(self, reg2, flat2):
        # no data at the query or later: the composition is the propagated
        # filtered density
        tl = ObservationTimeline(
            (0.0, 0.6), reg2, (MultiIndex((2, 1)), MultiIndex((0, 0)))
        )
        grid, dens = quadrature_posterior(tl, 1, flat2, 801)
        from mvhmm.core import DirichletMixtureLaw
        from mvhmm.fv import propagate_forward, update_dirichlet

        law = update_dirichlet(
            DirichletMixtureLaw.prior(flat2, reg2), MultiIndex((2, 1))
        )
        law = propagate_forward(law, 0.6)
        ref = beta_mixture_density(law, grid)
        assert np.allclose(dens, ref / ref.mean(), rtol=1e-10)

    def test_smoothing_operator_coherence(self, reg2, flat2):
        # composition route vs mixture-weight route, 20 interior points
        tl = ObservationTimeline(
            (0.0, 0.4, 1.0),
            reg2,
            (MultiIndex((2, 0)), MultiIndex((1, 1)), MultiIndex((0, 2))),
        )
        grid, dens = quadrature_posterior(tl, 1, flat2, 4001)
        law = smooth(tl, 1, flat2).law
        exact = beta_mixture_density(law, grid)
        pts = np.linspace(200, 3800, 20).astype(int)
        assert np.allclose(dens[pts], exact[pts], rtol=1e-3)


def test_kappa_selection_prefers_half():
    calib = select_dw_rate_constant()
    assert calib.selected == 0.5
    assert calib.errors[0.5] < 1e-10
    assert calib.errors[2.0] > 1e-3
    assert calib.errors[1.0] > 1e-3


def test_duality_exact_sides_consistent():
    # mixture-of-duals expectation at t -> 0 tends to h itself
    x = np.array((0.4, 0.6))
    alpha = (0.8, 0.7)
    m = MultiIndex((2, 1))
    from mvhmm.dual import FvDualSpec, fv_typed_log_prob

    spec = FvDualSpec(1.5)
    val = 0.0
    for k in m.lattice_below():
        lp = fv_typed_log_prob(spec, m, k, 1e-8)
        if lp > -math.inf:
            val += math.exp(lp) * math.exp(float(fv_h_log(x, k, alpha)))
    assert val == pytest.approx(math.exp(float(fv_h_log(x, m, alpha))), rel=1e-5)


def test_dw_h_log_matches_definition():
    z = np.array(1.7)
    theta, beta, c, n = 1.2, 0.8, 2.0, 3
    expected = (
        -c * 1.7
        + theta * math.log((beta + c) / beta)
        + n * math.log(beta + c)
        + math.lgamma(theta)
        - math.lgamma(theta + n)
        + n * math.log(1.7)
    )
    assert float(dw_h_log(z, n, c, theta, beta)) == pytest.approx(
        expected, abs=1e-12
    )
