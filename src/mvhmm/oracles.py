"""Independent simulation and quadrature oracles used by tests and the
``validate`` command.

Nothing here reuses the engines' weight formulas: the diffusion samplers
integrate the signal dynamics directly, the Gillespie samplers run the dual
death chains from their rates, the particle smoother conditions sampled
trajectories on the data, and the quadrature oracle composes the
update/propagation operators pointwise on a grid.  Comparisons are reported
with standard errors and z-scores; a check passes when |z| <= 3 or an
absolute tolerance applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dw as dw_engine
from . import fv as fv_engine
from .core import (
    BaseMeasure,
    DirichletMixtureLaw,
    GammaMixtureLaw,
    MultiIndex,
    ObservationTimeline,
    TypeRegistry,
)
from .dual import (
    DEFAULT_DW_RATE_CONSTANT,
    DwDualSpec,
    FvDualSpec,
    c_flow,
    dw_survival_prob,
    dw_typed_log_prob,
    fv_totals_transition,
    fv_typed_log_prob,
    s_t,
)
from .errors import DegeneracyError, DomainError
from .specfun import log_dir_cat

__all__ = [
    "OracleReport",
    "simulate_wf",
    "simulate_cir",
    "GillespieResult",
    "gillespie_fv",
    "gillespie_dw",
    "particle_smoother_fv",
    "particle_smoother_dw",
    "beta_mixture_density",
    "quadrature_posterior",
    "fv_h_log",
    "dw_h_log",
    "select_dw_rate_constant",
    "DualRateCalibration",
    "run_duality_suite",
    "run_particle_suite",
    "run_dual_rates_suite",
]


@dataclass(frozen=True)
class OracleReport:
    """One exact-vs-oracle comparison with its acceptance verdict."""

    name: str
    exact: float
    oracle: float
    se: float
    z: float
    passed: bool

    @staticmethod
    def compare(
        name: str,
        exact: float,
        oracle: float,
        se: float,
        abs_tol: float | None = None,
    ) -> "OracleReport":
        diff = oracle - exact
        z = diff / se if se > 0 else (0.0 if diff == 0.0 else math.inf)
        passed = abs(z) <= 3.0 or (abs_tol is not None and abs(diff) <= abs_tol)
        return OracleReport(name, exact, oracle, se, z, passed)


# ---------------------------------------------------------------------------
# diffusion simulators
# ---------------------------------------------------------------------------


def simulate_wf(
    alpha_vec: Sequence[float],
    x0: Sequence[float],
    t: float,
    dt: float,
    rng: np.random.Generator,
    n_paths: int = 1,
) -> np.ndarray:
    """Euler endpoints of the K-type mutation-drift frequency diffusion.

    Drift (alpha_j - theta*x_j)/2 with theta the total parameter mass,
    covariance x_j(delta_jk - x_k) dt; paths are clipped at 1e-12 and
    renormalized after every step.
    """
    if not (0.0 <= t < math.inf and 0.0 < dt < math.inf):
        raise DomainError(f"need finite t >= 0 and dt > 0, got t={t}, dt={dt}")
    x = np.tile(np.asarray(x0, dtype=float), (n_paths, 1))
    if t == 0.0:
        return x
    if dt > 1e-3 * t:
        raise DomainError("step size too coarse: require dt <= 1e-3 * t")
    return _euler_wf_from(x, np.asarray(alpha_vec, dtype=float), t, dt, rng)


def _euler_wf_from(
    x: np.ndarray, alpha: np.ndarray, t: float, dt: float, rng: np.random.Generator
) -> np.ndarray:
    theta = alpha.sum()
    steps = int(math.ceil(t / dt))
    h = t / steps
    sqrt_h = math.sqrt(h)
    for _ in range(steps):
        eta = rng.standard_normal(x.shape)
        s = np.sqrt(x)
        noise = s * eta - x * (s * eta).sum(axis=1, keepdims=True)
        x = x + 0.5 * (alpha - theta * x) * h + sqrt_h * noise
        x = np.clip(x, 1e-12, None)
        x /= x.sum(axis=1, keepdims=True)
    return x


def simulate_cir(
    alpha_j: float,
    beta: float,
    z0: np.ndarray | float,
    t: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Exact one-step transition sample of the square-root mass process.

    Mixes a Poisson count m ~ Po(z0 * S_t) into Gamma(alpha_j + m, beta+S_t),
    which is the process transition law; no discretization error.
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be finite and > 0, got {t}")
    z0 = np.asarray(z0, dtype=float)
    s = s_t(beta, t)
    m = rng.poisson(z0 * s)
    return rng.gamma(alpha_j + m, 1.0 / (beta + s))


# ---------------------------------------------------------------------------
# death-chain simulators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GillespieResult:
    """Empirical terminal-state frequencies with standard errors."""

    replicates: int
    counts: dict[MultiIndex, int]

    def freq(self, idx: MultiIndex) -> float:
        return self.counts.get(idx, 0) / self.replicates

    def totals_freq(self, k: int) -> float:
        return (
            sum(c for idx, c in self.counts.items() if idx.total == k)
            / self.replicates
        )

    def totals_se(self, k: int) -> float:
        f = self.totals_freq(k)
        return math.sqrt(max(f * (1.0 - f), 1.0 / self.replicates) / self.replicates)


def _tally(states: np.ndarray) -> dict[MultiIndex, int]:
    uniq, counts = np.unique(states, axis=0, return_counts=True)
    return {MultiIndex(row): int(cnt) for row, cnt in zip(uniq, counts)}


def gillespie_fv(
    spec: FvDualSpec,
    nvec: MultiIndex,
    t: float,
    replicates: int,
    rng: np.random.Generator,
) -> GillespieResult:
    """Simulate the typed chain exactly: per-type rate m_j*(theta+|m|-1)/2."""
    if replicates < 1:
        raise DomainError("at least one replicate required")
    states = np.tile(np.array(nvec.counts, dtype=np.int64), (replicates, 1))
    clock = np.zeros(replicates)
    while True:
        totals = states.sum(axis=1)
        running = (totals > 0) & (clock <= t)
        if not running.any():
            break
        idx = np.flatnonzero(running)
        rates = totals[idx] * (spec.theta + totals[idx] - 1) / 2.0
        clock[idx] += rng.exponential(1.0 / rates)
        fire = idx[clock[idx] <= t]
        if fire.size == 0:
            continue
        u = rng.random(fire.size) * totals[fire]
        cum = np.cumsum(states[fire], axis=1)
        which = (cum > u[:, None]).argmax(axis=1)
        states[fire, which] -= 1
    return GillespieResult(replicates, _tally(states))


def gillespie_dw(
    spec: DwDualSpec,
    nvec: MultiIndex,
    t: float,
    replicates: int,
    rng: np.random.Generator,
) -> GillespieResult:
    """Simulate the cardinality-flow chain by thinning the dominating rate.

    Lineages are independent: each proposes events at the constant rate
    kappa*(beta + c) and accepts with probability (beta + C_s)/(beta + c),
    which realizes the inhomogeneous hazard kappa*(beta + C_s).
    """
    if replicates < 1:
        raise DomainError("at least one replicate required")
    beta, c, kap = spec.beta, spec.c, spec.kappa
    h_dom = kap * (beta + c)
    out = np.empty((replicates, len(nvec)), dtype=np.int64)
    for j, nj in enumerate(nvec):
        if nj == 0:
            out[:, j] = 0
            continue
        size = replicates * nj
        tau = np.zeros(size)
        dead = np.zeros(size, dtype=bool)
        pending = np.ones(size, dtype=bool)
        while pending.any():
            idx = np.flatnonzero(pending)
            tau[idx] += rng.exponential(1.0 / h_dom, idx.size)
            past = tau[idx] > t
            pending[idx[past]] = False
            cand = idx[~past]
            if cand.size:
                cs = beta * c * np.exp(-beta * tau[cand] / 2.0)
                cs /= (beta + c) - c * np.exp(-beta * tau[cand] / 2.0)
                accept = rng.random(cand.size) < (beta + cs) / (beta + c)
                dead[cand[accept]] = True
                pending[cand[accept]] = False
        out[:, j] = (~dead).reshape(replicates, nj).sum(axis=1)
    return GillespieResult(replicates, _tally(out))


# ---------------------------------------------------------------------------
# duality functions
# ---------------------------------------------------------------------------


def fv_h_log(x: np.ndarray, n: MultiIndex, alpha_vec: Sequence[float]) -> np.ndarray:
    """log h(x, n) = sum n_j log x_j - log m(n) for simplex points x."""
    x = np.asarray(x, dtype=float)
    out = -log_dir_cat(n.counts, alpha_vec)
    acc = np.zeros(x.shape[:-1])
    for j, nj in enumerate(n):
        if nj:
            acc = acc + nj * np.log(x[..., j])
    return acc + out


def dw_h_log(z: np.ndarray, n: int, c: float, theta: float, beta: float) -> np.ndarray:
    """log h(z, n, c) for the one-cell mass process (shape theta)."""
    z = np.asarray(z, dtype=float)
    const = (
        theta * (math.log(beta + c) - math.log(beta))
        + n * math.log(beta + c)
        + math.lgamma(theta)
        - math.lgamma(theta + n)
    )
    return -c * z + n * np.log(z) + const


# ---------------------------------------------------------------------------
# particle smoother
# ---------------------------------------------------------------------------


def _observed_alpha(base: BaseMeasure, registry: TypeRegistry) -> tuple[float, ...]:
    alpha = base.alpha_vector(registry)
    if any(a <= 0.0 for a in alpha):
        raise DomainError(
            "particle smoother needs a discrete base measure with mass at "
            "every observed label"
        )
    return alpha


def _bootstrap(
    n_times: int, i: int, x: np.ndarray, move, log_lik, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Bootstrap filter over ``n_times`` observation times from the particles
    ``x`` at the first: ``move(x, j)`` samples the transition into time j,
    ``log_lik(x, j)`` scores the data at j.  Resamples multinomially after
    every time but the last, tracking each particle's ancestor at time i.
    Returns the final normalized weights and those ancestors."""
    particles = len(x)
    xi = None
    for j in range(n_times):
        if j > 0:
            x = move(x, j)
        if j == i:
            xi = x.copy()
        logw = log_lik(x, j)
        w = np.exp(logw - logw.max())
        ess = w.sum() ** 2 / np.square(w).sum()
        if ess < 50:
            raise DegeneracyError(f"effective sample size {ess:.1f} < 50")
        if j < n_times - 1:
            pick = rng.choice(particles, size=particles, p=w / w.sum())
            x = x[pick]
            if xi is not None:
                xi = xi[pick]
    assert xi is not None
    return w / w.sum(), xi


def _smoother_run_fv(
    timeline: ObservationTimeline,
    i: int,
    alpha: np.ndarray,
    particles: int,
    dt: float,
    rng: np.random.Generator,
) -> np.ndarray:
    times = timeline.times

    def move(x, j):
        return _euler_wf_from(x, alpha, times[j] - times[j - 1], dt, rng)

    def log_lik(x, j):
        out = np.zeros(len(x))
        for cell, n_cell in enumerate(timeline.fv_counts[j]):
            if n_cell:
                out += n_cell * np.log(x[:, cell])
        return out

    x = rng.dirichlet(alpha, size=particles)
    w, xi = _bootstrap(timeline.n_times, i, x, move, log_lik, rng)
    return w @ xi[:, : timeline.registry.k]


def particle_smoother_fv(
    timeline: ObservationTimeline,
    i: int,
    base: BaseMeasure,
    particles: int,
    rng: np.random.Generator,
    dt: float = 2e-4,
    n_reps: int = 16,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo smoothing means of the observed cell frequencies at t_i.

    Bootstrap filter with multinomial resampling and ancestral tracking of
    the state at t_i; the standard error comes from independent replicate
    runs.  Returns (means, standard errors) over the registry cells.
    """
    if particles < 10**4:
        raise DomainError("at least 1e4 particles required")
    alpha = np.array(_observed_alpha(base, timeline.registry), dtype=float)
    rest = base.theta * base.unseen_mass
    if rest > 1e-12:
        alpha = np.append(alpha, rest)
    per = particles // n_reps
    estimates = np.array(
        [
            _smoother_run_fv(timeline, i, alpha, per, dt, rng)
            for _ in range(n_reps)
        ]
    )
    means = estimates.mean(axis=0)
    ses = estimates.std(axis=0, ddof=1) / math.sqrt(n_reps)
    return means, ses


def _smoother_run_dw_cell(
    times: Sequence[float],
    counts: Sequence[int],
    cards: Sequence[int],
    i: int,
    alpha_j: float,
    beta: float,
    particles: int,
    rng: np.random.Generator,
) -> float:
    def move(z, j):
        return simulate_cir(alpha_j, beta, z, times[j] - times[j - 1], rng)

    def log_lik(z, j):
        return counts[j] * np.log(z) - cards[j] * z

    z = rng.gamma(alpha_j, 1.0 / beta, size=particles)
    w, zi = _bootstrap(len(times), i, z, move, log_lik, rng)
    return float(w @ zi)


def particle_smoother_dw(
    timeline: ObservationTimeline,
    i: int,
    base: BaseMeasure,
    beta: float,
    particles: int,
    rng: np.random.Generator,
    n_reps: int = 16,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo smoothing means of the observed cell masses at t_i.

    Cells evolve and are observed independently, so each runs its own
    one-dimensional bootstrap smoother with exact transition sampling.
    """
    if particles < 10**4:
        raise DomainError("at least 1e4 particles required")
    alpha = _observed_alpha(base, timeline.registry)
    per = particles // n_reps
    k = timeline.registry.k
    cards = [timeline.cardinality_at(j) for j in range(timeline.n_times)]
    means = np.zeros(k)
    ses = np.zeros(k)
    for cell in range(k):
        counts = [timeline.counts_at(j)[cell] for j in range(timeline.n_times)]
        reps = np.array(
            [
                _smoother_run_dw_cell(
                    timeline.times, counts, cards, i, alpha[cell], beta, per, rng
                )
                for _ in range(n_reps)
            ]
        )
        means[cell] = reps.mean()
        ses[cell] = reps.std(ddof=1) / math.sqrt(n_reps)
    return means, ses


# ---------------------------------------------------------------------------
# quadrature oracle (two observed types)
# ---------------------------------------------------------------------------


def beta_mixture_density(law: DirichletMixtureLaw, grid: np.ndarray) -> np.ndarray:
    """Density of the first-cell frequency under a two-type projected law."""
    if law.registry.k != 2:
        raise DomainError("projection requires exactly two registered types")
    alpha = law.base.alpha_vector(law.registry)
    if law.base.unseen_mass > 1e-12 or law.base.is_nonatomic:
        raise DomainError("projection requires a discrete base with full mass")
    out = np.zeros_like(grid)
    for lw, m in law.components:
        a = alpha[0] + m[0]
        b = alpha[1] + m[1]
        logc = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        out += math.exp(lw) * np.exp(
            logc + (a - 1) * np.log(grid) + (b - 1) * np.log(1 - grid)
        )
    return out


def quadrature_posterior(
    timeline: ObservationTimeline,
    i: int,
    base: BaseMeasure,
    grid_size: int = 2001,
) -> tuple[np.ndarray, np.ndarray]:
    """Smoothing density at t_i by pointwise operator composition.

    Forms C * F(f_past)(x) * B(f_future)(x) * U_n(f0)(x) / f0(x)^2 on a grid,
    where f_past and f_future are the filtered laws at the flanking times
    propagated to t_i by the engine, f0 is the stationary density, and C
    normalizes by the trapezoid rule.  Two observed types only.
    """
    if timeline.mode != "fv":
        raise DomainError("quadrature oracle covers the frequency model only")
    grid = (np.arange(grid_size) + 0.5) / grid_size
    prior = DirichletMixtureLaw.prior(base, timeline.registry)
    if i > 0:
        past = ObservationTimeline(
            timeline.times[:i], timeline.registry, timeline.fv_counts[:i]
        )
        f_past = fv_engine.filter_posterior(past, i - 1, base)
        f_past = fv_engine.propagate_forward(
            f_past, timeline.times[i] - timeline.times[i - 1]
        )
    else:
        f_past = prior
    if i < timeline.n_times - 1:
        fut = ObservationTimeline(
            timeline.times[i + 1 :],
            timeline.registry,
            timeline.fv_counts[i + 1 :],
        )
        f_future = fv_engine.filter_posterior(fut, 0, base)
        f_future = fv_engine.propagate_backward(
            f_future, timeline.times[i + 1] - timeline.times[i]
        )
    else:
        f_future = prior
    upd = fv_engine.update_dirichlet(prior, timeline.fv_counts[i])
    dens = (
        beta_mixture_density(f_past, grid)
        * beta_mixture_density(f_future, grid)
        * beta_mixture_density(upd, grid)
        / beta_mixture_density(prior, grid) ** 2
    )
    # midpoint rule: each grid point represents a cell of width 1/grid_size
    dens /= dens.mean()
    return grid, dens


# ---------------------------------------------------------------------------
# validation suites
# ---------------------------------------------------------------------------


def run_duality_suite(
    seed: int = 0,
    replicates: int = 10**5,
    kappa: float = DEFAULT_DW_RATE_CONSTANT,
) -> list[OracleReport]:
    """Monte Carlo moment checks of the two dual representations."""
    rng = np.random.default_rng(seed)
    reports = []
    theta = 1.5
    alpha_vec = (0.8, 0.7)
    spec = FvDualSpec(theta)
    x0 = (0.35, 0.65)
    t = 0.5
    paths = simulate_wf(alpha_vec, x0, t, 2e-4, rng, replicates)
    for m in [MultiIndex((1, 0)), MultiIndex((1, 1)), MultiIndex((2, 1))]:
        exact = 0.0
        for k in m.lattice_below():
            lp = fv_typed_log_prob(spec, m, k, t)
            if lp > -math.inf:
                exact += math.exp(lp) * math.exp(
                    float(fv_h_log(np.array(x0), k, alpha_vec))
                )
        vals = np.exp(fv_h_log(paths, m, alpha_vec))
        mc = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(replicates))
        reports.append(
            OracleReport.compare(f"duality fv m={tuple(m)}", exact, mc, se)
        )
    theta_dw, beta, z0, c, t_dw = 1.2, 0.8, 1.5, 2.0, 0.7
    dspec = DwDualSpec(theta_dw, beta, c, kappa)
    ct = c_flow(beta, c, t_dw)
    z_t = simulate_cir(theta_dw, beta, np.full(replicates, z0), t_dw, rng)
    for n in (1, 2, 3):
        m = MultiIndex((n,))
        exact = 0.0
        for k in m.lattice_below():
            lp = dw_typed_log_prob(dspec, m, k, t_dw)
            if lp > -math.inf:
                exact += math.exp(lp) * math.exp(
                    float(dw_h_log(np.array(z0), k.total, ct, theta_dw, beta))
                )
        vals = np.exp(dw_h_log(z_t, n, c, theta_dw, beta))
        mc = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(replicates))
        reports.append(OracleReport.compare(f"duality dw m={n}", exact, mc, se))
    return reports


def _particle_dataset_fv() -> tuple[ObservationTimeline, BaseMeasure]:
    registry = TypeRegistry(("A", "B"))
    base = BaseMeasure(2.0, {"A": 0.5, "B": 0.5})
    timeline = ObservationTimeline(
        (0.0, 0.3, 0.7),
        registry,
        (MultiIndex((2, 1)), MultiIndex((1, 1)), MultiIndex((0, 2))),
    )
    return timeline, base


def _particle_dataset_dw() -> tuple[ObservationTimeline, BaseMeasure, float]:
    registry = TypeRegistry(("A", "B"))
    base = BaseMeasure(2.0, {"A": 0.5, "B": 0.5})
    draws = (
        (MultiIndex((2, 0)),),
        (MultiIndex((1, 1)),),
        (MultiIndex((0, 1)),),
    )
    timeline = ObservationTimeline((0.0, 0.4, 0.9), registry, dw_draws=draws)
    return timeline, base, 1.0


def run_particle_suite(
    seed: int = 0,
    particles: int = 10**5,
    kappa: float = DEFAULT_DW_RATE_CONSTANT,
) -> list[OracleReport]:
    """Posterior-mean cross-validation against the particle smoother."""
    rng = np.random.default_rng(seed)
    reports = []
    timeline, base = _particle_dataset_fv()
    i = 1
    result = fv_engine.smooth(timeline, i, base)
    alpha = base.alpha_vector(timeline.registry)
    exact = np.zeros(2)
    for lw, m in result.law.components:
        w = math.exp(lw)
        denom = base.theta + m.total
        for j in range(2):
            exact[j] += w * (alpha[j] + m[j]) / denom
    means, ses = particle_smoother_fv(timeline, i, base, particles, rng)
    for j, lab in enumerate(timeline.registry.labels):
        reports.append(
            OracleReport.compare(
                f"particle fv mean[{lab}]", float(exact[j]), float(means[j]), float(ses[j])
            )
        )
    timeline, base, beta = _particle_dataset_dw()
    result = dw_engine.smooth_dw(timeline, i, base, beta, kappa=kappa)
    alpha = base.alpha_vector(timeline.registry)
    rate = beta + result.law.rate_offset
    exact = np.zeros(2)
    for lw, m in result.law.components:
        w = math.exp(lw)
        for j in range(2):
            exact[j] += w * (alpha[j] + m[j]) / rate
    means, ses = particle_smoother_dw(timeline, i, base, beta, particles, rng)
    for j, lab in enumerate(timeline.registry.labels):
        reports.append(
            OracleReport.compare(
                f"particle dw mean[{lab}]", float(exact[j]), float(means[j]), float(ses[j])
            )
        )
    return reports


@dataclass(frozen=True)
class DualRateCalibration:
    """Outcome of selecting the death-rate constant kappa."""

    selected: float
    errors: dict[float, float]


def select_dw_rate_constant(
    theta: float = 1.2,
    beta: float = 0.8,
    c: float = 2.0,
    n: int = 3,
    t: float = 0.7,
    candidates: tuple[float, ...] = (2.0, 0.5, 1.0),
) -> DualRateCalibration:
    """Pick the kappa whose thinning law reproduces exact signal propagation.

    One-step propagation of the conjugate posterior has mean
    (theta + S_t (theta+n)/(beta+c)) / (beta+S_t); the dual mixture mean is
    (theta + n q_kappa(t)) / (beta + C_t).  The candidate with vanishing
    discrepancy is selected (tried in the order given, 2 first).
    """
    s = s_t(beta, t)
    exact = (theta + s * (theta + n) / (beta + c)) / (beta + s)
    ct = c_flow(beta, c, t)
    errors = {}
    selected = None
    for kap in candidates:
        q = dw_survival_prob(DwDualSpec(theta, beta, c, kap), t)
        dual = (theta + n * q) / (beta + ct)
        errors[kap] = abs(dual - exact)
        if selected is None and errors[kap] < 1e-10:
            selected = kap
    if selected is None:
        selected = min(errors, key=errors.get)
    return DualRateCalibration(selected, errors)


def run_dual_rates_suite(
    seed: int = 0, replicates: int = 10**6
) -> tuple[list[OracleReport], DualRateCalibration]:
    """Validate both dual chains against direct simulation of their rates."""
    rng = np.random.default_rng(seed)
    reports = []
    theta = 1.0
    spec = FvDualSpec(theta)
    res = gillespie_fv(spec, MultiIndex((1,)), 1.0, replicates, rng)
    exact = math.exp(-theta * 1.0 / 2.0)
    reports.append(
        OracleReport.compare(
            "gillespie fv survival n=1",
            exact,
            res.totals_freq(1),
            res.totals_se(1),
        )
    )
    table = fv_totals_transition(theta, 2, 1.0)
    res = gillespie_fv(spec, MultiIndex((1, 1)), 1.0, replicates, rng)
    for k in range(3):
        reports.append(
            OracleReport.compare(
                f"gillespie fv totals n=2 k={k}",
                table.prob(k),
                res.totals_freq(k),
                res.totals_se(k),
            )
        )
    calib = select_dw_rate_constant()
    dspec = DwDualSpec(1.2, 0.8, 2.0, calib.selected)
    n = MultiIndex((3, 2))
    t = 0.7
    res = gillespie_dw(dspec, n, t, replicates, rng)
    for k in range(n.total + 1):
        exact = sum(
            math.exp(dw_typed_log_prob(dspec, n, kv, t))
            for kv in n.lattice_below()
            if kv.total == k
        )
        reports.append(
            OracleReport.compare(
                f"gillespie dw totals k={k}",
                exact,
                res.totals_freq(k),
                res.totals_se(k),
            )
        )
    registry = TypeRegistry(("A",))
    base = BaseMeasure(1.2, {"A": 1.0})
    law = GammaMixtureLaw.prior(base, registry, 0.8)
    law = dw_engine.update_gamma(law, (MultiIndex((2,)),))
    prop = dw_engine.propagate_dw(law, 1e-6, kappa=calib.selected)
    retained = prop.weights().get(MultiIndex((2,)), 0.0)
    reports.append(
        OracleReport.compare(
            "dw conjugacy retention dt=1e-6", 1.0, retained, 0.0, abs_tol=1e-4
        )
    )
    return reports, calib
