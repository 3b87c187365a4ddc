"""Dual death processes used to propagate mixture laws.

Two chains are implemented:

* the typed-coalescent death chain on multi-indices, whose totals form a
  pure-death chain with rate i*(theta+i-1)/2 from i to i-1, and whose typed
  allocation given the surviving total is multivariate hypergeometric;
* the time-inhomogeneous linear death chain driven by the deterministic
  cardinality flow C_t, under which each lineage dies independently with
  hazard kappa*(beta + C_s), giving a product-of-binomials thinning law.

Totals transition probabilities are computed by solving the Kolmogorov
forward equations on the finite state space {0, ..., n} with adaptive-step
integration; a known alternating-series closed form exists but is unstable
for small t, so it is not used.  Tables are cached by exact key.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .core import MultiIndex
from .errors import DomainError
from .specfun import log_binom_pmf, log_falling_binom

__all__ = [
    "FvDualSpec",
    "DwDualSpec",
    "TotalsTransitionTable",
    "DEFAULT_DW_RATE_CONSTANT",
    "s_t",
    "c_flow",
    "c_flow_integral",
    "dw_survival_prob",
    "fv_totals_transition",
    "fv_totals_matrix",
    "fv_typed_log_prob",
    "dw_typed_log_prob",
    "gillespie_fv",
    "gillespie_dw",
    "GillespieResult",
    "clear_transition_cache",
]

# Per-lineage death hazard of the cardinality-flow chain is
# kappa * (beta + C_t).  The constant is calibrated by the dual-rates
# validation suite against the exact one-step propagation of the branching
# signal (see oracles.run_dual_rates_suite); 0.5 is the selected value.
DEFAULT_DW_RATE_CONSTANT = 0.5

DEFAULT_ODE_RTOL = 1e-10


@dataclass(frozen=True)
class FvDualSpec:
    """Typed coalescent death chain with mutation mass theta."""

    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < math.inf:
            raise DomainError(f"theta must be finite and > 0, got {self.theta}")


@dataclass(frozen=True)
class DwDualSpec:
    """Linear death chain with deterministic cardinality flow.

    ``c`` is the starting cardinality C_0; ``kappa`` scales the per-lineage
    hazard kappa*(beta + C_t).
    """

    theta: float
    beta: float
    c: float = 0.0
    kappa: float = DEFAULT_DW_RATE_CONSTANT

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise DomainError(f"beta must be finite and > 0, got {self.beta}")
        if not 0.0 <= self.c < math.inf:
            raise DomainError(f"cardinality must be finite and >= 0, got {self.c}")
        if not 0.0 < self.kappa < math.inf:
            raise DomainError(f"rate constant must be finite and > 0, got {self.kappa}")


def s_t(beta: float, t: float) -> float:
    """S_t = beta / (exp(beta*t/2) - 1), the branching-transition rate scale."""
    if t <= 0.0:
        raise DomainError(f"t must be positive, got {t}")
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    return beta / math.expm1(beta * t / 2.0)


def c_flow(beta: float, c: float, t: float) -> float:
    """C_t = beta*c / ((beta+c) e^{beta t/2} - c), with C_0 = c exactly.

    Evaluated through e^{-beta t/2} so large t cannot overflow.
    """
    if t < 0.0:
        raise DomainError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return c
    e = math.exp(-beta * t / 2.0)
    return beta * c * e / ((beta + c) - c * e)


def c_flow_integral(beta: float, c: float, t: float) -> float:
    """Closed form of the time integral of C_s over [0, t].

    Equals 2*log(((beta+c) - c*e^{-beta t/2}) / beta).
    """
    if t < 0.0:
        raise DomainError(f"t must be nonnegative, got {t}")
    e = math.exp(-beta * t / 2.0)
    return 2.0 * math.log(((beta + c) - c * e) / beta)


def dw_survival_prob(spec: DwDualSpec, t: float) -> float:
    """Per-lineage survival probability q(t) = exp(-kappa * int (beta+C_s) ds).

    q(0) = 1 and q decreases monotonically; the resulting totals law is
    binomial thinning Bin(n, q(t)).
    """
    if t < 0.0:
        raise DomainError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return 1.0
    integral = spec.beta * t + c_flow_integral(spec.beta, spec.c, t)
    return math.exp(-spec.kappa * integral)


@dataclass(frozen=True)
class TotalsTransitionTable:
    """Marginal law of the totals death chain at elapsed time t.

    ``probs[k]`` is P(|M_t| = k | |M_0| = n) for k = 0..n.
    """

    n: int
    t: float
    probs: np.ndarray
    log_probs: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (self.n + 1,):
            raise DomainError("table must cover states 0..n")
        if np.any(probs < -1e-12):
            raise DomainError("negative transition probability")
        probs = np.clip(probs, 0.0, None)
        object.__setattr__(self, "probs", probs)
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "log_probs", np.log(probs))

    def prob(self, k: int) -> float:
        return float(self.probs[k])

    def log_prob(self, k: int) -> float:
        return float(self.log_probs[k])


_table_cache: dict[tuple, TotalsTransitionTable] = {}
_cache_lock = threading.Lock()


def clear_transition_cache() -> None:
    with _cache_lock:
        _table_cache.clear()


def _solve_totals(theta: float, n: int, t: float, rtol: float) -> np.ndarray:
    rates = np.array([i * (theta + i - 1) / 2.0 for i in range(n + 1)])

    def rhs(_, p):
        out = -rates * p
        out[:-1] += rates[1:] * p[1:]
        return out

    p0 = np.zeros(n + 1)
    p0[n] = 1.0
    sol = solve_ivp(
        rhs,
        (0.0, t),
        p0,
        method="DOP853",
        rtol=rtol,
        atol=rtol * 1e-3,
        t_eval=[t],
    )
    if not sol.success:  # pragma: no cover - solver failure is exceptional
        raise RuntimeError(f"totals ODE solve failed: {sol.message}")
    return sol.y[:, -1]


def fv_totals_transition(
    theta: float,
    n: int,
    t: float,
    rtol: float = DEFAULT_ODE_RTOL,
) -> TotalsTransitionTable:
    """Exact marginal law of the totals death chain started at n.

    Solves the forward equations on {0..n}; results are cached by exact
    (theta, n, t, rtol) key, safe for concurrent readers.
    """
    if n < 0:
        raise DomainError(f"negative total {n}")
    if t < 0.0:
        raise DomainError(f"negative time {t}")
    key = (theta, n, t, rtol)
    with _cache_lock:
        hit = _table_cache.get(key)
    if hit is not None:
        return hit
    if t == 0.0 or n == 0:
        probs = np.zeros(n + 1)
        probs[n] = 1.0
    else:
        probs = _solve_totals(theta, n, t, rtol)
    table = TotalsTransitionTable(n, t, probs)
    with _cache_lock:
        _table_cache[key] = table
    return table


def fv_totals_matrix(
    theta: float, n: int, t: float, rtol: float = DEFAULT_ODE_RTOL
) -> np.ndarray:
    """Matrix [p_{i,k}(t)] for 0 <= k <= i <= n (upper entries zero)."""
    out = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        out[i, : i + 1] = fv_totals_transition(theta, i, t, rtol).probs
    return out


def fv_typed_log_prob(
    spec: FvDualSpec,
    nvec: MultiIndex,
    kvec: MultiIndex,
    t: float,
    rtol: float = DEFAULT_ODE_RTOL,
) -> float:
    """log p_{n,k}(t) for the typed chain.

    The totals follow the pure-death law; given the surviving total the
    allocation across types is multivariate hypergeometric, because each
    death removes a uniformly random surviving lineage.
    """
    if not kvec <= nvec:
        raise IndexError(f"{kvec!r} not componentwise <= {nvec!r}")
    table = fv_totals_transition(spec.theta, nvec.total, t, rtol)
    out = table.log_prob(kvec.total)
    if out == -math.inf:
        return out
    out -= log_falling_binom(nvec.total, kvec.total)
    for nj, kj in zip(nvec, kvec):
        out += log_falling_binom(nj, kj)
    return out


def dw_typed_log_prob(
    spec: DwDualSpec,
    nvec: MultiIndex,
    kvec: MultiIndex,
    t: float,
) -> float:
    """log p^c_{n,k}(t): independent per-type binomial thinning at q(t)."""
    if not kvec <= nvec:
        raise IndexError(f"{kvec!r} not componentwise <= {nvec!r}")
    q = dw_survival_prob(spec, t)
    out = 0.0
    for nj, kj in zip(nvec, kvec):
        out += log_binom_pmf(kj, nj, q)
    return out


@dataclass(frozen=True)
class GillespieResult:
    """Empirical terminal-state frequencies with standard errors."""

    replicates: int
    counts: dict[MultiIndex, int]

    def freq(self, idx: MultiIndex) -> float:
        return self.counts.get(idx, 0) / self.replicates

    def se(self, idx: MultiIndex) -> float:
        f = self.freq(idx)
        return math.sqrt(max(f * (1.0 - f), 1.0 / self.replicates) / self.replicates)

    def totals_freq(self, k: int) -> float:
        return (
            sum(c for idx, c in self.counts.items() if idx.total == k)
            / self.replicates
        )

    def totals_se(self, k: int) -> float:
        f = self.totals_freq(k)
        return math.sqrt(max(f * (1.0 - f), 1.0 / self.replicates) / self.replicates)


def _tally(states: np.ndarray) -> dict[MultiIndex, int]:
    out: dict[MultiIndex, int] = {}
    uniq, counts = np.unique(states, axis=0, return_counts=True)
    for row, cnt in zip(uniq, counts):
        out[MultiIndex(row)] = int(cnt)
    return out


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
    k = len(nvec)
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
