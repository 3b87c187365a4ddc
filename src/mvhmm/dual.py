"""Dual death processes used to propagate mixture laws.

Two chains are implemented:

* the typed-coalescent death chain on multi-indices, whose totals form a
  pure-death chain with rate i*(theta+i-1)/2 from i to i-1, and whose typed
  allocation given the surviving total is multivariate hypergeometric;
* the time-inhomogeneous linear death chain driven by the deterministic
  cardinality flow C_t, under which each lineage dies independently with
  hazard kappa*(beta + C_s), giving a product-of-binomials thinning law.

Totals transition probabilities come from one matrix exponential of the
bidiagonal generator on {0, ..., N} per (theta, t), which gives the law from
every starting total at once; entries are accurate to about 1e-13 relative
down to the double range, far tails included (the known alternating-series
closed form is unstable for small t, so it is not used).  The matrices are
cached, one per (theta, t), grown to the largest total asked for, up to
_CACHE_BYTES in all.  The ``rtol`` parameters and DEFAULT_ODE_RTOL are
kept for compatibility with callers that pass them and have no effect.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

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
    "fv_typed_log_prob",
    "dw_typed_log_prob",
    "clear_transition_cache",
]

# Per-lineage death hazard of the cardinality-flow chain is
# kappa * (beta + C_t).  The constant is calibrated by the dual-rates
# validation suite against the exact one-step propagation of the branching
# signal (see oracles.run_dual_rates_suite); 0.5 is the selected value.
DEFAULT_DW_RATE_CONSTANT = 0.5

# Default of the ``rtol`` parameters, which have no effect (see above).
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
        probs = np.clip(probs, 0.0, 1.0)
        object.__setattr__(self, "probs", probs)
        if self.log_probs is None:
            with np.errstate(divide="ignore"):
                object.__setattr__(self, "log_probs", np.log(probs))

    def prob(self, k: int) -> float:
        return float(self.probs[k])

    def log_prob(self, k: int) -> float:
        return float(self.log_probs[k])


# Bytes of totals matrices (probabilities and logs) kept in the cache: a few
# thousand matrices over totals below 32, a few dozen over totals near 100.
_CACHE_BYTES = 32 << 20
# Rows 0..15 come from the generator on {0..15}, rows 16..31 from the one on
# {0..31}, and so on, so a row's floats do not depend on which rows were
# asked for before.
_FIRST_BLOCK = 16


class _TableCache:
    """Totals matrices and their logs by (theta, t); past _CACHE_BYTES the
    least recently used are dropped."""

    def __init__(self):
        self._lock = threading.Lock()
        self._tables: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._bytes = 0

    def get(self, key):
        with self._lock:
            tables = self._tables.get(key)
            if tables is not None:
                self._tables.move_to_end(key)
            return tables

    def put(self, key, tables) -> None:
        with self._lock:
            old = self._tables.pop(key, None)
            if old is not None:
                self._bytes -= 2 * old[0].nbytes
            self._tables[key] = tables
            self._bytes += 2 * tables[0].nbytes
            while self._bytes > _CACHE_BYTES and len(self._tables) > 1:
                probs, _ = self._tables.popitem(last=False)[1]
                self._bytes -= 2 * probs.nbytes

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()
            self._bytes = 0


_table_cache = _TableCache()


def clear_transition_cache() -> None:
    _table_cache.clear()


def _totals_block(theta: float, t: float, size: int) -> np.ndarray:
    """exp(tQ) for the totals chain on {0..size-1}: P[n, k] = P(|M_t| = k |
    |M_0| = n), lower triangular.

    Uniformisation at rate L = lambda_{size-1} over a step tau with
    x = L*tau <= 1 sums e^{-x} x^j/j! B^j, B = I + Q/L, whose terms are
    nonnegative, so no entry suffers cancellation; the series runs until its
    tail is below 1e-17 of every entry.  The step is then squared up to t,
    resetting the diagonal and the subdiagonal to their closed forms after
    each squaring (Al-Mohy & Higham 2009, code fragment 2.1) so that the
    squarings do not compound the rounding of e^{-lambda_i tau}.
    """
    i = np.arange(size, dtype=float)
    rates = i * (theta + i - 1) / 2.0
    top, lam = size - 1, rates[-1]
    squarings = 0 if lam * t <= 1.0 else math.ceil(math.log2(lam) + math.log2(t))
    tau = math.ldexp(t, -squarings)
    x = lam * tau
    stay = (top - i) * (theta + top + i - 1) / (2.0 * lam)  # 1 - lambda_i / L
    move = rates[1:, None] / lam
    # Entry (n, k) needs n - k moves; the terms past j = n - k + r - 1 weigh
    # at most x^r/r! e^x relative to it.
    r, tail = 0, math.exp(x)
    while tail > 1e-17:
        r += 1
        tail *= x / r
    term = np.eye(size)
    out = term.copy()
    for j in range(1, top + r):
        nxt = stay[:, None] * term
        nxt[1:] += move * term[:-1]
        term = nxt * (x / j)
        out += term
    out *= math.exp(-x)
    gap = (theta + 2.0 * i[1:] - 2.0) / 2.0  # lambda_i - lambda_{i-1}
    below = (np.arange(1, size), np.arange(top))
    for s in range(squarings + 1):
        if s:
            out = out @ out
        h = math.ldexp(tau, s)
        np.fill_diagonal(out, np.exp(-rates * h))
        out[below] = rates[1:] * np.exp(-rates[:-1] * h) * -np.expm1(-gap * h) / gap
    return out


def _totals_tables(theta: float, t: float, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The cached totals transition matrix for (theta, t), clipped to [0, 1],
    and its log, covering starting totals 0..top at least (read-only)."""
    if not 0.0 < theta < math.inf:
        raise DomainError(f"theta must be finite and > 0, got {theta}")
    if top < 0:
        raise DomainError(f"negative total {top}")
    if not 0.0 <= t < math.inf:
        raise DomainError(f"time must be finite and >= 0, got {t}")
    key = (theta, t)
    tables = _table_cache.get(key)
    if tables is not None and top < len(tables[0]):
        return tables
    start = 0 if tables is None else len(tables[0])
    size = max(_FIRST_BLOCK, start)
    while size <= top:
        size *= 2
    probs, logs = np.zeros((size, size)), np.full((size, size), -np.inf)
    if tables is not None:
        probs[:start, :start], logs[:start, :start] = tables
    while start < size:
        stop = max(_FIRST_BLOCK, 2 * start)
        rows = _totals_block(theta, t, stop)[start:]
        if np.any(rows < -1e-12):
            raise DomainError("negative transition probability")
        probs[start:stop, :stop] = np.clip(rows, 0.0, 1.0)
        with np.errstate(divide="ignore"):
            logs[start:stop, :stop] = np.log(probs[start:stop, :stop])
        start = stop
    probs.setflags(write=False)
    logs.setflags(write=False)
    _table_cache.put(key, (probs, logs))
    return probs, logs


def fv_totals_transition(
    theta: float,
    n: int,
    t: float,
    rtol: float = DEFAULT_ODE_RTOL,
) -> TotalsTransitionTable:
    """Exact marginal law of the totals death chain started at n.

    Row n of the cached transition matrix for (theta, t); ``rtol`` is
    accepted for compatibility and ignored.
    """
    probs, logs = _totals_tables(theta, t, n)
    return TotalsTransitionTable(n, t, probs[n, : n + 1], logs[n, : n + 1])


def fv_typed_log_prob(
    spec: FvDualSpec,
    nvec: MultiIndex,
    kvec: MultiIndex,
    t: float,
    rtol: float = DEFAULT_ODE_RTOL,
) -> float:
    """log p_{n,k}(t) for the typed chain (``rtol`` is ignored).

    The totals follow the pure-death law; given the surviving total the
    allocation across types is multivariate hypergeometric, because each
    death removes a uniformly random surviving lineage.
    """
    if not kvec <= nvec:
        raise IndexError(f"{kvec!r} not componentwise <= {nvec!r}")
    table = fv_totals_transition(spec.theta, nvec.total, t)
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


def _table(fn, top: int) -> np.ndarray:
    """``fn(v)`` for v = 0..top, one call each."""
    return np.array([fn(v) for v in range(top + 1)], dtype=float)


def _log_binom_table(top: int, q: float) -> np.ndarray:
    """log_binom_pmf(k, n, q) at [n, k] for 0 <= k <= n <= top, the same
    floats by the same operations in the same order, from one table of
    lgamma (-inf above the diagonal)."""
    n, k = np.ogrid[: top + 1, : top + 1]
    below = k <= n
    if q == 0.0 or q == 1.0:
        return np.where(below & (k == (0 if q == 0.0 else n)), 0.0, -np.inf)
    rest = np.where(below, n - k, 0)
    log_fact = _table(lambda v: math.lgamma(v + 1), top)
    out = log_fact[n] - log_fact[k] - log_fact[rest] + k * math.log(q)
    return np.where(below, out + rest * math.log1p(-q), -np.inf)
