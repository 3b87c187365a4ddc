"""Log-domain scalar functions used by the mixture weight computations.

Everything here is a plain function of floats and integer count vectors.
All ratios of Gamma functions are computed as differences of log-gamma,
never as explicit Pochhammer products, so totals well beyond 20 stay
representable.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DomainError

__all__ = [
    "log_dir_cat",
    "log_gamma_marginal",
    "log_neg_bin_pmf",
    "log_binom_pmf",
    "log_pochhammer",
    "log_falling_binom",
]


def _check_counts(n: Sequence[int]) -> None:
    for v in n:
        if v < 0:
            raise DomainError(f"negative count {v}")


def log_dir_cat(
    n: Sequence[int],
    alpha: Sequence[float],
    total: float | None = None,
) -> float:
    """Log marginal likelihood of count vector ``n`` under a Dirichlet prior.

    With ``total`` omitted this is log[B(alpha + n) / B(alpha)].  Passing
    ``total`` > sum(alpha) evaluates the same ratio for a parameter measure
    whose mass ``total - sum(alpha)`` sits on atoms never hit by ``n``; those
    atoms contribute Gamma-ratio factors equal to one and cancel.
    """
    if len(n) != len(alpha):
        raise DomainError("count and parameter vectors differ in length")
    _check_counts(n)
    if total is None:
        total = float(sum(alpha))
    if total <= 0.0:
        raise DomainError(f"nonpositive total mass {total}")
    out = 0.0
    for nj, aj in zip(n, alpha):
        if nj == 0:
            continue
        if aj <= 0.0:
            raise DomainError(f"nonpositive parameter {aj} at a positive count")
        out += math.lgamma(aj + nj) - math.lgamma(aj)
    ntot = sum(n)
    out += math.lgamma(total) - math.lgamma(total + ntot)
    return out


def log_gamma_marginal(n: int, a: float, theta: float, beta: float) -> float:
    """Log marginal of a total count ``n`` from ``a`` unit-rate Poisson draws
    against a Gamma(theta, beta) total mass.

    Equals theta*log(beta/(beta+a)) - n*log(beta+a) + lgamma(theta+n)
    - lgamma(theta).  ``a`` = 0 is allowed and gives the plain Gamma ratio.
    """
    if n < 0:
        raise DomainError(f"negative count {n}")
    if theta <= 0.0 or beta <= 0.0:
        raise DomainError("theta and beta must be positive")
    if a < 0.0:
        raise DomainError(f"negative draw cardinality {a}")
    return (
        theta * (math.log(beta) - math.log(beta + a))
        - n * math.log(beta + a)
        + math.lgamma(theta + n)
        - math.lgamma(theta)
    )


def log_neg_bin_pmf(n: int, failures: float, success_prob: float) -> float:
    """Negative binomial log-pmf, ``failures`` > 0 real, counting successes.

    pmf(n) = Gamma(r+n)/(Gamma(r) n!) p^n (1-p)^r.  The convention is fixed
    so that the single-draw marginal of the point-process observation model
    is NegBin(theta, 1/(beta+1)) evaluated at the total count.
    """
    if n < 0:
        raise DomainError(f"negative count {n}")
    if failures <= 0.0:
        raise DomainError("failures must be positive")
    if not 0.0 < success_prob < 1.0:
        raise DomainError("success probability must lie in (0, 1)")
    return (
        math.lgamma(failures + n)
        - math.lgamma(failures)
        - math.lgamma(n + 1)
        + n * math.log(success_prob)
        + failures * math.log1p(-success_prob)
    )


def log_binom_pmf(k: int, n: int, p: float) -> float:
    """Binomial log-pmf with exact handling of the p = 0 and p = 1 edges."""
    if not 0 <= k <= n:
        raise DomainError(f"k={k} outside 0..{n}")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability {p} outside [0, 1]")
    if p == 0.0:
        return 0.0 if k == 0 else -math.inf
    if p == 1.0:
        return 0.0 if k == n else -math.inf
    return (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def log_pochhammer(a: float, n: int) -> float:
    """log of a^(n) = a (a+1) ... (a+n-1); empty product for n = 0."""
    if n < 0:
        raise DomainError(f"negative order {n}")
    if n == 0:
        return 0.0
    if a <= 0.0:
        raise DomainError(f"nonpositive base {a}")
    return math.lgamma(a + n) - math.lgamma(a)


def log_falling_binom(n: int, k: int) -> float:
    """log of the binomial coefficient C(n, k)."""
    if not 0 <= k <= n:
        raise DomainError(f"k={k} outside 0..{n}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
