"""Domain types shared by both engines.

All types are immutable value objects after construction; they can be shared
freely between threads.  Mixture weights live in log domain throughout.  The
engines build laws with distinct index rows in lexicographic order; equal
rows are merged by one scatter fold over integer codes of the rows
(_merged) in from_components and where an update meets a law of the
positional constructor, which keeps rows as given.  A mixture law stores
its components only as a read-only log-weight vector and int index-row
matrix, which the engines read and build laws from; ``components``, as
(log-weight, MultiIndex) pairs, is listed from them on first access for
readers outside the engines.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import AllWeightsZero, DomainError

__all__ = [
    "MultiIndex",
    "TypeRegistry",
    "BaseMeasure",
    "ObservationTimeline",
    "DirichletMixtureLaw",
    "GammaMixtureLaw",
    "NORMALIZATION_TOL",
]

NORMALIZATION_TOL = 1e-10


class MultiIndex:
    """Nonnegative integer counts over the K registered types.

    Ordered componentwise: ``m <= n`` iff ``m[j] <= n[j]`` for every j.
    """

    __slots__ = ("counts", "total")

    def __init__(self, counts: Iterable[int]):
        counts = tuple(counts)
        for v in counts:
            if not 0 <= v < math.inf or int(v) != v:
                raise DomainError(f"multiplicity {v} is not a nonnegative integer")
        object.__setattr__(self, "counts", tuple(map(int, counts)))
        object.__setattr__(self, "total", sum(self.counts))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MultiIndex is immutable")

    @staticmethod
    def zeros(k: int) -> "MultiIndex":
        return MultiIndex((0,) * k)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, j: int) -> int:
        return self.counts[j]

    def __iter__(self) -> Iterator[int]:
        return iter(self.counts)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        if len(other) != len(self):
            raise DomainError("length mismatch in multi-index addition")
        return MultiIndex(a + b for a, b in zip(self.counts, other.counts))

    def __le__(self, other: "MultiIndex") -> bool:
        return len(self) == len(other) and all(
            a <= b for a, b in zip(self.counts, other.counts)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiIndex) and self.counts == other.counts

    def __hash__(self) -> int:
        return hash(self.counts)

    def __repr__(self) -> str:
        return f"MultiIndex{self.counts}"

    def is_zero(self) -> bool:
        return self.total == 0

    def lattice_below(self) -> Iterator["MultiIndex"]:
        """All multi-indices k with 0 <= k <= self, in lexicographic order."""
        for combo in itertools.product(*(range(v + 1) for v in self.counts)):
            yield MultiIndex(combo)


@dataclass(frozen=True)
class TypeRegistry:
    """Ordered collection of the distinct observation labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise DomainError("registry needs at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise DomainError("registry labels must be pairwise distinct")

    @property
    def k(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DomainError(f"unknown label {label!r}") from None

    def __contains__(self, label: str) -> bool:
        return label in self.labels


@dataclass(frozen=True)
class BaseMeasure:
    """Mutation offspring distribution: total mass theta plus its atoms.

    ``atom_probs`` of ``None`` declares a nonatomic distribution.  A discrete
    distribution is specified only through its mass at observed labels; any
    remaining mass (``unseen_mass``) sits on atoms that never entered the
    dataset and cancels from every weight ratio.
    """

    theta: float
    atom_probs: Mapping[str, float] | None = None

    def __post_init__(self):
        if not 0.0 < self.theta < math.inf:
            raise DomainError(f"theta must be finite and > 0, got {self.theta}")
        if self.atom_probs is not None:
            total = 0.0
            for lab, p in self.atom_probs.items():
                if not 0.0 < p <= 1.0:
                    raise DomainError(f"atom probability {p} for {lab!r} not in (0,1]")
                total += p
            if total > 1.0 + 1e-12:
                raise DomainError(f"atom probabilities sum to {total} > 1")
            object.__setattr__(self, "atom_probs", dict(self.atom_probs))

    def __hash__(self) -> int:  # consistent with __eq__, which compares dicts
        atoms = None if self.atom_probs is None else frozenset(self.atom_probs.items())
        return hash((self.theta, atoms))

    @property
    def kind(self) -> str:
        return "nonatomic" if self.atom_probs is None else "discrete"

    @property
    def is_nonatomic(self) -> bool:
        return self.atom_probs is None

    @property
    def unseen_mass(self) -> float:
        """P0 mass off the specified atoms (1 for a nonatomic measure)."""
        if self.atom_probs is None:
            return 1.0
        return max(0.0, 1.0 - sum(self.atom_probs.values()))

    def alpha_vector(self, registry: TypeRegistry) -> tuple[float, ...]:
        """Parameter mass theta*P0 at each registered label (0 if nonatomic)."""
        if self.atom_probs is None:
            return (0.0,) * registry.k
        out = []
        for lab in registry.labels:
            p = self.atom_probs.get(lab)
            if p is None:
                raise DomainError(
                    f"discrete base measure has no mass at observed label {lab!r}"
                )
            out.append(self.theta * p)
        return tuple(out)


@dataclass(frozen=True)
class ObservationTimeline:
    """Collection times plus per-time observations over one registry.

    Exactly one of ``fv_counts`` (multiplicity vector per time) and
    ``dw_draws`` (sequence of per-draw multiplicity vectors per time, whose
    length is the cardinality c_i) must be provided.
    """

    times: tuple[float, ...]
    registry: TypeRegistry
    fv_counts: tuple[MultiIndex, ...] | None = None
    dw_draws: tuple[tuple[MultiIndex, ...], ...] | None = None

    def __post_init__(self):
        # Held as tuples, so that laws kept per timeline cannot go stale.
        object.__setattr__(self, "times", tuple(self.times))
        if self.fv_counts is not None:
            object.__setattr__(self, "fv_counts", tuple(self.fv_counts))
        if self.dw_draws is not None:
            object.__setattr__(self, "dw_draws", tuple(map(tuple, self.dw_draws)))
        if len(self.times) == 0:
            raise DomainError("at least one collection time required")
        for t in self.times:
            if not math.isfinite(t):
                raise DomainError(f"collection time {t} is not finite")
        for a, b in zip(self.times, self.times[1:]):
            if not a < b:
                raise DomainError(f"times must be strictly increasing ({a} !< {b})")
        if (self.fv_counts is None) == (self.dw_draws is None):
            raise DomainError("exactly one of fv_counts / dw_draws must be given")
        if self.fv_counts is not None:
            if len(self.fv_counts) != len(self.times):
                raise DomainError("one multiplicity vector per time required")
            for n in self.fv_counts:
                if len(n) != self.registry.k:
                    raise DomainError("multiplicity vector length != registry size")
        else:
            assert self.dw_draws is not None
            if len(self.dw_draws) != len(self.times):
                raise DomainError("one draw collection per time required")
            for draws in self.dw_draws:
                for d in draws:
                    if len(d) != self.registry.k:
                        raise DomainError("draw vector length != registry size")

    @property
    def mode(self) -> str:
        return "fv" if self.fv_counts is not None else "dw"

    @property
    def n_times(self) -> int:
        return len(self.times)

    def counts_at(self, i: int) -> MultiIndex:
        """Total multiplicities observed at time index i."""
        if self.fv_counts is not None:
            return self.fv_counts[i]
        assert self.dw_draws is not None
        return sum(self.dw_draws[i], MultiIndex.zeros(self.registry.k))

    def cardinality_at(self, i: int) -> int:
        """Number of point-process draws collected at time index i (0 for fv)."""
        if self.dw_draws is None:
            return 0
        return len(self.dw_draws[i])


def _row_codes(rows: np.ndarray) -> np.ndarray:
    """One int64 code per row of the nonnegative integer matrix ``rows``:
    equal rows share a code, and codes order as the rows do
    lexicographically (mixed radix, the last column least significant, or
    the rank of the row if the span would pass 2**62)."""
    # column by column: max(axis=0) is slow on narrow matrices
    radices = np.array([col.max(initial=0) + 1 for col in rows.T], dtype=np.int64)
    if math.prod(radices.tolist()) > 2**62:
        return np.unique(rows, axis=0, return_inverse=True)[1].ravel()
    return rows @ (np.cumprod(radices[::-1])[::-1] // radices)


def _merged(
    log_weights: np.ndarray, codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Components with equal codes (nonnegative ints) folded into one, in
    code order; groups with no finite weight drop.  Returns the log-weights
    and the position of one member of each group.  A scatter fold: each
    group folds by np.logaddexp from its first finite member, left to right
    (np.logaddexp.at adds in arrival order); sparse codes are ranked first.
    """
    span = int(codes.max()) + 1 if len(codes) else 0
    if span > 4 * len(codes):
        uniq, codes = np.unique(codes, return_inverse=True)
        span = len(uniq)
    acc = np.full(span, -math.inf)
    np.logaddexp.at(acc, codes, log_weights)
    lone = np.signbit(log_weights) & (log_weights == 0.0)
    if lone.any():  # logaddexp(-inf, -0.0) is +0.0: a lone -0.0 keeps its sign
        finite = np.bincount(codes[log_weights != -math.inf], minlength=span)
        acc[codes[lone][finite[codes[lone]] == 1]] = -0.0
    where = np.empty(span, dtype=np.int64)
    where[codes] = np.arange(len(codes))
    groups = np.flatnonzero(acc != -math.inf)
    return acc[groups], where[groups]


def _normalized(log_weights: np.ndarray) -> np.ndarray:
    if not len(log_weights):
        raise AllWeightsZero("mixture has no component with positive weight")
    return log_weights - logsumexp_1d(log_weights)


def _component_arrays(
    components: Iterable[tuple[float, MultiIndex]], k: int
) -> tuple[np.ndarray, np.ndarray]:
    components = list(components)
    for _, idx in components:
        if len(idx) != k:
            raise DomainError("component index length != registry size")
    log_weights = np.array([lw for lw, _ in components], dtype=float)
    indices = np.array([idx.counts for _, idx in components], dtype=np.int64)
    return log_weights, indices.reshape(len(components), k)


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 <= epsilon < 1.0:
        raise DomainError(f"pruning epsilon must lie in [0, 1), got {epsilon!r}")


def _at_least(logs: np.ndarray, epsilon: float) -> np.ndarray:
    """Pruning's keep mask: ``math.exp(lw) >= epsilon`` for each log-weight
    (epsilon > 0).  Log-weights are compared with L = math.log(epsilon);
    those too near L for the rounding of log and exp, 4 ulp of L plus 4 ulp
    of epsilon relative to it, are decided by math.exp itself."""
    bound = math.log(epsilon)
    keep = logs >= bound
    window = 4.0 * (math.ulp(bound) + math.ulp(epsilon) / epsilon)
    near = np.flatnonzero(np.abs(logs - bound) <= window)
    keep[near] = [math.exp(lw) >= epsilon for lw in logs[near].tolist()]
    return keep


def logsumexp_1d(logs: np.ndarray) -> float:
    m = np.max(logs)
    if m == -np.inf:
        return -math.inf
    return float(m + np.log(np.sum(np.exp(logs - m))))


class _MixtureBase:
    """Shared behaviour of the two mixture-law types.  Each declares
    ``components`` with ``field()``, which leaves no class attribute, so the
    cached property below serves it; ``_arrays`` is the stored form."""

    registry: TypeRegistry
    _arrays: tuple[np.ndarray, np.ndarray]
    # Rows distinct and in lexicographic order, as _built gives them; the
    # positional constructor (and dataclasses.replace) keeps rows as given.
    _canonical = True

    def __post_init__(self):
        self._store(*_component_arrays(vars(self).pop("components"), self.registry.k))
        object.__setattr__(self, "_canonical", len(self) == 1)
        total = self.weight_sum()
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise DomainError(f"component weights sum to {total!r}, not 1")

    def _store(self, log_weights: np.ndarray, indices: np.ndarray, **changes):
        """Set ``changes`` and the arrays, checked: every law is built here."""
        for name, value in changes.items():
            object.__setattr__(self, name, value)
        if indices.shape != (len(log_weights), self.registry.k):
            raise DomainError("component index length != registry size")
        if not len(log_weights):
            raise DomainError("a mixture law needs at least one component")
        log_weights.flags.writeable = indices.flags.writeable = False
        object.__setattr__(self, "_arrays", (log_weights, indices))

    def _rows(self) -> list[tuple[float, list[int]]]:
        """(log-weight, index row) pairs, with no MultiIndex built."""
        log_weights, indices = self._arrays
        return list(zip(log_weights.tolist(), indices.tolist()))

    @functools.cached_property
    def components(self) -> tuple[tuple[float, MultiIndex], ...]:
        """(log-weight, MultiIndex) pairs, listed on first access."""
        return tuple((lw, MultiIndex(m)) for lw, m in self._rows())

    def log_weights(self) -> dict[MultiIndex, float]:
        return {idx: lw for lw, idx in self.components}

    def weights(self) -> dict[MultiIndex, float]:
        return {idx: math.exp(lw) for lw, idx in self.components}

    def weight_sum(self) -> float:
        return float(sum(math.exp(lw) for lw in self._arrays[0].tolist()))

    def __len__(self) -> int:
        return len(self._arrays[0])

    def _renewed(self, log_weights, indices, normalize=True, **changes):
        """A copy of this law but for ``changes``, holding the components of
        the arrays merged by index row and, if ``normalize``, normalized."""
        log_weights, where = _merged(log_weights, _row_codes(indices))
        return self._built(log_weights, indices[where], normalize, **changes)

    def _built(self, log_weights, indices, normalize=True, **changes):
        """As _renewed, for components already merged and in order."""
        if normalize:
            log_weights = _normalized(log_weights)
        law = copy.copy(self)
        vars(law).pop("components", None)
        vars(law).pop("_canonical", None)
        law._store(log_weights, indices, **changes)
        return law

    def _merged_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The arrays, as from_components would give them."""
        return self._arrays if self._canonical else self._renewed(*self._arrays)._arrays

    def pruned(self, epsilon: float):
        """Drop components with normalized weight < epsilon, then renormalize."""
        _check_epsilon(epsilon)
        if epsilon <= 0.0:
            return self
        log_weights, indices = self._arrays
        keep = _at_least(log_weights, epsilon)
        return self._renewed(log_weights[keep], indices[keep])


@dataclass(frozen=True, eq=False)
class DirichletMixtureLaw(_MixtureBase):
    """Finite mixture of Dirichlet random-measure laws.

    Component (log w, m) stands for weight w on the law whose parameter
    measure is the base measure plus the atoms recorded in m at the
    registered labels.
    """

    components: tuple[tuple[float, MultiIndex], ...] = field()
    base: BaseMeasure
    registry: TypeRegistry

    @staticmethod
    def from_components(
        components: Iterable[tuple[float, MultiIndex]],
        base: BaseMeasure,
        registry: TypeRegistry,
        normalize: bool = True,
    ) -> "DirichletMixtureLaw":
        arrays = _component_arrays(components, registry.k)
        return DirichletMixtureLaw.prior(base, registry)._renewed(*arrays, normalize)

    @staticmethod
    def prior(base: BaseMeasure, registry: TypeRegistry) -> "DirichletMixtureLaw":
        return DirichletMixtureLaw(
            ((0.0, MultiIndex.zeros(registry.k)),), base, registry
        )


@dataclass(frozen=True, eq=False)
class GammaMixtureLaw(_MixtureBase):
    """Finite mixture of gamma random-measure laws with a common rate offset.

    Every component shares the rate beta + rate_offset; the offset is the
    single constant accumulated by updates (plus cardinality) and propagation
    (through the deterministic cardinality flow).
    """

    components: tuple[tuple[float, MultiIndex], ...] = field()
    base: BaseMeasure
    registry: TypeRegistry
    beta: float
    rate_offset: float = 0.0

    def _store(self, *arrays, **changes):
        super()._store(*arrays, **changes)
        if not 0.0 < self.beta < math.inf:
            raise DomainError(f"beta must be finite and > 0, got {self.beta}")
        if not 0.0 <= self.rate_offset < math.inf:
            raise DomainError(
                f"rate offset must be finite and >= 0, got {self.rate_offset}"
            )

    @staticmethod
    def from_components(
        components: Iterable[tuple[float, MultiIndex]],
        base: BaseMeasure,
        registry: TypeRegistry,
        beta: float,
        rate_offset: float = 0.0,
        normalize: bool = True,
    ) -> "GammaMixtureLaw":
        arrays = _component_arrays(components, registry.k)
        law = GammaMixtureLaw.prior(base, registry, beta)
        return law._renewed(*arrays, normalize, rate_offset=rate_offset)

    @staticmethod
    def prior(
        base: BaseMeasure, registry: TypeRegistry, beta: float
    ) -> "GammaMixtureLaw":
        return GammaMixtureLaw(
            ((0.0, MultiIndex.zeros(registry.k)),), base, registry, beta, 0.0
        )


def normalize(law):
    """Return the same mixture with weights rescaled to sum to one.

    Raises AllWeightsZero if every component has log-weight -inf.
    """
    return law._renewed(*law._arrays)
