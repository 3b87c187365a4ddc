"""Dataset ingestion, configuration and result serialization.

Data files are delimiter-separated values with a header row (comma or tab,
UTF-8 labels): ``time,label,count`` for the frequency model and
``time,draw,label,count`` for the branching model, where distinct draw ids
at one time define that time's cardinality.  Configs are flat key-value
files; environment variables prefixed ``MVHMM_`` override scalar keys.
"""

from __future__ import annotations

import csv
import io as _io
import math
import os
from dataclasses import dataclass, field

from .core import BaseMeasure, MultiIndex, ObservationTimeline, TypeRegistry
from .dual import DEFAULT_DW_RATE_CONSTANT, DEFAULT_ODE_RTOL
from .errors import OrderError, SchemaError

__all__ = [
    "RunConfig",
    "load_config",
    "parse_config_text",
    "load_timeline",
    "parse_timeline_text",
    "serialize_timeline",
    "format_float",
    "format_mixture",
]

_FV_FIELDS = ("time", "label", "count")
_DW_FIELDS = ("time", "draw", "label", "count")

_SCALAR_KEYS = {
    "model",
    "theta",
    "beta",
    "base",
    "pruning_epsilon",
    "seed",
    "ode_tolerance",
    "dw_rate_constant",
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration for the command-line interface."""

    model: str
    theta: float
    base: BaseMeasure
    beta: float | None = None
    pruning_epsilon: float = 0.0
    seed: int = 0
    ode_tolerance: float = DEFAULT_ODE_RTOL  # accepted and ignored (see dual.py)
    dw_rate_constant: float = DEFAULT_DW_RATE_CONSTANT

    def __post_init__(self):
        if self.model not in ("fv", "dw"):
            raise SchemaError(f"model must be 'fv' or 'dw', got {self.model!r}")
        if (self.model == "dw") != (self.beta is not None):
            raise SchemaError("beta is required exactly when model is 'dw'")
        if not 0.0 <= self.pruning_epsilon <= 1e-3:
            raise SchemaError("pruning_epsilon must lie in [0, 1e-3]")
        for key in ("theta", "beta", "ode_tolerance", "dw_rate_constant"):
            value = getattr(self, key)
            if value is not None and not 0.0 < value < math.inf:
                raise SchemaError(f"{key} must be finite and > 0, got {value}")


def parse_config_text(text: str, env: dict[str, str] | None = None) -> RunConfig:
    """Parse a flat key-value config, applying MVHMM_ environment overrides."""
    pairs: dict[str, str] = {}
    where: dict[str, str] = {}  # origin of each value, for error messages
    atoms: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("atom."):
            label = key[len("atom.") :]
            if not label:
                raise SchemaError(f"line {lineno}: empty atom label")
            atoms[label] = _parse(float, value, f"line {lineno}: {key}")
        elif key in _SCALAR_KEYS:
            pairs[key] = value
            where[key] = f"line {lineno}: {key}"
        else:
            raise SchemaError(f"line {lineno}: unknown key {key!r}")
    env = dict(os.environ) if env is None else env
    for key in _SCALAR_KEYS:
        override = env.get("MVHMM_" + key.upper())
        if override is not None:
            pairs[key] = override
            where[key] = "MVHMM_" + key.upper()

    def number(key, default=None, convert=float):
        return _parse(convert, pairs[key], where[key]) if key in pairs else default

    if "model" not in pairs:
        raise SchemaError("missing required key 'model'")
    if "theta" not in pairs:
        raise SchemaError("missing required key 'theta'")
    theta = number("theta")
    kind = pairs.get("base", "nonatomic").lower()
    if kind == "nonatomic":
        base = BaseMeasure(theta)
    elif kind == "discrete":
        if not atoms:
            raise SchemaError("discrete base requires atom.<label> entries")
        base = BaseMeasure(theta, atoms)
    else:
        raise SchemaError(f"base must be 'nonatomic' or 'discrete', got {kind!r}")
    seed = number("seed", 0, int)
    if seed < 0:
        raise SchemaError(f"{where['seed']} {pairs['seed']!r} is negative")
    return RunConfig(
        model=pairs["model"].lower(),
        theta=theta,
        base=base,
        beta=number("beta"),
        pruning_epsilon=number("pruning_epsilon", 0.0),
        seed=seed,
        ode_tolerance=number("ode_tolerance", DEFAULT_ODE_RTOL),
        dw_rate_constant=number("dw_rate_constant", DEFAULT_DW_RATE_CONSTANT),
    )


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _parse(convert, value: str, where: str):
    """``convert(value)`` (int or float), with a SchemaError naming ``where``."""
    try:
        return convert(value)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise SchemaError(f"{where} {value!r} is not {kind}") from None


def _parse_count(value: str, lineno: int) -> int:
    count = _parse(int, value, f"line {lineno}: count")
    if count < 0:
        raise ValueError(f"line {lineno}: negative count {count}")
    return count


def parse_timeline_text(text: str, aggregate: bool = False) -> ObservationTimeline:
    """Parse timeline records; see load_timeline."""
    sample = text.splitlines()[0] if text.splitlines() else ""
    delim = "\t" if "\t" in sample else ","
    reader = csv.reader(_io.StringIO(text), delimiter=delim)
    try:
        header = [h.strip().lower() for h in next(reader)]
    except StopIteration:
        raise SchemaError("empty file: at least one time required") from None
    if len(set(header)) != len(header):
        raise SchemaError(f"repeated column in header {header!r}")
    if set(header) == set(_FV_FIELDS):
        mode = "fv"
    elif set(header) == set(_DW_FIELDS):
        mode = "dw"
    else:
        raise SchemaError(f"unrecognized header {header!r}")
    cols = {name: header.index(name) for name in header}
    labels: list[str] = []
    records: dict[tuple, int] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise SchemaError(f"line {lineno}: expected {len(header)} fields")
        time = _parse(float, row[cols["time"]], f"line {lineno}: time")
        label = row[cols["label"]].strip()
        if not label:
            raise SchemaError(f"line {lineno}: empty label")
        count = _parse_count(row[cols["count"]].strip(), lineno)
        if label not in labels:
            labels.append(label)
        draw = row[cols["draw"]].strip() if mode == "dw" else ""
        key = (time, draw, label)
        if key in records:
            if not aggregate:
                raise OrderError(f"line {lineno}: duplicate record {key!r}")
            records[key] += count
        else:
            records[key] = count
    if not records:
        raise SchemaError("at least one time required")
    registry = TypeRegistry(tuple(labels))
    # count vectors per time and draw, draws in order of first appearance
    # (the frequency model has one unnamed draw per time)
    blocks: dict[float, dict[str, list[int]]] = {}
    for (time, draw, label), c in records.items():
        vec = blocks.setdefault(time, {}).setdefault(draw, [0] * registry.k)
        vec[registry.index_of(label)] = c
    times = tuple(sorted(blocks))
    draws = tuple(tuple(MultiIndex(v) for v in blocks[t].values()) for t in times)
    if mode == "fv":
        return ObservationTimeline(times, registry, tuple(d[0] for d in draws))
    return ObservationTimeline(times, registry, dw_draws=draws)


def load_timeline(path: str, aggregate: bool = False) -> ObservationTimeline:
    """Load a timeline file.

    Raises SchemaError for malformed structure, OrderError for duplicate
    records without the aggregation flag, and ValueError for negative counts.
    """
    with open(path, encoding="utf-8") as fh:
        return parse_timeline_text(fh.read(), aggregate)


def serialize_timeline(timeline: ObservationTimeline) -> str:
    """Canonical comma-separated form: times ascending, labels in registry
    order, zero counts kept only to record otherwise-empty times or draws."""
    out = _io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    labels = timeline.registry.labels
    fv = timeline.mode == "fv"
    writer.writerow(_FV_FIELDS if fv else _DW_FIELDS)
    for i, t in enumerate(timeline.times):
        # one block of rows per time (fv) or per draw (dw), led by its key fields
        if fv:
            blocks = [((format_float(t),), timeline.fv_counts[i])]
        else:
            blocks = [
                ((format_float(t), str(d + 1)), vec)
                for d, vec in enumerate(timeline.dw_draws[i])
            ]
        for key, vec in blocks:
            rows = [(*key, lab, vec[j]) for j, lab in enumerate(labels) if vec[j] > 0]
            writer.writerows(rows or [(*key, labels[0], 0)])
    return out.getvalue()


def format_float(value: float) -> str:
    """17 significant digits; round-trips every double."""
    return f"{value:.17g}"


def format_mixture(law, header: dict[str, str]) -> str:
    """Line-oriented key-value rendering with a stable field order."""
    lines = [f"{key} {value}" for key, value in header.items()]
    lines.append(f"n_components {len(law)}")
    if hasattr(law, "rate_offset"):
        lines.append(f"beta {format_float(law.beta)}")
        lines.append(f"rate_offset {format_float(law.rate_offset)}")
    for pos, (lw, idx) in enumerate(law._rows()):
        lines.append(f"component {pos}")
        lines.append("index " + ",".join(str(v) for v in idx))
        lines.append(f"log_weight {format_float(lw)}")
        lines.append(f"weight {format_float(math.exp(lw))}")
    return "\n".join(lines) + "\n"
