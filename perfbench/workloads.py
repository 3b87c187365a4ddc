"""Seeded input generation for the smoothing benchmark.

Each workload turns a seed and a dataset number into a config file and a
data file in the formats the ``mvhmm`` command line reads.  Generation uses
numpy only, so the program under test receives nothing but the two files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

THETA = 2.0


@dataclass(frozen=True)
class Plan:
    """What one round does with a generated dataset of a workload."""

    # Datasets generated per run; each pass makes one round on every one.
    datasets: int
    # Indices smoothed cold through the CLI, each from an empty table cache,
    # and how many times each of those queries runs.
    cold: str
    repeats: int
    # Indices smoothed in one in-process session with the table cache kept
    # across them ("" for none).
    session: str
    # Number of predictive draws from the session law at the middle index.
    draws: int

    def cold_queries(self, ds) -> list[int]:
        return [i for i in ds.indices(self.cold) for _ in range(self.repeats)]


# Index sets: "all" is every collection time, "mid" the middle one.
PLANS = {
    "fv-sweep": Plan(datasets=9, cold="mid", repeats=3, session="all", draws=50000),
    "dw-query": Plan(datasets=8, cold="mid", repeats=1, session="mid", draws=1000),
    "fv-gaps": Plan(datasets=1, cold="all", repeats=1, session="", draws=0),
}


@dataclass(frozen=True)
class Dataset:
    """One generated input: its files plus the indices a round uses."""

    workload: str
    number: int
    config_path: str
    data_path: str
    n_times: int

    def indices(self, which: str) -> tuple[int, ...]:
        if which == "all":
            return tuple(range(self.n_times))
        if which == "mid":
            return (self.n_times // 2,)
        return ()


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _labels(k: int) -> list[str]:
    return [f"y{j}" for j in range(k)]


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _config_text(model: str, labels: list[str] | None, beta: float | None) -> str:
    lines = [f"model = {model}", f"theta = {_fmt(THETA)}"]
    if beta is not None:
        lines.append(f"beta = {_fmt(beta)}")
    if labels is None:
        lines.append("base = nonatomic")
    else:
        lines.append("base = discrete")
        lines.extend(f"atom.{lab} = {_fmt(1.0 / len(labels))}" for lab in labels)
    return "\n".join(lines) + "\n"


def _fv_data_text(times, counts, labels) -> str:
    rows = ["time,label,count"]
    for t, row in zip(times, counts):
        cells = [(lab, int(c)) for lab, c in zip(labels, row) if c > 0]
        if not cells:
            cells = [(labels[0], 0)]
        rows.extend(f"{_fmt(t)},{lab},{c}" for lab, c in cells)
    return "\n".join(rows) + "\n"


def _observed(labels, counts) -> list[str]:
    totals = np.asarray(counts).reshape(len(counts), len(labels)).sum(axis=0)
    return [lab for lab, c in zip(labels, totals) if c > 0]


def _fv_sweep(rng):
    """fv, discrete base, T=8, K=3, times 0.3 apart, multinomial(3) per time."""
    n_times, k = 8, 3
    labels = _labels(k)
    times = [0.3 * i for i in range(n_times)]
    counts = rng.multinomial(3, np.full(k, 1.0 / k), size=n_times)
    return (
        _config_text("fv", _observed(labels, counts), None),
        _fv_data_text(times, counts, labels),
        n_times,
    )


def _fv_gaps(rng):
    """fv, nonatomic base, T=8, K=2, Exp(1) gaps, multinomial(6) per time."""
    n_times, k = 8, 2
    labels = _labels(k)
    gaps = rng.exponential(1.0, size=n_times - 1)
    times = np.concatenate([[0.0], np.cumsum(gaps)]).tolist()
    counts = rng.multinomial(6, np.full(k, 1.0 / k), size=n_times)
    return (
        _config_text("fv", None, None),
        _fv_data_text(times, counts, labels),
        n_times,
    )


def _dw_query(rng):
    """dw, discrete base, beta=1, T=6, K=3, times 0.4 apart, 2 draws per time,
    7 counts per time split multinomially over the (draw, type) cells."""
    n_times, k, n_draws, per_time = 6, 3, 2, 7
    labels = _labels(k)
    times = [0.4 * i for i in range(n_times)]
    cells = rng.multinomial(
        per_time, np.full(n_draws * k, 1.0 / (n_draws * k)), size=n_times
    ).reshape(n_times, n_draws, k)
    rows = ["time,draw,label,count"]
    for t, draws in zip(times, cells):
        for d, row in enumerate(draws):
            entries = [(lab, int(c)) for lab, c in zip(labels, row) if c > 0]
            if not entries:
                entries = [(labels[0], 0)]
            rows.extend(f"{_fmt(t)},{d + 1},{lab},{c}" for lab, c in entries)
    observed = _observed(labels, cells.sum(axis=1))
    return (
        _config_text("dw", observed, 1.0),
        "\n".join(rows) + "\n",
        n_times,
    )


NAMES = tuple(PLANS)
_MAKERS = {"fv-sweep": _fv_sweep, "dw-query": _dw_query, "fv-gaps": _fv_gaps}


def generate(name: str, seed: int, number: int, workdir: str) -> Dataset:
    """Write dataset ``number`` of workload ``name`` for ``seed``."""
    rng = np.random.default_rng([seed, NAMES.index(name), number])
    config_text, data_text, n_times = _MAKERS[name](rng)
    stem = os.path.join(workdir, f"{name}-{number}")
    _write(stem + ".config", config_text)
    _write(stem + ".csv", data_text)
    return Dataset(name, number, stem + ".config", stem + ".csv", n_times)
