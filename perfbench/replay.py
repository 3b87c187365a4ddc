"""Traced rounds: each smoothing query replayed layer by layer.

The replay makes the same public calls the engine makes, in the same order,
and times each one from here; nothing inside ``mvhmm`` is patched.  For a
query at index i it runs

* ``load_config`` and ``load_timeline`` (io);
* each filter step: ``update_dirichlet``/``update_gamma`` (update), then
  ``fv_totals_transition`` for every table the following propagation needs
  and the cache does not yet hold (dual; for dw, the closed-form survival
  probability), then ``propagate_forward``/``propagate_backward``/
  ``propagate_dw`` (propagate);
* the public ``filter_forward``/``filter_backward`` (``_dw``) with warm
  tables; their laws must equal the replayed ones exactly, which shows that
  the replay times the program's own work;
* the public smoother with warm tables; its time minus the two filters' is
  the combination (combine);
* for a CLI query, ``format_mixture`` on the result (io).

Prediction reuses the untraced pmf and draw calls (predict).
"""

from __future__ import annotations

import gc
import math
import time
from collections import Counter

import mvhmm
from mvhmm import dual
from mvhmm import dw as dw_engine
from mvhmm import fv as fv_engine
from mvhmm.io import format_float, format_mixture

import measure

# Per-layer busy times; their sum is the traced time that trace.coverage compares.
TIME_KEYS = (
    "io.load_s",
    "io.format_s",
    "dual.build_s",
    "update.s",
    "propagate.s",
    "combine.s",
    "predict.s",
    "predict.pmf_s",
)


class ReplayMismatch(Exception):
    """A replayed filter law differs from the program's own."""


class Layers:
    """Counters and busy seconds per layer, summed over traced rounds."""

    def __init__(self):
        self.c = Counter()

    def timed(self, key: str, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.c[key] += time.perf_counter() - start

    def layer_seconds(self) -> float:
        return sum(self.c[k] for k in TIME_KEYS)


class _Replay:
    """Filter replay for one dataset, from an empty table cache that it keeps
    across its queries; ``built`` mirrors the cache."""

    def __init__(self, config, timeline, layers: Layers):
        self.config = config
        self.timeline = timeline
        self.layers = layers
        self.built: set[tuple] = set()
        self.fv = config.model == "fv"
        dual.clear_transition_cache()

    def _prior(self):
        c, reg = self.config, self.timeline.registry
        if self.fv:
            return mvhmm.DirichletMixtureLaw.prior(c.base, reg)
        return mvhmm.GammaMixtureLaw.prior(c.base, reg, c.beta)

    def _update(self, law, j):
        if self.fv:
            out = self.layers.timed("update.s", fv_engine.update_dirichlet, law, self.timeline.fv_counts[j])
        else:
            out = self.layers.timed("update.s", dw_engine.update_gamma, law, self.timeline.dw_draws[j])
        self.layers.c["update.calls"] += 1
        self.layers.c["update.dropped"] += len(law.components) - len(out.components)
        return out

    def _dual(self, law, dt):
        c = self.config
        if not self.fv:
            spec = mvhmm.DwDualSpec(c.base.theta, c.beta, law.rate_offset, c.dw_rate_constant)
            self.layers.timed("dual.build_s", mvhmm.dw_survival_prob, spec, dt)
            return
        for n in sorted({m.total for _, m in law.components if not m.is_zero()}):
            key = (c.base.theta, n, dt, c.ode_tolerance)
            if key in self.built:
                continue
            try:
                self.layers.timed("dual.build_s", dual.fv_totals_transition, *key)
            except mvhmm.MvhmmError:
                self.layers.c["dual.tables_failed"] += 1
                raise
            self.layers.c["dual.tables"] += 1
            self.built.add(key)

    def _propagate(self, law, dt, backward):
        if self.fv:
            fn = fv_engine.propagate_backward if backward else fv_engine.propagate_forward
            out = self.layers.timed("propagate.s", fn, law, dt, self.config.ode_tolerance)
        else:
            out = self.layers.timed("propagate.s", dw_engine.propagate_dw, law, dt, self.config.dw_rate_constant)
        self.layers.c["propagate.calls"] += 1
        self.layers.c["propagate.lattice_points"] += sum(
            math.prod(v + 1 for v in m.counts) for _, m in law.components
        )
        self.layers.c["propagate.components_out"] += len(out.components)
        return out

    def _filter(self, i, backward):
        times = self.timeline.times
        law = self._prior()
        steps = range(self.timeline.n_times - 1, i, -1) if backward else range(i)
        for j in steps:
            law = self._update(law, j)
            dt = times[j] - times[j - 1] if backward else times[j + 1] - times[j]
            self._dual(law, dt)
            law = self._propagate(law, dt, backward)
            self.layers.c["filter.steps"] += 1
        return law

    def _public_filters(self, i):
        c, tl = self.config, self.timeline
        if self.fv:
            return (
                fv_engine.filter_forward(tl, i, c.base, c.ode_tolerance),
                fv_engine.filter_backward(tl, i, c.base, c.ode_tolerance),
            )
        args = (tl, i, c.base, c.beta, c.dw_rate_constant)
        return dw_engine.filter_forward_dw(*args), dw_engine.filter_backward_dw(*args)

    def smooth(self, i):
        """Replay one smoothing query; returns the program's result."""
        v1 = self._filter(i, backward=False)
        v2 = self._filter(i, backward=True)
        start = time.perf_counter()
        f1, f2 = self._public_filters(i)
        filters = time.perf_counter() - start
        for mine, theirs in ((v1, f1), (v2, f2)):
            if mine.components != theirs.components or getattr(
                mine, "rate_offset", None
            ) != getattr(theirs, "rate_offset", None):
                raise ReplayMismatch(f"replayed filter law differs at index {i}")
        start = time.perf_counter()
        result = measure.smooth(self.config, self.timeline, i)
        self.layers.c["combine.s"] += time.perf_counter() - start - filters
        self.layers.c["combine.pairs"] += len(v1.components) * len(v2.components)
        self.layers.c["combine.components"] += len(result.law.components)
        return result


def _replayed(kind, ds, i, replay) -> tuple[measure.Op, object]:
    """Replay the query at ``i`` as one operation; failures are recorded."""
    start = time.perf_counter()
    try:
        result = replay.smooth(i)
    except (mvhmm.MvhmmError, ReplayMismatch) as exc:
        error, result = f"{type(exc).__name__}: {exc}", None
    else:
        error = ""
    op = measure.Op(kind, ds.number, i, time.perf_counter() - start, error)
    op.incorrect = error.startswith(ReplayMismatch.__name__)
    return op, result


def _new_replay(ds, layers) -> _Replay:
    gc.collect()
    return _Replay(*layers.timed("io.load_s", measure.load, ds), layers)


def traced_round(ds, plan, seed, layers) -> list[measure.Op]:
    """Replay one untraced round of ``ds`` layer by layer."""
    ops = []
    for i in plan.cold_queries(ds):
        replay = _new_replay(ds, layers)
        op, result = _replayed("query", ds, i, replay)
        ops.append(op)
        if result is None:
            continue
        header = {
            "model": replay.config.model,
            "query": "smooth",
            "at": str(i),
            "time": format_float(replay.timeline.times[i]),
        }
        text = layers.timed("io.format_s", format_mixture, result.law, header)
        layers.c["io.output_bytes"] += len(text.encode("utf-8"))
    indices = ds.indices(plan.session)
    if not indices:
        return ops
    replay = _new_replay(ds, layers)
    results = {}
    for i in indices:
        op, results[i] = _replayed("smooth", ds, i, replay)
        ops.append(op)
    mid = ds.indices("mid")[0]
    if plan.draws and results.get(mid) is not None:
        pmf_op, *draw_ops = measure.predict(ds, mid, results[mid], plan.draws, seed)
        layers.c["predict.pmf_s"] += pmf_op.seconds
        layers.c["predict.s"] += sum(op.seconds for op in draw_ops)
        layers.c["predict.draws"] += sum(op.count for op in draw_ops)
        ops += [pmf_op, *draw_ops]
    return ops
