"""Untraced rounds: the operations whose wall times give the end-to-end metrics.

A round visits one dataset and runs its plan:

* cold queries: ``mvhmm smooth --at i`` through ``mvhmm.cli.main`` in this
  process, stdout captured, from an empty totals-table cache;
* a session: the public per-index smoother over the session indices, one
  after another, with the table cache kept across them;
* prediction from the session law at the middle index: the predictive pmf,
  then the draws in DRAW_BATCHES timed batches.

Every output is checked (see checks.py).  A raised error, a nonzero exit or
a failed check makes the operation count as failed; the round goes on.
"""

from __future__ import annotations

import contextlib
import gc
import io
import time
from dataclasses import dataclass

import numpy as np

import mvhmm
from mvhmm import cli, dual
from mvhmm import dw as dw_engine
from mvhmm import fv as fv_engine

import checks

DRAW_BATCHES = 10

# Errors the CLI turns into exit status 1 (see mvhmm.cli.main).
PROGRAM_ERRORS = (mvhmm.MvhmmError, ValueError, OSError)


@dataclass
class Op:
    """One attempted operation and its outcome."""

    kind: str  # "query", "smooth", "pmf" or "draws"
    dataset: int
    index: int | None
    seconds: float
    error: str = ""  # "<class>: <message>" when the operation failed
    incorrect: bool = False  # failed an output check
    count: int = 1  # draws made

    @property
    def ok(self) -> bool:
        return not self.error


def load(ds):
    return mvhmm.load_config(ds.config_path), mvhmm.load_timeline(ds.data_path)


def smooth(config, timeline, i):
    """The smoothing call the CLI makes for ``smooth --at i``."""
    if config.model == "fv":
        return fv_engine.smooth(
            timeline, i, config.base, config.pruning_epsilon, config.ode_tolerance
        )
    return dw_engine.smooth_dw(
        timeline,
        i,
        config.base,
        config.beta,
        config.pruning_epsilon,
        config.dw_rate_constant,
    )


def _error_class(ds, i: int) -> str:
    """Class of the error behind a failed CLI query, found by repeating the
    query through the library outside any timed region."""
    config, timeline = load(ds)
    try:
        smooth(config, timeline, i)
    except PROGRAM_ERRORS as exc:
        return type(exc).__name__
    return "ExitStatus"


def cold_query(ds, i: int, refs) -> Op:
    argv = ["smooth", "--config", ds.config_path, "--data", ds.data_path, "--at", str(i)]
    out, err = io.StringIO(), io.StringIO()
    dual.clear_transition_cache()
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    op = Op("query", ds.number, i, time.perf_counter() - start)
    if status != 0:
        message = err.getvalue().strip().removeprefix("error: ")
        op.error = f"{_error_class(ds, i)}: {message} (exit {status})"
        return op
    return _checked(op, _check_cli_output, out.getvalue(), refs.law(ds.workload, ds.number, i))


def _check_cli_output(text: str, reference) -> None:
    checks.check_law(checks.law_of_cli_output(text), reference)


def session(ds, indices, refs) -> tuple[list[Op], dict]:
    """Smooth ``indices`` in order with the table cache kept across them."""
    config, timeline = load(ds)
    ops, results = [], {}
    dual.clear_transition_cache()
    gc.collect()
    for i in indices:
        start = time.perf_counter()
        try:
            results[i] = smooth(config, timeline, i)
        except mvhmm.MvhmmError as exc:
            error = f"{type(exc).__name__}: {exc}"
        else:
            error = ""
        ops.append(Op("smooth", ds.number, i, time.perf_counter() - start, error))
    for op in ops:
        if op.ok:
            law = checks.law_of_components(results[op.index].law.components)
            _checked(op, checks.check_law, law, refs.law(ds.workload, ds.number, op.index))
            if not op.ok:
                del results[op.index]
    return ops, results


def _pmf(result):
    if isinstance(result, fv_engine.FvSmoothingResult):
        pmf = fv_engine.predictive_pmf(result.law)
        return pmf, checks.check_label_pmf
    return dw_engine.predict_count_pmf(result.law), checks.check_count_pmf


def _draws(result, n: int, rng) -> list[list[str]]:
    """``n`` further draws: one label list (fv), or ``(size, labels)`` per draw (dw)."""
    if isinstance(result, fv_engine.FvSmoothingResult):
        return [fv_engine.predictive_sample(result, n, rng)]
    return [dw_engine.predict_draw(result.law, rng) for _ in range(n)]


def _check_draws(result, draws) -> None:
    for draw in draws:
        if isinstance(draw, tuple):
            size, draw = draw
            if size != len(draw):
                raise checks.CheckFailed(f"draw of size {size} lists {len(draw)} labels")
        checks.check_labels(draw, result.law.registry.labels)


def _checked(op: Op, check, *args) -> Op:
    try:
        check(*args)
    except checks.CheckFailed as exc:
        op.error, op.incorrect = f"CheckFailed: {exc}", True
    return op


def predict(ds, i: int, result, n_draws: int, seed: int) -> list[Op]:
    """Predictive pmf, then ``n_draws`` draws from the smoothing law at ``i``
    in DRAW_BATCHES timed batches (a median over batches resists bursts of
    load from elsewhere on the machine).  Garbage is collected before the
    pmf and before the first batch; the batches leave little behind."""
    gc.collect()
    start = time.perf_counter()
    pmf, check_pmf = _pmf(result)
    ops = [_checked(Op("pmf", ds.number, i, time.perf_counter() - start), check_pmf, pmf)]
    rng = np.random.default_rng([seed, ds.number])
    per_batch = n_draws // DRAW_BATCHES
    gc.collect()
    for _ in range(DRAW_BATCHES):
        start = time.perf_counter()
        draws = _draws(result, per_batch, rng)
        op = Op("draws", ds.number, i, time.perf_counter() - start, count=per_batch)
        ops.append(_checked(op, _check_draws, result, draws))
    return ops


def run_round(ds, plan, refs, seed: int) -> list[Op]:
    ops = [cold_query(ds, i, refs) for i in plan.cold_queries(ds)]
    session_ops, results = session(ds, ds.indices(plan.session), refs)
    ops += session_ops
    mid = ds.indices("mid")[0]
    if plan.draws and mid in results:
        ops += predict(ds, mid, results[mid], plan.draws, seed)
    return ops
