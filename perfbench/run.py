#!/usr/bin/env python3
"""Smoothing benchmark for mvhmm.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fv-sweep --seed 0 --seconds 55 --trace 0

The inputs are generated from the seed (workloads.py) and handed to the
program as config and data files only.  Everything runs in this one process
on one thread, apart from the fresh interpreters that time set-up, which
run one at a time between the rounds.  With ``--trace 0`` the run makes one
pass over the workload's datasets, and further passes while another is
expected to end by the ``--seconds`` deadline, and reports the end-to-end
metrics; with ``--trace 1`` it pairs one untraced and one traced round on
each of the first datasets and reports the per-layer metrics (replay.py).
Every output is checked.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import os

# One thread for numpy's linear-algebra back ends; must precede numpy's import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_s": "s",
    "queries_per_s": "1/s",
    "sweep_s": "s",
    "draws_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "io.load_s": "s",
    "io.format_s": "s",
    "io.output_bytes": "bytes",
    "dual.tables": "count",
    "dual.tables_failed": "count",
    "dual.build_s": "s",
    "update.calls": "count",
    "update.s": "s",
    "update.dropped": "count",
    "propagate.calls": "count",
    "propagate.s": "s",
    "propagate.lattice_points": "count",
    "propagate.components_out": "count",
    "propagate.merge_ratio": "1",
    "filter.steps": "count",
    "combine.s": "s",
    "combine.pairs": "count",
    "combine.components": "count",
    "combine.merge_ratio": "1",
    "predict.draws": "count",
    "predict.s": "s",
    "predict.pmf_s": "s",
    "trace.coverage": "1",
    "trace.overhead_s": "s",
}
SETUP_REPEATS = 5
TRACE_DATASETS = 2

# Timed in a fresh interpreter: the import plus loading the two input files.
SETUP_SCRIPT = """
import sys, time
start = time.perf_counter()
import mvhmm
mvhmm.load_config(sys.argv[1])
mvhmm.load_timeline(sys.argv[2])
print(repr(time.perf_counter() - start))
"""


def measure_setup(ds) -> float:
    """Seconds of one set-up in a fresh interpreter, on the files of ``ds``."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT, ds.config_path, ds.data_path],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def timed_passes(datasets, plan, refs, seed: int, seconds: float):
    """Rounds over all datasets, one pass after another, and set-up times.

    The set-up interpreters run between the first pass's rounds, spread
    evenly over it, so that their median sees the same host as the rounds.
    A further pass runs only if it is expected to end by the deadline.
    """
    import measure

    setups_before = [0] * len(datasets)
    for k in range(SETUP_REPEATS):
        setups_before[k * len(datasets) // SETUP_REPEATS] += 1
    passes, setup_times = [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        ops = []
        for r, ds in enumerate(datasets):
            if not passes:
                setup_times += [measure_setup(ds) for _ in range(setups_before[r])]
            ops += measure.run_round(ds, plan, refs, seed)
        passes.append(ops)
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return passes, setup_times


def _mean_over_datasets(samples: dict[int, list[float]]) -> float | None:
    """Mean over datasets of each dataset's median sample; None if empty."""
    medians = [statistics.median(v) for v in samples.values() if v]
    return statistics.fmean(medians) if medians else None


def end_to_end(passes, setup_times) -> dict:
    ops = [op for ops in passes for op in ops]
    queries, sessions, draw_rates = {}, {}, {}
    for op in ops:
        if op.kind == "query" and op.ok:
            queries.setdefault(op.dataset, []).append(op.seconds)
        elif op.kind == "draws" and op.ok:
            draw_rates.setdefault(op.dataset, []).append(op.count / op.seconds)
    for ops_of_pass in passes:
        totals = {}
        for op in ops_of_pass:
            if op.kind == "smooth":
                totals[op.dataset] = totals.get(op.dataset, 0.0) + op.seconds
        for dataset, total in totals.items():
            sessions.setdefault(dataset, []).append(total)
    attempted = [op for op in ops if op.kind == "query"]
    query_time = sum(op.seconds for op in attempted)
    succeeded = sum(op.ok for op in attempted)
    return {
        "setup_s": statistics.median(setup_times),
        "query_s": _mean_over_datasets(queries),
        "queries_per_s": succeeded / query_time if succeeded else None,
        "sweep_s": _mean_over_datasets(sessions),
        "draws_per_s": _mean_over_datasets(draw_rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(layers, untraced_s: float, traced_s: float) -> dict:
    c = layers.c
    out = {name: c[name] for name in PER_LAYER_UNITS}
    out["propagate.merge_ratio"] = _ratio(c["propagate.components_out"], c["propagate.lattice_points"])
    out["combine.merge_ratio"] = _ratio(c["combine.components"], c["combine.pairs"])
    out["trace.coverage"] = _ratio(layers.layer_seconds(), untraced_s)
    out["trace.overhead_s"] = traced_s - untraced_s
    return out


def _ratio(num, den):
    return num / den if den else None


def _report(name, value, unit, note=""):
    shown = "null" if value is None else f"{value:.6g}"
    print(f"{name:26s} {shown:>14s} {unit:6s} {note}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mvhmm", "__init__.py")):
        print(f"perfbench: no mvhmm sources under {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("MVHMM_")]:
        del os.environ[key]  # the program gets its settings from the files only
    sys.path.insert(0, SRC)

    import workloads

    if args.workload not in workloads.PLANS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    plan = workloads.PLANS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        datasets = [
            workloads.generate(args.workload, args.seed, r, workdir)
            for r in range(plan.datasets)
        ]
        return _run(args, plan, datasets)


def _run(args, plan, datasets) -> int:
    import checks
    import measure
    import replay

    refs = checks.References(args.seed)
    passes = []
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    if args.trace:
        layers = replay.Layers()
        untraced_s = traced_s = 0.0
        traced = datasets[:TRACE_DATASETS]
        for ds in traced:
            ops = measure.run_round(ds, plan, refs, args.seed)
            untraced_s += sum(op.seconds for op in ops)
            start = time.perf_counter()
            ops += replay.traced_round(ds, plan, args.seed, layers)
            traced_s += time.perf_counter() - start
            passes.append(ops)
        metrics, units = per_layer(layers, untraced_s, traced_s), PER_LAYER_UNITS
        print(f"# per-layer totals over {len(traced)} dataset(s), one traced round each")
    else:
        start = time.perf_counter()
        passes, setup_times = timed_passes(datasets, plan, refs, args.seed, args.seconds)
        elapsed = time.perf_counter() - start
        metrics, units = end_to_end(passes, setup_times), END_TO_END_UNITS
        print(
            f"# {len(datasets)} dataset(s), {len(passes)} pass(es) in {elapsed:.1f} s;"
            f" setup over {SETUP_REPEATS} interpreters"
        )

    ops = [op for ops in passes for op in ops]
    failed = [op for op in ops if not op.ok]
    for name, value in metrics.items():
        _report(name, value, units[name])
    _report("fail_ratio", len(failed) / len(ops), "1", f"{len(failed)} of {len(ops)} operations")
    for op in failed:
        print(f"failed {op.kind} dataset={op.dataset} index={op.index}: {op.error}")
    result = {
        "correct": not any(op.incorrect for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
