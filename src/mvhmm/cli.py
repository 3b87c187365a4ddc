"""Command-line interface.

Commands: ``filter``, ``smooth``, ``predict``, ``simulate``, ``validate``.
Output is line-oriented key-value text with a stable field order; identical
config, data and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import dw as dw_engine
from . import fv as fv_engine
from . import oracles
from .core import MultiIndex, NORMALIZATION_TOL, ObservationTimeline, TypeRegistry
from .errors import MvhmmError
from .io import (
    RunConfig,
    format_float,
    format_mixture,
    load_config,
    load_timeline,
    serialize_timeline,
)

__all__ = ["main"]


def _verify_normalized(law) -> None:
    total = law.weight_sum()
    if abs(total - 1.0) > NORMALIZATION_TOL:
        worst = int(np.argmax(law._arrays[0]))
        raise MvhmmError(
            f"normalization failure: weights sum to {total!r} "
            f"(largest component index {worst})"
        )


def _emit_mixture(config: RunConfig, timeline, i: int, law, query: str) -> str:
    header = {
        "model": config.model,
        "query": query,
        "at": str(i),
        "time": format_float(timeline.times[i]),
    }
    _verify_normalized(law)
    return format_mixture(law, header)


def _load(args) -> tuple[RunConfig, ObservationTimeline]:
    """Config and data of a query command, checked against each other and
    against ``--at``."""
    config = load_config(args.config)
    timeline = load_timeline(args.data)
    if config.model != timeline.mode:
        raise MvhmmError(
            f"config model {config.model!r} but data file is {timeline.mode!r}"
        )
    if not 0 <= args.at < timeline.n_times:
        raise MvhmmError(
            f"--at {args.at} out of range for {timeline.n_times} collection times"
        )
    return config, timeline


def _smooth(config: RunConfig, timeline: ObservationTimeline, i: int):
    if config.model == "fv":
        return fv_engine.smooth(timeline, i, config.base, config.pruning_epsilon)
    return dw_engine.smooth_dw(
        timeline,
        i,
        config.base,
        config.beta,
        config.pruning_epsilon,
        config.dw_rate_constant,
    )


def _cmd_filter(args) -> int:
    config, timeline = _load(args)
    if config.model == "fv":
        law = fv_engine.filter_posterior(timeline, args.at, config.base)
    else:
        law = dw_engine.filter_posterior_dw(
            timeline, args.at, config.base, config.beta, config.dw_rate_constant
        )
    if config.pruning_epsilon > 0:
        law = law.pruned(config.pruning_epsilon)
    sys.stdout.write(_emit_mixture(config, timeline, args.at, law, "filter"))
    return 0


def _cmd_smooth(args) -> int:
    config, timeline = _load(args)
    result = _smooth(config, timeline, args.at)
    sys.stdout.write(_emit_mixture(config, timeline, args.at, result.law, "smooth"))
    return 0


def _cmd_predict(args) -> int:
    if args.samples < 0:
        raise MvhmmError(f"--samples must be >= 0, got {args.samples}")
    config, timeline = _load(args)
    rng = np.random.default_rng(config.seed)
    lines = [
        f"model {config.model}",
        "query predict",
        f"at {args.at}",
        f"time {format_float(timeline.times[args.at])}",
    ]
    result = _smooth(config, timeline, args.at)
    if config.model == "fv":
        if args.pmf or not args.samples:
            pmf = fv_engine.predictive_pmf(result.law)
            total = sum(pmf.values())
            if abs(total - 1.0) > 1e-12:
                raise MvhmmError(f"predictive pmf sums to {total!r}")
            lines.append(f"n_labels {len(pmf)}")
            for lab, p in pmf.items():
                lines.append(f"label {lab}")
                lines.append(f"probability {format_float(p)}")
        if args.samples:
            draws = fv_engine.predictive_sample(result, args.samples, rng)
            lines.append(f"n_samples {len(draws)}")
            for pos, lab in enumerate(draws):
                lines.append(f"sample {pos} {lab}")
    else:
        if args.pmf or not args.samples:
            pmf = dw_engine.predict_count_pmf(result.law)
            lines.append(f"count_mean {format_float(dw_engine.predict_count_mean(result.law))}")
            lines.append(f"n_counts {len(pmf)}")
            for n, p in pmf.items():
                lines.append(f"count {n}")
                lines.append(f"probability {format_float(p)}")
        if args.samples:
            lines.append(f"n_samples {args.samples}")
            for pos in range(args.samples):
                m, labels = dw_engine.predict_draw(result.law, rng)
                lines.append(f"draw {pos} m {m} labels " + ",".join(labels))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    times = _parse_floats(args.times)
    if not times or sorted(times) != times:
        raise MvhmmError("--times must be strictly increasing")
    base = config.base
    if base.is_nonatomic or base.unseen_mass > 1e-12:
        raise MvhmmError(
            "simulate requires a discrete base measure with full atom mass"
        )
    rng = np.random.default_rng(config.seed)
    assert base.atom_probs is not None
    labels = tuple(base.atom_probs.keys())
    registry = TypeRegistry(labels)
    alpha = np.array([config.theta * base.atom_probs[lab] for lab in labels])
    if config.model == "fv":
        counts_per_time = _parse_ints(args.counts) if args.counts else [2] * len(times)
        if len(counts_per_time) != len(times):
            raise MvhmmError("--counts must list one sample size per time")
        x = rng.dirichlet(alpha)
        rows = []
        prev = times[0]
        for t, size in zip(times, counts_per_time):
            if t > prev:
                x = oracles.simulate_wf(alpha, x, t - prev, 1e-4, rng, 1)[0]
                prev = t
            rows.append(MultiIndex(rng.multinomial(size, x)))
        timeline = ObservationTimeline(tuple(times), registry, tuple(rows))
    else:
        cards = _parse_ints(args.cards) if args.cards else [1] * len(times)
        if len(cards) != len(times):
            raise MvhmmError("--cards must list one cardinality per time")
        z = rng.gamma(alpha, 1.0 / config.beta)
        draws_per_time = []
        prev = times[0]
        for t, c in zip(times, cards):
            if t > prev:
                z = np.array(
                    [
                        oracles.simulate_cir(alpha[j], config.beta, z[j], t - prev, rng)
                        for j in range(len(alpha))
                    ]
                )
                prev = t
            draws = tuple(MultiIndex(rng.poisson(z)) for _ in range(c))
            draws_per_time.append(draws)
        timeline = ObservationTimeline(
            tuple(times), registry, dw_draws=tuple(draws_per_time)
        )
    text = serialize_timeline(timeline)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    sys.stdout.write(f"wrote {args.out}\n")
    return 0


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    if args.suite == "duality":
        reports = oracles.run_duality_suite(
            config.seed, kappa=config.dw_rate_constant
        )
        extra = []
    elif args.suite == "particle":
        reports = oracles.run_particle_suite(
            config.seed, kappa=config.dw_rate_constant
        )
        extra = []
    else:
        reports, calib = oracles.run_dual_rates_suite(config.seed)
        extra = [f"selected_rate_constant {format_float(calib.selected)}"] + [
            f"candidate_error kappa={format_float(k)} {format_float(v)}"
            for k, v in sorted(calib.errors.items())
        ]
    lines = [f"suite {args.suite}", f"n_checks {len(reports)}"]
    lines.extend(extra)
    failed = 0
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        failed += 0 if rep.passed else 1
        lines.append(
            f"check {rep.name} exact {format_float(rep.exact)} "
            f"oracle {format_float(rep.oracle)} se {format_float(rep.se)} "
            f"z {format_float(rep.z)} {status}"
        )
    lines.append(f"failures {failed}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvhmm",
        description="Exact filtering, smoothing and prediction for "
        "measure-valued hidden Markov models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="flat key-value config file")
        p.add_argument("--data", required=True, help="timeline data file")
        p.add_argument("--at", type=int, required=True, help="collection time index")

    p = sub.add_parser("filter", help="filtering law at a collection time")
    add_common(p)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("smooth", help="smoothing law at a collection time")
    add_common(p)
    p.set_defaults(func=_cmd_smooth)

    p = sub.add_parser("predict", help="predictive law for further samples")
    add_common(p)
    p.add_argument("--samples", type=int, default=0, help="number of samples to draw")
    p.add_argument("--pmf", action="store_true", help="print the analytic pmf")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("simulate", help="generate synthetic data")
    p.add_argument("--config", required=True)
    p.add_argument("--times", required=True, help="comma-separated collection times")
    p.add_argument("--out", required=True, help="output data file")
    p.add_argument("--counts", help="fv: comma-separated sample sizes per time")
    p.add_argument("--cards", help="dw: comma-separated cardinalities per time")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", help="run an oracle validation suite")
    p.add_argument("--config", required=True)
    p.add_argument(
        "--suite",
        required=True,
        choices=("duality", "particle", "dual-rates"),
    )
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MvhmmError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
