"""Digest of the engine's floats, for refactors that must not change a bit.

Usage (from the root of a checkout, the engine under test on the path):

    PYTHONPATH=src python tests/engine_digest.py dump OUT.npz
    PYTHONPATH=src python tests/engine_digest.py compare A.npz B.npz

``dump`` writes the forward, backward and posterior filter laws at every
index, and the smoothing laws at pruning epsilon 0, 1e-4 and 1e-3 with their
pair log-weights and component counts, of these datasets:

- 400 random datasets of the acceptance normalization criterion's generator
  (``helpers.random_dataset``, both models and both base kinds);
- fv T=8 K=3 with multinomial(3) counts per time, times 0.3 apart, and dw
  T=6 K=3 with two Poisson(1)-per-type draws per time, times 0.4 apart,
  beta 1, each under a uniform discrete base with theta 2 and a nonatomic
  one;
- both models with gaps of 1e-12, 50 and 200 between their times;

plus dw propagations of positional laws whose exponents span many exponent
bands, one with a zero-weight row.  An operation that raises is recorded
by its error class.  ``compare`` prints how many entries are identical to
the bit and how many differ, the entries whose index rows (supports)
differ, and the largest relative deviation of a log-weight,
|x - y| / max(1, |y|).  It exits 1 when any entry differs.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from helpers import random_dataset
from mvhmm.core import (
    BaseMeasure,
    GammaMixtureLaw,
    MultiIndex,
    ObservationTimeline,
    TypeRegistry,
)
from mvhmm.dw import (
    filter_backward_dw,
    filter_forward_dw,
    filter_posterior_dw,
    propagate_dw,
    smooth_dw,
)
from mvhmm.errors import MvhmmError
from mvhmm.fv import filter_backward, filter_forward, filter_posterior, smooth

EPSILONS = (0.0, 1e-4, 1e-3)


def _law_arrays(law) -> dict[str, np.ndarray]:
    log_weights, rows = law._arrays
    out = {"w": log_weights, "rows": rows}
    if isinstance(law, GammaMixtureLaw):
        out["offset"] = np.array(law.rate_offset)
    return out


def _pair_arrays(result) -> dict[str, np.ndarray]:
    pairs = result.pair_log_weights
    keys = [k.counts + kp.counts for k, kp in pairs]
    return {
        "pair_w": np.array(list(pairs.values()), dtype=float),
        "pair_rows": np.array(keys, dtype=np.int64).reshape(len(keys), -1),
        "count": np.array(result.component_count),
    }


def _record(out: dict, name: str, make) -> None:
    """``make()``'s arrays under ``name``, or the class of what it raised."""
    try:
        arrays = make()
    except MvhmmError as exc:
        arrays = {"error": np.array(type(exc).__name__)}
    for key, value in arrays.items():
        out[f"{name}|{key}"] = value


def _dataset(out: dict, name: str, timeline, base, beta=None) -> None:
    if timeline.mode == "fv":
        filters = (filter_forward, filter_backward, filter_posterior)
        smoother = smooth
        args = (base,)
    else:
        filters = (filter_forward_dw, filter_backward_dw, filter_posterior_dw)
        args = (base, beta)

        def smoother(tl, i, base, eps):
            return smooth_dw(tl, i, base, beta, eps)

    for i in range(timeline.n_times):
        for label, fn in zip(("forward", "backward", "posterior"), filters):
            _record(
                out, f"{name}/{label}{i}", lambda: _law_arrays(fn(timeline, i, *args))
            )
        for eps in EPSILONS:

            def smoothed():
                result = smoother(timeline, i, base, eps)
                return {**_law_arrays(result.law), **_pair_arrays(result)}

            _record(out, f"{name}/smooth{i}-eps{eps:g}", smoothed)


def _bases(labels) -> dict[str, BaseMeasure]:
    atoms = {lab: 1.0 / len(labels) for lab in labels}
    return {"discrete": BaseMeasure(2.0, atoms), "nonatomic": BaseMeasure(2.0)}


def _fv_timeline(times, counts, labels) -> ObservationTimeline:
    registry = TypeRegistry(tuple(labels))
    return ObservationTimeline(
        tuple(float(t) for t in times), registry, tuple(map(MultiIndex, counts))
    )


def _dw_timeline(times, draws, labels) -> ObservationTimeline:
    registry = TypeRegistry(tuple(labels))
    draws = tuple(tuple(map(MultiIndex, block)) for block in draws)
    return ObservationTimeline(tuple(float(t) for t in times), registry, dw_draws=draws)


def _banded_thinning(out: dict) -> None:
    """dw propagations whose exponents x = log w + |m| log(1 - q) span many
    bands of 300 nats."""
    registry = TypeRegistry(("a", "b"))
    prior = GammaMixtureLaw.prior(BaseMeasure(2.0), registry, 1.0)
    rng = np.random.default_rng(5)
    rows = np.unique(rng.integers(0, 9, (30, 2)), axis=0)
    wide = rng.normal(0.0, 3.0, len(rows)) + rng.choice(
        [0.0, -700.0, -1500.0, -3100.0], len(rows)
    )
    flat = rng.normal(0.0, 1.0, len(rows))
    long_rows = np.stack([np.arange(20), np.arange(20)[::-1]], axis=1)
    for label, lw, idx in (
        ("wide", wide, rows),
        ("flat", flat, rows),
        ("long", rng.normal(0.0, 1.0, 20), long_rows),
    ):
        _thin(out, f"thin/{label}", prior._built(lw, idx), (0.7, 1e-3, 1e-6, 1e-12))
    comps = [(math.log(0.5), MultiIndex((3, 1))), (-math.inf, MultiIndex((2, 2)))]
    comps.append((math.log(0.5), MultiIndex((14, 12))))
    zero = GammaMixtureLaw(tuple(comps), BaseMeasure(2.0), registry, 1.0)
    _thin(out, "thin/zero-row", zero, (0.7, 1e-12))
    # past the Pascal contraction's float range: thinned in the log domain
    one_type = GammaMixtureLaw.prior(BaseMeasure(2.0), TypeRegistry(("a",)), 1.0)
    far = one_type._built(np.log([0.25, 0.75]), np.array([[3], [1030]]))
    _thin(out, "thin/log-domain", far, (0.3,))


def _thin(out: dict, name: str, law, dts) -> None:
    for dt in dts:
        _record(out, f"{name}-dt{dt:g}", lambda: _law_arrays(propagate_dw(law, dt)))


def dump(path: str) -> None:
    out: dict[str, np.ndarray] = {}
    rng = np.random.default_rng(20240801)
    for trial in range(400):
        mode = "fv" if trial % 2 == 0 else "dw"
        kind = "discrete" if (trial // 2) % 2 == 0 else "nonatomic"
        timeline, base, beta = random_dataset(rng, mode, kind)
        _dataset(out, f"c02-{trial:03d}-{mode}-{kind}", timeline, base, beta)
    labels = ("a", "b", "c")
    fv_counts = np.random.default_rng(0).multinomial(3, np.full(3, 1 / 3), size=8)
    draw_rng = np.random.default_rng(1)
    dw_draws = [draw_rng.poisson(1.0, (2, 3)).tolist() for _ in range(6)]
    gap_times = (0.0, 1e-12, 50.0, 250.0)
    gap_counts = ((1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1))
    gap_draws = [
        ((1, 0, 0), (0, 1, 1)),
        ((1, 1, 0),),
        ((0, 0, 2), (1, 0, 0)),
        ((1, 1, 1),),
    ]
    timelines = {
        "fv-T8K3": _fv_timeline(np.arange(8) * 0.3, fv_counts.tolist(), labels),
        "dw-T6K3": _dw_timeline(np.arange(6) * 0.4, dw_draws, labels),
        "fv-gaps": _fv_timeline(gap_times, gap_counts, labels),
        "dw-gaps": _dw_timeline(gap_times, gap_draws, labels),
    }
    for kind, base in _bases(labels).items():
        for name, timeline in timelines.items():
            _dataset(out, f"{name}-{kind}", timeline, base, 1.0)
    _banded_thinning(out)
    np.savez_compressed(path, **out)
    print(f"{len({key.split('|')[0] for key in out})} entries written to {path}")


def _entries(path: str) -> dict[str, dict[str, np.ndarray]]:
    entries: dict[str, dict[str, np.ndarray]] = {}
    with np.load(path) as data:
        for key in data.files:
            name, field = key.split("|")
            entries.setdefault(name, {})[field] = data[key]
    return entries


def compare(path_a: str, path_b: str) -> int:
    a, b = _entries(path_a), _entries(path_b)
    only_a, only_b = sorted(a.keys() - b.keys()), sorted(b.keys() - a.keys())
    same, differ, supports, worst = 0, [], [], 0.0
    for name in sorted(a.keys() & b.keys()):
        x, y = a[name], b[name]
        if x.keys() == y.keys() and all(
            x[f].dtype == y[f].dtype and x[f].tobytes() == y[f].tobytes() for f in x
        ):
            same += 1
            continue
        differ.append(name)
        for weights, rows in (("w", "rows"), ("pair_w", "pair_rows")):
            if weights not in x or weights not in y:
                continue
            if not np.array_equal(x[rows], y[rows]):
                supports.append(f"{name}|{rows}")
            elif len(x[weights]):
                gap = np.abs(x[weights] - y[weights])
                dev = gap / np.maximum(1.0, np.abs(y[weights]))
                worst = max(worst, float(np.nanmax(dev)))
    print(f"identical {same}, differing {len(differ)}")
    print(f"only in A {len(only_a)}, only in B {len(only_b)}")
    print(f"support differences {len(supports)}")
    print(f"largest relative deviation {worst:.3g}")
    for name in differ[:20] + supports[:20] + only_a[:5] + only_b[:5]:
        print("  ", name)
    return 1 if differ or only_a or only_b else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
