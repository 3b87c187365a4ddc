"""The array kernels against the scalar reference engine in helpers.py.

Lattice spread, pair combination and component merge run as array kernels;
their filter laws, smoothing laws and pair log-weights must equal those of
the per-lattice-point, per-pair and per-component loops to the bit (keys,
order and values), not merely to a tolerance.
"""

import math

import numpy as np
import pytest

from helpers import (
    random_dataset,
    reference_filter,
    reference_propagate,
    reference_smooth,
)
from mvhmm.core import (
    BaseMeasure,
    DirichletMixtureLaw,
    MultiIndex,
    TypeRegistry,
    _row_codes,
)
from mvhmm.dual import FvDualSpec, fv_totals_transition, fv_typed_log_prob
from mvhmm.dw import filter_backward_dw, filter_forward_dw, smooth_dw
from mvhmm.fv import filter_backward, filter_forward, propagate_forward, smooth


def _criterion_02_datasets(mode, kind):
    """The datasets of acceptance criterion 02 of one mode and base kind."""
    rng = np.random.default_rng(20240801)
    for trial in range(200):
        trial_mode = "fv" if trial % 2 == 0 else "dw"
        trial_kind = "discrete" if (trial // 2) % 2 == 0 else "nonatomic"
        dataset = random_dataset(rng, trial_mode, trial_kind)
        if (trial_mode, trial_kind) == (mode, kind):
            yield dataset


def _filters(timeline, i, base, beta):
    if beta is None:
        return filter_forward(timeline, i, base), filter_backward(timeline, i, base)
    return (
        filter_forward_dw(timeline, i, base, beta),
        filter_backward_dw(timeline, i, base, beta),
    )


def _smooth(timeline, i, base, beta, pruning_epsilon):
    if beta is None:
        return smooth(timeline, i, base, pruning_epsilon)
    return smooth_dw(timeline, i, base, beta, pruning_epsilon)


@pytest.mark.parametrize("kind", ["discrete", "nonatomic"])
@pytest.mark.parametrize("mode", ["fv", "dw"])
def test_kernels_equal_scalar_loops(mode, kind):
    for timeline, base, beta in _criterion_02_datasets(mode, kind):
        for i in range(timeline.n_times):
            for backward, law in enumerate(_filters(timeline, i, base, beta)):
                ref = reference_filter(timeline, i, base, beta, bool(backward))
                assert law.components == ref.components
                assert getattr(law, "rate_offset", None) == getattr(
                    ref, "rate_offset", None
                )
            for pruning_epsilon in (0.0, 1e-4):
                result = _smooth(timeline, i, base, beta, pruning_epsilon)
                pairs, ref_law = reference_smooth(
                    timeline, i, base, pruning_epsilon, beta
                )
                assert list(result.pair_log_weights.items()) == list(pairs.items())
                assert result.component_count == len(pairs)
                assert result.law.components == ref_law.components
                assert getattr(result.law, "rate_offset", None) == getattr(
                    ref_law, "rate_offset", None
                )


def test_long_gap_propagation_drops_underflowed_moves():
    """Over a long gap some totals-table entries lie below the double range
    (staying at total 8 has probability e^{-36*25} = e^-900) and are exactly
    0; the moves to those totals drop, as they did one lattice point at a
    time."""
    theta, dt = 2.0, 25.0
    assert np.any(fv_totals_transition(theta, 8, dt).probs == 0.0)
    registry = TypeRegistry(("a", "b"))
    law = DirichletMixtureLaw.from_components(
        [
            (math.log(0.6), MultiIndex((5, 3))),
            (math.log(0.3), MultiIndex((2, 6))),
            (math.log(0.1), MultiIndex((1, 1))),
        ],
        BaseMeasure(theta),
        registry,
    )
    spec = FvDualSpec(theta)
    assert any(
        fv_typed_log_prob(spec, m, k, dt) == -math.inf
        for _, m in law.components
        for k in m.lattice_below()
    )
    ref = reference_propagate(law, dt)
    assert propagate_forward(law, dt).components == ref.components


def test_row_codes_order_rows_lexicographically():
    rng = np.random.default_rng(11)
    rows = rng.integers(0, 4, size=(200, 3))
    huge = np.array([[2**40, 3, 2**40], [2**40, 2, 2**41], [1, 2**41, 0]] * 2)
    for matrix in (rows, huge, np.zeros((5, 0), dtype=np.int64)):
        codes = _row_codes(matrix)
        keys = [tuple(r) for r in matrix.tolist()]
        for p in range(len(keys)):
            for q in range(len(keys)):
                assert (codes[p] < codes[q]) == (keys[p] < keys[q])
                assert (codes[p] == codes[q]) == (keys[p] == keys[q])


def test_pair_log_weights_built_on_first_access():
    rng = np.random.default_rng(3)
    timeline, base, _ = random_dataset(rng, "fv", "discrete")
    result = smooth(timeline, 0, base)
    assert "pair_log_weights" not in vars(result)
    pairs = result.pair_log_weights
    assert result.pair_log_weights is pairs
    assert len(pairs) == result.component_count


def test_pruning_threshold_is_math_exp():
    """np.exp and math.exp differ in the last bit on some inputs; a pair
    weight sitting exactly on the threshold is kept or dropped as math.exp
    decides.  The first criterion-02 dataset with such a weight at index 0
    is used."""
    timeline, base, lw = next(
        (timeline, base, lw)
        for timeline, base, _ in _criterion_02_datasets("fv", "discrete")
        for lw in smooth(timeline, 0, base)._pairs.log_weights.tolist()
        if np.exp(lw) != math.exp(lw)
    )
    epsilon = max(math.exp(lw), float(np.exp(lw)))
    pairs, ref_law = reference_smooth(timeline, 0, base, epsilon)
    pruned = smooth(timeline, 0, base, epsilon)
    assert list(pruned.pair_log_weights.items()) == list(pairs.items())
    assert pruned.law.components == ref_law.components
