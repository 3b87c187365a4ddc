"""The array kernels against the scalar reference engine in helpers.py.

Component merge and the predictive urn mixture run as array kernels; the
predictive pmfs must equal those of the per-component and per-label loops
to the bit (keys, order and values), not merely to a tolerance.
Propagation of both models (fv's one-death recursion and dw's per-axis
contractions, each on a dense box) and the pair combination (one lattice
convolution) add in another order: filter laws, smoothing laws and pair
log-weights must list the same keys in the same order as the
per-lattice-point and per-pair loops, with log-weights within 1e-13
relative (helpers.assert_law_close), and agree with 50-digit arithmetic.
The unpruned pair combination folds in the linear domain when the weights
span less than 300 nats; it must list the cells of the log-domain loop with
log-weights within 1e-13 relative, and pruning must keep exactly the pairs
that math.exp keeps.

The merge is a scatter fold; it must give the floats of the stable sort
and segmented reduce of helpers.py to the bit, on index-row codes, sparse
codes and codes of rows that overflow.  An update merges a law of the
positional constructor once, giving the bits of the update of its merge.

The filter laws kept per timeline must give the same bits as a fresh
timeline, in any visiting order and across model parameters, under
concurrent callers, and must die with their timeline.
"""

import dataclasses
import functools
import gc
import itertools
import math
import os
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

from helpers import (
    assert_law_close,
    nonatomic_log_coefficient,
    random_dataset,
    sharing_degree,
    reference_case_log,
    reference_filter,
    reference_merge,
    reference_predictive_pmf,
    reference_propagate,
    reference_smooth,
    reference_sort_fold,
)
from mvhmm import dw, fv
from mvhmm.core import (
    BaseMeasure,
    DirichletMixtureLaw,
    GammaMixtureLaw,
    MultiIndex,
    ObservationTimeline,
    TypeRegistry,
    _at_least,
    _merged,
    _row_codes,
)
from mvhmm.dual import (
    DEFAULT_DW_RATE_CONSTANT,
    DwDualSpec,
    FvDualSpec,
    dw_survival_prob,
    fv_totals_transition,
    fv_typed_log_prob,
)
from mvhmm.dw import (
    filter_backward_dw,
    filter_forward_dw,
    filter_posterior_dw,
    predictive_label_pmf,
    propagate_dw,
    smooth_dw,
)
from mvhmm.errors import AllWeightsZero
from mvhmm.fv import (
    NEW_LABEL,
    filter_backward,
    filter_forward,
    filter_posterior,
    predictive_pmf,
    propagate_forward,
    smooth,
)


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
                assert_law_close(law, ref)
            for pruning_epsilon in (0.0, 1e-4):
                result = _smooth(timeline, i, base, beta, pruning_epsilon)
                pairs, ref_law = reference_smooth(
                    timeline, i, base, pruning_epsilon, beta
                )
                assert_law_close(result.pair_log_weights, pairs)
                assert result.component_count == len(pairs)
                assert_law_close(result.law, ref_law)


def _with_idle_atom(base):
    """``base`` with half its mass off the observed atoms moved to an atom
    "z" that no dataset shows; a nonatomic base is returned as it is."""
    if base.is_nonatomic:
        return base
    return BaseMeasure(base.theta, {**base.atom_probs, "z": base.unseen_mass / 2})


def _outcome(fn, *args):
    """The items of the pmf ``fn(*args)``, or AllWeightsZero if it raises that."""
    try:
        return list(fn(*args).items())
    except AllWeightsZero:
        return AllWeightsZero


@pytest.mark.parametrize("kind", ["discrete", "nonatomic"])
@pytest.mark.parametrize("mode", ["fv", "dw"])
def test_predictive_pmfs_equal_scalar_loops(mode, kind):
    # "z" is an idle atom under the discrete base and a new label under the
    # nonatomic one; a label no component carries makes a history impossible
    for timeline, base, beta in _criterion_02_datasets(mode, kind):
        base = _with_idle_atom(base)
        first, last = timeline.registry.labels[0], timeline.registry.labels[-1]
        histories = ((), (first,), (last, "z", last), (f"{NEW_LABEL}1", first))
        for i in range(timeline.n_times):
            law = _smooth(timeline, i, base, beta, 0.0).law
            for history in histories:
                if beta is None:
                    pmf = _outcome(predictive_pmf, law, history)
                    assert pmf == _outcome(reference_predictive_pmf, law, history)
                    continue
                for m_count in (None, 1, 3):
                    pmf = _outcome(predictive_label_pmf, law, history, m_count)
                    ref = _outcome(reference_predictive_pmf, law, history, m_count)
                    assert pmf == ref


def test_long_gap_propagation_drops_underflowed_moves():
    """Over a long gap some totals-table entries lie below the double range
    (staying at total 8 has probability e^{-36*25} = e^-900) and are exactly
    0; the moves to those totals drop, as they do one lattice point at a
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
    assert_law_close(propagate_forward(law, dt), reference_propagate(law, dt))


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


def _assert_folds_as_sort(log_weights, codes):
    """_merged gives the floats of the reference fold, bit for bit, in code
    order, with one member of each group; returns those members."""
    folded, where = _merged(log_weights, codes)
    ref, first = reference_sort_fold(log_weights, codes)
    assert folded.tobytes() == ref.tobytes()
    assert codes[where].tolist() == codes[first].tolist()
    return where, first


def test_scatter_fold_equals_sort_fold():
    rng = np.random.default_rng(5)
    for size, distinct in ((1, 1), (7, 3), (500, 40), (5000, 4000)):
        codes = rng.integers(0, distinct, size)
        log_weights = rng.normal(-3.0, 4.0, size)
        log_weights[rng.random(size) < 0.05] = 0.0
        log_weights[rng.random(size) < 0.05] = -0.0
        _assert_folds_as_sort(log_weights, codes)


def test_scatter_fold_skips_minus_inf_members():
    rng = np.random.default_rng(6)
    codes = rng.integers(0, 30, 400)
    log_weights = rng.normal(-3.0, 4.0, 400)
    log_weights[rng.random(400) < 0.3] = -math.inf
    heads = [np.flatnonzero(codes == c)[0] for c in np.unique(codes)]
    log_weights[heads[::2]] = -math.inf  # -inf leads every other group
    log_weights[codes == codes[heads[1]]] = -math.inf  # and fills one
    folded, _ = _assert_folds_as_sort(log_weights, codes)
    assert len(folded) == len(heads) - 1
    inf = -math.inf
    for weights, group_codes in (
        ([inf, -0.0], [0, 0]),
        ([-0.0, inf, inf], [2, 2, 2]),
        ([-0.0, -0.0], [1, 1]),
        ([inf, -0.0, -3.0], [4, 4, 4]),
        ([inf, inf, 1.0], [3, 3, 1]),
        ([inf], [0]),
        ([], []),
    ):
        codes = np.array(group_codes, dtype=np.int64)
        _assert_folds_as_sort(np.array(weights, dtype=float), codes)


def test_scatter_fold_ranks_sparse_codes():
    rng = np.random.default_rng(7)
    pool = rng.integers(0, 2**61, 50)
    codes = pool[rng.integers(0, 50, 600)]
    _assert_folds_as_sort(rng.normal(-3.0, 4.0, 600), codes)


def test_scatter_fold_of_overflowing_rows():
    # the rows of test_row_codes_order_rows_lexicographically, re-ranked
    # while coded
    huge = np.array([[2**40, 3, 2**40], [2**40, 2, 2**41], [1, 2**41, 0]] * 2)
    log_weights = np.array([-1.0, -2.0, -0.0, -3.0, -math.inf, 0.5])
    where, first = _assert_folds_as_sort(log_weights, _row_codes(huge))
    assert huge[where].tolist() == huge[first].tolist()


def test_lone_minus_zero_weight_keeps_its_sign():
    law = DirichletMixtureLaw.from_components(
        [(-0.0, MultiIndex((1,)))],
        BaseMeasure(1.0),
        TypeRegistry(("a",)),
        normalize=False,
    )
    assert law._arrays[0].tobytes() == np.array([-0.0]).tobytes()


def test_pair_log_weights_built_on_first_access():
    rng = np.random.default_rng(3)
    timeline, base, _ = random_dataset(rng, "fv", "discrete")
    result = smooth(timeline, 0, base)
    assert "pair_log_weights" not in vars(result)
    pairs = result.pair_log_weights
    assert result.pair_log_weights is pairs
    assert len(pairs) == result.component_count


def _crossing(epsilon):
    """The smallest double tau with math.exp(tau) >= epsilon, by bisection
    over the doubles around log(epsilon)."""
    lo, hi = math.log(epsilon) - 1e-3, math.log(epsilon) + 1e-3
    assert math.exp(lo) < epsilon <= math.exp(hi)
    while math.nextafter(lo, math.inf) < hi:
        mid = lo + (hi - lo) / 2.0
        lo, hi = (lo, mid) if math.exp(mid) >= epsilon else (mid, hi)
    return hi


def test_threshold_mask_equals_math_exp_mask():
    """core._at_least compares log-weights with math.log(epsilon) and asks
    math.exp only near it; the mask must be math.exp's on random values
    within a nat of log epsilon, on a fine grid around it, on every double
    within 50 ulp of where math.exp crosses epsilon, and on infinities and
    NaN.  Near 1 and for subnormal epsilon the crossing lies many ulp of
    log epsilon away from it."""
    rng = np.random.default_rng(21)
    for epsilon in (1e-3, 1e-4, 1e-6, 1e-9, 3.7e-7, 0.5, 1.0 - 1e-12, 1e-320):
        log_eps, tau = math.log(epsilon), _crossing(epsilon)
        near = [tau]
        for direction in (-math.inf, math.inf):
            x = tau
            for _ in range(50):
                x = math.nextafter(x, direction)
                near.append(x)
        width = 1e-13 * max(1.0, abs(log_eps)) + 16.0 * abs(tau - log_eps)
        logs = np.concatenate(
            [
                rng.uniform(log_eps - 1.0, log_eps + 1.0, 100_000),
                np.linspace(log_eps - width, log_eps + width, 10_001),
                near,
                [-math.inf, math.inf, math.nan, 0.0],
            ]
        )
        expected = [math.exp(lw) >= epsilon for lw in logs.tolist()]
        assert _at_least(logs, epsilon).tolist() == expected


def test_pruning_threshold_is_math_exp():
    """np.exp and math.exp differ in the last bit on some inputs; a pair
    weight sitting exactly on the threshold is kept or dropped as math.exp
    decides.  The first criterion-02 dataset with such a pair weight of the
    engine at index 0 is used: the pruned pairs are those of the unpruned
    result that math.exp keeps, renormalized, and the law is their merge.
    (The scalar reference's pair weights may differ from the engine's in the
    last bit, so at this threshold it may keep other pairs.)"""
    timeline, base, lw = next(
        (timeline, base, lw)
        for timeline, base, _ in _criterion_02_datasets("fv", "discrete")
        for lw in smooth(timeline, 0, base).pair_log_weights.values()
        if np.exp(lw) != math.exp(lw)
    )
    epsilon = max(math.exp(lw), float(np.exp(lw)))
    pairs = smooth(timeline, 0, base).pair_log_weights
    kept = {pair: w for pair, w in pairs.items() if math.exp(w) >= epsilon}
    assert 0 < len(kept) < len(pairs)
    assert any(w == lw for w in kept.values()) == (math.exp(lw) >= epsilon)
    shift = math.log(math.fsum(math.exp(w) for w in kept.values()))
    pruned = smooth(timeline, 0, base, epsilon)
    assert pruned.component_count == len(kept)
    assert_law_close(
        pruned.pair_log_weights, {pair: w - shift for pair, w in kept.items()}
    )
    n_now = timeline.fv_counts[0]
    merged = reference_merge(
        [(w - shift, k + n_now + kp) for (k, kp), w in kept.items()]
    )
    assert_law_close(pruned.law, dataclasses.replace(pruned.law, components=merged))


def _assert_fold_is_log_loop(u, a, v, b):
    """fv._pair_fold against the log-domain loop on the same pairs: the
    same pair count, the same finite cells, log-weights within 1e-13 *
    max(1, |x|)."""
    f = np.zeros(tuple((a.max(axis=0) + b.max(axis=0) + 1).tolist()))
    got, count = fv._pair_fold(u, a, v, b, f)
    shorter_first = (u, a, v, b) if len(a) <= len(b) else (v, b, u, a)
    want, want_count = fv._log_fold(*shorter_first, f)
    assert count == want_count == len(a) * len(b)
    finite = want != -math.inf
    assert np.array_equal(got != -math.inf, finite)
    x, y = got[finite], want[finite]
    assert np.all(np.abs(x - y) <= 1e-13 * np.maximum(1.0, np.abs(y)))


def _random_law(rng, k, side, size, scale=3.0):
    """Log-weights and distinct index rows of a random law: ``size`` rows
    drawn from the box of ``side`` per type."""
    rows = np.unique(rng.integers(0, side, (size, k)), axis=0)
    return rng.normal(0.0, scale, len(rows)), rows


@pytest.fixture
def fold_paths(monkeypatch):
    """Counts of the calls of the linear and the log-domain fold."""
    calls = {"linear": 0, "log": 0}
    for name, key in (("_linear_fold", "linear"), ("_log_fold", "log")):

        def counted(*args, _fn=getattr(fv, name), _key=key):
            calls[_key] += 1
            return _fn(*args)

        monkeypatch.setattr(fv, name, counted)
    return calls


def test_linear_fold_on_sparse_boxes(fold_paths):
    """Random laws over one to three types whose boxes hold leading rows
    with no component, single-component laws, and laws of one type (no
    leading axis)."""
    rng = np.random.default_rng(12)
    for trial in range(60):
        k = 1 + trial % 3
        u, a = _random_law(rng, k, int(rng.integers(2, 8)), int(rng.integers(1, 12)))
        v, b = _random_law(rng, k, int(rng.integers(2, 8)), int(rng.integers(1, 30)))
        if trial % 4 == 0:
            u, a = u[:1], a[:1]
        _assert_fold_is_log_loop(u, a, v, b)
    assert fold_paths["log"] == 60 and fold_paths["linear"] == 60


def test_linear_fold_on_sliced_laws():
    """Nonatomic slices of laws that fill their box keep only rows with a
    positive count of every shared type, so their rows do not fill the box
    of the slice."""
    rng = np.random.default_rng(13)
    for _ in range(20):
        sides = rng.integers(1, 6, (2, 3))
        a, b = (np.indices(tuple(s)).reshape(3, -1).T for s in sides)
        u, v = rng.normal(0.0, 3.0, len(a)), rng.normal(0.0, 3.0, len(b))
        n = rng.integers(0, 2, 3)
        (u, a), (v, b) = fv._sliced(u, a, b, n), fv._sliced(v, b, a, n)
        if len(a) and len(b):
            _assert_fold_is_log_loop(u, a, v, b)


def test_linear_fold_up_to_the_span_bound(fold_paths):
    """Log-weights spanning just under _SPAN (300 nats) on both sides fold
    in the linear domain: the lightest pairs weigh about e^-600 of the
    heaviest and keep their relative accuracy."""
    rng = np.random.default_rng(14)
    u, a = _random_law(rng, 2, 7, 40)
    v, b = _random_law(rng, 2, 6, 40)
    u = u + rng.choice([0.0, -290.0], len(u))
    v = v + rng.choice([0.0, -290.0], len(v))
    assert 290.0 < min(np.ptp(u), np.ptp(v)) and max(np.ptp(u), np.ptp(v)) < 300.0
    _assert_fold_is_log_loop(u, a, v, b)
    assert fold_paths["linear"] == 1


def test_wide_span_fold_runs_in_the_log_domain(fold_paths):
    """A side whose log-weights span _SPAN nats or more (here more than
    3 000) could underflow in the linear domain: the fold runs by the
    log-domain loop, whichever side is the wide one."""
    rng = np.random.default_rng(16)
    u, a = _random_law(rng, 2, 7, 40)
    v, b = _random_law(rng, 2, 5, 10)
    wide = u + rng.choice([0.0, -1000.0, -3100.0], len(u))
    assert np.ptp(wide) > 3000.0
    _assert_fold_is_log_loop(wide, a, v, b)
    _assert_fold_is_log_loop(u, a, v + 300.0 * (np.arange(len(v)) % 2), b)
    assert fold_paths["linear"] == 0 and fold_paths["log"] == 4


# One fold of a (3, 3, 30) box into a (30, 30, 30) box: each row product
# multiplies 900 x 30 rows by a 30 x 59 Toeplitz matrix, 1.6e6 multiply-adds,
# past the size (2.6e5) below which OpenBLAS runs a product on one thread.
# Then one dw propagation of a law filling a (40, 40, 40) box: each axis is
# one product of 1 600 x 40 rows by a 40 x 40 Pascal matrix, 2.6e6
# multiply-adds.
_THREADED_FOLD = """
import hashlib, sys
import numpy as np
from mvhmm import fv
from mvhmm.core import BaseMeasure, GammaMixtureLaw, TypeRegistry
from mvhmm.dw import propagate_dw
rng = np.random.default_rng(17)
a, b = (np.indices(s).reshape(3, -1).T for s in ((3, 3, 30), (30, 30, 30)))
u, v = rng.normal(0.0, 3.0, len(a)), rng.normal(0.0, 3.0, len(b))
f = np.zeros((32, 32, 59))
out, count = fv._pair_fold(u, a, v, b, f)
assert count == len(a) * len(b)
rows = np.indices((40, 40, 40)).reshape(3, -1).T
prior = GammaMixtureLaw.prior(BaseMeasure(2.0), TypeRegistry(("a", "b", "c")), 1.0)
law = propagate_dw(prior._built(rng.normal(0.0, 3.0, len(rows)), rows), 0.3)
assert len(law) == len(rows)
digest = hashlib.sha256(out.tobytes() + law._arrays[0].tobytes())
sys.stdout.write(digest.hexdigest())
"""


def test_linear_fold_bytes_do_not_depend_on_blas_threads():
    """The linear fold and dw propagation multiply matrices through numpy's
    BLAS, whose thread pools are sized by these variables: a fold and a
    propagation large enough to thread, run in a fresh interpreter with one
    thread and then two, give the same bytes."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MVHMM_")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(fv.__file__))
    digests = []
    for threads in ("1", "2"):
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = threads
        run = subprocess.run(
            [sys.executable, "-c", _THREADED_FOLD],
            env=env,
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        digests.append(run.stdout)
    assert len(digests[0]) == 64 and digests[0] == digests[1]


@pytest.mark.parametrize("mode", ["fv", "dw"])
def test_case_ratio_matches_pochhammer_form(mode):
    """Under a nonatomic base the case term, a ratio of prior observation
    scores, is nonatomic_log_coefficient (the paper's Pochhammer form) on
    every pair of propagated filter components of the criterion-02
    datasets."""
    for timeline, base, beta in _criterion_02_datasets(mode, "nonatomic"):
        alpha_vec = base.alpha_vector(timeline.registry)
        for i in range(timeline.n_times):
            n_now = timeline.counts_at(i)
            first, second = _filters(timeline, i, base, beta)
            for (_, k), (_, kp) in itertools.product(
                first.components, second.components
            ):
                x = reference_case_log(k, n_now, kp, base, alpha_vec)
                y = nonatomic_log_coefficient(k, n_now, kp, base.theta)
                assert abs(x - y) <= 1e-13 * max(1.0, abs(y))


def test_case_forms_against_mpmath():
    """Both forms of the nonatomic case term against 50-digit arithmetic,
    two types with counts up to 40 in each block."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    counts = (0, 1, 6, 40)
    rows = [MultiIndex(r) for r in itertools.product(counts, repeat=2)]
    for theta in (0.3, 2.0, 7.5):
        base = BaseMeasure(theta)
        lgamma = functools.lru_cache(maxsize=None)(
            lambda v: mp.loggamma(mp.mpf(v))
        )
        lgamma_theta = functools.lru_cache(maxsize=None)(
            lambda v: mp.loggamma(mp.mpf(theta) + v)
        )
        for k, n, kp in itertools.product(rows, repeat=3):
            s = k + n + kp
            exact = (
                lgamma_theta(k.total)
                + lgamma_theta(kp.total)
                + lgamma_theta(n.total)
                - lgamma_theta(s.total)
                - 2 * lgamma_theta(0)
            )
            for parts, sign in ((s, 1), (k, -1), (n, -1), (kp, -1)):
                for v in parts:
                    if v > 0:
                        exact += sign * lgamma(v)
            exact = float(exact)
            bound = 1e-12 * max(1.0, abs(exact))
            assert abs(reference_case_log(k, n, kp, base, (0.0, 0.0)) - exact) <= bound
            assert abs(nonatomic_log_coefficient(k, n, kp, theta) - exact) <= bound


@pytest.mark.parametrize("kind", ["discrete", "nonatomic"])
@pytest.mark.parametrize("mode", ["fv", "dw"])
def test_update_of_positional_law_equals_update_of_its_merge(mode, kind):
    """The positional constructor keeps rows out of order and repeated; an
    update merges such a law once, as from_components does, so it gives the
    bits of the update of the merged law."""
    registry = TypeRegistry(("a", "b"))
    atoms = {"a": 0.3, "b": 0.5} if kind == "discrete" else None
    base = BaseMeasure(1.5, atoms)
    comps = [
        (math.log(0.2), MultiIndex((2, 1))),
        (math.log(0.5), MultiIndex((0, 3))),
        (math.log(0.3), MultiIndex((2, 1))),
    ]
    n = MultiIndex((1, 2))
    if mode == "fv":
        given = DirichletMixtureLaw(comps, base, registry)
        merged = DirichletMixtureLaw.from_components(comps, base, registry)
        updated = [fv.update_dirichlet(law, n) for law in (given, merged)]
    else:
        given = GammaMixtureLaw(comps, base, registry, 1.1, 0.5)
        merged = GammaMixtureLaw.from_components(comps, base, registry, 1.1, 0.5)
        draws = (n, MultiIndex((0, 1)))
        updated = [dw.update_gamma(law, draws) for law in (given, merged)]
    assert len(given) == 3 and len(merged) == 2
    assert _same_law(*updated)
    rows = [idx.counts for _, idx in updated[0].components]
    assert rows == sorted(set(rows))


@pytest.mark.parametrize("gap", [100.0, 2000.0])
def test_smoothing_keeps_the_dynamic_range(gap):
    """Over a gap of 100 the survival probability q is about e^-51, so
    keeping all twenty lineages weighs about e^-1000 against losing them;
    over a gap of 2000, q underflows to 0 and every lineage dies.  The
    kernels keep every component of the scalar reference, however light,
    to 1e-13 relative: weights spanning 300 nats or more are folded in the
    log domain, so none underflows."""
    registry = TypeRegistry(("a", "b"))
    base, beta = BaseMeasure(2.0, {"a": 0.4, "b": 0.4}), 1.0
    draws = (
        (MultiIndex((6, 4)), MultiIndex((4, 6))),
        (MultiIndex((1, 1)),),
        (MultiIndex((2, 1)),),
    )
    timeline = ObservationTimeline((0.0, gap, gap + 1.0), registry, dw_draws=draws)
    q = dw_survival_prob(DwDualSpec(base.theta, beta, 2.0), gap)
    assert (q == 0.0) == (gap > 1000.0)
    law = filter_forward_dw(timeline, 1, base, beta)
    assert_law_close(law, reference_filter(timeline, 1, base, beta))
    assert len(law) == (1 if q == 0.0 else 121)
    result = smooth_dw(timeline, 1, base, beta)
    pairs, ref_law = reference_smooth(timeline, 1, base, 0.0, beta)
    assert_law_close(result.pair_log_weights, pairs)
    assert_law_close(result.law, ref_law)
    logs = result.law._arrays[0]
    assert (logs.max() - logs.min() > 745.0) == (q > 0.0)


def _mp_check(law, exact, mp):
    """``law`` lists the rows of ``exact`` (row -> mpf weight, unnormalized)
    in order, with log-weights within 1e-13 * max(1, |x|) of 50 digits."""
    total = mp.fsum(exact.values())
    assert [idx.counts for _, idx in law.components] == sorted(exact)
    for lw, idx in law.components:
        x = float(mp.log(exact[idx.counts] / total))
        assert abs(lw - x) <= 1e-13 * max(1.0, abs(x)), (idx, lw, x)


def test_box_kernels_against_mpmath():
    """Binomial thinning and the pair combination (dw's total-count and case
    terms, and fv's case term alone, under both bases) against 50-digit
    arithmetic, on random laws over two types with indices up to 6; then the
    one-death recursion of fv propagation, with the totals law of
    fv_totals_transition taken as exact and the hypergeometric allocation in
    50 digits, on laws over two types with totals up to 8 (one of them
    positional, out of order with a repeated row) and one over three."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = np.random.default_rng(15)
    registry = TypeRegistry(("a", "b"))
    theta, beta = 1.7, 0.8
    bases = [BaseMeasure(theta, {"a": 0.3, "b": 0.5}), BaseMeasure(theta)]

    def law_on(rows, offset, base=bases[0]):
        comps = [(float(rng.normal(0.0, 3.0)), MultiIndex(r)) for r in rows]
        return GammaMixtureLaw.from_components(comps, base, registry, beta, offset)

    for _ in range(20):
        rows = rng.integers(0, 7, (int(rng.integers(1, 10)), 2)).tolist()
        law = law_on(sorted(set(map(tuple, rows))), float(rng.uniform(0.0, 3.0)))
        dt = float(rng.uniform(0.05, 3.0))
        q = mp.mpf(dw_survival_prob(DwDualSpec(theta, beta, law.rate_offset), dt))
        exact = {}
        for lw, m in law.components:
            for k in m.lattice_below():
                term = mp.exp(mp.mpf(lw))
                for mj, kj in zip(m, k):
                    term *= mp.binomial(mj, kj) * q**kj * (1 - q) ** (mj - kj)
                exact[k.counts] = exact.get(k.counts, 0) + term
        _mp_check(propagate_dw(law, dt), exact, mp)

    @functools.lru_cache(maxsize=None)
    def case(r, nonatomic):
        """log_dir_cat(r), or its alpha -> 0 limit."""
        out = mp.loggamma(theta) - mp.loggamma(theta + sum(r))
        for aj, rj in zip((theta * 0.3, theta * 0.5), r):
            if rj and nonatomic:
                out += mp.loggamma(rj)
            elif rj:
                out += mp.loggamma(aj + rj) - mp.loggamma(aj)
        return out

    @functools.lru_cache(maxsize=None)
    def marginal(total, a):
        """log_gamma_marginal(total, a, theta, beta)."""
        rate = beta + mp.mpf(a)
        return (
            theta * (mp.log(beta) - mp.log(rate))
            - total * mp.log(rate)
            + mp.loggamma(theta + total)
            - mp.loggamma(theta)
        )

    for base, dw_terms in itertools.product(bases, (False, True)):
        nonatomic = base.is_nonatomic
        for _ in range(3):
            a_past, a_future, c_now = *rng.uniform(0.0, 3.0, 2).tolist(), 2
            # filter laws fill their box, which _sliced relies on
            boxes = [
                list(itertools.product(range(h1 + 1), range(h2 + 1)))
                for h1, h2 in rng.integers(0, 7, (2, 2)).tolist()
            ]
            first = law_on(boxes[0], a_past, base)
            second = law_on(boxes[1], a_future, base)
            n = MultiIndex(rng.integers(0, 3, 2).tolist())
            scores = [fv._case_score(base, registry)]
            if dw_terms:
                scores.insert(0, dw._total_count_score(theta, beta))
            pairs = list(itertools.product(first.components, second.components))
            if nonatomic:
                best = max(sharing_degree(k, n, kp) for (_, k), (_, kp) in pairs)
                pairs = [
                    ((w1, k), (w2, kp))
                    for (w1, k), (w2, kp) in pairs
                    if sharing_degree(k, n, kp) == best
                ]
            cards = (a_past + c_now + a_future, a_past, c_now, a_future)
            exact = {}
            for (w1, k), (w2, kp) in pairs:
                parts = [r.counts for r in (k + n + kp, k, n, kp)]
                ratio = [case(r, nonatomic) for r in parts]
                if dw_terms:
                    ratio = [
                        x + marginal(sum(r), c) for x, r, c in zip(ratio, parts, cards)
                    ]
                log_term = mp.mpf(w1) + mp.mpf(w2) + ratio[0] - sum(ratio[1:])
                exact[parts[0]] = exact.get(parts[0], 0) + mp.exp(log_term)
            _, law = fv._smoothed(first, second, n, scores, 0.0, cards[1:])
            _mp_check(law, exact, mp)

    laws = [
        DirichletMixtureLaw.from_components(
            [(float(rng.normal(0.0, 3.0)), MultiIndex(r)) for r in rows],
            bases[1],
            registry,
        )
        for rows in (rng.integers(0, 5, (int(rng.integers(1, 8)), 2)).tolist()
                     for _ in range(8))
    ]
    given = [(3, 1), (0, 2), (3, 1), (1, 4), (0, 0)]
    weights = rng.dirichlet(np.ones(len(given))).tolist()
    comps = [(math.log(w), MultiIndex(r)) for w, r in zip(weights, given)]
    laws.append(DirichletMixtureLaw(comps, bases[1], registry))
    rows = rng.integers(0, 3, (6, 3)).tolist()
    comps = [(float(rng.normal(0.0, 3.0)), MultiIndex(r)) for r in rows]
    laws.append(
        DirichletMixtureLaw.from_components(
            comps, bases[1], TypeRegistry(("a", "b", "c"))
        )
    )
    for law, dt in itertools.product(laws, (0.05, 0.3, 3.0, 25.0)):
        exact = {}
        for lw, m in law.components:
            totals = fv_totals_transition(theta, m.total, dt).probs
            for k in m.lattice_below():
                if totals[k.total] == 0.0:
                    continue
                term = mp.exp(mp.mpf(lw)) * mp.mpf(float(totals[k.total]))
                for mj, kj in zip(m, k):
                    term *= mp.binomial(mj, kj)
                term /= mp.binomial(m.total, k.total)
                exact[k.counts] = exact.get(k.counts, 0) + term
        _mp_check(propagate_forward(law, dt), exact, mp)


def _model_params(base, beta):
    """Positional model arguments that give distinct filter laws on one
    timeline: ``base``, one with another theta, one with other atoms
    (discrete bases only), and for dw also another beta and another kappa."""
    bases = [base, dataclasses.replace(base, theta=base.theta * 1.5)]
    if not base.is_nonatomic:
        halved = {lab: p / 2 for lab, p in base.atom_probs.items()}
        bases.append(BaseMeasure(base.theta, halved))
    if beta is None:
        return [(b,) for b in bases]
    kappa = DEFAULT_DW_RATE_CONSTANT
    return [(b, beta, kappa) for b in bases] + [
        (base, 2 * beta, kappa),
        (base, beta, 3 * kappa),
    ]


def _kept_calls(beta):
    """(smoother, filtering law) of the model: beta is None for fv."""
    if beta is None:
        return smooth, filter_posterior
    return (
        lambda timeline, i, base, beta, kappa: smooth_dw(
            timeline, i, base, beta, 0.0, kappa
        ),
        filter_posterior_dw,
    )


def _same_law(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a._arrays, b._arrays)) and (
        getattr(a, "rate_offset", None) == getattr(b, "rate_offset", None)
    )


@pytest.mark.parametrize("kind", ["discrete", "nonatomic"])
@pytest.mark.parametrize("mode", ["fv", "dw"])
def test_kept_filter_laws_give_the_fresh_bits(mode, kind):
    """Every index smoothed and filtered on one kept timeline, in forward,
    reverse and shuffled order and with the model parameters switching
    between visits, equals the same call on a fresh copy of the timeline."""
    rng = np.random.default_rng(5)
    for timeline, base, beta in _criterion_02_datasets(mode, kind):
        smoother, posterior = _kept_calls(beta)
        params = _model_params(base, beta)
        indices = range(timeline.n_times)
        visits = [(i, p) for p in range(len(params)) for i in indices]
        visits += [(i, p) for p in range(len(params)) for i in reversed(indices)]
        visits += [visits[v] for v in rng.permutation(len(visits))]
        refs = {}
        for i, p in visits:
            if (i, p) not in refs:
                fresh = dataclasses.replace(timeline)
                refs[i, p] = smoother(fresh, i, *params[p]), posterior(
                    fresh, i, *params[p]
                )
            kept = smoother(timeline, i, *params[p])
            assert _same_law(kept.law, refs[i, p][0].law)
            pairs = refs[i, p][0].pair_log_weights
            assert list(kept.pair_log_weights.items()) == list(pairs.items())
            assert _same_law(posterior(timeline, i, *params[p]), refs[i, p][1])


def _three_type_timeline(n_times, seed):
    """fv timeline: three types, times 0.3 apart, multinomial(3) counts."""
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(3, [1 / 3] * 3, n_times)
    return ObservationTimeline(
        tuple(0.3 * t for t in range(n_times)),
        TypeRegistry(("a", "b", "c")),
        tuple(MultiIndex(tuple(c)) for c in counts.tolist()),
    )


def test_kept_filter_laws_under_concurrent_callers():
    """Four threads smooth random indices of one timeline under two bases;
    every result equals the single-threaded one, and the kept laws are a
    prefix of the single-threaded filter chain of the key they are kept
    under."""
    timeline = _three_type_timeline(7, 2)
    n = timeline.n_times
    atoms = {"a": 0.3, "b": 0.3, "c": 0.3}
    bases = [BaseMeasure(2.0, atoms), BaseMeasure(1.0, atoms)]
    expected, chains = {}, {}
    for b, base in enumerate(bases):
        fresh = dataclasses.replace(timeline)
        for i in range(n):
            expected[b, i] = smooth(fresh, i, base).law
        chains[(base,)] = (
            [filter_forward(fresh, i, base) for i in range(n)],
            [filter_backward(fresh, i, base) for i in reversed(range(n))],
        )
    errors = []

    def work(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(150):
                b, i = int(rng.integers(2)), int(rng.integers(n))
                if not _same_law(smooth(timeline, i, bases[b]).law, expected[b, i]):
                    errors.append((b, i))
        except Exception as exc:  # a failure in a thread would go unseen
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    key, *kept = fv._kept[id(timeline)]
    for laws, chain in zip(kept, chains[key]):
        assert 1 <= len(laws) <= len(chain)
        assert all(_same_law(a, b) for a, b in zip(laws, chain))


def test_kept_filter_laws_die_with_their_timeline():
    """The kept laws are freed with the timeline, and those of a replaced
    model key while it lives."""
    timeline = _three_type_timeline(4, 3)
    base = BaseMeasure(2.0, {"a": 0.3, "b": 0.3, "c": 0.3})
    result = smooth(timeline, 3, base)
    stale = weakref.ref(fv._kept[id(timeline)][1][2])
    smooth(timeline, 3, dataclasses.replace(base, theta=3.0))
    gc.collect()
    assert stale() is None
    live = weakref.ref(fv._kept[id(timeline)][1][2])
    key = id(timeline)
    del timeline
    gc.collect()
    assert live() is None
    assert key not in fv._kept
    assert result.law.weight_sum() == pytest.approx(1.0)


def test_timeline_holds_copies_of_caller_lists():
    """A timeline built from lists keeps tuples, so changing the lists
    after a call leaves its data, and so its kept laws, as they were."""
    times, labels = [0.0, 0.3, 0.6], ["a", "b", "c"]
    counts = [MultiIndex((1, 0, 2)), MultiIndex((0, 3, 0)), MultiIndex((1, 1, 1))]
    timeline = ObservationTimeline(times, TypeRegistry(labels), counts)
    fresh = ObservationTimeline(
        tuple(times), TypeRegistry(tuple(labels)), tuple(counts)
    )
    base = BaseMeasure(2.0, {"a": 0.3, "b": 0.3, "c": 0.3})
    smooth(timeline, 2, base)
    times[1], labels[0], counts[0] = 0.5, "z", MultiIndex((3, 0, 0))
    assert timeline == fresh
    kept, ref = smooth(timeline, 1, base), smooth(fresh, 1, base)
    assert kept.pair_log_weights == ref.pair_log_weights
