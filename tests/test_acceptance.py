"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; the Monte Carlo checks use fixed seeds so
the suite is reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest

from helpers import random_dataset
from mvhmm.core import (
    BaseMeasure,
    DirichletMixtureLaw,
    GammaMixtureLaw,
    MultiIndex,
    ObservationTimeline,
    TypeRegistry,
)
from mvhmm.dual import clear_transition_cache, fv_totals_transition
from mvhmm.dw import (
    filter_posterior_dw,
    predict_count_mean,
    predict_count_pmf,
    predict_draw,
    predictive_label_pmf,
    propagate_dw,
    smooth_dw,
    update_gamma,
)
from mvhmm.fv import (
    NEW_LABEL,
    SharedAtomSets,
    filter_backward,
    filter_forward,
    filter_posterior,
    predictive_pmf,
    predictive_sample,
    propagate_backward,
    propagate_forward,
    smooth,
)
from mvhmm.oracles import (
    run_dual_rates_suite,
    run_duality_suite,
    run_particle_suite,
)


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} failed {suffix}"


def test_criterion_01_totals_golden_value():
    clear_transition_cache()
    start = time.perf_counter()
    worst = 0.0
    for theta in (0.5, 1.0, 2.0, 5.0):
        for t in (0.01, 0.1, 1.0, 10.0):
            p11 = fv_totals_transition(theta, 1, t).prob(1)
            worst = max(worst, abs(p11 - math.exp(-theta * t / 2.0)))
    elapsed = time.perf_counter() - start
    report(
        1,
        "single-lineage survival golden value",
        worst <= 1e-8 and elapsed < 1.0,
        f"max abs err {worst:.2e}, {elapsed:.2f}s",
    )


def _normalization_violation_fv(timeline, base):
    worst = 0.0
    for i in range(timeline.n_times):
        law = filter_posterior(timeline, i, base)
        worst = max(worst, abs(law.weight_sum() - 1.0))
        result = smooth(timeline, i, base)
        worst = max(worst, abs(result.law.weight_sum() - 1.0))
        worst = max(worst, abs(sum(result.pair_weights().values()) - 1.0))
    result = smooth(timeline, timeline.n_times - 1, base)
    pmf = predictive_pmf(result.law)
    worst = max(worst, abs(sum(pmf.values()) - 1.0))
    return worst


def _normalization_violation_dw(timeline, base, beta):
    worst = 0.0
    for i in range(timeline.n_times):
        law = filter_posterior_dw(timeline, i, base, beta)
        worst = max(worst, abs(law.weight_sum() - 1.0))
        result = smooth_dw(timeline, i, base, beta)
        worst = max(worst, abs(result.law.weight_sum() - 1.0))
    result = smooth_dw(timeline, timeline.n_times - 1, base, beta)
    pmf = predict_count_pmf(result.law)
    worst = max(worst, abs(sum(pmf.values()) - 1.0))
    return worst


def test_criterion_02_normalization_randomized():
    rng = np.random.default_rng(20240801)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        mode = "fv" if trial % 2 == 0 else "dw"
        kind = "discrete" if (trial // 2) % 2 == 0 else "nonatomic"
        timeline, base, beta = random_dataset(rng, mode, kind)
        if mode == "fv":
            worst = max(worst, _normalization_violation_fv(timeline, base))
        else:
            worst = max(worst, _normalization_violation_dw(timeline, base, beta))
    elapsed = time.perf_counter() - start
    report(
        2,
        "normalization on 200 randomized datasets",
        worst <= 1e-10 and elapsed < 60.0,
        f"max dev {worst:.2e}, {elapsed:.1f}s",
    )


def _mirror_fv(timeline):
    span = timeline.times[0] + timeline.times[-1]
    return ObservationTimeline(
        tuple(span - t for t in reversed(timeline.times)),
        timeline.registry,
        tuple(reversed(timeline.fv_counts)),
    )


def _mirror_dw(timeline):
    span = timeline.times[0] + timeline.times[-1]
    return ObservationTimeline(
        tuple(span - t for t in reversed(timeline.times)),
        timeline.registry,
        dw_draws=tuple(reversed(timeline.dw_draws)),
    )


def test_criterion_03_forward_equals_backward():
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(40):
        mode = "fv" if trial % 2 == 0 else "dw"
        kind = "discrete" if (trial // 2) % 2 == 0 else "nonatomic"
        timeline, base, beta = random_dataset(rng, mode, kind)
        n = timeline.n_times
        dt = float(rng.uniform(0.05, 1.0))
        if mode == "fv":
            law = filter_posterior(timeline, n - 1, base)
            f = propagate_forward(law, dt)
            b = propagate_backward(law, dt)
            assert f.components == b.components
            mirrored = _mirror_fv(timeline)
            for i in range(n):
                bwd = filter_backward(timeline, i, base).log_weights()
                fwd = filter_forward(mirrored, n - 1 - i, base).log_weights()
                assert set(bwd) == set(fwd)
                for key, lw in bwd.items():
                    worst = max(
                        worst, abs(math.exp(lw) - math.exp(fwd[key]))
                    )
        else:
            from mvhmm.dw import filter_backward_dw, filter_forward_dw

            mirrored = _mirror_dw(timeline)
            for i in range(n):
                bwd = filter_backward_dw(timeline, i, base, beta)
                fwd = filter_forward_dw(mirrored, n - 1 - i, base, beta)
                assert abs(bwd.rate_offset - fwd.rate_offset) < 1e-12
                bw, fw = bwd.log_weights(), fwd.log_weights()
                assert set(bw) == set(fw)
                for key, lw in bw.items():
                    worst = max(worst, abs(math.exp(lw) - math.exp(fw[key])))
    report(
        3,
        "forward and backward recursions coincide",
        worst <= 1e-10,
        f"max weight dev {worst:.2e}",
    )


def test_criterion_04_component_count():
    start = time.perf_counter()
    reg = TypeRegistry(("a", "b"))
    base = BaseMeasure(2.0, {"a": 0.5, "b": 0.5})
    timeline = ObservationTimeline(
        (0.0, 0.3, 0.8, 1.1),
        reg,
        (
            MultiIndex((1, 1)),
            MultiIndex((1, 0)),
            MultiIndex((0, 1)),
            MultiIndex((1, 1)),
        ),
    )
    ok = True
    detail = []
    for i in range(4):
        result = smooth(timeline, i, base)
        past = np.sum(
            [timeline.fv_counts[j].counts for j in range(i)] or [(0, 0)], axis=0
        )
        future = np.sum(
            [timeline.fv_counts[j].counts for j in range(i + 1, 4)] or [(0, 0)],
            axis=0,
        )
        bound = int(np.prod((past + 1) * (future + 1)))
        if result.component_count != bound:
            ok = False
        detail.append(f"i={i}: {result.component_count}/{bound}")
    # nonatomic: the first type links past and present, nothing links the
    # future, so pairs dropping the first type are pruned
    nbase = BaseMeasure(1.0)
    ntimeline = ObservationTimeline(
        (0.0, 0.5, 1.0),
        reg,
        (MultiIndex((1, 0)), MultiIndex((1, 0)), MultiIndex((0, 1))),
    )
    result = smooth(ntimeline, 1, nbase)
    bound = int(np.prod([2 * 1, 1 * 2]))
    pruned = bound - result.component_count
    if not (result.component_count < bound and pruned >= 1):
        ok = False
    detail.append(f"nonatomic: {result.component_count}<{bound}")
    elapsed = time.perf_counter() - start
    report(
        4,
        "component-count formula",
        ok and elapsed < 10.0,
        "; ".join(detail) + f", {elapsed:.2f}s",
    )


def test_criterion_05_shared_support_example():
    reg = TypeRegistry(("y1", "y2", "y3"))
    base = BaseMeasure(1.0)
    timeline = ObservationTimeline(
        (0.0, 0.5, 1.0),
        reg,
        (MultiIndex((1, 3, 0)), MultiIndex((0, 0, 1)), MultiIndex((0, 2, 1))),
    )
    result = smooth(timeline, 1, base)
    shared = SharedAtomSets.from_counts(*timeline.fv_counts)
    ok = shared.d_past == frozenset({1}) and shared.d_future == frozenset({1, 2})
    admissible = {
        (k, kp)
        for k in timeline.fv_counts[0].lattice_below()
        for kp in timeline.fv_counts[2].lattice_below()
        if k[1] > 0 and kp[1] > 0 and kp[2] > 0
    }
    ok = ok and set(result.pair_log_weights) == admissible
    report(
        5,
        "shared-type support on the worked example",
        ok,
        f"{len(result.pair_log_weights)} admissible pairs",
    )


@pytest.mark.slow
def test_criterion_06_duality_identities():
    start = time.perf_counter()
    reports = run_duality_suite(seed=2024, replicates=10**5)
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports) and elapsed < 300.0
    worst = max(abs(r.z) for r in reports)
    report(
        6,
        "duality identities (MC vs exact)",
        ok,
        f"{len(reports)} checks, max |z| {worst:.2f}, {elapsed:.1f}s",
    )


def test_criterion_07_dual_rate_calibration():
    start = time.perf_counter()
    reports, calib = run_dual_rates_suite(seed=7, replicates=10**6)
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports) and elapsed < 300.0
    # the verbatim constant 2 fails the propagation-consistency identity;
    # the calibration must record the surviving candidate
    ok = ok and calib.errors[2.0] > 1e-6 and calib.errors[calib.selected] < 1e-10
    worst = max(abs(r.z) for r in reports if r.se > 0)
    report(
        7,
        "dual-rate calibration and thinning law",
        ok,
        f"selected kappa={calib.selected}, max |z| {worst:.2f}, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_08_particle_cross_validation():
    start = time.perf_counter()
    reports = run_particle_suite(seed=12, particles=10**5)
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports) and elapsed < 600.0
    worst = max(abs(r.z) for r in reports)
    report(
        8,
        "particle-smoother cross-validation",
        ok,
        f"{len(reports)} means, max |z| {worst:.2f}, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_09_predictive_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    reg = TypeRegistry(("a", "b"))
    base = BaseMeasure(2.0, {"a": 0.5, "b": 0.5})
    timeline = ObservationTimeline(
        (0.0, 0.4, 1.0),
        reg,
        (MultiIndex((2, 0)), MultiIndex((1, 1)), MultiIndex((0, 2))),
    )
    result = smooth(timeline, 1, base)
    pmf = predictive_pmf(result.law)
    draws = 10**6
    counts: dict[str, int] = {}
    for _ in range(draws):
        lab = predictive_sample(result, 1, rng)[0]
        key = lab if lab in reg else NEW_LABEL
        counts[key] = counts.get(key, 0) + 1
    ok = True
    worst_z = 0.0
    for lab, p in pmf.items():
        freq = counts.get(lab, 0) / draws
        se = math.sqrt(max(p * (1.0 - p), 1.0 / draws) / draws)
        z = abs(freq - p) / se
        worst_z = max(worst_z, z)
        ok = ok and z <= 3.0

    dw_draws = (
        (MultiIndex((2, 0)),),
        (MultiIndex((1, 1)),),
        (MultiIndex((0, 1)),),
    )
    dtl = ObservationTimeline((0.0, 0.4, 0.9), reg, dw_draws=dw_draws)
    dresult = smooth_dw(dtl, 1, base, 1.0)
    cpmf = predict_count_pmf(dresult.law, tail=1e-13)
    mean_dev = abs(
        sum(n * p for n, p in cpmf.items()) - predict_count_mean(dresult.law)
    )
    ok = ok and mean_dev <= 1e-8
    lpmf = predictive_label_pmf(dresult.law, (), m_count=1)
    counts = {}
    for _ in range(draws):
        _, labels = predict_draw(dresult.law, rng, m_count=1)
        key = labels[0] if labels[0] in reg else NEW_LABEL
        counts[key] = counts.get(key, 0) + 1
    for lab, p in lpmf.items():
        freq = counts.get(lab, 0) / draws
        se = math.sqrt(max(p * (1.0 - p), 1.0 / draws) / draws)
        z = abs(freq - p) / se
        worst_z = max(worst_z, z)
        ok = ok and z <= 3.0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    report(
        9,
        "predictive urn consistency",
        ok,
        f"max |z| {worst_z:.2f}, count-mean dev {mean_dev:.1e}, {elapsed:.1f}s",
    )


def test_criterion_10_limits():
    reg = TypeRegistry(("a", "b"))
    ok = True
    detail = []
    for theta in (0.5, 2.0, 5.0):
        base = BaseMeasure(theta, {"a": 0.5, "b": 0.5})
        n = MultiIndex((3, 2))
        law = DirichletMixtureLaw.from_components([(0.0, n)], base, reg)
        retained = propagate_backward(law, 1e-6).weights()[n]
        if retained <= 1.0 - 1e-4:
            ok = False
        collapsed = propagate_forward(law, 200.0 / theta).weights()[
            MultiIndex((0, 0))
        ]
        if collapsed <= 1.0 - 1e-6:
            ok = False
        detail.append(f"theta={theta}: {retained:.6f}/{collapsed:.8f}")
    beta = 1.0
    base = BaseMeasure(1.5, {"a": 0.5, "b": 0.5})
    glaw = GammaMixtureLaw.prior(base, reg, beta)
    glaw = update_gamma(glaw, (MultiIndex((2, 1)),))
    retained = propagate_dw(glaw, 1e-6).weights()[MultiIndex((2, 1))]
    collapsed = propagate_dw(glaw, 200.0 / beta).weights()[MultiIndex((0, 0))]
    ok = ok and retained > 1.0 - 1e-4 and collapsed > 1.0 - 1e-6
    report(10, "small- and large-time limits", ok, "; ".join(detail))
