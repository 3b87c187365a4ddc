"""Domain types: multi-indices, registries, mixtures, normalization."""

import dataclasses
import math

import numpy as np
import pytest

from mvhmm.core import (
    BaseMeasure,
    DirichletMixtureLaw,
    GammaMixtureLaw,
    MultiIndex,
    ObservationTimeline,
    TypeRegistry,
    normalize,
)
from mvhmm.dual import DwDualSpec, FvDualSpec
from mvhmm.dw import propagate_dw, smooth_dw, update_gamma
from mvhmm.errors import AllWeightsZero, DomainError, SchemaError
from mvhmm.fv import propagate_forward, smooth, update_dirichlet
from mvhmm.io import parse_config_text


@pytest.fixture
def registry():
    return TypeRegistry(("a", "b", "c"))


class TestMultiIndex:
    def test_total_cached(self):
        m = MultiIndex((2, 0, 3))
        assert m.total == 5
        assert len(m) == 3

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            MultiIndex((1, -1))

    @pytest.mark.parametrize(
        "counts", [(1.5, 2.7), (1, 0.5), (math.nan,), (math.inf, 1)]
    )
    def test_non_integral_rejected(self, counts):
        with pytest.raises(DomainError):
            MultiIndex(counts)

    def test_integral_floats_and_numpy_ints_accepted(self):
        m = MultiIndex((2.0, np.int64(1)))
        assert m.counts == (2, 1)
        assert all(type(v) is int for v in m.counts)

    def test_partial_order(self):
        assert MultiIndex((1, 0)) <= MultiIndex((2, 0))
        assert not MultiIndex((1, 2)) <= MultiIndex((2, 1))

    def test_lattice_below(self):
        points = list(MultiIndex((1, 2)).lattice_below())
        assert len(points) == 6
        assert MultiIndex((0, 0)) in points and MultiIndex((1, 2)) in points

    def test_hashable_and_immutable(self):
        m = MultiIndex((1, 1))
        assert hash(m) == hash(MultiIndex((1, 1)))
        with pytest.raises(AttributeError):
            m.counts = (0, 0)


class TestRegistry:
    def test_distinct(self):
        with pytest.raises(DomainError):
            TypeRegistry(("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            TypeRegistry(())


class TestBaseMeasure:
    def test_nonatomic(self):
        base = BaseMeasure(1.5)
        assert base.kind == "nonatomic"
        assert base.unseen_mass == 1.0

    def test_discrete_validation(self):
        with pytest.raises(DomainError):
            BaseMeasure(1.0, {"a": 0.7, "b": 0.5})
        with pytest.raises(DomainError):
            BaseMeasure(0.0, {"a": 1.0})

    def test_alpha_vector_missing_label(self, registry):
        base = BaseMeasure(2.0, {"a": 0.5, "b": 0.25})
        with pytest.raises(DomainError):
            base.alpha_vector(registry)

    def test_hash_agrees_with_equality(self):
        a = BaseMeasure(2.0, {"a": 0.5, "b": 0.25})
        b = BaseMeasure(2, {"b": 0.25, "a": 0.5})
        assert a == b and hash(a) == hash(b)
        assert len({a, b, BaseMeasure(2.0), BaseMeasure(2.0)}) == 2
        assert a != BaseMeasure(2.0, {"a": 0.5, "b": 0.3})

    def test_alpha_vector(self):
        base = BaseMeasure(2.0, {"a": 0.5, "b": 0.25})
        reg = TypeRegistry(("a", "b"))
        assert base.alpha_vector(reg) == (1.0, 0.5)
        assert base.unseen_mass == pytest.approx(0.25)


class TestTimeline:
    def test_strictly_increasing(self, registry):
        with pytest.raises(DomainError):
            ObservationTimeline(
                (0.0, 0.0),
                registry,
                (MultiIndex((0, 0, 0)), MultiIndex((0, 0, 0))),
            )

    @pytest.mark.parametrize(
        "times,fv_counts,dw_draws,match",
        [
            ((), (), None, "at least one collection time"),
            ((0.0,), ((1, 0, 0),), (((1, 0, 0),),), "exactly one"),
            ((0.0,), None, None, "exactly one"),
            ((0.0, 1.0), ((1, 0, 0),), None, "one multiplicity vector per time"),
            ((0.0, 1.0), None, (((1, 0, 0),),), "one draw collection per time"),
            ((0.0,), ((1, 0),), None, "multiplicity vector length"),
            ((0.0,), None, (((1, 0, 0), (1, 0)),), "draw vector length"),
        ],
        ids=[
            "no-times", "both", "neither", "count-vectors", "draw-collections",
            "count-width", "draw-width",
        ],
    )
    def test_malformed_rejected(self, registry, times, fv_counts, dw_draws, match):
        if fv_counts is not None:
            fv_counts = tuple(map(MultiIndex, fv_counts))
        if dw_draws is not None:
            dw_draws = tuple(tuple(map(MultiIndex, d)) for d in dw_draws)
        with pytest.raises(DomainError, match=match):
            ObservationTimeline(times, registry, fv_counts, dw_draws)

    def test_mode_and_totals(self, registry):
        draws = ((MultiIndex((1, 0, 0)), MultiIndex((0, 2, 0))),)
        tl = ObservationTimeline((0.0,), registry, dw_draws=draws)
        assert tl.mode == "dw"
        assert tl.cardinality_at(0) == 2
        assert tl.counts_at(0) == MultiIndex((1, 2, 0))


class TestNormalize:
    def test_single_component(self, registry):
        base = BaseMeasure(1.0)
        law = DirichletMixtureLaw.from_components(
            ((-3.2, MultiIndex((0, 0, 0))),), base, registry, normalize=False
        )
        out = normalize(law)
        assert out.components[0][0] == pytest.approx(0.0, abs=1e-14)

    def test_two_equal(self, registry):
        base = BaseMeasure(1.0)
        law = DirichletMixtureLaw.from_components(
            ((-5.0, MultiIndex((0, 0, 0))), (-5.0, MultiIndex((1, 0, 0)))),
            base,
            registry,
            normalize=False,
        )
        out = normalize(law)
        for lw, _ in out.components:
            assert math.exp(lw) == pytest.approx(0.5, abs=1e-14)

    def test_shifted_weights(self, registry):
        # weights (0.2, 0.3, 0.5) e^{-7}, recovered by log-sum-exp
        base = BaseMeasure(1.0)
        comps = tuple(
            (math.log(w) - 7.0, MultiIndex((j, 0, 0)))
            for j, w in enumerate((0.2, 0.3, 0.5))
        )
        law = DirichletMixtureLaw.from_components(
            comps, base, registry, normalize=False
        )
        out = normalize(law)
        weights = sorted(out.weights().values())
        assert np.allclose(weights, [0.2, 0.3, 0.5], atol=1e-14)

    def test_all_zero(self, registry):
        base = BaseMeasure(1.0)
        with pytest.raises(AllWeightsZero):
            DirichletMixtureLaw.from_components(
                ((-math.inf, MultiIndex((0, 0, 0))),), base, registry
            )

    def test_canonical_order_and_merge(self, registry):
        base = BaseMeasure(1.0)
        comps = [
            (math.log(0.25), MultiIndex((1, 0, 0))),
            (math.log(0.5), MultiIndex((0, 0, 0))),
            (math.log(0.25), MultiIndex((1, 0, 0))),
        ]
        law = DirichletMixtureLaw.from_components(comps, base, registry)
        assert [idx.counts for _, idx in law.components] == [
            (0, 0, 0),
            (1, 0, 0),
        ]
        assert law.weights()[MultiIndex((1, 0, 0))] == pytest.approx(0.5, abs=1e-14)
        assert law.weight_sum() == pytest.approx(1.0, abs=1e-12)


class TestGammaLaw:
    def test_shared_offset(self, registry):
        base = BaseMeasure(1.0)
        law = GammaMixtureLaw(
            ((0.0, MultiIndex((0, 0, 0))),), base, registry, beta=1.0, rate_offset=2.0
        )
        assert law.rate_offset == 2.0

    def test_negative_offset_rejected(self, registry):
        base = BaseMeasure(1.0)
        with pytest.raises(DomainError):
            GammaMixtureLaw(
                ((0.0, MultiIndex((0, 0, 0))),),
                base,
                registry,
                beta=1.0,
                rate_offset=-0.1,
            )

    def test_pruning(self, registry):
        base = BaseMeasure(1.0)
        comps = [
            (math.log(1 - 1e-13), MultiIndex((0, 0, 0))),
            (math.log(1e-13), MultiIndex((1, 0, 0))),
        ]
        law = GammaMixtureLaw.from_components(comps, base, registry, beta=1.0)
        pruned = law.pruned(1e-12)
        assert len(pruned) == 1
        assert pruned.weight_sum() == pytest.approx(1.0, abs=1e-14)


NAN = float("nan")
INF = float("inf")


def _law(cls, *rate):
    comps = [(0.0, MultiIndex((3,)))]
    return cls.from_components(comps, BaseMeasure(1.0), TypeRegistry(("a",)), *rate)


def _config(extra):
    return parse_config_text("model = dw\ntheta = 1\nbeta = 1\n" + extra, env={})


@pytest.mark.parametrize(
    "make,error",
    [
        (lambda: BaseMeasure(NAN), DomainError),
        (lambda: BaseMeasure(INF), DomainError),
        (lambda: FvDualSpec(NAN), DomainError),
        (lambda: FvDualSpec(INF), DomainError),
        (
            lambda: GammaMixtureLaw.prior(BaseMeasure(1.0), TypeRegistry(("a",)), NAN),
            DomainError,
        ),
        (lambda: DwDualSpec(1.0, NAN), DomainError),
        (lambda: DwDualSpec(1.0, 1.0, 0.0, NAN), DomainError),
        (lambda: _config("beta = nan\n"), SchemaError),
        (lambda: _config("ode_tolerance = nan\n"), SchemaError),
        (lambda: _config("dw_rate_constant = nan\n"), SchemaError),
        (lambda: _config("dw_rate_constant = inf\n"), SchemaError),
        (
            lambda: ObservationTimeline(
                (0.0, INF), TypeRegistry(("a",)), (MultiIndex((1,)), MultiIndex((1,)))
            ),
            DomainError,
        ),
        (
            lambda: ObservationTimeline(
                (NAN,), TypeRegistry(("a",)), (MultiIndex((1,)),)
            ),
            DomainError,
        ),
        (lambda: propagate_forward(_law(DirichletMixtureLaw), NAN), DomainError),
        (lambda: propagate_dw(_law(GammaMixtureLaw, 1.0), NAN), DomainError),
    ],
    ids=[
        "theta-nan", "theta-inf", "fv-spec-theta-nan", "fv-spec-theta-inf",
        "law-beta-nan", "dw-spec-beta-nan", "dw-spec-kappa-nan", "config-beta-nan",
        "config-ode-tolerance-nan", "config-rate-constant-nan",
        "config-rate-constant-inf", "time-inf", "time-nan", "fv-step-nan",
        "dw-step-nan",
    ],
)
def test_non_finite_inputs_rejected(make, error):
    with pytest.raises(error):
        make()


def _laws_by_path():
    """One law from each construction path: the constructors,
    ``from_components``, an update, a propagation, a smooth, ``pruned`` and
    ``normalize``, for both models."""
    reg = TypeRegistry(("a", "b"))
    base = BaseMeasure(2.0, {"a": 0.4, "b": 0.5})
    comps = [
        (math.log(0.3), MultiIndex((1, 0))),
        (math.log(0.5), MultiIndex((0, 2))),
        (math.log(0.2), MultiIndex((1, 0))),
    ]
    counts = (MultiIndex((2, 1)), MultiIndex((0, 1)), MultiIndex((1, 1)))
    fv_tl = ObservationTimeline((0.0, 0.4, 1.0), reg, counts)
    dw_tl = ObservationTimeline(
        (0.0, 0.5),
        reg,
        dw_draws=((MultiIndex((1, 0)), MultiIndex((0, 2))), (MultiIndex((1, 1)),)),
    )
    # the constructors keep components as given, here out of index order
    distinct = [
        (math.log(0.6), MultiIndex((0, 2))),
        (math.log(0.4), MultiIndex((1, 0))),
    ]
    fv_law = DirichletMixtureLaw.from_components(comps, base, reg)
    dw_law = GammaMixtureLaw.from_components(comps, base, reg, 1.5, 0.5)
    return {
        "fv-constructor": DirichletMixtureLaw(distinct, base, reg),
        "dw-constructor": GammaMixtureLaw(distinct, base, reg, 1.5, 0.5),
        "fv-from-components": fv_law,
        "dw-from-components": dw_law,
        "fv-update": update_dirichlet(fv_law, MultiIndex((1, 1))),
        "dw-update": update_gamma(dw_law, (MultiIndex((1, 1)), MultiIndex((0, 1)))),
        "fv-propagate": propagate_forward(fv_law, 0.3),
        "dw-propagate": propagate_dw(dw_law, 0.3),
        "fv-smooth": smooth(fv_tl, 1, base).law,
        "dw-smooth": smooth_dw(dw_tl, 0, base, 1.5).law,
        "fv-pruned": smooth(fv_tl, 1, base).law.pruned(1e-3),
        "dw-pruned": smooth_dw(dw_tl, 0, base, 1.5).law.pruned(1e-3),
        "fv-normalize": normalize(DirichletMixtureLaw(comps, base, reg)),
        "dw-normalize": normalize(GammaMixtureLaw(comps, base, reg, 1.5)),
    }


_LAWS = _laws_by_path()


class TestRepresentation:
    """Every construction path gives a law whose public views agree."""

    def test_components_listed_on_first_access(self):
        for law in _laws_by_path().values():
            assert "components" not in vars(law)
            assert law.components is law.components

    @pytest.mark.parametrize("name", sorted(_LAWS))
    def test_views_agree(self, name):
        law = _LAWS[name]
        comps = law.components
        assert isinstance(comps, tuple)
        assert all(
            type(lw) is float and isinstance(idx, MultiIndex) for lw, idx in comps
        )
        assert len(law) == len(comps) == len(law.log_weights())
        assert law.log_weights() == {idx: lw for lw, idx in comps}
        assert law.weight_sum() == sum(math.exp(lw) for lw, _ in comps)

    @pytest.mark.parametrize("name", sorted(_LAWS))
    def test_replace_components_round_trips(self, name):
        law = _LAWS[name]
        before = law.components
        copy = dataclasses.replace(law, components=before)
        assert type(copy) is type(law)
        assert copy.components == before
        assert len(copy) == len(law)
        for f in dataclasses.fields(law):
            assert getattr(copy, f.name) == getattr(law, f.name)
        single = ((0.0, before[0][1]),)
        other = dataclasses.replace(law, components=single)
        assert other.components == single and len(other) == 1
        assert law.components is before

    @pytest.mark.parametrize("name", sorted(_LAWS))
    def test_frozen(self, name):
        law = _LAWS[name]
        for attr in ("components", "base", "registry"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(law, attr, getattr(law, attr))
        for array in law._arrays:
            with pytest.raises(ValueError):
                array[...] = 0

    def test_wrong_index_width_rejected(self):
        law = _LAWS["fv-update"]
        with pytest.raises(DomainError):
            dataclasses.replace(law, components=((0.0, MultiIndex((1, 2, 3))),))
        with pytest.raises(DomainError):
            law._renewed(np.zeros(1), np.zeros((1, 3), dtype=np.int64))

    @pytest.mark.parametrize("name", ["dw-update", "dw-propagate", "dw-smooth"])
    @pytest.mark.parametrize("offset", [-0.5, NAN, INF])
    def test_engine_built_gamma_law_rejects_bad_offset(self, name, offset):
        law = _LAWS[name]
        with pytest.raises(DomainError):
            dataclasses.replace(law, rate_offset=offset)
        with pytest.raises(DomainError):
            law._renewed(*law._arrays, rate_offset=offset)

    @pytest.mark.parametrize("name", sorted(_LAWS))
    def test_empty_law_rejected(self, name):
        law = _LAWS[name]
        with pytest.raises(DomainError):
            dataclasses.replace(law, components=())
        # every weight -inf: nothing is left once equal indices are merged
        gone = [(-INF, idx) for _, idx in law.components]
        beta = {"beta": law.beta} if isinstance(law, GammaMixtureLaw) else {}
        with pytest.raises(DomainError):
            type(law).from_components(
                gone, law.base, law.registry, normalize=False, **beta
            )

    def test_empty_positional_constructors_rejected(self):
        base, reg = BaseMeasure(1.0), TypeRegistry(("a",))
        with pytest.raises(DomainError):
            DirichletMixtureLaw((), base, reg)
        with pytest.raises(DomainError):
            GammaMixtureLaw((), base, reg, 1.0)

    def test_unnormalized_positional_laws_rejected(self):
        # a weight of e^5 once gave a count pmf summing to about 148
        base, reg = BaseMeasure(1.0), TypeRegistry(("a",))
        heavy = [(5.0, MultiIndex((1,)))]
        with pytest.raises(DomainError):
            GammaMixtureLaw(heavy, base, reg, 1.0)
        with pytest.raises(DomainError):
            DirichletMixtureLaw(heavy, base, reg)
        with pytest.raises(DomainError):
            DirichletMixtureLaw([(-math.inf, MultiIndex((1,)))], base, reg)
        with pytest.raises(DomainError):
            DirichletMixtureLaw([(math.nan, MultiIndex((1,)))], base, reg)
        for law in _LAWS.values():
            doubled = [(lw + math.log(2.0), idx) for lw, idx in law.components]
            with pytest.raises(DomainError):
                dataclasses.replace(law, components=doubled)
        # within NORMALIZATION_TOL of 1 is accepted; from_components keeps
        # its meaning
        near = [(math.log1p(0.5e-10), MultiIndex((1,)))]
        assert len(GammaMixtureLaw(near, base, reg, 1.0)) == 1
        law = GammaMixtureLaw.from_components(heavy, base, reg, 1.0, normalize=False)
        assert law.components == ((5.0, MultiIndex((1,))),)
        assert GammaMixtureLaw.from_components(heavy, base, reg, 1.0).components == (
            (0.0, MultiIndex((1,))),
        )

    def test_replace_keeps_other_fields(self):
        law = _LAWS["dw-propagate"]
        moved = dataclasses.replace(law, rate_offset=law.rate_offset + 1.0)
        assert moved.components == law.components
        assert moved.rate_offset == law.rate_offset + 1.0
