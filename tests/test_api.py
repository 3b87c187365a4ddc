"""The public calls the command line and the benchmark make, by position.

Callers pass most arguments positionally (for example
``smooth(timeline, i, base, pruning_epsilon, ode_tolerance)``), so a renamed
or reordered parameter would silently change what they compute.
"""

import dataclasses
import inspect
import os
import subprocess
import sys

import pytest

import mvhmm
from mvhmm import cli, core, dual, dw, errors, fv, io, oracles, specfun

POSITIONAL = [
    (fv, "smooth", ("timeline", "i", "base", "pruning_epsilon", "rtol")),
    (fv, "filter_forward", ("timeline", "i", "base", "rtol")),
    (fv, "filter_backward", ("timeline", "i", "base", "rtol")),
    (fv, "filter_posterior", ("timeline", "i", "base", "rtol")),
    (fv, "propagate_forward", ("law", "dt", "rtol")),
    (fv, "propagate_backward", ("law", "dt", "rtol")),
    (fv, "update_dirichlet", ("law", "n")),
    (fv, "predictive_pmf", ("law", "history")),
    (fv, "predictive_sample", ("result", "count", "rng", "history")),
    (dw, "smooth_dw", ("timeline", "i", "base", "beta", "pruning_epsilon", "kappa")),
    (dw, "filter_forward_dw", ("timeline", "i", "base", "beta", "kappa")),
    (dw, "filter_backward_dw", ("timeline", "i", "base", "beta", "kappa")),
    (dw, "filter_posterior_dw", ("timeline", "i", "base", "beta", "kappa")),
    (dw, "propagate_dw", ("law", "dt", "kappa")),
    (dw, "update_gamma", ("law", "draws")),
    (dw, "predict_count_pmf", ("law", "tail", "max_support")),
    (dw, "predict_count_mean", ("law",)),
    (dw, "predict_draw", ("law", "rng", "m_count")),
    (dw, "predictive_label_pmf", ("law", "history", "m_count")),
    (dual, "DwDualSpec", ("theta", "beta", "c", "kappa")),
    (dual, "dw_survival_prob", ("spec", "t")),
    (dual, "fv_totals_transition", ("theta", "n", "t", "rtol")),
    (dual, "clear_transition_cache", ()),
    (io, "format_mixture", ("law", "header")),
    (io, "load_config", ("path",)),
    (io, "load_timeline", ("path", "aggregate")),
    (mvhmm.DirichletMixtureLaw, "prior", ("base", "registry")),
    (mvhmm.GammaMixtureLaw, "prior", ("base", "registry", "beta")),
    (mvhmm, "DirichletMixtureLaw", ("components", "base", "registry")),
    (
        mvhmm,
        "GammaMixtureLaw",
        ("components", "base", "registry", "beta", "rate_offset"),
    ),
    (
        mvhmm.DirichletMixtureLaw,
        "from_components",
        ("components", "base", "registry", "normalize"),
    ),
    (
        mvhmm.GammaMixtureLaw,
        "from_components",
        ("components", "base", "registry", "beta", "rate_offset", "normalize"),
    ),
]


@pytest.mark.parametrize(
    "owner,name,params", POSITIONAL, ids=[name for _, name, _ in POSITIONAL]
)
def test_positional_signature(owner, name, params):
    assert tuple(inspect.signature(getattr(owner, name)).parameters) == params


PUBLIC = {
    "AllWeightsZero", "BaseMeasure", "DegeneracyError", "DirichletMixtureLaw",
    "DomainError", "DwDualSpec", "DwSmoothingResult", "FvDualSpec",
    "FvSmoothingResult", "GammaMixtureLaw", "MultiIndex", "MvhmmError",
    "ObservationTimeline", "OrderError", "RunConfig", "SchemaError",
    "SharedAtomSets", "TotalsTransitionTable", "TypeRegistry", "c_flow",
    "dw_survival_prob", "filter_backward", "filter_backward_dw", "filter_forward",
    "filter_forward_dw", "filter_posterior", "filter_posterior_dw",
    "fv_totals_transition", "load_config", "load_timeline", "normalize",
    "predict_count_mean", "predict_count_pmf", "predict_draw",
    "predictive_label_pmf", "predictive_pmf", "predictive_sample",
    "propagate_backward", "propagate_dw", "propagate_forward", "s_t",
    "serialize_timeline", "smooth", "smooth_dw", "update_dirichlet",
    "update_gamma",
}


def test_public_names_import():
    for name in mvhmm.__all__:
        assert getattr(mvhmm, name) is not None


def test_public_names_pinned():
    # a public name may not vanish or appear without this set changing too
    assert len(mvhmm.__all__) == len(PUBLIC)
    assert set(mvhmm.__all__) == PUBLIC


@pytest.mark.parametrize(
    "module",
    [core, dual, dw, fv, io, oracles, specfun, errors, cli],
    ids=lambda module: module.__name__,
)
def test_module_names_resolve(module):
    # a name deleted from a module but left in its __all__ fails here
    for name in module.__all__:
        assert hasattr(module, name), name


def test_result_types_and_config_fields():
    assert fv.FvSmoothingResult is not dw.DwSmoothingResult
    fields = {f.name for f in dataclasses.fields(mvhmm.RunConfig)}
    assert {
        "model", "base", "beta", "pruning_epsilon", "seed",
        "ode_tolerance", "dw_rate_constant",
    } <= fields


def test_runtime_imports_leave_out_scipy():
    # numpy is the only runtime dependency; scipy serves the test suite only.
    # Importing loads no other package (those the interpreter's site hooks
    # load at start aside) and builds no totals table, which keeps a cold
    # CLI call's start-up to interpreter start plus imports.
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import mvhmm, mvhmm.cli, mvhmm.oracles\n"
        "assert 'scipy' not in sys.modules, [m for m in sys.modules if 'scipy' in m]\n"
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "extra = loaded - set(sys.stdlib_module_names) - {'numpy', 'mvhmm'}\n"
        "assert not extra, sorted(extra)\n"
        "assert not mvhmm.dual._table_cache._tables"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
