"""The benchmark under perfbench/ drives alignlab through its public API and
traces it by binding the arguments of some calls by name. Those names and
call shapes are pinned here, written out rather than imported from
perfbench/, so that an API change which would break the benchmark fails the
test suite first."""

import inspect

import numpy as np
import pytest

import alignlab
from alignlab import dynamics, montecarlo

# each call perfbench/child.py makes: (positional arguments, keyword arguments)
CHILD_CALLS = {
    "build_spectrum": (5, ("seed",)),
    "NoiseProfile": (0, ("kappa2",)),
    "random_init": (2, ("seed",)),
    "block_stats": (3, ()),
    "drift_quadratic": (1, ()),
    "expected_drift": (2, ()),
    "expected_next_block_energy": (3, ()),
    "one_step_estimates": (5, ("seed",)),
}

# what perfbench/child.py's oracle reads of one_step_estimates' result: per
# step size these keys, and these fields of each McEstimate
ORACLE_KEYS = ["f", "sD_next", "sB_next"]
ORACLE_FIELDS = ("mean", "stderr")

# the parameters perfbench/tracer.py's hooks read, by traced function
TRACED_PARAMETERS = [
    (dynamics, "run_trajectory", ("T", "spec")),
    (montecarlo, "one_step_estimates", ("n", "spec", "etas", "seed")),
]


@pytest.mark.parametrize("name", sorted(CHILD_CALLS))
def test_child_calls_bind(name):
    positional, keywords = CHILD_CALLS[name]
    signature = inspect.signature(getattr(alignlab, name))
    signature.bind(*[None] * positional, **dict.fromkeys(keywords))


@pytest.mark.parametrize("module, name, parameters", TRACED_PARAMETERS, ids=[t[1] for t in TRACED_PARAMETERS])
def test_traced_parameters_exist(module, name, parameters):
    # the tracer wraps the module's public function and binds its call
    function = getattr(module, name)
    assert inspect.isfunction(function) and function.__module__ == module.__name__
    assert set(parameters) <= set(inspect.signature(function).parameters)


def test_one_step_estimates_result_keys():
    spec = alignlab.Spectrum(lambdas=np.array([2.0, 1.0]), k=1)
    noise = alignlab.NoiseProfile(kappa2=np.array([1.0, 1.0]))
    state = alignlab.State(c=np.array([1.0, 1.0]))
    etas = [0.1, 0.5]
    out = alignlab.one_step_estimates(state, spec, noise, etas, 100, seed=0)
    assert list(out) == etas
    for rows in out.values():
        assert list(rows) == ORACLE_KEYS
        for est in rows.values():
            assert isinstance(est, alignlab.McEstimate)
            assert all(isinstance(getattr(est, field), float) for field in ORACLE_FIELDS)
