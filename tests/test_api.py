import importlib
import inspect
import sys

import pytest

import alignlab

MODULES = ["spectrum", "state", "theory", "dynamics", "montecarlo", "harness", "svgplot"]


def is_api(obj) -> bool:
    return inspect.isfunction(obj) or inspect.isclass(obj)


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_the_public_functions_and_classes(name):
    module = importlib.import_module(f"alignlab.{name}")
    defined = {
        attr for attr, obj in vars(module).items()
        if not attr.startswith("_") and is_api(obj) and obj.__module__ == module.__name__
    }
    # __all__ may also list constants; every entry must exist
    listed = {attr: getattr(module, attr, None) for attr in module.__all__}
    assert None not in listed.values()
    assert {attr for attr, obj in listed.items() if is_api(obj)} == defined


def test_every_reexport_resolves_through_its_module():
    for attr, obj in vars(alignlab).items():
        if attr.startswith("_") or inspect.ismodule(obj):
            continue
        module = sys.modules[obj.__module__]
        assert getattr(module, attr) is obj
        # errors defines only exception classes and has no __all__
        if module.__name__ != "alignlab.errors":
            assert attr in module.__all__, f"{module.__name__}.__all__ lacks {attr}"
