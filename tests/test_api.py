import types

import cubesteiner


def test_all_is_duplicate_free():
    assert len(cubesteiner.__all__) == len(set(cubesteiner.__all__))


def test_all_lists_exactly_the_public_bindings():
    # every public non-module name the package binds is exported, and
    # nothing exported is missing from the package
    bound = {
        name
        for name, value in vars(cubesteiner).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(cubesteiner.__all__) == bound
