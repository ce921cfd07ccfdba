"""The package's public names: __all__ lists exactly what it exports."""

import types

import efgtp


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name in dir(efgtp)
        if not name.startswith("_") and not isinstance(getattr(efgtp, name), types.ModuleType)
    }
    assert set(efgtp.__all__) == public
    assert len(efgtp.__all__) == len(public)  # no name listed twice
    namespace = {}
    exec("from efgtp import *", namespace)  # raises on a listed name that is gone
    assert set(efgtp.__all__) <= set(namespace)
