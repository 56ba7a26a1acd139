"""Every exported name resolves, in the package and in each submodule."""

import importlib
import pkgutil

import pytest

import lrckit

# __main__ runs the command line on import, and exports nothing.
MODULES = ["lrckit"] + [
    f"lrckit.{info.name}"
    for info in pkgutil.iter_modules(lrckit.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
