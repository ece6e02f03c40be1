"""Every name a scenefactor module exports must exist."""

import importlib
import pkgutil

import pytest

import scenefactor

MODULES = [info.name for info in pkgutil.iter_modules(scenefactor.__path__, "scenefactor.")]


def test_every_module_found():
    assert "scenefactor.cli" in MODULES and "scenefactor.render" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
