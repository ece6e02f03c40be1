"""Every name a scenefactor module exports must exist, and every JSON
schema the package ships must be a well-formed schema."""

import importlib
import importlib.resources as resources
import json
import pkgutil

import jsonschema
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


def test_shipped_schemas_are_well_formed():
    files = [f for f in resources.files("scenefactor").joinpath("schemas").iterdir()
             if f.name.endswith(".json")]
    assert sorted(f.name for f in files) == [
        "ap_report.schema.json", "eval_report.schema.json",
        "gradcheck_report.schema.json", "scene.schema.json"]
    for f in files:
        jsonschema.Draft202012Validator.check_schema(json.loads(f.read_text()))
