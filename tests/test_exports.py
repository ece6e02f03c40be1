"""Every name a scenefactor module exports must exist, every JSON schema
the package ships must be a well-formed schema, and modules import each
other at module level unless that would make a cycle."""

import ast
import importlib
import importlib.resources as resources
import json
import pathlib
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


def test_only_a_cycle_defers_an_import():
    """``render`` imports ``scene``, so ``scene`` imports ``render`` inside
    the two functions that use it.  No other import is deferred."""
    deferred = set()
    for path in pathlib.Path(scenefactor.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deferred.update(
                    (path.name, node.lineno, "." * node.level + (node.module or ""))
                    for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert sorted((name, module) for name, _, module in deferred) == [
        ("scene.py", ".render"), ("scene.py", ".render")], sorted(deferred)
