"""Every name a scenefactor module exports must exist, the package
namespace is the union of those names, every JSON schema the package ships
must be a well-formed schema, modules import each other at module level
(SciPy's kd-tree aside), and every frozen value type hashes."""

import ast
import dataclasses
import importlib
import importlib.resources as resources
import json
import pathlib
import pkgutil

import jsonschema
import pytest

import scenefactor
from scenefactor.compare import ComparisonRow
from scenefactor.detection import MatchRecord
from scenefactor.geometry import DEFAULT_CAMERA, UnitQuaternion
from scenefactor.metrics import ComponentErrors, SummaryStats
from scenefactor.voxels import CANONICAL_SPEC

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


def test_namespace_is_the_union_of_module_exports():
    submodules = {name.rpartition(".")[2] for name in MODULES}
    public = {n for n in dir(scenefactor) if not n.startswith("_")} - submodules
    exported = set()
    for name in MODULES:
        if name != "scenefactor.cli":
            exported.update(importlib.import_module(name).__all__)
    assert public == exported


# A sample of each frozen, field-compared type that has a required field.
SAMPLES = {
    "Camera": DEFAULT_CAMERA,
    "ComparisonRow": ComparisonRow("scene", "layout_depth", "factored", 0.1),
    "ComponentErrors": ComponentErrors(0.5, 0.1, 0.2, 0.3, None),
    "GridSpec": CANONICAL_SPEC,
    "MatchRecord": MatchRecord(0.9, True, 0, 0, 0),
    "SummaryStats": SummaryStats(0.1, 0.5, 0.2, "below"),
    "UnitQuaternion": UnitQuaternion.identity(),
}


def frozen_value_types():
    """Every frozen ``eq=True`` dataclass that a scenefactor module defines."""
    found = {}
    for name in MODULES:
        for cls in vars(importlib.import_module(name)).values():
            if (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == name and cls.__dataclass_params__.frozen
                    and cls.__dataclass_params__.eq):
                found[cls.__name__] = cls
    return found


def test_frozen_value_types_hash():
    # A frozen dataclass that compares by field gets a field-wise hash,
    # which raises on any field that cannot be hashed.
    types = frozen_value_types()
    assert {"GeneratorConfig", "ThresholdTuple"} | set(SAMPLES) <= set(types)
    for name, cls in types.items():
        value = SAMPLES[name] if name in SAMPLES else cls()
        assert isinstance(value, cls) and hash(value) == hash(value), name
        assert value == dataclasses.replace(value), name


def test_shipped_schemas_are_well_formed():
    files = [f for f in resources.files("scenefactor").joinpath("schemas").iterdir()
             if f.name.endswith(".json")]
    assert sorted(f.name for f in files) == [
        "ap_report.schema.json", "eval_report.schema.json",
        "gradcheck_report.schema.json", "scene.schema.json"]
    for f in files:
        jsonschema.Draft202012Validator.check_schema(json.loads(f.read_text()))


def test_only_a_cycle_defers_an_import():
    """Modules import each other at module level.  The one deferred import
    is SciPy's kd-tree, inside ``NNIndex.__init__``, the one place a tree is
    built, so that only a command that builds one loads SciPy."""
    deferred = set()
    for path in pathlib.Path(scenefactor.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deferred.update(
                    (path.name, node.lineno, "." * node.level + (node.module or ""))
                    for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert sorted((name, module) for name, _, module in deferred) == [
        ("registration.py", "scipy.spatial")], sorted(deferred)
