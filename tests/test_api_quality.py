"""API quality gates: docstrings and import hygiene across the package."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro


def iter_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # runs the CLI on import, by design
        yield info.name


ALL_MODULES = sorted(iter_modules())


def test_every_module_imports_cleanly():
    for name in ALL_MODULES:
        importlib.import_module(name)


@pytest.mark.parametrize("name", ALL_MODULES)
def test_every_module_has_a_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} is missing a module docstring"


def test_public_classes_documented():
    undocumented = []
    for name in ALL_MODULES:
        module = importlib.import_module(name)
        for attr_name in getattr(module, "__all__", []):
            attr = getattr(module, attr_name)
            if inspect.isclass(attr) and attr.__module__.startswith("repro"):
                if not attr.__doc__:
                    undocumented.append(f"{name}.{attr_name}")
    assert not undocumented, f"undocumented public classes: {undocumented}"


def test_public_functions_documented():
    undocumented = []
    for name in ALL_MODULES:
        module = importlib.import_module(name)
        for attr_name in getattr(module, "__all__", []):
            attr = getattr(module, attr_name)
            if inspect.isfunction(attr) and attr.__module__.startswith("repro"):
                if not attr.__doc__:
                    undocumented.append(f"{name}.{attr_name}")
    assert not undocumented, f"undocumented public functions: {undocumented}"


def test_no_module_leaks_private_names_in_all():
    for name in ALL_MODULES:
        module = importlib.import_module(name)
        for attr_name in getattr(module, "__all__", []):
            assert not attr_name.startswith("_"), f"{name} exports {attr_name}"


def test_subpackage_layout_matches_design():
    """The DESIGN.md system inventory, verified against reality."""
    expected = {
        "repro.sim", "repro.runtime", "repro.net", "repro.tuplespace",
        "repro.jini", "repro.snmp", "repro.node", "repro.core",
        "repro.apps", "repro.experiments", "repro.util",
    }
    packages = {
        name for name in ALL_MODULES
        if importlib.import_module(name).__file__.endswith("__init__.py")
    }
    assert expected <= packages


def test_every_framework_config_knob_is_set_somewhere():
    """A knob nothing ever sets is a constant wearing a knob's clothes.

    Every ``FrameworkConfig`` field must appear as a keyword argument in
    some call under ``src/`` (outside ``framework.py``, which only
    *reads* them), ``tests/``, ``benchmarks/`` or ``examples/``.  To fix
    a failure, flip the knob in a test or experiment — or delete it and
    let the subsystem's own default stand.
    """
    from repro.core.framework import FrameworkConfig

    root = Path(__file__).resolve().parents[1]
    keywords: set[str] = set()
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in (root / top).rglob("*.py"):
            if path.name == "framework.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    keywords.update(k.arg for k in node.keywords if k.arg)
    never_set = [f.name for f in dataclasses.fields(FrameworkConfig)
                 if f.name not in keywords]
    assert not never_set, f"FrameworkConfig knobs nothing sets: {never_set}"
