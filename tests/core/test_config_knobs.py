"""Every ``FrameworkConfig`` knob is flipped somewhere, or says why not.

ROADMAP aim 2: "Every knob … must justify itself with a test or
experiment that flips it; otherwise it goes."  This is that sentence as
a gate: an ``ast`` scan of ``src/`` and ``benchmarks/`` for the places a
config is built, asserting that each field is given something other than
its default at one of them at least.  Tests and examples do not count: a
value only they set is a constant the product never varies.
A field nobody flips is a constant wearing a knob's clothes — delete it,
or add it to :data:`NEVER_FLIPPED` with the reason it has to stay.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

from repro.core.framework import FrameworkConfig

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "benchmarks")

#: Fields allowed to go unflipped, each with the reason it is still a
#: field and not a constant.
NEVER_FLIPPED = {
    "community": "a credential: deployment settings stay configurable "
                 "even while every test cluster uses 'public'",
    "port_offset": "a deployment setting: only test_concurrent_apps shares "
                   "one network between two deployments",
    "staleness_ms": "None is the paper's behaviour; the load nemesis on "
                    "the roadmap is its planned experiment",
}


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", "")


def _splats(call: ast.Call) -> bool:
    return any(keyword.arg is None for keyword in call.keywords)


def _config_builders(trees: list[ast.AST]) -> set[str]:
    """``FrameworkConfig``, ``dataclasses.replace``, and every function
    that forwards its ``**kwargs`` into one of those (``make_config``,
    ``build_farm``, test-local helpers), found to a fixed point."""
    builders = {"FrameworkConfig", "replace"}
    functions = [node for tree in trees for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and node.args.kwarg is not None]
    grew = True
    while grew:
        grew = False
        for function in functions:
            if function.name not in builders and any(
                    isinstance(node, ast.Call) and _splats(node)
                    and _callee(node) in builders
                    for node in ast.walk(function)):
                builders.add(function.name)
                grew = True
    return builders


def _flipped_fields() -> set[str]:
    """Fields given a non-default value (any non-constant expression
    counts) as a keyword of a config-building call — or of a ``dict(...)``
    in a file that splats dicts into one."""
    defaults = {}
    for field in dataclasses.fields(FrameworkConfig):
        defaults[field.name] = (
            field.default if field.default is not dataclasses.MISSING
            else field.default_factory())
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for directory in SCANNED
             for path in sorted((ROOT / directory).rglob("*.py"))]
    builders = _config_builders(trees)
    flipped: set[str] = set()
    for tree in trees:
        calls = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Call)]
        building = [call for call in calls if _callee(call) in builders]
        counted = list(building)
        if any(_splats(call) for call in building):
            counted += [call for call in calls if _callee(call) == "dict"]
        for call in counted:
            for keyword in call.keywords:
                if keyword.arg not in defaults:
                    continue
                value = keyword.value
                if not (isinstance(value, ast.Constant)
                        and value.value == defaults[keyword.arg]
                        and type(value.value)
                        is type(defaults[keyword.arg])):
                    flipped.add(keyword.arg)
    return flipped


def test_every_knob_is_flipped_somewhere_or_says_why_not():
    fields = {field.name for field in dataclasses.fields(FrameworkConfig)}
    assert set(NEVER_FLIPPED) <= fields, "allowlist names a deleted field"
    flipped = _flipped_fields()
    assert sorted(fields - flipped - set(NEVER_FLIPPED)) == []
    assert sorted(set(NEVER_FLIPPED) & flipped) == [], (
        "flipped now: drop it from the allowlist")
