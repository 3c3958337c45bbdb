"""``tools/mutate.py`` on a toy module: each operator's mutant, the
three outcomes a census reports (killed, survived, timed out), the
second run a check or mutant gets before it is lost or timed out, and
the killer ranked past the cap that still meets a survivor."""

from __future__ import annotations

import ast
import importlib.util
import sys
import time
from pathlib import Path

import pytest

from tests.tools import toy_mutants as toy

TOOLS = Path(__file__).resolve().parents[2] / "tools"
TOY = Path(toy.__file__)


@pytest.fixture(scope="module")
def mutate():
    spec = importlib.util.spec_from_file_location("mutate",
                                                  TOOLS / "mutate.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["mutate"] = module   # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def _body(mutate, mutant) -> str:
    """The mutated function's body, one statement per line."""
    tree = ast.parse(mutate.mutated_source(mutant))
    function = next(node for node in tree.body
                    if getattr(node, "name", "") == mutant.function)
    return "\n".join(ast.unparse(stmt) for stmt in function.body)


@pytest.fixture(scope="module")
def by_key(mutate):
    return {(m.line, m.op): m for m in mutate.mutants(TOY)}


OPERATORS = [
    (5, "negate", "if x >= lo:\n    return lo\nreturn min(x, hi)"),
    (5, "boundary", "if x <= lo:\n    return lo\nreturn min(x, hi)"),
    (6, "drop", "if x < lo:\n    pass\nreturn min(x, hi)"),
    (7, "return-none", "if x < lo:\n    return lo\nreturn None"),
    (11, "negate", "return flags.get('busy', False)"),
    (11, "negate#2", "return not flags.get('busy', True)"),
    (15, "int+1", "while n > 1:\n    n -= 1\nreturn n"),
    (16, "int-1", "while n > 0:\n    n -= 0\nreturn n"),
    (21, "drop", "pass\nreturn len(log)"),
]


@pytest.mark.parametrize("line, op, text", OPERATORS,
                         ids=[f"{line}-{op}" for line, op, _ in OPERATORS])
def test_each_operator_makes_its_mutant(mutate, by_key, line, op, text):
    assert _body(mutate, by_key[line, op]) == text


def test_only_the_given_lines_are_mutated(mutate):
    assert {m.line for m in mutate.mutants(TOY, {15, 21})} == {15, 21}


def test_killed_survived_and_timed_out(mutate, by_key):
    live = mutate.LiveFunctions([str(TOY)])
    plan = [
        (by_key[5, "negate"],
         [mutate.Check("clamps", lambda: toy.clamp(1, 2, 5) == 2, 0.01)]),
        (by_key[21, "drop"],
         [mutate.Check("counts", lambda: toy.unchecked([]) >= 0, 0.01)]),
        (by_key[16, "drop"],
         [mutate.Check("ends", lambda: toy.countdown(3) == 0, 0.01)]),
    ]
    outcomes = mutate.census(plan, live, parallel=2)
    assert [(o.status, o.killer) for o in outcomes] == [
        ("killed", "clamps"), ("survived", ""), ("timed out", "")]
    # The parent's functions are untouched: only the children mutate.
    assert toy.clamp(1, 2, 5) == 2 and toy.unchecked([]) == 1


def test_a_check_that_fails_alone_once_runs_again(mutate, tmp_path):
    marker = tmp_path / "ran"

    def flaky() -> bool:   # fails the first time only, as under load
        if marker.exists():
            return True
        marker.touch()
        return False
    passing, failing = mutate.baseline(
        [mutate.Check("flaky", flaky), mutate.Check("broken", lambda: False)],
        parallel=2)
    assert ([c.name for c in passing], [c.name for c in failing]) == (
        ["flaky"], ["broken"])


def test_a_mutant_slow_once_runs_again_before_it_times_out(mutate, by_key,
                                                           tmp_path):
    marker = tmp_path / "ran"

    def slow_once() -> bool:   # the first child stalls, as under load
        if not marker.exists():
            marker.touch()
            time.sleep(60)
        return toy.clamp(1, 2, 5) == 2
    live = mutate.LiveFunctions([str(TOY)])
    [outcome] = mutate.census(
        [(by_key[5, "negate"], [mutate.Check("clamps", slow_once, 0.01)])],
        live)
    assert (outcome.status, outcome.killer) == ("killed", "clamps")


def test_a_killer_ranked_past_the_cap_meets_the_survivors(mutate, by_key,
                                                          monkeypatch):
    """With a cap of one test per mutant, ``light`` (one line) is clamp's
    negate's only test and misses it; ``heavy`` (four lines) ranks past
    the cap there, but it first-kills unchecked's drop, so it gets to try
    the survivor too, and kills it."""
    monkeypatch.setattr(mutate, "MAX_TESTS", 1)
    live = mutate.LiveFunctions([str(TOY)])
    path = by_key[5, "negate"].path
    light = mutate.Check("light", lambda: toy.clamp(2, 2, 5) == 2, 0.01,
                         {path: {5}})
    heavy = mutate.Check(
        "heavy", lambda: toy.clamp(1, 2, 5) == 2 and toy.unchecked([]) == 1,
        0.01, {path: {5, 6, 7, 21}})
    outcomes = mutate.run_tests([by_key[5, "negate"], by_key[21, "drop"]],
                                [light, heavy], live, parallel=2)
    assert [(o.status, o.killer) for o in outcomes] == [
        ("killed", "heavy"), ("killed", "heavy")]
