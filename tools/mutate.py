"""Which lines' behaviour do the checks observe?  A stdlib mutation census.

Every mutation site in a function body of the named modules, on lines
the product set executes (``tools/audit_product.sh``), yields one
mutant per operator that applies:

    negate       a comparison into its complement (``==``/``!=``, ``<``/
                 ``>=``, ``in``/``not in``, ...), a branch test ``x`` into
                 ``not x``, ``not x`` into ``x``, ``True``/``False``
    boundary     ``<`` <-> ``<=`` and ``>`` <-> ``>=``
    int+1 int-1  an int constant plus or minus one
    drop         a simple statement replaced by ``pass``
    return-none  ``return EXPR`` into ``return None``

A mutant runs against its possible killers only: the tier-1 tests that
execute its lines in their own process, those touching the fewest lines
of the census's modules first, at most ``MAX_TESTS`` of them, and stops
at the first failure.  A mutant they all miss then runs the tests ranked
past the cap on its lines that killed some other mutant first (a heavy
test that kills elsewhere is worth trying), and a mutant every test
misses runs at most ``MAX_ROWS`` of the golden rows (``tests/golden.txt``)
that execute its lines: a row kills it when its command fails or its
digest moves.  (A line hit by hundreds of tests would otherwise cost a
survivor the whole suite; the caps count checks, not seconds, so one
commit always runs the same ones.  A heavy test ranked past the cap on
a hot line that kills no mutant first never meets that line's mutants,
so killing none of them clears it of nothing.)  Which tests run a line
comes from the test files a per-test audit (``line_audit.py run`` files
each hit under the pytest node id that ran it) names, each test traced
alone in the baseline.

One pytest session collects the tests once.  Each mutant runs in a child
forked from it that swaps the mutated functions' ``__code__`` in place,
so ``from m import f`` aliases, bound methods and partials see the
mutant too.  The parent kills a child that runs past 3x the unmutated
time of its selected checks (plus a second for the fork) and runs it
once more: the mutant *timed out* if that child runs past it too.  The
unmutated times come from a baseline pass in which each check runs
alone in a child; a check that fails there runs once more, and if it
fails again the run fails (its kills would be missing).
The children run under a Hypothesis profile with ``derandomize=True``,
no example database and no deadline, and with ``CHAOS_SEED=1``, so one
commit gives one kill set.

Usage (from the repository root)::

    python tools/line_audit.py run AUDIT/tier1 -- python -m pytest -q
    sh tools/audit_product.sh AUDIT/product
    python tools/mutate.py run --tier1 AUDIT/tier1 --product AUDIT/product \\
        [--jobs N] [--json FILE] [--census tools/census.txt] \\
        [--without PATTERN]... MODULE...
    python tools/mutate.py list --product AUDIT/product MODULE...

A MODULE is a path under ``src/repro`` (``core/states.py``).  ``run``
prints each module's mutants, killed, survived, timed out and skipped
(cannot be swapped in place), then every mutant not killed as
``file:line operator``.  With ``--census`` it exits non-zero if one of
them is not listed in that file (see ``tools/census.txt``).
``--without`` drops the tests whose node ids match an ``fnmatch``
pattern from the killers, to see whether the kill set holds without
them.  ``list`` prints the mutants without running them.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import functools
import gc
import importlib
import io
import json
import os
import runpy
import shlex
import signal
import sys
import tempfile
import threading
import time
import types
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
SLACK_S = 1.0
MAX_TESTS = 50   # a mutant's killers, per kind: a survivor's cost is
MAX_ROWS = 3     # bounded, and the choice does not hang on a timing
STATUSES = ("killed", "survived", "timed out", "skipped")

_NEGATED = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE,
            ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
            ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn,
            ast.NotIn: ast.In}
_BOUNDARY = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE,
             ast.GtE: ast.Gt}
_DROPPED = (ast.Expr, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Raise,
            ast.Assert, ast.Delete, ast.Break, ast.Continue, ast.Return)
_TESTED = (ast.If, ast.While, ast.IfExp, ast.Assert)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_SIGNATURE = ("args", "decorator_list", "returns")


# -- the mutants -----------------------------------------------------------


@dataclass(frozen=True)
class Mutant:
    path: str     # the module's real path
    index: int    # the site's place in the module's walk: the mutant's key
    line: int
    end_line: int
    op: str       # operator name, with ``#n`` for the n-th (n > 1) on a line
    function: str

    @property
    def name(self) -> str:
        return f"{_relative(self.path)}:{self.line} {self.op}"


def _relative(path: str) -> str:
    try:
        return str(Path(path).relative_to(PACKAGE.parent))
    except ValueError:
        return str(Path(path).relative_to(REPO))


def _sites(tree: ast.Module) -> list[tuple[ast.AST, str, str, Callable]]:
    """``(node, op, function, mutate)`` for every site in function bodies,
    in a walk order that one source always repeats.  ``mutate()`` edits
    the tree in place."""
    sites: list[tuple[ast.AST, str, str, Callable]] = []

    def add(node, op, function, mutate):
        sites.append((node, op, function, mutate))

    def replace(parent, fieldname, index, new):
        def mutate():
            if index is None:
                setattr(parent, fieldname, new)
            else:
                getattr(parent, fieldname)[index] = new
        return mutate

    def visit(node: ast.AST, function: str, prefix: str) -> None:
        for fieldname, value in ast.iter_fields(node):
            if fieldname in _SIGNATURE and isinstance(node, _FUNCTIONS):
                continue   # defaults and decorators run where it is defined
            items = value if isinstance(value, list) else [value]
            for index, child in enumerate(items):
                if not isinstance(child, ast.AST):
                    continue
                at = index if isinstance(value, list) else None
                if isinstance(child, _FUNCTIONS[:2]):
                    qualname = f"{prefix}{child.name}"
                    visit(child, qualname, qualname + ".<locals>.")
                    continue
                if isinstance(child, ast.ClassDef):
                    visit(child, function, f"{prefix}{child.name}.")
                    continue
                if function:
                    _mutations(node, fieldname, at, child, function, add,
                               replace)
                visit(child, function, prefix)

    visit(tree, "", "")
    return sites


def _mutations(parent, fieldname, at, node, function, add, replace):
    def swap(op):
        return lambda: setattr(node, "ops", [op()])

    if isinstance(node, ast.stmt) and not _docstring(parent, fieldname, at,
                                                     node):
        if isinstance(node, _DROPPED):
            add(node, "drop", function,
                replace(parent, fieldname, at, ast.copy_location(ast.Pass(),
                                                                 node)))
        if isinstance(node, ast.Return) and node.value is not None and not (
                isinstance(node.value, ast.Constant)
                and node.value.value is None):
            add(node, "return-none", function,
                lambda: setattr(node, "value", ast.copy_location(
                    ast.Constant(None), node.value)))
    if isinstance(node, ast.Compare) and len(node.ops) == 1:
        kind = type(node.ops[0])
        add(node, "negate", function, swap(_NEGATED[kind]))
        if kind in _BOUNDARY:
            add(node, "boundary", function, swap(_BOUNDARY[kind]))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        add(node, "negate", function,
            replace(parent, fieldname, at, node.operand))
    elif (fieldname == "test" and isinstance(parent, _TESTED)
          or fieldname == "ifs") and not isinstance(node, ast.UnaryOp):
        add(node, "negate", function, replace(
            parent, fieldname, at,
            ast.copy_location(ast.UnaryOp(ast.Not(), node), node)))
    elif isinstance(node, ast.Constant) and isinstance(node.value, bool):
        add(node, "negate", function,
            lambda: setattr(node, "value", not node.value))
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        for delta, op in ((1, "int+1"), (-1, "int-1")):
            add(node, op, function,
                lambda d=delta: setattr(node, "value", node.value + d))


def _docstring(parent, fieldname, at, node) -> bool:
    return (at == 0 and fieldname == "body"
            and isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef, ast.Module))
            and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


@functools.lru_cache(maxsize=None)
def _source(path: str) -> str:
    """A module's source as the census first read it (edits made while
    a census runs do not reach its children)."""
    return Path(path).read_text()


def mutants(path: Path, lines: Optional[set[int]] = None) -> list[Mutant]:
    """Every mutant of ``path`` whose lines meet ``lines`` (all if None)."""
    real = os.path.realpath(path)
    found, seen = [], {}
    for index, (node, op, function, _) in enumerate(
            _sites(ast.parse(_source(real)))):
        end = node.end_lineno or node.lineno
        if lines is not None and not lines & set(range(node.lineno, end + 1)):
            continue
        n = seen[node.lineno, op] = seen.get((node.lineno, op), 0) + 1
        found.append(Mutant(real, index, node.lineno, end,
                            op if n == 1 else f"{op}#{n}", function))
    return found


def mutated_source(mutant: Mutant) -> str:
    """The module's source with ``mutant`` applied (for reading)."""
    return ast.unparse(_mutated_tree(mutant))


def _mutated_tree(mutant: Mutant) -> ast.Module:
    tree = ast.parse(_source(mutant.path))
    _sites(tree)[mutant.index][3]()
    return ast.fix_missing_locations(tree)


# -- applying a mutant in place ---------------------------------------------


def _codes(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _codes(const)


def _key(code: types.CodeType) -> tuple[str, int]:
    return code.co_name, code.co_firstlineno


def _code_table(module_code: types.CodeType) -> dict:
    return {_key(c): c for c in _codes(module_code)}


class LiveFunctions:
    """The function objects compiled from each file, found once in the
    parent (before any fork) so every child can swap their code."""

    def __init__(self, paths: list[str]) -> None:
        wanted = {os.path.realpath(p) for p in paths}
        self.functions: dict[str, list[types.FunctionType]] = {
            p: [] for p in wanted}
        self.original: dict[str, dict] = {}
        for obj in gc.get_objects():
            if isinstance(obj, types.FunctionType):
                path = os.path.realpath(obj.__code__.co_filename)
                if path in wanted:
                    self.functions[path].append(obj)
        for path in wanted:
            self.original[path] = _code_table(
                compile(_source(path), path, "exec"))

    def apply(self, mutant: Mutant) -> int:
        """Swap in the mutant's code; return how many functions changed
        (0: it cannot be applied in place)."""
        new = _code_table(compile(_mutated_tree(mutant), mutant.path, "exec"))
        old = self.original[mutant.path]
        changed = {key for key, code in new.items() if old.get(key) != code}
        swapped = 0
        for fn in self.functions[mutant.path]:
            key = _key(fn.__code__)
            if key in changed:
                try:
                    fn.__code__ = new[key]
                except ValueError:   # its closure cells no longer match
                    return 0
                swapped += 1
        return swapped


# -- running mutants in forked children --------------------------------------


@dataclass
class Check:
    """One possible killer: ``run()`` returns True when it passes.
    ``seconds`` is its unmutated time; ``hits`` the lines of the census's
    modules it runs alone (real path -> lines)."""
    name: str
    run: Callable[[], bool]
    seconds: float = 0.0
    hits: dict[str, set[int]] = field(default_factory=dict)


@dataclass
class Outcome:
    mutant: Mutant
    status: str
    killer: str = ""
    seconds: float = 0.0


def _passes(check: Check) -> bool:
    try:
        return bool(check.run())
    except BaseException:  # noqa: BLE001 - a crash is a failure
        return False


def _tracer(paths: dict[str, str]):
    """A ``settrace`` hook filing the lines run in ``paths`` (a code
    object's filename -> real path) into the returned set."""
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        if frame.f_code.co_filename not in paths:
            return None
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local
    return hits, start


def _child(mutant: Optional[Mutant], checks: list[Check],
           live: Optional[LiveFunctions], out: str,
           trace: Optional[dict[str, str]]) -> None:
    os.setpgid(0, 0)
    null = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):
        os.dup2(null, fd)
    records: list[dict] = []
    try:
        if mutant is not None and not live.apply(mutant):
            records.append({"skipped": True})
        for check in checks if not records else ():
            if trace:
                hits, hook = _tracer(trace)
                threading.settrace(hook)
                sys.settrace(hook)
            start = time.perf_counter()
            ok = _passes(check)
            record = {"name": check.name, "ok": ok,
                      "seconds": time.perf_counter() - start}
            if trace:
                sys.settrace(None)
                threading.settrace(None)
                lines: dict[str, list[int]] = {}
                for filename, line in hits:
                    lines.setdefault(trace[filename], []).append(line)
                record["hits"] = lines
            records.append(record)
            if not ok and mutant is not None:
                break
        Path(out).write_text(json.dumps(records))
    finally:
        os._exit(0)


def run_children(jobs: list[tuple[Optional[Mutant], list[Check], float]],
                 live: Optional[LiveFunctions], parallel: int = 1,
                 progress: Callable[[int], None] = lambda done: None,
                 trace: Optional[dict[str, str]] = None,
                 ) -> list[tuple[Optional[list[dict]], float]]:
    """Run each ``(mutant, checks, timeout)`` in its own child, at most
    ``parallel`` at a time.  Each result is the child's records (one per
    check it ran, or ``[{"skipped": True}]``), or None if it ran past
    its timeout and was killed, with its wall time."""
    results: list = [None] * len(jobs)
    running: dict[int, tuple[int, str, float, float]] = {}
    queue = list(range(len(jobs)))[::-1]
    done = 0
    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        while queue or running:
            while queue and len(running) < parallel:
                index = queue.pop()
                mutant, checks, timeout = jobs[index]
                out = os.path.join(scratch, str(index))
                pid = os.fork()
                if pid == 0:
                    _child(mutant, checks, live, out, trace)
                now = time.monotonic()
                running[pid] = (index, out, now, now + timeout)
            time.sleep(0.005)
            for pid, (index, out, start, deadline) in list(running.items()):
                finished, _ = os.waitpid(pid, os.WNOHANG)
                now = time.monotonic()
                if not finished and now < deadline:
                    continue
                if not finished:
                    try:
                        os.killpg(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    os.waitpid(pid, 0)
                    results[index] = (None, now - start)
                else:
                    records = (json.loads(Path(out).read_text())
                               if os.path.exists(out) else [])
                    results[index] = (records, now - start)
                del running[pid]
                done += 1
                progress(done)
    return results


def _again(jobs: list, results: list, failed: Callable[[Optional[list]], bool],
           live: Optional[LiveFunctions], parallel: int,
           trace: Optional[dict[str, str]] = None) -> list:
    """Run once more each job whose records ``failed``: a child that a
    loaded machine slowed or upset once gets a second chance."""
    again = [i for i, (records, _) in enumerate(results) if failed(records)]
    for i, result in zip(again, run_children([jobs[i] for i in again], live,
                                             parallel, trace=trace)):
        results[i] = result
    return results


def census(plan: list[tuple[Mutant, list[Check]]],
           live: LiveFunctions, parallel: int = 1,
           progress: Callable[[int], None] = lambda done: None,
           ) -> list[Outcome]:
    """Run every mutant against its checks, in order, up to the first
    that fails.  One that runs past 3x their unmutated time (plus
    ``SLACK_S``) twice is reported timed out."""
    jobs = [(mutant, checks, 3 * sum(c.seconds for c in checks) + SLACK_S)
            for mutant, checks in plan]
    results = _again(jobs, run_children(jobs, live, parallel, progress),
                     lambda records: records is None, live, parallel)
    outcomes = []
    for (mutant, _), (records, took) in zip(plan, results):
        if records is None:
            outcomes.append(Outcome(mutant, "timed out", seconds=took))
        elif records and records[0].get("skipped"):
            outcomes.append(Outcome(mutant, "skipped", seconds=took))
        else:
            failed = [r["name"] for r in records if not r["ok"]]
            outcomes.append(Outcome(mutant,
                                    "killed" if failed else "survived",
                                    failed[0] if failed else "", took))
    return outcomes


def _settle(outcomes: list[Outcome], plan: list[tuple[Mutant, list[Check]]],
            live: LiveFunctions, parallel: int = 1,
            progress: Callable[[int], None] = lambda done: None) -> None:
    """Run survivors against further checks (``plan``) and record in
    ``outcomes`` each one that is now killed or timed out."""
    by_mutant = {o.mutant: o for o in outcomes}
    for outcome in census(plan, live, parallel, progress):
        if outcome.status != "survived":
            mine = by_mutant[outcome.mutant]
            mine.status, mine.killer = outcome.status, outcome.killer


def run_tests(found: list[Mutant], checks: list[Check],
              live: LiveFunctions, parallel: int = 1,
              progress: Callable[[int], None] = lambda done: None,
              ) -> list[Outcome]:
    """Every mutant against its ``MAX_TESTS`` cheapest killers, then each
    survivor against the tests ranked past that cap on its lines that
    killed another mutant first."""
    outcomes = census([(m, _killers(checks, m, MAX_TESTS)) for m in found],
                      live, parallel, progress)
    killers = {o.killer for o in outcomes if o.status == "killed"}
    plan = [(o.mutant, [c for c in _killers(checks, o.mutant)[MAX_TESTS:]
                        if c.name in killers])
            for o in outcomes if o.status == "survived"]
    _settle(outcomes, [(m, c) for m, c in plan if c], live, parallel)
    return outcomes


def baseline(checks: list[Check], parallel: int = 1,
             trace: Optional[dict[str, str]] = None,
             ) -> tuple[list[Check], list[Check]]:
    """Run each check alone, unmutated, in a child, and once more each
    that fails: return those that pass, each with its time and (with
    ``trace``) the lines it ran, and those that failed twice."""
    jobs = [(None, [c], 600.0) for c in checks]
    results = _again(jobs, run_children(jobs, None, parallel, trace=trace),
                     lambda records: not (records and records[0]["ok"]),
                     None, parallel, trace)
    passing, failing = [], []
    for check, (records, _) in zip(checks, results):
        if records and records[0]["ok"]:
            check.seconds = records[0]["seconds"]
            check.hits = {path: set(lines) for path, lines
                          in records[0].get("hits", {}).items()}
            passing.append(check)
        else:
            failing.append(check)
    return passing, failing


def _killers(checks: list[Check], mutant: Mutant,
             limit: Optional[int] = None) -> list[Check]:
    """The first ``limit`` checks that run the mutant's lines, those
    running the fewest lines of the census's modules first."""
    span = set(range(mutant.line, mutant.end_line + 1))
    return sorted((c for c in checks if c.hits.get(mutant.path, set()) & span),
                  key=lambda c: (sum(map(len, c.hits.values())), c.name)
                  )[:limit]


# -- the audits: which test files and golden rows run which lines --------------


def _dumps(audit: Path):
    for path in sorted(audit.glob("lines-*.json")):
        yield json.loads(path.read_text())


def product_lines(audit: Path) -> dict[str, set[int]]:
    lines: dict[str, set[int]] = {}
    for dump in _dumps(audit):
        for name, nums in dump["lines"].items():
            lines.setdefault(name, set()).update(nums)
    return lines


def test_files(tier1: Path, paths: list[str]) -> list[str]:
    """The test files with a test that runs a line of ``paths``.  (A
    module-scoped fixture's lines are filed under the first test that
    uses it, so the census traces every test of these files itself.)"""
    files = set()
    for dump in _dumps(tier1):
        for test, hits in dump["tests"].items():
            if test and any(hits.get(path) for path in paths):
                files.add(test.split("::")[0])
    return sorted(f for f in files if (REPO / f).is_file())


def row_command(recorded: str) -> str:
    """The golden-table command a recorded command line runs, as
    ``golden.py`` builds it (``python -m repro ...`` -> ``repro ...``,
    ``python REPO/script ...`` -> ``script ...``)."""
    words = shlex.split(recorded)[1:]
    if words[:2] == ["-m", "repro"]:
        words = words[1:]
    elif words and Path(words[0]).is_absolute():
        try:
            words[0] = str(Path(words[0]).relative_to(REPO))
        except ValueError:
            pass
    return shlex.join(words)


def row_lines(product: Path, paths: list[str]) -> dict[str, dict[str, set[int]]]:
    """Per golden-row command, the lines of ``paths`` its run executes."""
    rows: dict[str, dict[str, set[int]]] = {}
    for dump in _dumps(product):
        mine = rows.setdefault(row_command(dump["command"]), {})
        for path in paths:
            mine.setdefault(path, set()).update(dump["lines"].get(path, ()))
    return rows


# -- the checks: pytest items and golden rows ---------------------------------


def _item_check(item) -> Check:
    from _pytest.runner import runtestprotocol

    def run() -> bool:
        reports = runtestprotocol(item, nextitem=None, log=False)
        return not any(report.failed for report in reports)
    return Check(item.nodeid, run)


def _row_check(golden, command: str, pinned: str,
               hits: dict[str, set[int]]) -> Check:
    """Run a golden row in this process, in a scratch directory; it
    passes when it exits 0 and its digest equals the pinned one."""
    words = shlex.split(command)

    def run() -> bool:
        out = io.BytesIO()
        saved = sys.stdout, sys.argv, os.getcwd()
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            sys.stdout = io.TextIOWrapper(out, encoding="utf-8")
            try:
                with redirect_stderr(io.StringIO()):
                    if words[0] == "repro":
                        from repro.cli import main
                        code = main(words[1:])
                    else:
                        sys.argv = [str(REPO / words[0]), *words[1:]]
                        runpy.run_path(sys.argv[0], run_name="__main__")
                        code = 0
            except SystemExit as exc:
                code = exc.code
            finally:
                sys.stdout.flush()
                sys.stdout.detach()
                sys.stdout, sys.argv = saved[0], saved[1]
                os.chdir(saved[2])
        return not code and golden.digest(command, out.getvalue()) == pinned
    return Check(command, run, hits=hits)


def _load_golden():
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import golden
    return golden


def _module_path(name: str) -> str:
    for base in (PACKAGE, PACKAGE.parent, REPO):
        if (base / name).is_file():
            return os.path.realpath(base / name)
    raise SystemExit(f"mutate: no module {name} under {PACKAGE}")


class _Session:
    """The pytest plugin whose run loop is the census."""

    def __init__(self, args, found: list[Mutant],
                 rows: dict[str, dict[str, set[int]]]):
        self.args, self.found, self.rows = args, found, rows
        self.outcomes: list[Outcome] = []
        self.checks: list[Check] = []
        self.failing: list[str] = []   # checks the baseline lost
        # pytest captures fd 2 for the session; keep the real one.
        self.stderr = os.fdopen(os.dup(2), "w", buffering=1)

    def _say(self, text: str) -> None:
        print(text, file=self.stderr)

    def pytest_runtestloop(self, session):
        paths = sorted({m.path for m in self.found})
        for path in paths:   # a module first imported in a child is unmutated
            importlib.import_module(".".join(
                Path(path).relative_to(PACKAGE.parent).with_suffix("").parts))
        live = LiveFunctions(paths)
        trace = {fn.__code__.co_filename: path
                 for path, fns in live.functions.items() for fn in fns}
        items = [item for item in session.items
                 if not any(fnmatch.fnmatchcase(item.nodeid, p)
                            for p in self.args.without)]
        start = time.perf_counter()
        checks, failing = baseline([_item_check(i) for i in items],
                                   self.args.jobs, trace)
        self.checks = [c for c in checks if c.hits]
        self._say(f"baseline: {len(checks)} of {len(items)} tests pass alone, "
                  f"{len(self.checks)} run a mutated module "
                  f"({time.perf_counter() - start:.0f}s)")
        self.failing.extend(f"fails alone, twice: {c.name}" for c in failing)
        self.outcomes = run_tests(self.found, self.checks, live,
                                  self.args.jobs,
                                  self._progress(len(self.found), "tests"))
        missed = [o for o in self.outcomes if o.status == "survived"]
        if missed:
            self._rows(missed, live)
        return True

    def _rows(self, missed: list[Outcome], live: LiveFunctions) -> None:
        golden = _load_golden()
        pinned = {command: digest for digest, command in golden.read_table()}
        wanted = sorted(row for row, hits in self.rows.items()
                        if row in pinned and any(
                            _killers([Check(row, None, hits=hits)], o.mutant)
                            for o in missed))
        checks, failing = baseline([_row_check(golden, row, pinned[row],
                                               self.rows[row])
                                    for row in wanted], self.args.jobs)
        self.failing.extend(f"fails in process, twice: {c.name}"
                            for c in failing)
        self._say(f"baseline: {len(checks)} of {len(wanted)} golden rows "
                  f"hold in process")
        plan = [(o.mutant, _killers(checks, o.mutant, MAX_ROWS))
                for o in missed]
        plan = [(m, c) for m, c in plan if c]
        _settle(missed, plan, live, self.args.jobs,
                self._progress(len(plan), "golden rows"))

    def _progress(self, total: int, what: str):
        start = time.perf_counter()

        def report(done: int) -> None:
            if done % 100 == 0 or done == total:
                self._say(f"  {done}/{total} mutants run against {what} "
                          f"({time.perf_counter() - start:.0f}s)")
        return report


def _census_file(path: Path) -> set[str]:
    """The ``file:line operator`` keys ``path`` accepts."""
    keys = set()
    for line in path.read_text().splitlines():
        words = line.split()
        if len(words) >= 2 and not line.startswith("#") and ":" in words[0]:
            keys.add(f"{words[0]} {words[1]}")
    return keys


def _report(outcomes: list[Outcome], modules: list[str]) -> list[str]:
    print(f"{'module':<28} {'mutants':>7} {'killed':>7} {'survived':>8} "
          f"{'timed out':>9} {'skipped':>7}")
    for module in modules:
        mine = [o for o in outcomes if o.mutant.path == module]
        counts = [sum(o.status == s for o in mine) for s in STATUSES]
        print(f"{_relative(module):<28} {len(mine):>7} {counts[0]:>7} "
              f"{counts[1]:>8} {counts[2]:>9} {counts[3]:>7}")
    open_ = [o for o in outcomes if o.status != "killed"]
    for outcome in open_:
        print(f"{outcome.status:<10} {outcome.mutant.name}")
    return [o.mutant.name for o in open_]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run_p = sub.add_parser("run", help="run the census")
    list_p = sub.add_parser("list", help="print the mutants")
    for p in (run_p, list_p):
        p.add_argument("modules", nargs="+", metavar="MODULE")
        p.add_argument("--product", type=Path, required=True,
                       help="line audit of tools/audit_product.sh")
    run_p.add_argument("--tier1", type=Path, required=True,
                       help="per-test line audit of the tier-1 suite")
    run_p.add_argument("--jobs", type=int, default=1)
    run_p.add_argument("--json", type=Path, help="write every outcome here")
    run_p.add_argument("--census", type=Path,
                       help="fail on a mutant not killed and not listed here")
    run_p.add_argument("--without", action="append", default=[],
                       metavar="PATTERN", help="drop matching tests")
    args = parser.parse_args(argv)

    modules = [_module_path(m) for m in args.modules]
    product = product_lines(args.product)
    found = [m for path in modules
             for m in mutants(Path(path), product.get(path, set()))]
    if args.cmd == "list":
        for m in found:
            print(f"{m.name}  {m.function}")
        print(f"{len(found)} mutants", file=sys.stderr)
        return 0

    os.environ["CHAOS_SEED"] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO), os.environ.get("PYTHONPATH", "")])
    sys.path[:0] = [str(REPO / "src"), str(REPO)]
    from hypothesis import settings
    settings.register_profile("mutation-census", derandomize=True,
                              database=None, deadline=None)
    settings.load_profile("mutation-census")
    import pytest

    session = _Session(args, found, row_lines(args.product, modules))
    start = time.perf_counter()
    os.chdir(REPO)
    pytest.main(["-q", "-p", "no:cacheprovider",
                 *test_files(args.tier1, modules)], plugins=[session])
    took = time.perf_counter() - start
    open_ = _report(session.outcomes, modules)
    print(f"{len(session.outcomes)} mutants in {took:.0f}s")
    for note in session.failing:
        print(note)
    if args.json is not None:
        args.json.write_text(json.dumps({
            "outcomes": [{"mutant": o.mutant.name,
                          "function": o.mutant.function, "status": o.status,
                          "killer": o.killer, "seconds": round(o.seconds, 3)}
                         for o in session.outcomes],
            "tests": {c.name: {"seconds": round(c.seconds, 3),
                               "lines": sum(map(len, c.hits.values()))}
                      for c in session.checks}}, indent=1) + "\n")
    unlisted = []
    if args.census is not None:
        unlisted = sorted(set(open_) - _census_file(args.census))
        for name in unlisted:
            print(f"not in {args.census}: {name}")
    return 1 if unlisted or session.failing else 0


if __name__ == "__main__":
    sys.exit(main())
