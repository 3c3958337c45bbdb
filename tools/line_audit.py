"""Which source lines does a run execute?  A stdlib-only line audit.

No ``coverage`` package: every Python process of the audited command
imports a one-line ``sitecustomize`` that calls :func:`install`, which
hooks ``sys.settrace`` and ``threading.settrace`` (the simulated runtime
runs its processes on threads) and records each line executed in a file
under the audited root.  At exit each process writes its hits as JSON.
The report compares them with the executable lines of every file under
the root, read from the compiled code objects' ``co_lines``.

Usage (from the repository root)::

    python tools/line_audit.py run AUDIT_DIR -- python -m pytest -x -q
    python tools/line_audit.py report AUDIT_DIR [--json FILE]
    python tools/line_audit.py report AUDIT_DIR --minus OTHER_DIR

``run`` adds ``src`` to ``PYTHONPATH`` and may be repeated over several
commands into one ``AUDIT_DIR``; ``report`` unions every process's hits.
Expect the traced run to be several times slower than a plain one.

Each process also files its lines under the pytest node id that ran
them (``PYTEST_CURRENT_TEST``, read on call events only; ``""`` outside
a test) and names the command it ran under, so ``tools/mutate.py`` can
tell which tests and which golden rows execute a line.  A process
started by a test inherits the variable and records the test it is a
child of: its lines ran out of that test's process.

``--minus`` prints, one ``file::qualname`` per line and sorted, every
function called in ``AUDIT_DIR`` and never in ``OTHER_DIR`` (the totals
go to stderr).  Over tier-1 minus the product runs of
``tools/audit_product.sh`` that is the code only tests reach;
``tools/test_only.txt`` is that list with a keep class per line, and CI
fails when the two differ.

Because ``run`` puts ``src`` on ``PYTHONPATH``, a test that hides the
program from a child process cannot pass under it:
``benchmarks/suite/test_suite.py::test_fails_without_the_program``
fails there by construction.
"""

from __future__ import annotations

import argparse
import atexit
import inspect
import json
import os
import shlex
import subprocess
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT_ENV = "LINE_AUDIT_ROOT"
OUT_ENV = "LINE_AUDIT_OUT"
COMMAND_ENV = "LINE_AUDIT_COMMAND"
TEST_ENV = "PYTEST_CURRENT_TEST"
REPO = Path(__file__).resolve().parent.parent

# One recorder per process, as the trace hooks are per process.  Lines
# go to the set of the test running when the current frame was entered.
_by_test: dict[str, set[tuple[str, int]]] = {"": set()}
_test = ""
_hits = _by_test[""]
_calls: set[tuple[str, int]] = set()
_wanted: dict[str, bool] = {}
_root = ""


def node_id(current: str | None) -> str:
    """``tests/a.py::test_b[x] (call)`` -> ``tests/a.py::test_b[x]``."""
    return current.rsplit(" (", 1)[0] if current else ""


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    """Called on every function entry: trace lines only in audited files."""
    global _test, _hits
    test = os.environ.get(TEST_ENV, "")
    if test != _test:
        _test = test
        _hits = _by_test.setdefault(node_id(test), set())
    filename = frame.f_code.co_filename
    wanted = _wanted.get(filename)
    if wanted is None:
        wanted = _wanted[filename] = os.path.realpath(filename).startswith(_root)
    if not wanted:
        return None
    # A frame's first line (the ``def``, or a generator's resume point)
    # gets a call event, not a line event.  The call is recorded by the
    # code's first line: the ``def`` line also runs at import, so a line
    # hit there does not say the function ran.
    _hits.add((filename, frame.f_lineno))
    _calls.add((filename, frame.f_code.co_firstlineno))
    return _local


def _by_file(pairs) -> dict[str, list[int]]:
    files: dict[str, list[int]] = {}
    for filename, lineno in list(pairs):
        files.setdefault(os.path.realpath(filename), []).append(lineno)
    return files


def _dump(out_dir: str, child_of: str) -> None:
    sys.settrace(None)
    threading.settrace(None)
    tests = {test: _by_file(pairs) for test, pairs in list(_by_test.items())}
    dump = {"lines": _by_file(set().union(*_by_test.values())),
            "calls": _by_file(_calls), "tests": tests,
            "command": os.environ.get(COMMAND_ENV, ""), "child_of": child_of}
    fd, _ = tempfile.mkstemp(prefix=f"lines-{os.getpid()}-",
                             suffix=".json", dir=out_dir)
    with os.fdopen(fd, "w") as fh:
        json.dump(dump, fh)


def install() -> None:
    """Start recording (a no-op unless both environment variables are set)."""
    global _root
    root, out_dir = os.environ.get(ROOT_ENV), os.environ.get(OUT_ENV)
    if not root or not out_dir:
        return
    _root = os.path.realpath(root)
    atexit.register(_dump, out_dir, node_id(os.environ.get(TEST_ENV)))
    threading.settrace(_global)
    sys.settrace(_global)


# -- the report ----------------------------------------------------------------


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _lines(code: types.CodeType) -> set[int]:
    return {line for _, _, line in code.co_lines() if line}


def _is_function(code: types.CodeType) -> bool:
    """Functions only: a class body or module runs at import, and
    lambdas and comprehensions belong to the function around them."""
    return (bool(code.co_flags & inspect.CO_OPTIMIZED)
            and not code.co_name.startswith("<"))


def executable(path: Path) -> list[tuple[types.CodeType, set[int]]]:
    """Every code object compiled from ``path`` with its own lines."""
    module = compile(path.read_text(), str(path), "exec")
    return [(code, _lines(code)) for code in _code_objects(module)]


def load_hits(out_dir: Path) -> dict[str, dict[str, set[int]]]:
    """``{"lines": {file: lines run}, "calls": {file: first lines called}}``
    over every process's dump."""
    hits: dict[str, dict[str, set[int]]] = {"lines": {}, "calls": {}}
    for path in out_dir.glob("lines-*.json"):
        dump = json.loads(path.read_text())
        for kind in hits:
            for name, nums in dump[kind].items():
                hits[kind].setdefault(name, set()).update(nums)
    return hits


def report(out_dir: Path, root: Path) -> dict:
    """Per-file executed/executable counts and the functions never run."""
    hits = load_hits(out_dir)
    files, never_run = {}, []
    for path in sorted(root.rglob("*.py")):
        real = os.path.realpath(path)
        seen = hits["lines"].get(real, set())
        called = hits["calls"].get(real, set())
        codes = executable(path)
        lines = set().union(*(code_lines for _, code_lines in codes))
        rel = str(path.relative_to(root.parent))
        files[rel] = {"executable": len(lines), "run": len(lines & seen)}
        for code, code_lines in codes:
            if not _is_function(code) or code.co_firstlineno in called:
                continue
            never_run.append({"file": rel, "line": code.co_firstlineno,
                              "function": code.co_qualname,
                              "lines": len(code_lines - {code.co_firstlineno})})
    total = sum(f["executable"] for f in files.values())
    run = sum(f["run"] for f in files.values())
    return {"executable": total, "run": run, "files": files,
            "never_run": never_run}


def called_only_in(out_dir: Path, other_dir: Path, root: Path) -> list[dict]:
    """Every function called in ``out_dir``'s runs and never in
    ``other_dir``'s, keyed ``file::qualname``, sorted by key."""
    called = load_hits(out_dir)["calls"]
    elsewhere = load_hits(other_dir)["calls"]
    found = []
    for path in sorted(root.rglob("*.py")):
        real = os.path.realpath(path)
        only = called.get(real, set()) - elsewhere.get(real, set())
        if not only:
            continue
        rel = str(path.relative_to(root.parent))
        for code, code_lines in executable(path):
            if code.co_firstlineno in only and _is_function(code):
                found.append({"key": f"{rel}::{code.co_qualname}",
                              "line": code.co_firstlineno,
                              "lines": len(code_lines - {code.co_firstlineno})})
    return sorted(found, key=lambda f: f["key"])


def _print(result: dict) -> None:
    total, run = result["executable"], result["run"]
    missed = result["never_run"]
    print(f"executed {run} of {total} executable lines "
          f"({100.0 * run / max(total, 1):.1f} %)")
    print(f"{len(missed)} functions never run "
          f"({sum(f['lines'] for f in missed)} lines):")
    for f in missed:
        print(f"  {f['file']}:{f['line']}  {f['function']}  ({f['lines']} lines)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run_p = sub.add_parser("run", help="run a command with line tracing")
    run_p.add_argument("out_dir", type=Path)
    run_p.add_argument("command", nargs=argparse.REMAINDER)
    rep_p = sub.add_parser("report", help="summarise the recorded hits")
    rep_p.add_argument("out_dir", type=Path)
    rep_p.add_argument("--root", type=Path, default=REPO / "src" / "repro")
    rep_p.add_argument("--json", type=Path, help="also write the report here")
    rep_p.add_argument("--minus", type=Path, metavar="OTHER_DIR",
                       help="list the functions called here and never there")
    args = parser.parse_args(argv)

    if args.cmd == "report":
        if args.minus is not None:
            result = called_only_in(args.out_dir, args.minus,
                                    args.root.resolve())
            for f in result:
                print(f["key"])
            print(f"{len(result)} functions "
                  f"({sum(f['lines'] for f in result)} lines) called in "
                  f"{args.out_dir} and never in {args.minus}",
                  file=sys.stderr)
        else:
            result = report(args.out_dir, args.root.resolve())
            _print(result)
        if args.json is not None:
            args.json.write_text(json.dumps(result, indent=1) + "\n")
        return 0

    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("run needs a command after --")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as shim:
        Path(shim, "sitecustomize.py").write_text(
            "import line_audit\nline_audit.install()\n")
        env = dict(os.environ)
        paths = [shim, str(Path(__file__).resolve().parent),
                 str(REPO / "src"), env.get("PYTHONPATH", "")]
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        env[ROOT_ENV] = str(REPO / "src" / "repro")
        env[OUT_ENV] = str(args.out_dir.resolve())
        env[COMMAND_ENV] = shlex.join(command)
        return subprocess.call(command, env=env)


if __name__ == "__main__":
    sys.exit(main())
