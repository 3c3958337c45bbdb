"""The golden table: every behaviour pin in one file, checked by one command.

``tests/golden.txt`` holds one row per line, ``<sha256>  <command>`` in
``sha256sum`` style; ``#`` lines and blank lines group the rows.  A
command is either ``repro ...``, run as ``python -m repro ...``, or a
script path relative to the repository root, run with ``python``.  Each
row runs in a fresh process in its own scratch directory, so postmortem
bundles and trace files never land in the tree.

A row's digest is the sha256 of its stdout, except for a benchmark-suite
row (``benchmarks/suite/run.py``): its digest covers the traced run's
exact counters, every metric printed ``(exact)`` or with unit ``count``
except the ``host.*`` ones, which measure the host, not the program.

Usage (from the repository root or anywhere else)::

    python tools/golden.py check [--out DIR] [--keep PATTERN] [PATTERN ...]
    python tools/golden.py update [PATTERN ...]
    python tools/golden.py list

A PATTERN is an ``fnmatch`` pattern over the whole command (a command
itself selects its one row); without one, every row is selected.

``check`` exits non-zero if a selected row's command fails or its digest
moved, and names each such row.  A failing row's directory (its
``stdout``, ``stderr`` and whatever it wrote) is kept under DIR (default:
a fresh temporary directory), as is a passing row that matches
``--keep``; the rest are removed.  ``update`` re-pins the selected rows
in place; it refuses to pin a row whose command fails and then exits
non-zero.  To add a row, write it with 64 zeros as its digest and run
``update`` on it.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TABLE = REPO / "tests" / "golden.txt"
SUITE = "benchmarks/suite/run.py"


def read_table() -> list[tuple[str, str]]:
    """Every row of the table as ``(digest, command)``, in file order."""
    rows = []
    for line in TABLE.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            digest, _, command = line.partition("  ")
            rows.append((digest, command))
    return rows


def matches(command: str, patterns: list[str]) -> bool:
    return any(fnmatch.fnmatchcase(command, p) for p in patterns)


def argv(command: str) -> list[str]:
    words = shlex.split(command)
    if words[0] == "repro":
        return [sys.executable, "-m", *words]
    return [sys.executable, str(REPO / words[0]), *words[1:]]


def suite_counters(stdout: str) -> dict[str, float]:
    """The exact counters of one traced suite run: the metrics printed
    ``(exact)`` and those with unit ``count``, minus ``host.*``."""
    exact = {line.split()[0] for line in stdout.splitlines()
             if line.endswith("(exact)")}
    contract = json.loads(stdout.strip().splitlines()[-1])
    return {name: metric["value"]
            for name, metric in contract["metrics"].items()
            if (name in exact or metric["unit"] == "count")
            and not name.startswith("host.")}


def digest(command: str, stdout: bytes) -> str:
    if command.startswith(SUITE + " "):
        stdout = json.dumps(suite_counters(stdout.decode()),
                            sort_keys=True).encode()
    return hashlib.sha256(stdout).hexdigest()


def run(command: str, directory: Path) -> tuple[int, str]:
    """Run ``command`` in ``directory``, leaving its ``stdout`` and
    ``stderr`` there; return its exit code and digest."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), str(REPO), env.get("PYTHONPATH"))
        if p)
    with open(directory / "stderr", "wb") as stderr:
        done = subprocess.run(argv(command), cwd=directory, env=env,
                              stdout=subprocess.PIPE, stderr=stderr)
    (directory / "stdout").write_bytes(done.stdout)
    if done.returncode != 0:
        return done.returncode, ""
    return 0, digest(command, done.stdout)


def _slug(index: int, command: str) -> str:
    return f"{index:02d}-" + re.sub(r"[^A-Za-z0-9.]+", "-", command).strip("-")


def check(patterns: list[str], out: Path | None, keep: list[str]) -> int:
    rows = [(index, pinned, command)
            for index, (pinned, command) in enumerate(read_table())
            if not patterns or matches(command, patterns)]
    out = out or Path(tempfile.mkdtemp(prefix="golden-"))
    failed = []
    for index, pinned, command in rows:
        directory = out / _slug(index, command)
        directory.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        code, got = run(command, directory)
        took = f"{time.perf_counter() - start:5.1f}s"
        if code != 0:
            failed.append(command)
            print(f"FAIL {took}  {command}\n     exit {code}; output kept in "
                  f"{directory}", flush=True)
        elif got != pinned:
            failed.append(command)
            print(f"FAIL {took}  {command}\n     digest {got} != pinned "
                  f"{pinned}; output kept in {directory}", flush=True)
        else:
            print(f"ok   {took}  {command}", flush=True)
            if not matches(command, keep):
                shutil.rmtree(directory)
    if out.exists() and not any(out.iterdir()):
        out.rmdir()
    print(f"{len(rows) - len(failed)} of {len(rows)} rows hold")
    return 1 if failed else 0


def update(patterns: list[str]) -> int:
    pins, refused = {}, []
    with tempfile.TemporaryDirectory(prefix="golden-") as scratch:
        for index, (_, command) in enumerate(read_table()):
            if patterns and not matches(command, patterns):
                continue
            directory = Path(scratch, _slug(index, command))
            directory.mkdir()
            code, got = run(command, directory)
            if code != 0:
                refused.append(command)
                output = ((directory / "stdout").read_text()
                          + (directory / "stderr").read_text())
                print(f"REFUSED  {command}\n     exit {code}; not pinned. "
                      f"Its last output:\n" + "\n".join(
                          output.splitlines()[-10:]), flush=True)
                continue
            pins[command] = got
    lines = []
    for line in TABLE.read_text().splitlines():
        old, _, command = line.partition("  ")
        if command in pins and not line.startswith("#"):
            if pins[command] != old:
                print(f"moved    {command}\n     {old} -> {pins[command]}")
            line = f"{pins[command]}  {command}"
        lines.append(line)
    TABLE.write_text("\n".join(lines) + "\n")
    print(f"{len(pins)} rows pinned, {len(refused)} refused")
    return 1 if refused else 0


def main(argv_: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    check_p = sub.add_parser("check", help="run rows, compare their digests")
    check_p.add_argument("patterns", nargs="*", metavar="PATTERN")
    check_p.add_argument("--out", type=Path, default=None,
                         help="keep row directories here")
    check_p.add_argument("--keep", action="append", default=[],
                         metavar="PATTERN",
                         help="also keep the directories of passing rows "
                              "matching PATTERN")
    update_p = sub.add_parser("update", help="re-pin rows")
    update_p.add_argument("patterns", nargs="*", metavar="PATTERN")
    sub.add_parser("list", help="print every row's command")
    args = parser.parse_args(argv_)
    if args.cmd == "check":
        return check(args.patterns, args.out, args.keep)
    if args.cmd == "update":
        return update(args.patterns)
    for _, command in read_table():
        print(command)
    return 0


if __name__ == "__main__":
    sys.exit(main())
