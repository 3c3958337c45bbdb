"""The golden table ``tests/golden.txt``: its shape, and four of its rows.

``python tools/golden.py check`` runs every row (CI's ``golden`` job);
tier-1 runs the four below, one per recovery path a refactor most often
moves: the pipelined worker campaign, a master killed on 4 shards, a
partitioned shard primary, and the one contention shape that preempts.
"""

from __future__ import annotations

import collections
import re
import shlex

from repro.cli import _chaos_refusal, build_parser

TIER1_ROWS = [
    "repro chaos --seed 11 --verify-determinism --prefetch 4",
    "repro chaos --seed 1 --shards 4 --prefetch 4 --fault kill-master "
    "--verify-determinism",
    "repro chaos --seed 23 --shards 4 --fault partition:shard:1 "
    "--verify-determinism",
    "repro chaos --seed 7 --tenants 8 --shards 4 --prefetch 4 "
    "--verify-determinism",
]


def test_no_command_appears_twice(golden):
    counts = collections.Counter(command for _, command in golden.read_table())
    assert [command for command, n in counts.items() if n > 1] == []


def test_every_digest_is_a_sha256(golden):
    assert [command for digest, command in golden.read_table()
            if not re.fullmatch(r"[0-9a-f]{64}", digest)] == []


def test_every_chaos_row_names_a_campaign(golden):
    """A row parses as CI would run it and no flag in it is refused, so
    no row can pin a campaign that silently ignores its flags."""
    parser = build_parser()
    chaos = [command for _, command in golden.read_table()
             if command.startswith("repro chaos ")]
    assert len(chaos) == 58
    for command in chaos:
        args = parser.parse_args(shlex.split(command)[1:])
        assert _chaos_refusal(args) is None, command


def test_tier1_rows_are_in_the_table(golden):
    commands = {command for _, command in golden.read_table()}
    assert [row for row in TIER1_ROWS if row not in commands] == []


def test_tier1_rows_hold(golden, tmp_path):
    pinned = {command: digest for digest, command in golden.read_table()}
    for index, command in enumerate(TIER1_ROWS):
        directory = tmp_path / str(index)
        directory.mkdir()
        code, digest = golden.run(command, directory)
        assert (code, digest) == (0, pinned[command]), (
            f"{command}\n" + (directory / "stdout").read_text())
