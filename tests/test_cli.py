"""CLI smoke tests (fast paths only)."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser, main


def test_parser_knows_all_commands():
    parser = build_parser()
    for command in ("fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
                    "table2", "exp3", "all"):
        args = parser.parse_args([command] if command not in ("exp3",) else [command])
        assert args.command == command


def test_every_help_text_formats():
    """argparse %-formats help strings: a bare ``%`` in one crashes
    ``repro --help`` even though each subcommand's own help works."""
    parser = build_parser()
    assert "exp3" in parser.format_help()
    subparsers = [action for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    assert subparsers
    for name, sub in subparsers[0].choices.items():
        assert sub.format_help(), name


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_fig7_small_sweep(capsys):
    assert main(["fig7", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "Scalability — ray-tracing" in out
    assert "speedups" in out


def test_fig10_with_ascii(capsys):
    assert main(["fig10", "--ascii"]) == 0
    out = capsys.readouterr().out
    assert "signal cycle: start → stop → start → pause → resume" in out
    assert "CPU %" in out


def test_exp3_custom_app_and_workers(capsys):
    assert main(["exp3", "--app", "web-prefetch", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "Dynamic worker behaviour — web-prefetch (2 workers)" in out


def test_chaos_fault_spec_parses_comma_lists():
    from repro.cli import _fault_spec
    assert _fault_spec("partition") == ["partition"]
    assert _fault_spec("partition:space, kill-shard:1") == [
        "partition:space", "kill-shard:1"]
    assert _fault_spec("pause:shard:2,gray-slow") == [
        "pause:shard:2", "gray-slow"]


def test_chaos_fault_spec_rejects_malformed_values():
    import argparse
    from repro.cli import _fault_spec
    for bogus in ("bogus", "partition:shard:x", "", ",", "kill-shard:x"):
        with pytest.raises(argparse.ArgumentTypeError):
            _fault_spec(bogus)


def test_chaos_parser_accepts_repeated_and_comma_faults():
    parser = build_parser()
    args = parser.parse_args(
        ["chaos", "--fault", "partition:space,kill-shard:1",
         "--fault", "pause"])
    assert args.faults == ["partition:space", "kill-shard:1", "pause"]


def test_chaos_tenant_count_parses_valid_values():
    from repro.cli import _tenant_count
    assert _tenant_count("2") == 2
    assert _tenant_count("128") == 128


def test_chaos_tenant_count_rejects_malformed_values():
    import argparse
    from repro.cli import _tenant_count
    for bogus in ("0", "1", "-3", "x", "", "2.5"):
        with pytest.raises(argparse.ArgumentTypeError):
            _tenant_count(bogus)


def test_chaos_parser_accepts_tenants():
    parser = build_parser()
    args = parser.parse_args(["chaos", "--tenants", "8", "--isolation"])
    assert args.tenants == 8
    assert args.isolation
    assert parser.parse_args(["chaos"]).tenants is None


def test_chaos_tenants_and_faults_are_exclusive(capsys):
    assert main(["chaos", "--tenants", "4", "--fault", "pause"]) == 2
    assert "separate campaigns" in capsys.readouterr().out


_NAMES_NOTHING = [
    ("--prefetch 0", "seed_batch/drain_batch must be >= 1: 0/0"),
    ("--shards 0", "shards must be >= 1: 0"),
    ("--workers 0", "--workers must be >= 1: 0"),
    ("--tasks 0", "--tasks must be >= 1: 0"),
    ("--shards 4 --fault kill-shard:9",
     "--fault kill-shard:9 names shard 9, but --shards is 4"),
    ("--shards 4 --fault partition:shard:7",
     "--fault partition:shard:7 names shard 7, but --shards is 4"),
    ("--fault pause:shard:1", "--fault pause:shard:1 names shard 1, but "
                              "--shards is 1"),
    ("--isolation", "--isolation needs --tenants"),
    ("--random-plan --fault kill-master",
     "--random-plan draws the worker campaign's faults"),
    ("--random-plan --tenants 8",
     "--random-plan draws the worker campaign's faults"),
]


@pytest.mark.parametrize(
    "flags, complaint", _NAMES_NOTHING,
    ids=[f"{flags.removesuffix(' 0')}-{complaint}"
         for flags, complaint in _NAMES_NOTHING])
def test_chaos_zero_is_an_error_not_a_different_campaign(flags, complaint,
                                                         capsys):
    """Flags that name no campaign are refused before anything runs."""
    assert main(["chaos", *flags.split()]) == 2
    assert f"FAIL: {complaint}" in capsys.readouterr().out


def test_doctor_prints_attribution_summary(capsys):
    assert main(["doctor", "option-pricing", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "job wall time:" in out
    assert "attributed" in out
    assert "compute" in out


def test_doctor_json_and_out_are_machine_readable(tmp_path, capsys):
    import json
    out_path = tmp_path / "doctor.json"
    assert main(["doctor", "option-pricing", "--workers", "2",
                 "--json", "--out", str(out_path)]) == 0
    printed = json.loads(capsys.readouterr().out)
    written = json.loads(out_path.read_text())
    assert printed == written
    wall_ms = printed["window"]["wall_ms"]
    assert abs(sum(p["ms"] for p in printed["phases"]) - wall_ms) <= \
        0.01 * wall_ms


def test_doctor_parser_defaults():
    args = build_parser().parse_args(["doctor", "ray-tracing"])
    assert args.command == "doctor"
    assert args.prefetch == 1 and args.shards == 1 and not args.json


def test_top_json_prints_cluster_snapshot(capsys):
    import json
    assert main(["top", "option-pricing", "--workers", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["workers"], "snapshot should list worker rows"
    assert "alerts" in doc and "shards" in doc
    assert set(doc["space"]["match"]) == {"scan_steps", "index_builds"}
    assert doc["job"]["complete"] is True


def test_chaos_parser_accepts_postmortem_dir():
    args = build_parser().parse_args(
        ["chaos", "--postmortem-dir", "bundles"])
    assert args.postmortem_dir == "bundles"
    assert build_parser().parse_args(["chaos"]).postmortem_dir == \
        "postmortems"
