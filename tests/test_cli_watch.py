"""The ``indaas watch`` CLI verb: JSONL output, warm-cache iterations."""

import json

import pytest

from repro.cli import build_parser, main

NET_DEPDB = (
    '<src="S1" dst="Internet" route="ToR1,Core1"/>\n'
    '<src="S2" dst="Internet" route="ToR1,Core1"/>\n'
    '<src="S3" dst="Internet" route="ToR2,Core2"/>\n'
)


@pytest.fixture
def watch_dir(tmp_path):
    (tmp_path / "net.depdb").write_text(NET_DEPDB)
    for name, servers in (("web", ["S1", "S2"]), ("db", ["S1", "S3"])):
        (tmp_path / f"{name}.json").write_text(
            json.dumps(
                {
                    "name": f"{name}-tier",
                    "depdb": "net.depdb",
                    "servers": servers,
                    "algorithm": "sampling",
                    "rounds": 2000,
                    "seed": 0,
                }
            )
        )
    return tmp_path


def test_watch_emits_one_json_line_per_iteration(watch_dir, capsys):
    assert (
        main(
            [
                "watch",
                str(watch_dir),
                "--iterations",
                "2",
                "--interval",
                "0",
            ]
        )
        == 0
    )
    lines = [
        json.loads(line)
        for line in capsys.readouterr().out.strip().splitlines()
    ]
    assert [entry["seq"] for entry in lines] == [1, 2]
    # Canonical event envelope, shared with the serve job stream.
    for entry in lines:
        assert entry["kind"] == "event"
        assert entry["event"] == "iteration"
        assert "iteration" not in entry
        assert "schema_version" in entry
        assert "elapsed_seconds" in entry
    first, second = lines
    assert set(first["scores"]) == {"db-tier", "web-tier"}
    assert first["regressions"] == ["web-tier"]
    assert not first["reused"]
    # The warm second poll is a pure cache hit.
    assert set(second["reused"]) == {"db-tier", "web-tier"}
    assert second["delta"]["noop"] is True
    assert second["scores"] == first["scores"]
    # Compact by default: the full report stays out of the stream.
    assert "report" not in first


def test_watch_full_includes_report(watch_dir, capsys):
    assert (
        main(
            [
                "watch",
                str(watch_dir),
                "--iterations",
                "1",
                "--interval",
                "0",
                "--full",
            ]
        )
        == 0
    )
    entry = json.loads(capsys.readouterr().out.strip())
    deployments = entry["report"]["deployments"]
    assert {d["deployment"] for d in deployments} == {"db-tier", "web-tier"}


def test_watch_missing_directory_reports_error_lines(tmp_path, capsys):
    assert (
        main(
            [
                "watch",
                str(tmp_path / "nope"),
                "--iterations",
                "1",
                "--interval",
                "0",
            ]
        )
        == 0
    )
    entry = json.loads(capsys.readouterr().out.strip())
    assert "error" in entry
    assert entry["kind"] == "event"
    assert entry["event"] == "error"


def test_watch_parser_defaults():
    args = build_parser().parse_args(["watch", "d"])
    assert args.interval == 2.0
    assert args.iterations is None
    assert not hasattr(args, "block_size")
    assert args.full is False


def test_block_size_is_not_a_watch_flag(capsys):
    """The block size is part of the seeded stream: a watch answer is
    the one ``repro.audit`` gives for the same spec."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["watch", "d", "--block-size", "2048"])
    assert exc.value.code == 2
    assert "--block-size" in capsys.readouterr().err
