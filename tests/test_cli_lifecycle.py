"""Every ``--workers`` verb brings its worker processes home.

A multi-worker engine owns a process pool, so a CLI verb that builds
one must close it before returning: ``main()`` is also called
in-process (tests, embedding), where a leaked pool would outlive the
verb until interpreter exit.
"""

import json
import multiprocessing
import time

import pytest

from repro.cli import main

DEPDB = (
    '<src="S1" dst="Internet" route="tor1,agg1,core1"/>\n'
    '<src="S2" dst="Internet" route="tor2,agg1,core2"/>\n'
)
SETS = {"CloudA": ["x", "shared"], "CloudB": ["y", "shared"], "CloudC": ["z"]}


@pytest.fixture
def verbs(tmp_path):
    depdb = tmp_path / "db.txt"
    depdb.write_text(DEPDB)
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps(SETS))
    return {
        # 20 000 rounds are five blocks: the plan really fans out.
        "audit": [
            "audit", str(depdb), "--servers", "S1,S2",
            "--algorithm", "sampling", "--rounds", "20000",
        ],
        "plan": ["plan", str(depdb), "--servers", "S1,S2", "--budget", "3"],
        "pia": ["pia", str(sets), "--protocol", "psop", "--group-bits", "768"],
    }


def new_children(before: set, seconds: float = 10.0) -> set:
    """Children not in ``before`` once stragglers had ``seconds`` to exit.

    Closing a pool never waits for its processes, so they may still be
    on their way out when the verb returns.
    """
    deadline = time.monotonic() + seconds
    while True:
        fresh = set(multiprocessing.active_children()) - before
        if not fresh or time.monotonic() >= deadline:
            return fresh
        time.sleep(0.05)


@pytest.mark.parametrize("verb", ["audit", "plan", "pia"])
def test_workers_verb_leaves_no_child_process(verbs, verb, capsys):
    before = set(multiprocessing.active_children())
    assert main(verbs[verb] + ["--workers", "2"]) == 0
    assert new_children(before) == set()
