"""Pinned ``mitigation_plan`` documents, ``indaas importance`` output and
the stdout of ``examples/hardening_planner.py``.

Three deployments on a k=8 fat tree (two 2-way, one 3-way) at
``top_k=4, budget=5``.  The plan's ordering among near-ties is decided
by the last bits of ``BDD.probability()``, and among exact ties by
candidate order, so any change to the diagram, to the family the
unexpected-RG counts are read from, or to the candidate order shows up
here, for the library front door and the CLI.  Each case is checked on
the first call in the process and again after two earlier identical
calls, so state carried from one plan into the next would show too.
"""

import json
import runpy
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.depdb import DepDB, NetworkDependency
from repro.topology import INTERNET, FatTreeConfig, fat_tree_routes

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "plans.json").read_text()
)
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

TREE = FatTreeConfig(8)
DEPLOYMENTS = {
    # Both servers under one ToR: the switch is an unexpected singleton RG.
    "same-tor": ("srv-p0-t0-0", "srv-p0-t0-1"),
    "cross-pod": ("srv-p0-t0-0", "srv-p3-t2-1"),
    "three-way": ("srv-p0-t0-0", "srv-p3-t2-1", "srv-p5-t3-2"),
}
IMPORTANCE_DEPLOYMENT = "cross-pod"


@pytest.fixture(scope="module")
def depdb_text() -> str:
    servers = sorted({s for group in DEPLOYMENTS.values() for s in group})
    return DepDB(
        NetworkDependency(src=server, dst=INTERNET, route=route)
        for server in servers
        for route in fat_tree_routes(TREE, server)
    ).dumps()


@pytest.fixture(scope="module")
def depdb_file(depdb_text, tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("plans") / "k8.txt"
    path.write_text(depdb_text)
    return str(path)


def _plan_args(depdb_file, name):
    return [
        "plan",
        depdb_file,
        "--servers",
        ",".join(DEPLOYMENTS[name]),
        "--top-k",
        "4",
        "--budget",
        "5",
        "--json",
    ]


@pytest.mark.parametrize("earlier_calls", [0, 2])
@pytest.mark.parametrize("name", list(DEPLOYMENTS))
class TestPlanGolden:
    def test_library_front_door(self, depdb_text, name, earlier_calls):
        for _ in range(earlier_calls + 1):
            plan = repro.plan(
                depdb_text, DEPLOYMENTS[name], top_k=4, budget=5
            )
        assert json.dumps(plan.to_dict()) == json.dumps(GOLDEN["plan"][name])

    def test_cli_json_stdout(self, depdb_file, capsys, name, earlier_calls):
        for _ in range(earlier_calls):
            assert main(_plan_args(depdb_file, name)) == 0
        capsys.readouterr()
        code = main(_plan_args(depdb_file, name))
        assert code == 0
        assert (
            capsys.readouterr().out
            == json.dumps(GOLDEN["plan"][name]) + "\n"
        )


def test_cli_importance_stdout(depdb_file, capsys):
    code = main(
        [
            "importance",
            depdb_file,
            "--servers",
            ",".join(DEPLOYMENTS[IMPORTANCE_DEPLOYMENT]),
            "--top",
            "8",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == GOLDEN["importance"]


def test_hardening_planner_example_stdout(capsys):
    """Audit, importance table and what-if of the example, as printed."""
    runpy.run_path(str(EXAMPLES / "hardening_planner.py"), run_name="__main__")
    assert capsys.readouterr().out == GOLDEN["hardening_planner"]
