"""Pinned ``mitigation_plan`` documents and ``indaas importance`` output.

Three deployments on a k=8 fat tree (two 2-way, one 3-way) at
``top_k=4, budget=5``.  The goldens were written before the exact-route
refactor they guard and must stay byte-equal across it: the plan's
ordering among near-ties is decided by the last bits of
``BDD.probability()``, so any change to the diagram, to the family the
unexpected-RG counts are read from, or to the candidate order shows up
here — for the library front door, the CLI, and any worker count.
"""

import json
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.depdb import DepDB, NetworkDependency
from repro.topology import INTERNET, FatTreeConfig, fat_tree_routes

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "plans.json").read_text()
)

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


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("name", list(DEPLOYMENTS))
class TestPlanGolden:
    def test_library_front_door(self, depdb_text, name, workers):
        with repro.AuditEngine(n_workers=workers) as engine:
            plan = repro.plan(
                depdb_text,
                DEPLOYMENTS[name],
                top_k=4,
                budget=5,
                engine=engine,
            )
        assert json.dumps(plan.to_dict()) == json.dumps(GOLDEN["plan"][name])

    def test_cli_json_stdout(self, depdb_file, capsys, name, workers):
        code = main(
            [
                "plan",
                depdb_file,
                "--servers",
                ",".join(DEPLOYMENTS[name]),
                "--top-k",
                "4",
                "--budget",
                "5",
                "--workers",
                str(workers),
                "--json",
            ]
        )
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
