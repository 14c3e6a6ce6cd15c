"""Pinned exact audits: report bytes, diagram allocations, budget trips.

The paper's default audit (minimal RGs, §4.1.2, then Pr(T) and the
probability ranking, §4.1.3) runs on one BDD manager twice: once over
the fault graph for the minimal RGs, once over the RG family for Pr(T).
These pins hold that manager to the diagrams it builds, not just to the
values it returns:

* the sha-256 of ``report.to_json()`` for every two-way deployment of
  four servers on a k=12 fat tree (the ledger's ``exact_structural``
  shape), so every family and every Pr(T) bit is held;
* the number of decision nodes each diagram allocates, reachable or not,
  so a kernel that builds the same diagram through different work fails;
* the node budget's trip point on a wide flat family, and the
  Monte-Carlo value ``auto`` then returns, bit for bit.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

import repro
from repro import AuditSpec, SIAAuditor, minimal_risk_groups
from repro.acquisition import NetworkDependencyCollector
from repro.core import probability
from repro.core.bdd import BDD, compile_graph
from repro.core.minimal_rg import CutSetExplosion
from repro.depdb import DepDB
from repro.engine import AuditEngine
from repro.failures import uniform_weigher
from repro.topology import FatTreeConfig, fat_tree


def allocated(bdd: BDD) -> int:
    """Decision nodes ``bdd`` has allocated, reachable or not."""
    return len(bdd._var) - 2


TREE = FatTreeConfig(ports=12)


def pinned_servers() -> tuple[str, ...]:
    rng = random.Random("exact-audit-pin")
    half = TREE.ports // 2
    return tuple(
        f"srv-p{pod}-t{rng.randrange(half)}-{rng.randrange(half)}"
        for pod in rng.sample(range(TREE.pods), 4)
    )


PAIRS = tuple(itertools.combinations(pinned_servers(), 2))


@pytest.fixture(scope="module")
def depdb_text() -> str:
    depdb = DepDB()
    NetworkDependencyCollector(
        fat_tree(TREE), servers=pinned_servers()
    ).adapt_into(depdb)
    return depdb.dumps()


@pytest.fixture
def managers(monkeypatch) -> list[BDD]:
    """Every manager ``union_probability`` makes, in order."""
    made: list[BDD] = []

    class Recording(BDD):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(probability, "BDD", Recording)
    return made


REPORT_SHA256 = {
    0: "a7dad19642242c3c23ec1c7f4829341ce740efb2d97484248a63fd26bebae193",
    1: "d29a2c2cbabd19dfabe53831e19b5a4b9040d19eedc62939b490fc891fcf6d3f",
    2: "b2396a18e8243e9ed7f1c3ca7c31a0b2d5778f5b8a45c460966d1ce4c86e62ee",
    3: "925e7651c535497b2da9bb872b998761552dded8c9cc4fbdfd5c7fc0d0c115a1",
    4: "7eed07c34e2e717f24c5fd7297257c4e85343b5c77fe47b02003344aa2db3ec0",
    5: "c5973782fcc77955c94dd74e1ed312b13459924f06b6838a8ac25cd898278bf3",
}


@pytest.mark.parametrize("i", sorted(REPORT_SHA256))
def test_exact_audit_report_bytes_are_pinned(depdb_text, i):
    report = repro.audit(
        depdb_text,
        PAIRS[i],
        engine=AuditEngine(n_workers=1),
        algorithm="minimal",
        ranking="probability",
        probability=0.1,
    )
    digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
    assert digest == REPORT_SHA256[i]


class TestAllocations:
    """Pair 0's graph diagram, its minimal solutions and its Pr(T) fold."""

    @pytest.fixture(scope="class")
    def graph(self, depdb_text):
        auditor = SIAAuditor(
            DepDB.loads(depdb_text), weigher=uniform_weigher(0.1)
        )
        return auditor.build_graph(
            AuditSpec(deployment=" & ".join(PAIRS[0]), servers=PAIRS[0])
        )

    def test_graph_diagram(self, graph):
        bdd = compile_graph(graph)
        assert (allocated(bdd), bdd.size()) == (1863, 1196)
        assert len(bdd.minimal_cut_sets()) == 320
        assert allocated(bdd) == 3586

    def test_pr_t_fold(self, graph, managers):
        groups = minimal_risk_groups(graph)
        assert len(groups) == 320
        value = probability.union_probability(groups, graph.probabilities())
        assert [allocated(bdd) for bdd in managers] == [5080]
        assert value.hex() == "0x1.27bbd52e6c7b7p-5"


class TestBudgetTrip:
    """2 200 two-event cuts over 1 102 events outgrow ``BDD_NODE_BUDGET``."""

    CUTS = [
        frozenset({f"a{i}", f"b{j}"}) for i in range(1100) for j in range(2)
    ]
    PROBS = {event: 0.1 for cut in CUTS for event in cut}

    def test_trip_point_and_message(self, managers):
        with pytest.raises(CutSetExplosion) as raised:
            probability._bdd_union(
                sorted(self.CUTS, key=lambda c: (len(c), sorted(c))),
                self.PROBS,
            )
        assert str(raised.value) == "BDD exceeded 100000 decision nodes"
        assert [allocated(bdd) for bdd in managers] == [
            probability.BDD_NODE_BUDGET
        ]

    def test_auto_returns_the_monte_carlo_value(self):
        value = probability.union_probability(
            self.CUTS, self.PROBS, mc_rounds=4_096, seed=5
        )
        assert value == probability.union_probability(
            self.CUTS, self.PROBS, method="monte-carlo", mc_rounds=4_096, seed=5
        )
        assert value.hex() == "0x1.7c00000000000p-3"
