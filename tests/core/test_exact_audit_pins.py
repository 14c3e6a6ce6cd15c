"""Pinned exact audits: report bytes, diagram sizes, budget trips.

The paper's default audit (minimal RGs, §4.1.2, then Pr(T) and the
probability ranking, §4.1.3) compiles the fault graph into one BDD for
the minimal RGs, then takes Pr(T) by a memoised Shannon recursion over
the RG family that walks that family's diagram without building it.
These pins hold both to the work they do, not just to the values they
return:

* the sha-256 of ``report.to_json()`` for every two-way deployment of
  four servers on a k=12 fat tree (the ledger's ``exact_structural``
  shape), so every family and every Pr(T) bit is held;
* the number of decision nodes the graph's diagram allocates, reachable
  or not, and the number of subfamilies the Pr(T) recursion memoises,
  so a kernel that reaches the same value through different work fails;
* the minimal RGs of a three-way deployment on a k=16 fat tree (Table 3's
  topology A), by count, sha-256 and the nodes their extraction allocates;
* the work budget's trip point on a wide flat family, the Monte-Carlo
  value ``auto`` then returns, bit for bit, and the exact value past the
  budget; and a mid-sized random family, which the BDD fold the recursion
  replaced finished inside its own budget, staying exact;
* every float of the importance measures on the pinned pair, whose
  Fussell-Vesely terms take ``Pr(T)`` of one sub-family per component.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest

import repro
from repro import AuditSpec, SIAAuditor, minimal_risk_groups
from repro.acquisition import NetworkDependencyCollector
from repro.core import probability
from repro.core.bdd import BDD, compile_graph
from repro.core.builder import build_dependency_graph
from repro.core.importance import (
    component_importance_ranking,
    fussell_vesely_importance,
)
from repro.core.minimal_rg import CutSetExplosion
from repro.depdb import DepDB
from repro.engine import AuditEngine
from repro.failures import uniform_weigher
from repro.topology import FatTreeConfig, fat_tree
from tests.core import evaluators


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


@pytest.fixture(scope="module")
def graph(depdb_text):
    """Pair 0's weighted fault graph."""
    auditor = SIAAuditor(DepDB.loads(depdb_text), weigher=uniform_weigher(0.1))
    return auditor.build_graph(
        AuditSpec(deployment=" & ".join(PAIRS[0]), servers=PAIRS[0])
    )


def hex_digest(rows) -> str:
    """sha-256 of ``rows`` (floats already written as their hex)."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(cuts) -> list[frozenset[str]]:
    """``cuts`` deduplicated and (size, members)-sorted, as ``auto`` has them."""
    return sorted(set(cuts), key=lambda c: (len(c), sorted(c)))


class TestAllocations:
    """Pair 0's graph diagram, its minimal solutions and its Pr(T) pass."""

    def test_graph_diagram(self, graph):
        bdd = compile_graph(graph)
        assert (allocated(bdd), bdd.size()) == (1863, 1196)
        assert len(bdd.minimal_cut_sets()) == 320
        assert allocated(bdd) == 3586

    def test_pr_t_fold(self, graph):
        """One memo entry per node of the family's 703-node diagram, which
        the BDD fold this pass replaced reached after 5 080 allocations."""
        groups = minimal_risk_groups(graph)
        assert len(groups) == 320
        memo: dict = {}
        value = probability._shannon_union(
            canonical(groups), graph.probabilities(), memo
        )
        assert len(memo) == 703
        assert value.hex() == "0x1.27bbd52e6c7b7p-5"
        assert probability.union_probability(
            groups, graph.probabilities()
        ) == value


class TestTopologyAFamily:
    """Three servers, one per pod, on a k=16 fat tree: 94 components."""

    @pytest.fixture(scope="class")
    def graph(self):
        tree = FatTreeConfig(ports=16)
        rng = random.Random("reach/16")
        half = tree.ports // 2
        servers = tuple(
            f"srv-p{pod}-t{rng.randrange(half)}-{rng.randrange(half)}"
            for pod in rng.sample(range(tree.pods), 3)
        )
        depdb = DepDB()
        NetworkDependencyCollector(
            fat_tree(tree), servers=servers
        ).adapt_into(depdb)
        return build_dependency_graph(depdb, servers)

    def test_minimal_rgs_are_pinned(self, graph):
        bdd = compile_graph(graph)
        groups = bdd.minimal_cut_sets()
        assert len(groups) == 4854
        assert hex_digest([sorted(group) for group in groups]) == (
            TOPOLOGY_A_FAMILY_SHA256
        )
        assert allocated(bdd) == 26528


TOPOLOGY_A_FAMILY_SHA256 = (
    "876b168c9464d45be2576bfcd75636ee3625346e021d1c68481c2352a0cef8e4"
)


class TestImportanceBits:
    """Pair 0's importance measures, float for float."""

    def test_fussell_vesely(self, graph):
        values = fussell_vesely_importance(
            minimal_risk_groups(graph), graph.probabilities()
        )
        assert len(values) == 52
        assert hex_digest({c: v.hex() for c, v in values.items()}) == (
            FUSSELL_VESELY_SHA256
        )

    def test_component_ranking(self, graph):
        ranking = component_importance_ranking(graph, minimal_risk_groups(graph))
        rows = [
            [
                entry.component,
                entry.probability.hex(),
                entry.birnbaum.hex(),
                entry.criticality.hex(),
                entry.fussell_vesely.hex(),
            ]
            for entry in ranking
        ]
        assert len(rows) == 52
        assert hex_digest(rows) == RANKING_SHA256


FUSSELL_VESELY_SHA256 = (
    "d077efcf78cc07901b2ddb35a58591e62da75026c256f70ba01de570aa353578"
)
RANKING_SHA256 = (
    "ef42f8d700ac65c9d4aa90a73c00ac9533a0cd93188e189e2bf49195ba103f35"
)


class TestBudgetTrip:
    """2 200 two-event cuts over 1 102 events outgrow ``UNION_WORK_BUDGET``:
    the diagram is small, but every cut spans 18 words."""

    CUTS = [
        frozenset({f"a{i}", f"b{j}"}) for i in range(1100) for j in range(2)
    ]
    PROBS = {event: 0.1 for cut in CUTS for event in cut}

    def test_trip_point_and_message(self):
        """The root's high cofactor ({b0} or {b1}) and its own {b1} are
        done; the root's low cofactor absorbs 1 099 cuts with 1 099 and
        trips before it recurses."""
        memo: dict = {}
        with pytest.raises(CutSetExplosion) as raised:
            probability._shannon_union(canonical(self.CUTS), self.PROBS, memo)
        assert str(raised.value) == (
            "exact union exceeded 7000000 units of work"
        )
        assert len(memo) == 2

    def test_auto_returns_the_monte_carlo_value(self, monkeypatch):
        monkeypatch.setattr(probability, "FALLBACK_ROUNDS", 4_096)
        monkeypatch.setattr(probability, "FALLBACK_SEED", 5)
        value = probability.union_probability(self.CUTS, self.PROBS)
        assert value == evaluators.per_cut_monte_carlo_union(
            self.CUTS, self.PROBS, 4_096, 5
        )
        assert value.hex() == "0x1.7c00000000000p-3"

    def test_auto_returns_the_seed_zero_estimate(self, monkeypatch):
        monkeypatch.setattr(probability, "FALLBACK_ROUNDS", 4_096)
        value = probability.union_probability(self.CUTS, self.PROBS)
        assert value.hex() == "0x1.7c80000000000p-3"

    def test_exact_past_the_budget(self, monkeypatch):
        """Some ``a`` and some ``b`` fail: ``(1 - 0.9^1100)(1 - 0.9^2)``."""
        monkeypatch.setattr(probability, "UNION_WORK_BUDGET", 10**9)
        value = probability.union_probability(self.CUTS, self.PROBS)
        assert value == pytest.approx(
            (1 - 0.9**1100) * (1 - 0.9**2), abs=1e-12
        )
        assert value.hex() == "0x1.851eb851eb84ep-3"


class TestMidSizedFamily:
    """40 random cuts of 2-4 events over 60: the fold finished it with
    100 000 nodes to spare, and ``auto`` must still take it exactly."""

    def family(self):
        rng = random.Random(1)
        names = [f"e{i:03d}" for i in range(60)]
        cuts: set[frozenset[str]] = set()
        while len(cuts) < 40:
            cuts.add(frozenset(rng.sample(names, rng.randint(2, 4))))
        probs = {name: rng.uniform(0.01, 0.3) for name in names}
        return canonical(cuts), probs

    def test_exact_within_the_budget(self):
        cuts, probs = self.family()
        memo: dict = {}
        value = probability._shannon_union(cuts, probs, memo)
        assert len(memo) == 19_439
        assert value == evaluators.bdd_union(cuts, probs)
        assert probability.union_probability(cuts, probs) == value
