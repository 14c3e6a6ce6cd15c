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

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.core.ranking import RankingMethod
from repro.depdb import DepDB
from repro.engine import AuditEngine
from repro.failures import uniform_weigher
from repro.topology import FatTreeConfig, fat_tree
from tests.core import evaluators
from tests.core.test_property_core import fault_graphs
from tests.engine.test_minimise_kernel import fat_tree_shaped_graph


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
    def deployment(self):
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
        return depdb, servers

    @pytest.fixture(scope="class")
    def graph(self, deployment):
        return build_dependency_graph(*deployment)

    def test_exact_audit_is_pinned(self, deployment):
        """The paper's default audit of this deployment: its family of
        4 854 minimal RGs outgrows ``UNION_WORK_BUDGET``."""
        depdb, servers = deployment
        report = repro.audit(
            depdb.dumps(),
            servers,
            engine=AuditEngine(n_workers=1),
            algorithm="minimal",
            ranking="probability",
            probability=0.1,
        )
        digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
        audit = SIAAuditor(
            depdb, weigher=uniform_weigher(0.1)
        ).audit_deployment(
            AuditSpec(
                deployment=" & ".join(servers),
                servers=servers,
                ranking=RankingMethod.PROBABILITY,
            )
        )
        assert (audit.failure_probability.hex(), audit.notes, digest) == (
            TOPOLOGY_A_AUDIT
        )

    @pytest.fixture(scope="class")
    def weighted(self, deployment):
        return build_dependency_graph(
            *deployment, weigher=uniform_weigher(0.1)
        )

    def audit(self, deployment, **fields):
        depdb, servers = deployment
        return SIAAuditor(depdb, weigher=uniform_weigher(0.1)).audit_deployment(
            AuditSpec(deployment="A", servers=servers, **fields)
        )

    def test_tripped_pr_t_is_the_diagrams(self, deployment, weighted, monkeypatch):
        """Bit for bit ``BDD.probability`` of the graph's diagram, within
        1e-12 of the family recursion with its budget lifted; the same
        value whichever ranking asked for it."""
        diagram = compile_graph(weighted).probability(weighted.probabilities())
        by_probability = self.audit(
            deployment, ranking=RankingMethod.PROBABILITY
        )
        by_size = self.audit(deployment)
        assert by_probability.failure_probability == diagram
        assert by_size.failure_probability == diagram
        monkeypatch.setattr(probability, "UNION_WORK_BUDGET", 10**10)
        lifted = probability._shannon_union(
            canonical(minimal_risk_groups(weighted)), weighted.probabilities()
        )
        assert lifted == pytest.approx(diagram, rel=0, abs=1e-12)
        assert lifted.hex() == "0x1.c182f07370df4p-8"

    def test_truncated_audit_that_trips_reports_the_diagrams_pr_t(
        self, deployment, weighted
    ):
        """At ``max_order=40`` the 2 615 groups still outgrow the budget:
        the report carries the untruncated graph's exact Pr(T), and its
        truncation note.  At 35 the 1 719 groups finish, and Pr(T) is
        theirs."""
        diagram = compile_graph(weighted).probability(weighted.probabilities())
        tripped = self.audit(
            deployment, ranking=RankingMethod.PROBABILITY, max_order=40
        )
        assert len(tripped.ranking) == 2615
        assert tripped.failure_probability == diagram
        assert tripped.notes == ["cut sets truncated at order 40"]
        finished = self.audit(
            deployment, ranking=RankingMethod.PROBABILITY, max_order=35
        )
        groups = minimal_risk_groups(weighted, max_order=35)
        assert len(groups) == 1719
        assert finished.failure_probability == probability.union_probability(
            groups, weighted.probabilities()
        )
        assert finished.failure_probability != diagram

    def test_minimal_rgs_are_pinned(self, graph):
        bdd = compile_graph(graph)
        groups = bdd.minimal_cut_sets()
        assert len(groups) == 4854
        assert hex_digest([sorted(group) for group in groups]) == (
            TOPOLOGY_A_FAMILY_SHA256
        )
        assert allocated(bdd) == 26528


#: Pr(T) and report bytes of the three-way exact audit.  Its family
#: outgrows the budget, so Pr(T) is its diagram's, 0.006859000877230672.
#: It used to be the seeded Monte-Carlo estimate ``union_probability``
#: falls back to, 0x1.9d883ba3443d4p-8 (0.00631, 8.0% low), in a report
#: of sha-256 ddc58ec6...b699ee33b.
TOPOLOGY_A_AUDIT = (
    "0x1.c182f07370df6p-8",
    [],
    "055df5d1cb0f3c23885f5142238c21a5718a102d748367ea5ae7fa58efdba733",
)
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


class TestTrippedAuditsAgainstTheBN:
    """With the budget at zero every family past ``IE_CROSSOVER`` trips:
    the audit's Pr(T) is then the diagram's, and the Bayesian-network
    evaluator, which enumerates every joint state, agrees to 1e-12."""

    @staticmethod
    def audit(graph):
        return SIAAuditor(DepDB()).audit_graph(
            graph,
            AuditSpec(
                deployment="g", servers=("s",), ranking=RankingMethod.PROBABILITY
            ),
        )

    def test_fat_tree_shape(self, monkeypatch):
        """Three servers of four routes over 13 components: 27+ groups."""
        graph = fat_tree_shaped_graph()
        rng = random.Random(3)
        for event in graph.basic_events():
            graph.set_probability(event, rng.uniform(0.05, 0.4))
        assert len(minimal_risk_groups(graph)) > probability.IE_CROSSOVER
        monkeypatch.setattr(probability, "UNION_WORK_BUDGET", 0)
        value = self.audit(graph).failure_probability
        assert value == compile_graph(graph).probability(graph.probabilities())
        assert value == pytest.approx(
            evaluators.bn_top_probability(graph, graph.probabilities()),
            rel=0,
            abs=1e-12,
        )

    @settings(max_examples=60, deadline=None)
    @given(fault_graphs(), st.data())
    def test_random_graphs(self, graph, data):
        for event in graph.basic_events():
            graph.set_probability(event, data.draw(st.floats(0.01, 0.99)))
        probs = graph.probabilities()
        groups = minimal_risk_groups(graph)
        with mock.patch.object(probability, "UNION_WORK_BUDGET", 0):
            value = self.audit(graph).failure_probability
        assert value == pytest.approx(
            evaluators.bn_top_probability(graph, probs), rel=0, abs=1e-12
        )
        if len(groups) > probability.IE_CROSSOVER:
            assert value == compile_graph(graph).probability(probs)
        else:
            assert value == probability.union_probability(groups, probs)
