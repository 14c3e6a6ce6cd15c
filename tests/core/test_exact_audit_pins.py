"""Pinned exact audits: report bytes, diagram sizes, budget trips.

The paper's default audit (minimal RGs, §4.1.2, then Pr(T) and the
probability ranking, §4.1.3) compiles the fault graph into one BDD for
the minimal RGs and reads Pr(T) off that same diagram.  A bare family,
which has no diagram, takes Pr(T) by a memoised Shannon recursion that
walks the family's diagram without building it.  These pins hold both to
the work they do, not just to the values they return:

* the sha-256 of ``report.to_json()`` for every two-way deployment of
  four servers on a k=12 fat tree (the ledger's ``exact_structural``
  shape), so every family and every Pr(T) bit is held;
* the number of decision nodes the graph's diagram allocates, reachable
  or not, and the number of subfamilies the Pr(T) recursion memoises,
  so a kernel that reaches the same value through different work fails;
* the minimal RGs of a three-way deployment on a k=16 fat tree (Table 3's
  topology A), by count, sha-256 and the nodes their extraction allocates;
* the work budget's trip point on a wide flat family, the error a bare
  family then gets, and the exact value past the budget; and a mid-sized
  random family, which the BDD fold the recursion replaced finished
  inside its own budget, staying exact;
* every float of the importance table on the pinned pair;
* the Pr(T) that §6.2.1's ``formal_analysis`` reports for the pinned pair.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import AuditSpec, SIAAuditor, minimal_risk_groups
from repro.acquisition import NetworkDependencyCollector
from repro.analysis import formal_analysis
from repro.core import probability
from repro.core.bdd import BDD, compile_graph
from repro.core.builder import build_dependency_graph
from repro.core.importance import component_importance_ranking
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


#: Every pair's Pr(T) is its graph diagram's walk, 0x1.27bbd52e6c7b8p-5.
REPORT_SHA256 = {
    0: "dab5e36b7110f47712af379e238ced56afe28f6ff597217dd08fced819ed3b8c",
    1: "3976a53ed3acdd127e3d2b01e7f2aba0c2f29e462bcfdfd424334a1b9c3cd2e6",
    2: "838f56205f9fd600530a64ab9e6b41cc6aacb551314df2a39a4f9465c0c3e1c2",
    3: "0475bbd93a155e10b8b72088cd094a0b60bc3805b7cc7ecca648edde96dffd90",
    4: "173ad722c49aa2ce7e4d7fb397b25da9342fc6fc75a32407e3bafeff53ce88eb",
    5: "9c34b990ded54067797dc136d1b8184d04f2a97046c41822ea432c39457c4947",
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


def test_formal_analysis_pr_t_is_pinned(depdb_text):
    """§6.2.1's formal analysis of pair 0 under the same 0.1 weights."""
    result = formal_analysis(
        DepDB.loads(depdb_text), PAIRS[0], weigher=uniform_weigher(0.1)
    )
    (deployment,) = result.deployments
    assert len(deployment.minimal_rgs) == 320
    assert deployment.failure_probability.hex() == FORMAL_PR_T


#: Pr(T) of pair 0 as ``formal_analysis`` reports it: its graph's diagram's.
FORMAL_PR_T = "0x1.27bbd52e6c7b8p-5"


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
        """The paper's default audit of this deployment: 4 854 minimal RGs,
        a family that would outgrow ``UNION_WORK_BUDGET``."""
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
        """A ``max_order`` audit reports the untruncated graph's exact
        Pr(T) beside its truncation note, whether its family is large (2 615
        groups at order 40) or small (1 719 at 35)."""
        diagram = compile_graph(weighted).probability(weighted.probabilities())
        for order, count in ((40, 2615), (35, 1719)):
            truncated = self.audit(
                deployment, ranking=RankingMethod.PROBABILITY, max_order=order
            )
            assert len(truncated.ranking) == count
            assert truncated.failure_probability == diagram
            assert truncated.notes == [f"cut sets truncated at order {order}"]

    def test_minimal_rgs_are_pinned(self, graph):
        bdd = compile_graph(graph)
        groups = bdd.minimal_cut_sets()
        assert len(groups) == 4854
        assert hex_digest([sorted(group) for group in groups]) == (
            TOPOLOGY_A_FAMILY_SHA256
        )
        assert allocated(bdd) == 26528


#: Pr(T) and report bytes of the three-way exact audit.  Pr(T) is its
#: diagram's, 0.006859000877230672.
TOPOLOGY_A_AUDIT = (
    "0x1.c182f07370df6p-8",
    [],
    "055df5d1cb0f3c23885f5142238c21a5718a102d748367ea5ae7fa58efdba733",
)
TOPOLOGY_A_FAMILY_SHA256 = (
    "876b168c9464d45be2576bfcd75636ee3625346e021d1c68481c2352a0cef8e4"
)


class TestImportanceBits:
    """Pair 0's importance table, float for float."""

    def test_component_ranking(self, graph):
        ranking = component_importance_ranking(graph)
        rows = [
            [
                entry.component,
                entry.probability.hex(),
                entry.birnbaum.hex(),
                entry.criticality.hex(),
            ]
            for entry in ranking
        ]
        assert len(rows) == 52
        assert hex_digest(rows) == RANKING_SHA256


RANKING_SHA256 = (
    "6bfc227a50278918c5486c6687e704612d2584ab0db9f37a145aabe235a65270"
)


class TestBudgetTrip:
    """2 200 two-event cuts over 1 102 events outgrow ``UNION_WORK_BUDGET``:
    the diagram is small, but every cut spans 18 words.  A graph holder
    would walk its diagram; the bare family gets :class:`CutSetExplosion`."""

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

    def test_a_bare_family_past_the_budget_raises(self):
        """No estimate stands in for the exact value: both doors raise."""
        for door in (
            probability.union_probability,
            probability.top_event_probability,
        ):
            with pytest.raises(CutSetExplosion) as raised:
                door(self.CUTS, self.PROBS)
            assert str(raised.value) == (
                "exact union exceeded 7000000 units of work"
            )

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
    """At every family size, ``IE_CROSSOVER`` and below included, an exact
    audit's Pr(T) is its graph's diagram's, and the Bayesian-network
    evaluator, which enumerates every joint state, agrees to 1e-12."""

    @staticmethod
    def audit(graph):
        return SIAAuditor(DepDB()).audit_graph(
            graph,
            AuditSpec(
                deployment="g", servers=("s",), ranking=RankingMethod.PROBABILITY
            ),
        )

    def check(self, graph):
        probs = graph.probabilities()
        value = self.audit(graph).failure_probability
        assert value == compile_graph(graph).probability(probs)
        assert value == pytest.approx(
            evaluators.bn_top_probability(graph, probs), rel=0, abs=1e-12
        )

    def test_fat_tree_shape(self):
        """Three servers of four routes over 13 components: 27+ groups."""
        graph = fat_tree_shaped_graph()
        rng = random.Random(3)
        for event in graph.basic_events():
            graph.set_probability(event, rng.uniform(0.05, 0.4))
        assert len(minimal_risk_groups(graph)) > probability.IE_CROSSOVER
        self.check(graph)

    @settings(max_examples=60, deadline=None)
    @given(fault_graphs(), st.data())
    def test_random_graphs(self, graph, data):
        for event in graph.basic_events():
            graph.set_probability(event, data.draw(st.floats(0.01, 0.99)))
        self.check(graph)
