"""End-to-end tests for the Figure-1 workflow: client -> agent -> sources."""

import pytest

from repro.agents import AuditingAgent, AuditingClient
from repro.errors import SpecificationError


class TestSIAWorkflow:
    def test_full_sia_round_trip(self, lab_source):
        agent = AuditingAgent({"lab": lab_source})
        client = AuditingClient("alice", agent)
        response = client.audit_all_pairs(
            ["lab"],
            ["Server1", "Server2", "Server3", "Server4"],
            dependency_types=("network", "hardware"),
        )
        assert response.mode == "sia"
        assert client.best_deployment(response) == ["Server2", "Server3"]

    def test_report_contains_all_pairs(self, lab_source):
        agent = AuditingAgent({"lab": lab_source})
        client = AuditingClient("alice", agent)
        response = client.audit_all_pairs(
            ["lab"],
            ["Server1", "Server2", "Server3"],
            dependency_types=("network", "hardware"),
        )
        report = response.report_dict()
        assert len(report["deployments"]) == 3

    def test_unknown_source_rejected(self, lab_source):
        agent = AuditingAgent({"lab": lab_source})
        client = AuditingClient("alice", agent)
        with pytest.raises(SpecificationError, match="unknown data sources"):
            client.request_audit(["ghost"], [["Server1", "Server2"]])

    def test_agent_needs_sources(self):
        with pytest.raises(SpecificationError):
            AuditingAgent({})

    def test_client_needs_name(self, lab_source):
        agent = AuditingAgent({"lab": lab_source})
        with pytest.raises(SpecificationError):
            AuditingClient("", agent)


class TestPIAWorkflow:
    def test_full_pia_round_trip(self, software_sources):
        agent = AuditingAgent(software_sources, pia_group_bits=768)
        client = AuditingClient("alice", agent)
        clouds = [f"Cloud{i}-node" for i in (1, 2, 3, 4)]
        response = client.request_audit(
            data_sources=clouds,
            deployments=[
                [a, b]
                for i, a in enumerate(clouds)
                for b in clouds[i + 1:]
            ],
            mode="pia",
            dependency_types=("software",),
        )
        assert response.mode == "pia"
        # Table 2: Cloud2 & Cloud4 is the most independent pair.
        assert client.best_deployment(response) == [
            "Cloud2-node",
            "Cloud4-node",
        ]

    def test_mixed_arities_rejected(self, software_sources):
        agent = AuditingAgent(software_sources, pia_group_bits=768)
        client = AuditingClient("alice", agent)
        with pytest.raises(SpecificationError, match="one redundancy arity"):
            client.request_audit(
                data_sources=list(software_sources),
                deployments=[["Cloud1-node", "Cloud2-node"],
                             ["Cloud1-node", "Cloud2-node", "Cloud3-node"]],
                mode="pia",
            )
