"""End-to-end tests for the Figure-1 workflow: client -> agent -> sources.

The client role is the Step-1 message itself: build an
:class:`~repro.agents.messages.AuditRequest`, hand it to
``agent.handle`` and read the report.
"""

from itertools import combinations

import pytest

from repro.agents import AuditingAgent, AuditRequest
from repro.errors import SpecificationError

CLOUDS = tuple(f"Cloud{i}-node" for i in (1, 2, 3, 4))


def all_pairs(servers, **fields) -> AuditRequest:
    """Every two-way deployment over a pool — the "which pair of racks
    should I use?" question of §6.2.1."""
    fields.setdefault("data_sources", ("lab",))
    return AuditRequest(
        client="alice", deployments=tuple(combinations(servers, 2)), **fields
    )


class TestSIAWorkflow:
    def test_full_sia_round_trip(self, lab_source):
        agent = AuditingAgent({"lab": lab_source})
        response = agent.handle(
            all_pairs(
                ["Server1", "Server2", "Server3", "Server4"],
                dependency_types=("network", "hardware"),
            )
        )
        assert response.mode == "sia"
        best = response.report_dict()["deployments"][0]
        assert best["sources"] == ["Server2", "Server3"]
        assert "Server2 & Server3" in response.notes[0]

    def test_report_contains_all_pairs(self, lab_source):
        agent = AuditingAgent({"lab": lab_source})
        response = agent.handle(
            all_pairs(
                ["Server1", "Server2", "Server3"],
                dependency_types=("network", "hardware"),
            )
        )
        report = response.report_dict()
        assert len(report["deployments"]) == 3
        # The envelope is merge_reports', whichever executor ran.
        assert report["metadata"] == {"merged_from": 3}
        assert report["kind"] == "audit_report"

    def test_unknown_source_rejected(self, lab_source):
        agent = AuditingAgent({"lab": lab_source})
        request = AuditRequest(
            client="alice",
            data_sources=("ghost",),
            deployments=(("Server1", "Server2"),),
        )
        with pytest.raises(SpecificationError, match="unknown data sources"):
            agent.handle(request)

    def test_agent_needs_sources(self):
        with pytest.raises(SpecificationError):
            AuditingAgent({})

    def test_client_needs_name(self):
        with pytest.raises(SpecificationError, match="client name"):
            AuditRequest(
                client="",
                data_sources=("lab",),
                deployments=(("Server1", "Server2"),),
            )


class TestPIAWorkflow:
    def pia_request(self, **fields) -> AuditRequest:
        fields.setdefault("data_sources", CLOUDS)
        fields.setdefault("deployments", tuple(combinations(CLOUDS, 2)))
        fields.setdefault("dependency_types", ("software",))
        return AuditRequest(client="alice", mode="pia", **fields)

    def test_full_pia_round_trip(self, software_sources):
        agent = AuditingAgent(software_sources, pia_group_bits=768)
        response = agent.handle(self.pia_request())
        assert response.mode == "pia"
        # Table 2: Cloud2 & Cloud4 is the most independent pair.
        best = response.report_dict()["entries"][0]
        assert best["deployment"] == ["Cloud2-node", "Cloud4-node"]

    def test_only_the_requested_deployments_are_ranked(self, software_sources):
        # Four reachable sources, one pair asked for: one P-SOP run, not
        # the five others between providers nobody asked to compare.
        agent = AuditingAgent(software_sources, pia_group_bits=768)
        asked = (CLOUDS[2], CLOUDS[0])
        for name in set(CLOUDS) - set(asked):  # never asked for its set
            software_sources[name].component_set = None
        response = agent.handle(self.pia_request(deployments=(asked,)))
        report = response.report_dict()
        assert [e["deployment"] for e in report["entries"]] == [list(asked)]
        assert response.notes[0].startswith("1 deployments ranked")
        alone = AuditingAgent(
            {name: software_sources[name] for name in asked},
            pia_group_bits=768,
        ).handle(self.pia_request(data_sources=asked, deployments=(asked,)))
        assert report["total_bytes"] == alone.report_dict()["total_bytes"]
        assert report["entries"] == alone.report_dict()["entries"]

    def test_mixed_arities_rejected(self, software_sources):
        agent = AuditingAgent(software_sources, pia_group_bits=768)
        with pytest.raises(SpecificationError, match="one redundancy arity"):
            agent.handle(
                self.pia_request(
                    deployments=(CLOUDS[:2], CLOUDS[:3]),
                    dependency_types=("network", "hardware", "software"),
                )
            )

    def test_deployment_outside_data_sources_rejected(self, software_sources):
        # Not an all-pairs report over the sources that ignores "ghost".
        agent = AuditingAgent(software_sources, pia_group_bits=768)
        with pytest.raises(SpecificationError, match="ghost"):
            agent.handle(
                self.pia_request(
                    data_sources=CLOUDS[:3],
                    deployments=((CLOUDS[0], "ghost"),),
                )
            )
        # Reachable by the agent, but not named by the request.
        with pytest.raises(SpecificationError, match=CLOUDS[3]):
            agent.handle(
                self.pia_request(
                    data_sources=CLOUDS[:2],
                    deployments=(("ghost", CLOUDS[3]),),
                )
            )

    def test_hardware_only_rejected(self, software_sources):
        # Not a silent fall-back to the default (software) kinds.
        agent = AuditingAgent(software_sources, pia_group_bits=768)
        with pytest.raises(SpecificationError, match="network.*software"):
            agent.handle(self.pia_request(dependency_types=("hardware",)))

    def test_hardware_is_dropped_from_a_mixed_list(self, software_sources):
        agent = AuditingAgent(software_sources, pia_group_bits=768)
        request = self.pia_request(
            data_sources=CLOUDS[:2], deployments=(CLOUDS[:2],)
        )
        mixed = self.pia_request(
            data_sources=CLOUDS[:2],
            deployments=(CLOUDS[:2],),
            dependency_types=("hardware", "software"),
        )
        entries = lambda r: agent.handle(r).report_dict()["entries"]  # noqa: E731
        assert entries(mixed) == entries(request)
