"""Pinned reports of the Figure-1 agent, written before the two agent
classes were folded into one.

``golden/agent_reports.json`` holds, from the parent of that change:

* ``remote_report_json`` — the full ``AuditResponse.report_json`` of the
  agent whose audits run on a served ``indaas serve`` (three-deployment
  shared-ToR lab, ``seed=0``, ``metric="size"``), byte for byte;
* ``local_lab`` / ``local_lab_cloud_pairs`` — ``title``, ``client``,
  ``ranking_method`` and the whole ``deployments`` list of the agent
  that audits in-process, for the same request and for the §6.2.1
  all-pairs request over the lab cloud;
* ``pia_table2`` — the private audit of the four Table-2 software
  stacks at ``pia_group_bits=768``.

Only :func:`local_agent` / :func:`remote_agent` below may change with
the agents' constructors; the golden file may not.
"""

import json
from itertools import combinations
from pathlib import Path

from repro.agents import AuditingAgent
from repro.agents.messages import AuditRequest

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "agent_reports.json").read_text()
)

SIA_FIELDS = ("title", "client", "ranking_method", "deployments")
PIA_FIELDS = ("entries", "protocol", "total_bytes", "title")


def local_agent(sources, **options):
    return AuditingAgent(sources, seed=0, **options)


def remote_agent(sources, client):
    return AuditingAgent(sources, audit=client.audit, seed=0)


def lab_request() -> AuditRequest:
    return AuditRequest(
        client="alice",
        data_sources=("lab",),
        deployments=(("S1", "S2"), ("S1", "S3"), ("S2", "S3")),
        dependency_types=("network",),
    )


def lab_cloud_pairs_request() -> AuditRequest:
    servers = ("Server1", "Server2", "Server3", "Server4")
    return AuditRequest(
        client="alice",
        data_sources=("lab",),
        deployments=tuple(combinations(servers, 2)),
        dependency_types=("network", "hardware"),
    )


def table2_pia_request() -> AuditRequest:
    clouds = tuple(f"Cloud{i}-node" for i in (1, 2, 3, 4))
    return AuditRequest(
        client="alice",
        data_sources=clouds,
        deployments=tuple(combinations(clouds, 2)),
        mode="pia",
        dependency_types=("software",),
    )


def pick(report: dict, fields) -> dict:
    return {name: report[name] for name in fields}


def test_remote_report_bytes(client, lab_sources):
    response = remote_agent(lab_sources, client).handle(lab_request())
    assert response.report_json == GOLDEN["remote_report_json"]


def test_local_lab_report(lab_sources):
    report = local_agent(lab_sources).handle(lab_request()).report_dict()
    assert pick(report, SIA_FIELDS) == GOLDEN["local_lab"]


def test_local_and_remote_pins_agree():
    remote = json.loads(GOLDEN["remote_report_json"])
    assert pick(remote, SIA_FIELDS) == GOLDEN["local_lab"]


def test_local_lab_cloud_all_pairs(lab_source):
    response = local_agent({"lab": lab_source}).handle(
        lab_cloud_pairs_request()
    )
    assert (
        pick(response.report_dict(), SIA_FIELDS)
        == GOLDEN["local_lab_cloud_pairs"]
    )


def test_local_pia_table2(software_sources):
    agent = local_agent(software_sources, pia_group_bits=768)
    response = agent.handle(table2_pia_request())
    assert response.mode == "pia"
    assert pick(response.report_dict(), PIA_FIELDS) == GOLDEN["pia_table2"]
