"""One agent, any executor: ``AuditingAgent(sources, audit=...)``.

The agent hands canonical :class:`repro.api.AuditRequest` objects to a
``request -> report`` callable.  In-process that is
:func:`repro.api.run_request`, against the live service of these tests
it is ``ServiceClient.audit`` — and the response bytes are the same.
"""

import functools

import pytest

from repro import api
from repro.agents import AuditingAgent, DataSource
from repro.depdb import DepDB, SoftwareDependency
from repro.engine import AuditEngine
from repro.errors import FaultGraphError, ServiceError, SpecificationError

from tests.agents.conftest import LAB_DEPLOYMENTS as DEPLOYMENTS, lab_request
from tests.service.conftest import DEPDB


@pytest.fixture(params=["local", "remote"])
def executor(request, client):
    return api.run_request if request.param == "local" else client.audit


class TestLocalEqualsRemote:
    def test_size_report_bytes(self, client, lab_sources):
        local = AuditingAgent(lab_sources).handle(lab_request())
        remote = AuditingAgent(lab_sources, audit=client.audit).handle(
            lab_request()
        )
        assert local.report_json == remote.report_json
        assert local == remote  # notes and mode too

    def test_probability_report_bytes(self, client, lab_sources):
        request = lab_request(metric="probability")
        local = AuditingAgent(lab_sources, probability=0.1).handle(request)
        remote = AuditingAgent(
            lab_sources, audit=client.audit, probability=0.1
        ).handle(request)
        assert local.report_json == remote.report_json
        report = local.report_dict()
        assert report["ranking_method"] == "probability"
        assert all(
            d["failure_probability"] is not None
            for d in report["deployments"]
        )

    def test_probability_metric_needs_a_probability(self, client, lab_sources):
        # An IndaasError from either executor, never a raw exception.
        request = lab_request(metric="probability")
        with pytest.raises(FaultGraphError, match="lack probabilities"):
            AuditingAgent(lab_sources).handle(request)
        with pytest.raises(ServiceError, match="lack probabilities"):
            AuditingAgent(lab_sources, audit=client.audit).handle(request)


def test_unknown_program_rejected(executor):
    records = DepDB.loads(DEPDB)
    records.add(
        SoftwareDependency(pgm="riak", hw="S1", dep=("libc6", "erlang"))
    )
    source = DataSource("lab", depdb=records)
    agent = AuditingAgent({"lab": source}, audit=executor)

    def request(programs):
        return lab_request(
            deployments=(("S1",),),
            dependency_types=("network", "software"),
            programs=programs,
        )

    with pytest.raises(
        SpecificationError,
        match=r"no software records for \['nosuch'\] on server 'S1'",
    ):
        agent.handle(request(("riak", "nosuch")))
    best = agent.handle(request(("riak",))).report_dict()["deployments"][0]
    assert ["pkg:erlang"] in [entry["events"] for entry in best["ranking"]]


class TestExecutorSeesCanonicalRequests:
    def test_one_request_per_deployment(self, lab_sources):
        seen = []

        def recording(request: api.AuditRequest) -> api.AuditReport:
            seen.append(request)
            return api.run_request(request)

        agent = AuditingAgent(
            lab_sources, audit=recording, probability=0.25, seed=9
        )
        agent.handle(lab_request(redundancy=5))
        assert [r.servers for r in seen] == list(DEPLOYMENTS)
        assert {r.depdb for r in seen} == {DepDB.loads(DEPDB).dumps()}
        for request in seen:
            # The documented fields; everything else the canonical default.
            assert request == api.AuditRequest(
                servers=request.servers,
                depdb=request.depdb,
                required=2,  # min(redundancy, len(servers))
                ranking="size",
                top_n=5,  # §4.1.4
                seed=9,
                probability=0.25,
                tenant="alice",
                metadata={"client": "alice"},
            )

    def test_engine_backed_executor_serves_repeats_from_its_lru(
        self, lab_sources
    ):
        with AuditEngine(n_workers=0) as engine:
            agent = AuditingAgent(
                lab_sources,
                audit=functools.partial(api.run_request, engine=engine),
            )
            first = agent.handle(lab_request())
            assert engine.info()["audits"]["hits"] == 0
            again = agent.handle(lab_request())
            assert engine.info()["audits"]["hits"] == len(DEPLOYMENTS)
        assert again == first
        assert first == AuditingAgent(lab_sources).handle(lab_request())
