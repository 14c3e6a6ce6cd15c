"""The graph index: a cold job reuses the fault graph an earlier job built.

``JobManager`` keys each built graph by everything the build reads from a
request — the DepDB text's sha, servers, deployment, required count and
probability — so a cold job that differs only past the graph skips the
parse, the build and the hash, and still serves the bytes a fresh build
gives.  ``/v1/healthz``'s ``caches.graphs`` counts the lookups: one miss
per build, one hit per reuse.
"""

import sys
import threading

import pytest

from repro.engine import audit as audit_module
from repro.service import JobManager

from tests.service.conftest import DEPDB, make_request
from tests.service.test_journal import direct_bytes


@pytest.fixture
def builds(monkeypatch) -> list:
    """Every fault-graph build from now on, by its servers."""
    built = []
    build = audit_module.build_dependency_graph

    def counting(depdb, servers, **kwargs):
        built.append(tuple(servers))
        return build(depdb, servers, **kwargs)

    monkeypatch.setattr(audit_module, "build_dependency_graph", counting)
    return built


def graphs(manager: JobManager) -> dict:
    return manager.stats()["caches"]["graphs"]


#: Requests past the graph: unseeded (never content-addressed, so each
#: one runs cold) unless the seed is what differs.  Every one weighs its
#: events, so the probability ranking has weights to read.
BASE = dict(seed=None, probability=0.1)
PAST_THE_GRAPH = [
    dict(seed=5),
    dict(rounds=2048),
    dict(algorithm="sampling", rounds=512),
    dict(ranking="probability"),
    dict(top_n=1),
    dict(max_order=2),
    dict(sample_probability=0.25),
    dict(algorithm="sampling", rounds=512, adaptive=True),
    dict(tenant="other"),
    dict(metadata={"client": "x"}),
    dict(base="0" * 64),
]
GRAPH_SHAPING = [
    dict(depdb=DEPDB + '<src="S4" dst="Internet" route="ToR2,Core2"/>\n'),
    dict(servers=("S1", "S2")),
    dict(deployment="named"),
    dict(servers=("S1", "S2", "S3"), required=2),
    dict(probability=0.2),
]


class TestOneBuildPerKey:
    def test_requests_that_differ_past_the_graph_share_one_build(
        self, builds
    ):
        manager = JobManager(workers=0, per_tenant_limit=16)
        try:
            first = manager.submit(make_request(**BASE))
            jobs = [
                manager.submit(make_request(**{**BASE, **change}))
                for change in PAST_THE_GRAPH
            ]
            manager.run_pending()
            assert [job.state for job in [first, *jobs]] == ["done"] * 12
            assert builds == [("S1", "S3")]
            census = graphs(manager)
            assert (census["misses"], census["hits"]) == (1, len(jobs))
            assert census["entries"] == 1
        finally:
            manager.shutdown()

    def test_each_graph_shaping_field_builds_a_new_graph(self, builds):
        manager = JobManager(workers=0)
        try:
            manager.submit(make_request(**BASE))
            for change in GRAPH_SHAPING:
                manager.submit(make_request(**{**BASE, **change}))
            manager.run_pending()
            assert len(builds) == 1 + len(GRAPH_SHAPING)
            census = graphs(manager)
            assert (census["misses"], census["hits"]) == (len(builds), 0)
            # Each again: every key is held now.
            for change in GRAPH_SHAPING:
                manager.submit(make_request(**{**BASE, **change}))
            manager.run_pending()
            assert len(builds) == 1 + len(GRAPH_SHAPING)
            assert graphs(manager)["hits"] == len(GRAPH_SHAPING)
        finally:
            manager.shutdown()

    def test_a_base_resolves_against_the_index(self, builds):
        manager = JobManager(workers=0)
        try:
            first = manager.submit(make_request(servers=("S1", "S2")))
            manager.run_pending()
            second = manager.submit(
                make_request(base=first.structural_hash, seed=9)
            )
            manager.run_pending()
            compiled = next(
                e for e in second.events if e["event"] == "compiled"
            )
            assert compiled["delta"]["removed"] or compiled["delta"]["added"]
            # A base lookup is a scan, not a build-key lookup.
            assert graphs(manager)["misses"] == 2
        finally:
            manager.shutdown()


class TestReusedGraphBytes:
    @pytest.mark.parametrize(
        "change", PAST_THE_GRAPH, ids=[next(iter(c)) for c in PAST_THE_GRAPH]
    )
    def test_a_reused_graph_gives_a_fresh_managers_bytes(self, change):
        request = make_request(**{**BASE, "seed": 61, **change})
        warm, fresh = JobManager(workers=0), JobManager(workers=0)
        try:
            warm.submit(make_request(**{**BASE, "seed": 60}))
            warm.run_pending()
            reused = warm.submit(request)
            warm.run_pending()
            assert graphs(warm)["hits"] == 1
            built = fresh.submit(request)
            fresh.run_pending()
            assert graphs(fresh)["hits"] == 0
            assert reused.report_bytes == built.report_bytes
            assert reused.report_bytes == direct_bytes(request)
        finally:
            warm.shutdown()
            fresh.shutdown()

    @pytest.mark.parametrize("held", [False, True], ids=["cold", "held"])
    def test_two_workers_auditing_one_key_at_once(self, held):
        # More workers than cores, switching threads every microsecond.
        requests = [
            make_request(algorithm="sampling", rounds=4096, seed=seed)
            for seed in range(71, 79)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        manager = JobManager(workers=4)
        try:
            if held:
                first = manager.submit(make_request(seed=70))
                manager.wait(first.id, timeout=60)
            gate = threading.Barrier(len(requests))
            jobs = [None] * len(requests)

            def submit(i):
                gate.wait()
                jobs[i] = manager.submit(requests[i])

            threads = [
                threading.Thread(target=submit, args=(i,))
                for i in range(len(requests))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            for job, request in zip(jobs, requests):
                assert manager.wait(job.id, timeout=60).state == "done"
                assert job.report_bytes == direct_bytes(request)
            census = graphs(manager)
            assert census["entries"] == 1
            assert census["hits"] + census["misses"] == len(requests) + held
        finally:
            sys.setswitchinterval(interval)
            manager.shutdown()
