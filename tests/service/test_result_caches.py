"""One result cache per door, seen from the wire.

A served job executes through ``api.execute_request``, which neither reads
nor fills the engine's result cache: the service's report store answers
repeats.  ``/v1/healthz`` shows the census of every in-process LRU, and
each uploaded DepDB text is held once however many jobs carry it, and
not at all once none does.
"""

import gc
import json
import weakref

import pytest

import repro
from repro import api
from repro.service import JobManager, ServiceThread
from repro.service import jobs as jobs_module

from tests.service.conftest import DEPDB, make_request
from tests.service.test_http import http_call

CENSUS = (
    "reports",
    "fingerprints",
    "graphs",
    "idempotency",
    "depdb_texts",
    "engine_graphs",
    "engine_audits",
    "engine_stores",
)


@pytest.fixture
def service(tmp_path):
    """A live journalled server with one worker."""
    handle = ServiceThread(JobManager(workers=1, state_dir=tmp_path)).start()
    yield handle
    handle.stop()


def served(handle, request: api.AuditRequest) -> tuple[str, bool]:
    """Submit over HTTP, wait, fetch: the job id and whether it was cached."""
    _, _, body = http_call(handle, "POST", "/v1/audits", request.to_json())
    status = api.JobStatus.from_json(body)
    assert handle.server.manager.wait(status.job_id, timeout=60).state == "done"
    return status.job_id, status.cached


def health(handle) -> dict:
    status, _, body = http_call(handle, "GET", "/v1/healthz")
    assert status == 200
    return json.loads(body)


class TestOneCachePerDoor:
    def test_served_jobs_leave_the_engine_result_cache_empty(self, service):
        seeds = (31, 32, 31, 33, 32, 31, 34, 33, 31, 32)
        cached = 0
        for seed in seeds:
            request = make_request(algorithm="sampling", rounds=512, seed=seed)
            job_id, hit = served(service, request)
            cached += hit
            _, _, body = http_call(service, "GET", f"/v1/jobs/{job_id}/report")
            local = repro.audit(
                DEPDB, ["S1", "S3"], algorithm="sampling", rounds=512, seed=seed
            )
            assert body.decode("utf-8") == local.to_json()
        assert cached == len(seeds) - len(set(seeds))
        caches = health(service)["caches"]
        assert set(caches) == set(CENSUS)
        for info in caches.values():
            assert set(info) == {"entries", "maxsize", "hits", "misses"}
        assert caches["engine_audits"]["entries"] == 0
        assert caches["engine_audits"]["misses"] == 0
        assert caches["fingerprints"]["hits"] == cached
        assert caches["reports"]["entries"] == len(set(seeds))
        assert health(service)["cache_hits"] == cached

    def test_one_upload_is_held_once(self, service, tmp_path):
        first, _ = served(service, make_request(seed=41))
        second, _ = served(service, make_request(seed=42))
        manager = service.server.manager
        assert manager.get(first).request.depdb is manager.get(second).request.depdb
        service.stop()

        recovered = JobManager(workers=0, state_dir=tmp_path)
        try:
            assert (
                recovered.get(first).request.depdb
                is recovered.get(second).request.depdb
            )
            assert recovered.get(first).recovered
        finally:
            recovered.shutdown()


class Text(str):
    """A DepDB text that can be weakly referenced (a plain str cannot)."""


class TestSharedText:
    def test_a_text_goes_with_its_last_job(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_RETAINED_JOBS", 1)
        manager = JobManager(workers=0)
        try:
            text = Text(DEPDB)
            gone = weakref.ref(text)
            manager.submit(make_request(depdb=text, seed=51))
            copy = manager.submit(make_request(depdb=DEPDB.encode().decode()))
            assert copy.request.depdb is text
            assert manager.stats()["caches"]["depdb_texts"]["hits"] == 1
            manager.run_pending()
            manager.submit(make_request(depdb=DEPDB + "\n", seed=53))
            manager.run_pending()
            del text, copy
            gc.collect()
            # Both jobs of the text were dropped, and the text map (as
            # bounded as the retained jobs) let it go with them.
            assert gone() is None
            assert manager.stats()["caches"]["depdb_texts"]["entries"] == 1
        finally:
            manager.shutdown()
