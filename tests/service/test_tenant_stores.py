"""Per-tenant durable DepDB stores and the ``@store`` request flow."""

import json

import pytest

from repro import api
from repro.depdb import DepDB, HardwareDependency
from repro.errors import ServiceError
from repro.service import JobManager, ServiceThread, TenantStores
from repro.service.stores import tenant_store_filename

from tests.service.conftest import DEPDB, make_request

JSON_PAYLOAD = DepDB.loads(DEPDB).to_json()


def manager(**overrides) -> JobManager:
    fields = dict(workers=0)
    fields.update(overrides)
    return JobManager(**fields)


class TestFilenames:
    def test_safe_name_used_verbatim(self):
        assert tenant_store_filename("acme-corp.eu") == "acme-corp.eu.sqlite"

    def test_unsafe_characters_sanitised_without_collision(self):
        slash = tenant_store_filename("a/b")
        underscore = tenant_store_filename("a_b")
        assert slash.endswith(".sqlite")
        assert "/" not in slash
        assert slash != underscore

    def test_empty_tenant_still_gets_a_filename(self):
        assert tenant_store_filename("").endswith(".sqlite")


class TestTenantStores:
    def test_ingest_table1_text(self):
        stores = TenantStores()
        outcome = stores.ingest("acme", DEPDB)
        assert outcome["added"] == 3
        assert outcome["counts"] == {
            "network": 3, "hardware": 0, "software": 0,
        }
        assert outcome["content_hash"] == stores.get("acme").content_hash()

    def test_ingest_json_autodetected(self):
        stores = TenantStores()
        outcome = stores.ingest("acme", JSON_PAYLOAD)
        assert outcome["added"] == 3
        text = TenantStores()
        text.ingest("acme", DEPDB)
        assert outcome["content_hash"] == text.get("acme").content_hash()

    def test_ingest_is_deduplicating(self):
        stores = TenantStores()
        stores.ingest("acme", DEPDB)
        again = stores.ingest("acme", DEPDB)
        assert again["added"] == 0
        assert again["total"] == 3

    def test_empty_payload_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            TenantStores().ingest("acme", "   ")
        assert excinfo.value.status == 400

    def test_malformed_payload_rejected_cleanly(self):
        with pytest.raises(ServiceError) as excinfo:
            TenantStores().ingest("acme", '{"network": [{"src": "A"}]}')
        assert excinfo.value.status == 400
        assert "network entry #0" in str(excinfo.value)

    def test_tenants_are_isolated(self):
        stores = TenantStores()
        stores.ingest("a", DEPDB)
        assert len(stores.get("b")) == 0
        assert stores.tenants() == ["a", "b"]

    def test_durable_across_instances(self, tmp_path):
        first = TenantStores(tmp_path)
        first.ingest("acme", DEPDB)
        content = first.get("acme").content_hash()
        first.close()
        second = TenantStores(tmp_path)
        try:
            stats = second.stats("acme")
            assert stats["durable"] is True
            assert stats["total"] == 3
            assert stats["content_hash"] == content
        finally:
            second.close()

    def test_small_posts_key_each_record_once(self, tmp_path, sqlite_keyed):
        # Every ingest document carries the store's content hash; N
        # small posts cost N records of keying, not the sum of the
        # store's sizes on the way up.
        stores = TenantStores(tmp_path)
        try:
            posts = 12
            for i in range(posts):
                outcome = stores.ingest(
                    "acme", f'<src="S{i}" dst="Internet" route="ToR{i}"/>\n'
                )
                assert outcome["total"] == i + 1
                assert stores.stats("acme")["content_hash"] == (
                    outcome["content_hash"]
                )
            assert len(sqlite_keyed) == posts  # not 1 + 2 + ... + 12
            store = stores.get("acme")
            assert outcome["content_hash"] == DepDB(
                store.iter_records()
            ).content_hash()
        finally:
            stores.close()

    def test_closed_stores_raise_503(self):
        stores = TenantStores()
        stores.close()
        with pytest.raises(ServiceError) as excinfo:
            stores.get("acme")
        assert excinfo.value.status == 503


class TestStoreRequests:
    def test_empty_store_submit_is_400(self):
        jobs = manager()
        with pytest.raises(ServiceError) as excinfo:
            jobs.submit(make_request(depdb=api.STORE_DEPDB))
        assert excinfo.value.status == 400
        assert excinfo.value.code == "empty-store"

    def test_store_audit_matches_inline_depdb_bytes(self):
        jobs = manager()
        jobs.ingest_depdb("default", DEPDB)
        store_job = jobs.submit(make_request(depdb=api.STORE_DEPDB))
        inline_job = jobs.submit(
            make_request(depdb=jobs.stores.get("default").dumps())
        )
        jobs.run_pending()
        jobs.run_pending()
        assert store_job.report_bytes == inline_job.report_bytes

    def test_done_store_job_snapshots_audited_state(self):
        jobs = manager()
        jobs.ingest_depdb("default", DEPDB)
        job = jobs.submit(make_request(depdb=api.STORE_DEPDB))
        jobs.run_pending()
        last = jobs.stores.get("default").last_snapshot()
        assert last is not None
        assert last.label == job.structural_hash

    def test_repeat_store_submit_is_born_done_cache_hit(self):
        jobs = manager()
        jobs.ingest_depdb("default", DEPDB)
        first = jobs.submit(make_request(depdb=api.STORE_DEPDB))
        jobs.run_pending()
        second = jobs.submit(make_request(depdb=api.STORE_DEPDB))
        assert second.cached is True
        assert second.state == "done"
        assert second.report_bytes == first.report_bytes

    def test_second_store_submit_bases_on_last_audit(self):
        jobs = manager()
        jobs.ingest_depdb("default", DEPDB)
        first = jobs.submit(make_request(depdb=api.STORE_DEPDB))
        jobs.run_pending()
        jobs.ingest_depdb(
            "default", '<hw="S1" type="CPU" dep="X5550"/>\n'
        )
        second = jobs.submit(make_request(depdb=api.STORE_DEPDB))
        assert second.request.base == first.structural_hash
        jobs.run_pending()
        assert second.state == "done"
        delta = [e for e in second.events if "delta" in e]
        assert delta, "drifted @store audit should report a graph delta"

    def test_mid_flight_drift_skips_snapshot(self):
        jobs = manager()
        jobs.ingest_depdb("default", DEPDB)
        job = jobs.submit(make_request(depdb=api.STORE_DEPDB))
        # Store drifts after admission but before the audit finishes.
        jobs.stores.get("default").add(
            HardwareDependency("S9", "Disk", "WD")
        )
        jobs.run_pending()
        assert job.state == "done"
        assert jobs.stores.get("default").last_snapshot() is None

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "sqlite"])
    def test_write_between_check_and_snapshot_is_not_marked_audited(
        self, tmp_path, write_after_hash, durable
    ):
        jobs = manager(state_dir=tmp_path) if durable else manager()
        try:
            jobs.ingest_depdb("default", DEPDB)
            store = jobs.stores.get("default")
            job = jobs.submit(make_request(depdb=api.STORE_DEPDB))
            # Another thread ingests right after the finished job checks
            # that the store still holds the audited records.
            late = HardwareDependency("S9", "Disk", "WD")
            writer = write_after_hash(store, late, nth=1)
            jobs.run_pending()
            writer.join()
            assert job.state == "done"
            audited = job.request.metadata["depdb_content_hash"]
            assert store.last_snapshot().digest == audited
            assert store.last_snapshot().label == job.structural_hash
            assert store.content_hash() != audited
        finally:
            jobs.shutdown()

    def test_stats_expose_store_tenants(self):
        jobs = manager()
        jobs.ingest_depdb("acme", DEPDB)
        stats = jobs.stats()
        assert stats["stores"] == {"durable": False, "tenants": ["acme"]}


class TestRestart:
    def test_store_and_cache_survive_restart(self, tmp_path):
        first = manager(state_dir=tmp_path)
        first.ingest_depdb("default", DEPDB)
        job = first.submit(make_request(depdb=api.STORE_DEPDB))
        first.run_pending()
        report = job.report_bytes
        first.shutdown()

        second = manager(state_dir=tmp_path)
        try:
            stats = second.depdb_stats("default")
            assert stats["total"] == 3
            assert stats["snapshots"] == 1
            # Unchanged store + journal-replayed report cache: the
            # repeat @store submit is born done with identical bytes.
            replay = second.submit(make_request(depdb=api.STORE_DEPDB))
            assert replay.cached is True
            assert replay.report_bytes == report
        finally:
            second.shutdown()


class TestHttpRoutes:
    @pytest.fixture
    def service(self):
        handle = ServiceThread(JobManager(workers=1)).start()
        yield handle
        handle.stop()

    def _call(self, handle, method, path, body=None):
        import http.client

        conn = http.client.HTTPConnection(
            handle.server.host, handle.server.port, timeout=30
        )
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def test_ingest_then_stats_round_trip(self, service):
        status, body = self._call(
            service, "POST", "/v1/tenants/acme/depdb",
            body=DEPDB.encode("utf-8"),
        )
        assert status == 200
        assert body["kind"] == "depdb_ingest"
        assert body["added"] == 3

        status, body = self._call(service, "GET", "/v1/tenants/acme/depdb")
        assert status == 200
        assert body["kind"] == "depdb_stats"
        assert body["total"] == 3

    def test_bad_payload_is_structured_400(self, service):
        status, body = self._call(
            service, "POST", "/v1/tenants/acme/depdb",
            body=b"<not a depdb line>",
        )
        assert status == 400
        assert body["error"]["code"] == "bad-request"
