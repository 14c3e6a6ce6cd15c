"""Pinned bytes of every path through the engine's audit result cache.

Spec-set delta audits, store audits, the watch loop, drift reports and
the shared request executor (with and without an engine) all hand their
audits to the result cache or around it.  Each pin below is the sha-256
of that path's canonical output, so a change to which engine object
audits, or to whether the cache sits in between, fails here unless it
is byte-neutral.  Wall-clock fields (``elapsed_seconds``, a snapshot's
``created``) are dropped before hashing; nothing else is.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import repro
from repro import api
from repro.analysis import drift_report
from repro.core.spec import AuditSpec, RGAlgorithm
from repro.depdb import (
    DepDB,
    HardwareDependency,
    NetworkDependency,
    SoftwareDependency,
)
from repro.engine import AuditEngine, AuditJob
from repro.failures import uniform_weigher
from repro.service import WatchService

RECORDS = [
    NetworkDependency("S1", "Internet", ("ToR1", "Core1")),
    NetworkDependency("S2", "Internet", ("ToR2", "Core1")),
    NetworkDependency("S3", "Internet", ("ToR3", "Core2")),
    HardwareDependency("S1", "CPU", "X5550"),
    HardwareDependency("S2", "CPU", "X5550"),
    HardwareDependency("S3", "CPU", "E5-2680"),
    SoftwareDependency("Riak1", "S1", ("libc6",)),
    SoftwareDependency("Riak2", "S2", ("libc6",)),
    SoftwareDependency("Riak3", "S3", ("libc6", "libssl")),
]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(document) -> str:
    return json.dumps(document, sort_keys=True)


def sampling_spec(*servers: str) -> AuditSpec:
    return AuditSpec(
        deployment=" & ".join(servers),
        servers=servers,
        algorithm=RGAlgorithm.SAMPLING,
        sampling_rounds=3_000,
        seed=7,
    )


# --------------------------------------------------------------------- #
# repro.audit_delta
# --------------------------------------------------------------------- #

DELTA_PINS = {
    "first": "9d50b10ff585f28971015e0bfa32ff9e3997ff0ee4a12fd50c24d74f5f1365c5",
    "noop": "2cd4b8de544ae6cc243c2280a8d80ed6566b658bde629ec163ade17f78741b3e",
}


def test_audit_delta_first_run_then_noop():
    depdb = DepDB(RECORDS)
    specs = [
        AuditJob(depdb=depdb, spec=sampling_spec(a, b))
        for a, b in (("S1", "S2"), ("S1", "S3"), ("S2", "S3"))
    ]
    engine = AuditEngine()
    first = repro.audit_delta(None, specs, engine=engine)
    noop = repro.audit_delta(specs, specs, engine=engine)
    assert noop.metadata["reused"] == [job.spec.deployment for job in specs]
    assert noop.metadata["recomputed"] == []
    assert sha(first.to_json()) == DELTA_PINS["first"]
    assert sha(noop.to_json()) == DELTA_PINS["noop"]


# --------------------------------------------------------------------- #
# audit_store on a SQLite store
# --------------------------------------------------------------------- #

#: (outcome, audit) digests; a hit returns the first call's audit.
STORE_PINS = {
    "first": (
        "ce2204f7dd5a2f59f152f837dd5e1f3d9fcdb83b83fe4302b4f2d948f74a68c7",
        "06790f22d28e36cffc52db881aa12c62016552531e8135e2e1d5be1209495e3f",
    ),
    "repeat": (
        "8d75f0553c2c0835a4e96bd5268ee9932e31a0368f2241b8cb5374a82029d568",
        "06790f22d28e36cffc52db881aa12c62016552531e8135e2e1d5be1209495e3f",
    ),
}


def outcome_document(outcome) -> str:
    document = outcome.to_dict()
    del document["snapshot"]["created"]
    return canonical(document)


def test_audit_store_first_and_repeat(tmp_path):
    with DepDB.sqlite(tmp_path / "store.sqlite") as store:
        store.ingest(iter(RECORDS))
        engine = AuditEngine()
        spec = sampling_spec("S1", "S2", "S3")
        first = engine.audit_store(store, spec)
        repeat = engine.audit_store(store, spec)
    assert (first.cache_hit, repeat.cache_hit) == (False, True)
    for name, outcome in (("first", first), ("repeat", repeat)):
        assert (
            sha(outcome_document(outcome)),
            sha(api.canonical_json(outcome.audit.to_dict())),
        ) == STORE_PINS[name]


# --------------------------------------------------------------------- #
# WatchService.run_once
# --------------------------------------------------------------------- #

#: The first (all recomputed) and second (all reused) iteration events.
WATCH_PINS = (
    "be465b4d26ecf3bf521ee9222a1edc31ed2cbeb3b8545b4ce262cb6204d25722",
    "544a219ea47427e7c918239de338e01c6003d3f7467d7127030d3d48f91b2f27",
)


def test_watch_iterations(tmp_path, monkeypatch):
    specs = tmp_path / "specs"
    specs.mkdir()
    (specs / "net.depdb").write_text(DepDB(RECORDS).dumps())
    for name, servers in (("web", ["S1", "S2"]), ("db", ["S1", "S3"])):
        (specs / f"{name}.json").write_text(
            json.dumps(
                {
                    "name": f"{name}-tier",
                    "depdb": "net.depdb",
                    "servers": servers,
                    "algorithm": "sampling",
                    "rounds": 2_000,
                    "seed": 3,
                }
            )
        )
    # A relative directory keeps the event's "directory" field stable.
    monkeypatch.chdir(tmp_path)
    service = WatchService("specs", engine=AuditEngine(), interval=0)
    lines = []
    for _ in WATCH_PINS:
        entry = service.run_once()
        del entry["elapsed_seconds"]
        lines.append(canonical(entry))
    assert json.loads(lines[1])["recomputed"] == []
    assert tuple(sha(line) for line in lines) == WATCH_PINS


# --------------------------------------------------------------------- #
# drift_report
# --------------------------------------------------------------------- #

#: Both exact audits read Pr(T) off their graph's diagram:
#: 0x1.3073d7683141dp-2 before and 0x1.66df3f961804fp-2 after the drift.
DRIFT_PIN = "68dd04a19a0475c141884bb77824adf5a24bd58e70a05bc829a30a5231c80b4b"


def drift_document(report) -> str:
    """Every field of a :class:`DriftReport`, which has no ``to_dict``."""

    def groups(family):
        return [sorted(group) for group in family]

    return canonical(
        {
            "deployment": report.deployment,
            "diff": report.diff.render_text(),
            "introduced": groups(report.introduced_risk_groups),
            "resolved": groups(report.resolved_risk_groups),
            "introduced_unexpected": groups(report.introduced_unexpected),
            "score_before": report.score_before,
            "score_after": report.score_after,
            "failure_probability_before": report.failure_probability_before,
            "failure_probability_after": report.failure_probability_after,
            "metadata": report.metadata,
            "text": report.render_text(),
        }
    )


@pytest.mark.parametrize("with_engine", [False, True], ids=["none", "engine"])
def test_drift_report(with_engine):
    before = DepDB(RECORDS)
    # S2 moves onto S1's ToR: a new single-element risk group.
    after = DepDB(
        [NetworkDependency("S2", "Internet", ("ToR1", "Core1"))]
        + [record for record in RECORDS if record is not RECORDS[1]]
    )
    spec = AuditSpec(deployment="S1 & S2", servers=("S1", "S2"))
    report = drift_report(
        before,
        after,
        spec,
        weigher=uniform_weigher(0.1),
        engine=AuditEngine() if with_engine else None,
    )
    assert report.regressed
    assert sha(drift_document(report)) == DRIFT_PIN


# --------------------------------------------------------------------- #
# api.run_request
# --------------------------------------------------------------------- #

REQUEST_PINS = {
    "sampling": "41ef3e7dad494da599b7c33600df822e02bd2e45d49aef2992c2dec6d4fe45be",
    "minimal": "6d6b1b87df61e9abe0b0ca391bfdc856b7256f22d6bd273b824248605296e672",
}

REQUESTS = {
    "sampling": dict(algorithm="sampling", rounds=2_000, seed=11, top_n=4),
    "minimal": dict(
        algorithm="minimal", ranking="probability", probability=0.1
    ),
}


@pytest.mark.parametrize("with_engine", [False, True], ids=["none", "engine"])
@pytest.mark.parametrize("kind", sorted(REQUEST_PINS))
def test_run_request(kind, with_engine):
    request = api.AuditRequest(
        servers=("S1", "S2", "S3"),
        depdb=DepDB(RECORDS).dumps(),
        **REQUESTS[kind],
    )
    engine = AuditEngine(n_workers=1) if with_engine else None
    report = api.run_request(request, engine=engine)
    assert sha(report.to_json()) == REQUEST_PINS[kind]
