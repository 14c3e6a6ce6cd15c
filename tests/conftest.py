"""Shared fixtures: the paper's worked examples as reusable graphs."""

from __future__ import annotations

import threading

import pytest
from hypothesis import settings

from repro import ComponentSets, FaultGraph, FaultSets, GateType
from repro.depdb import DepDB
from repro.depdb.backend import record_key
from repro.depdb.records import HardwareDependency

# A failing property test prints the @reproduce_failure blob that replays
# its example.
settings.register_profile("repro", print_blob=True)
settings.load_profile("repro")


@pytest.fixture
def figure_4a() -> FaultGraph:
    """Figure 4(a): E1 = {A1, A2}, E2 = {A2, A3}, AND-of-ORs."""
    sets = ComponentSets.from_mapping({"E1": ["A1", "A2"], "E2": ["A2", "A3"]})
    return sets.to_fault_graph("figure-4a")


@pytest.fixture
def figure_4b() -> FaultGraph:
    """Figure 4(b): the weighted variant (0.1 / 0.2 / 0.3)."""
    sets = FaultSets.from_mapping(
        {"E1": {"A1": 0.1, "A2": 0.2}, "E2": {"A2": 0.2, "A3": 0.3}}
    )
    return sets.to_fault_graph("figure-4b")


@pytest.fixture
def figure_4b_probs() -> dict[str, float]:
    return {"A1": 0.1, "A2": 0.2, "A3": 0.3}


@pytest.fixture
def deep_graph() -> FaultGraph:
    """A 3-level graph with internal redundancy and shared leaves.

    top = AND(S1, S2); S1 = OR(net1, libc6); S2 = OR(net2, libc6);
    net1 = AND(tor1, shared-core); net2 = AND(tor2, shared-core).
    Minimal RGs: {libc6}, {tor1, tor2}, {tor1, core}... see tests.
    """
    g = FaultGraph("deep")
    for leaf in ("tor1", "tor2", "core", "libc6"):
        g.add_basic_event(leaf)
    g.add_gate("net1", GateType.AND, ["tor1", "core"])
    g.add_gate("net2", GateType.AND, ["tor2", "core"])
    g.add_gate("S1", GateType.OR, ["net1", "libc6"])
    g.add_gate("S2", GateType.OR, ["net2", "libc6"])
    g.add_gate("top", GateType.AND, ["S1", "S2"], top=True)
    return g


@pytest.fixture
def two_wide_hosts() -> DepDB:
    """Hosts H1 and H2 with six private components each: the 2-way
    deployment has 7 x 7 = 49 two-event minimal RGs, past every limit at
    which ``Pr(T)`` was ever estimated instead of computed."""
    return DepDB(
        HardwareDependency(hw=host, type="component", dep=f"{host}-c{i}")
        for host in ("H1", "H2")
        for i in range(6)
    )


@pytest.fixture
def sqlite_keyed(monkeypatch) -> list:
    """Every record the SQLite backend keys from here on, in call order
    — ``record_key`` is the unit of content-hash work, so its call count
    says whether a hash cost the store's drift or the whole store."""
    keyed = []

    def counting(record):
        keyed.append(record)
        return record_key(record)

    monkeypatch.setattr("repro.depdb.sqlite.record_key", counting)
    return keyed


@pytest.fixture
def write_after_hash(monkeypatch):
    """``arm(store, record, nth)``: on ``store``'s ``nth`` ``content_hash``
    call from now, a second thread adds ``record`` the moment the hash is
    taken, and the call returns once that write has landed — or has
    waited half a second on the store's lock.  ``arm`` returns the
    thread; join it before reading the store."""

    def arm(store, record, nth: int) -> threading.Thread:
        content_hash = store.content_hash
        writer = threading.Thread(target=store.add, args=(record,))
        calls = []

        def hash_then_write():
            digest = content_hash()
            calls.append(digest)
            if len(calls) == nth:
                writer.start()
                writer.join(timeout=0.5)
            return digest

        monkeypatch.setattr(store, "content_hash", hash_then_write)
        return writer

    return arm
