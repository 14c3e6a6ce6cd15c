"""Cooperative cancellation across the parallel sampling path (ISSUE 7).

The serial loop always honoured :func:`cancel_scope` at block
boundaries, but the multi-process path used to hand the whole plan to
``pool.map`` and only notice cancellation after every block had run.
These tests pin the fixed behaviour: cancellation takes effect within
roughly one block's wall-clock whether the engine owns its pool or
shares one, and a cancelled run produces no result at all.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.componentset import ComponentSets
from repro.engine import AuditEngine
from repro.engine.parallel import cancel_scope
from repro.errors import AuditCancelled

# A moderately wide deployment so a full 50M-round plan takes far longer
# than the asserted cancellation latency.
SETS = {
    f"P{i}": [f"shared-{j}" for j in range(4)] + [f"p{i}-{j}" for j in range(6)]
    for i in range(6)
}
GRAPH = ComponentSets.from_mapping(SETS).to_fault_graph("cancel")

# Generous CI bound; the real latency is one 4096-round block plus the
# 0.05 s poll interval, i.e. well under a second.
CANCEL_LATENCY_SECONDS = 20.0


def test_parallel_run_cancels_within_one_block():
    event = threading.Event()
    timer = threading.Timer(0.3, event.set)
    timer.start()
    started = time.monotonic()
    try:
        with AuditEngine(n_workers=2) as engine, cancel_scope(event):
            with pytest.raises(AuditCancelled):
                engine.sample(GRAPH, 50_000_000, seed=1)
    finally:
        timer.cancel()
    assert time.monotonic() - started < CANCEL_LATENCY_SECONDS


def test_pre_cancelled_scope_produces_no_result():
    event = threading.Event()
    event.set()
    with AuditEngine(n_workers=2) as engine, cancel_scope(event):
        with pytest.raises(AuditCancelled):
            engine.sample(GRAPH, 100_000, seed=1)


def test_cancel_abandons_speculative_blocks_immediately():
    """The cancel path must never wait out in-flight speculation.

    A cancelled 50M-round plan has thousands of blocks queued behind
    the two in flight.  They are abandoned, not awaited: latency stays
    bounded by one block plus the poll interval even though far more
    rounds than the bound could execute were queued at cancel time —
    and closing the engine right after does not wait for them either.
    """
    event = threading.Event()
    timer = threading.Timer(0.2, event.set)
    timer.start()
    started = time.monotonic()
    try:
        with AuditEngine(n_workers=2) as engine, cancel_scope(event):
            with pytest.raises(AuditCancelled):
                engine.sample(GRAPH, 50_000_000, seed=1)
            abandoned = engine.pool.stats()
    finally:
        timer.cancel()
    assert time.monotonic() - started < CANCEL_LATENCY_SECONDS
    # Far fewer blocks were collected than the 12 000 the plan held.
    assert abandoned["tasks"] < 50_000_000 // 4096


def test_pooled_engine_cancels_within_one_block():
    """Same latency bound through a shared :class:`PersistentPool` —
    and the pool must come out of the cancellation reusable."""
    from repro.engine import PersistentPool

    with PersistentPool(2) as pool:
        engine = AuditEngine(n_workers=2, pool=pool)
        reference = engine.sample(GRAPH, 20_000, seed=2)
        event = threading.Event()
        timer = threading.Timer(0.3, event.set)
        timer.start()
        started = time.monotonic()
        try:
            with cancel_scope(event):
                with pytest.raises(AuditCancelled):
                    engine.sample(GRAPH, 50_000_000, seed=1)
        finally:
            timer.cancel()
        assert time.monotonic() - started < CANCEL_LATENCY_SECONDS
        repeat = engine.sample(GRAPH, 20_000, seed=2)
        assert repeat.risk_groups == reference.risk_groups
        assert repeat.top_failures == reference.top_failures
