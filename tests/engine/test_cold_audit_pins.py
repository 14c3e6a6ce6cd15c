"""Pinned cold sampling audits on Table-3 topology A.

Three requests shaped like the ledger's ``cold_sampling`` op — three
servers from three different pods of the k=16 fat tree, acquired from
the topology into a fresh DepDB and audited with ``algorithm="sampling"``
— at 2 048 rounds.  Each pin is the sha-256 of ``report.to_json()``.
Acquisition (route enumeration), every sampling block (witnesses,
deduplication, minimisation) and the report all feed those bytes, so a
change to any of them that is not byte-neutral fails here.
"""

from __future__ import annotations

import hashlib
import random

import pytest

import repro
from repro.acquisition import NetworkDependencyCollector
from repro.depdb import DepDB
from repro.engine import AuditEngine
from repro.topology import TOPOLOGY_A, fat_tree

ROUNDS = 2048


@pytest.fixture(scope="module")
def topology_a():
    return fat_tree(TOPOLOGY_A)


def cold_request(i: int) -> dict:
    rng = random.Random(f"cold-audit-pin/{i}")
    half = TOPOLOGY_A.ports // 2
    servers = tuple(
        f"srv-p{pod}-t{rng.randrange(half)}-{rng.randrange(half)}"
        for pod in rng.sample(range(TOPOLOGY_A.pods), 3)
    )
    return {"servers": servers, "seed": rng.randrange(2**31)}


PINNED = {
    0: "a4f16fbd0817872ef2de87a97a42ff24d4f8cf30ce68418f38730a0886b0b37d",
    1: "60094e9246416c601b3a7bc74b4895f21132d4f9ad633d285491f1fadf188da4",
    2: "a483fcd904b9e6820dce2f66b6f4059763da59fd6f085c8747e9039815950786",
}


@pytest.mark.parametrize("i", sorted(PINNED))
def test_cold_sampling_report_bytes_are_pinned(topology_a, i):
    request = cold_request(i)
    depdb = DepDB()
    NetworkDependencyCollector(
        topology_a, servers=request["servers"]
    ).adapt_into(depdb)
    report = repro.audit(
        depdb.dumps(),
        request["servers"],
        engine=AuditEngine(n_workers=1),
        algorithm="sampling",
        rounds=ROUNDS,
        seed=request["seed"],
    )
    digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
    assert digest == PINNED[i]
