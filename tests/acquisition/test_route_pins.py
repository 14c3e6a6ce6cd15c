"""Pinned route acquisition: the collector's records, digest by digest.

Each digest is the sha-256 of ``NetworkDependencyCollector(...).collect()``
written one record per line (``src``, ``dst`` and the comma-joined route,
tab-separated) in the order the collector yields them.  The values were
taken while routes still came from NetworkX's ``all_shortest_paths``, so
any change to route enumeration that moves a route, drops one or
reorders the stream fails here.  The ``cold_sampling_seed1_op*``
entries, the perf ledger's cold audits, were taken later, while the
collector still ran one breadth-first search per server.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.acquisition import NetworkDependencyCollector
from repro.topology import (
    TOPOLOGY_A,
    FatTreeConfig,
    benson_datacenter,
    fat_tree,
    lab_cloud,
    storage_sample,
)


def records_digest(records) -> str:
    text = "".join(
        f"{r.src}\t{r.dst}\t{','.join(r.route)}\n" for r in records
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cross_pod(ports: int):
    """Every server outside the last pod, routed to one server inside it."""
    half = ports // 2
    topology = fat_tree(FatTreeConfig(ports=ports))
    dst = f"srv-p{ports - 1}-t{half - 1}-{half - 1}"
    servers = [
        d.name
        for d in topology.devices()
        if d.name.startswith("srv-")
        and not d.name.startswith(f"srv-p{ports - 1}-")
    ]
    return NetworkDependencyCollector(topology, servers=servers, dst=dst)


def cold_servers(seed: int, i: int) -> tuple[str, ...]:
    """The three servers of the perf ledger's ``cold_sampling`` op ``i``
    (``benchmarks/e2e/workloads.py::cold_inputs``): one per pod, three
    pods of topology A."""
    rng = random.Random(f"cold_sampling/{seed}/{i}")
    half = TOPOLOGY_A.ports // 2
    return tuple(
        f"srv-p{pod}-t{rng.randrange(half)}-{rng.randrange(half)}"
        for pod in rng.sample(range(TOPOLOGY_A.pods), 3)
    )


def cold_op(i: int):
    return NetworkDependencyCollector(
        fat_tree(TOPOLOGY_A), servers=cold_servers(1, i)
    )


COLLECTORS = {
    "lab_cloud": lambda: NetworkDependencyCollector(lab_cloud()),
    "storage_sample": lambda: NetworkDependencyCollector(storage_sample()),
    "benson_datacenter": lambda: NetworkDependencyCollector(
        benson_datacenter()
    ),
    "fat_tree_k4_internet": lambda: NetworkDependencyCollector(
        fat_tree(FatTreeConfig(ports=4))
    ),
    "fat_tree_k8_internet": lambda: NetworkDependencyCollector(
        fat_tree(FatTreeConfig(ports=8))
    ),
    "fat_tree_k4_cross_pod": lambda: cross_pod(4),
    "fat_tree_k8_cross_pod": lambda: cross_pod(8),
    "cold_sampling_seed1_op0": lambda: cold_op(0),
    "cold_sampling_seed1_op1": lambda: cold_op(1),
    "cold_sampling_seed1_op2": lambda: cold_op(2),
}

PINNED = {
    "lab_cloud": (
        8,
        "5dcdcd49d2ea9f55a1b43fdb9f41b0f178b28f5f0b3422c6588d141dea0641bc",
    ),
    "storage_sample": (
        6,
        "a9a41fb87e400c21494f2e70b032bf931bd0646e24bc4d30f69e49e2bbe56525",
    ),
    "benson_datacenter": (
        66,
        "42cca10d59d7c9b09fb117ece84180ed76e21fef1c3a3c436bf42e71641a7207",
    ),
    "fat_tree_k4_internet": (
        64,
        "8ac54a9462de7cb3c7b927f481a6d3a0a79b40fcdbd431b952480d44fa3a0413",
    ),
    "fat_tree_k8_internet": (
        2048,
        "71ffc0a5463ac8c7399cb1bf6a134e8d095ad9dc6a18289e8793e1746ff9f590",
    ),
    "fat_tree_k4_cross_pod": (
        48,
        "48868b845b69cf7e22c5d2ea413f1d4f6def7ef7e5c0ba6d6c11a19e77ade0ff",
    ),
    "fat_tree_k8_cross_pod": (
        1792,
        "01daa5ef9e5f112a958b5360a53997015b9fbf69c00cce63c09cd43d81de64e3",
    ),
    "cold_sampling_seed1_op0": (
        192,
        "f9550235fa6baa7334f7f5d06543e25a16ef152d511f8afa4249c77427c34137",
    ),
    "cold_sampling_seed1_op1": (
        192,
        "5fdfe1980a4e35b2c73b106fd1500a01ec2b0c0edd57a4c7965dff9680db3f20",
    ),
    "cold_sampling_seed1_op2": (
        192,
        "b567154dfc9d4a62450849911c2f6d9772178c63e4dd1cfa493586b83c1ac8c5",
    ),
}


@pytest.mark.parametrize("name", sorted(COLLECTORS))
def test_collected_records_are_pinned(name):
    records = COLLECTORS[name]().collect()
    assert (len(records), records_digest(records)) == PINNED[name]
