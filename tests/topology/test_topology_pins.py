"""Pinned topologies: what a fat tree is, device by device and link by link.

Each fat-tree digest is the sha-256 of the devices in insertion order
(name, role, rack, pod), then every device's neighbours in adjacency
order with the number of parallel links to each.  Route enumeration
walks exactly this adjacency, so a change to how links are stored that
reorders a neighbour list or miscounts a parallel link fails here even
where it happens to leave the routes alone.

The parallel-link readers of the tests' NetworkX helper
(``links_between``, ``topology_to_networkx(multigraph=True)``) are pinned
on a small topology whose links are added in both orientations and
interleaved with others.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.topology import DeviceType, FatTreeConfig, Topology, fat_tree
from tests.graph_export import links_between, topology_to_networkx


def topology_digest(topology: Topology) -> str:
    lines = [
        f"{d.name}\t{d.type.value}\t{d.rack}\t{d.pod}"
        for d in topology.devices()
    ]
    for device in topology.devices():
        for neighbour in topology.neighbors(device.name):
            count = topology.link_count(device.name, neighbour)
            lines.append(f"{device.name}\t{neighbour}\t{count}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


FAT_TREE_SHA256 = {
    4: "62439d31225f1406cf0018a912f7c8b1f384cebf2379bfa1fe5ec9835e56d828",
    8: "1575071376ffd07b3dedb08df9771f6d549cb27e1d9c147807a7ef62127c2a91",
    16: "777ed4f5dc69bd5f7185ce626044a4a777603b9acbb32b252fa8a6918b743786",
}


@pytest.mark.parametrize("ports", sorted(FAT_TREE_SHA256))
def test_fat_tree_devices_and_adjacency_are_pinned(ports):
    assert topology_digest(fat_tree(FatTreeConfig(ports=ports))) == (
        FAT_TREE_SHA256[ports]
    )


@pytest.fixture
def parallel() -> Topology:
    """``s1``-``tor1`` twice in one orientation, around a triple
    ``s1``-``core1``; ``tor1``-``core1`` once each way."""
    t = Topology("parallel")
    t.add_device("s1", DeviceType.SERVER)
    t.add_device("tor1", DeviceType.TOR)
    t.add_device("core1", DeviceType.CORE)
    t.add_link("s1", "tor1")
    t.add_link("s1", "core1", count=3)
    t.add_link("tor1", "core1")
    t.add_link("s1", "tor1")
    t.add_link("core1", "tor1")
    return t


def test_links_between_as_added(parallel):
    """Queried in the orientation the links were added in."""
    rows = {
        pair: [
            (link.a, link.b, link.index, link.name)
            for link in links_between(parallel, *pair)
        ]
        for pair in (("s1", "tor1"), ("s1", "core1"))
    }
    assert rows == {
        ("s1", "tor1"): [
            ("s1", "tor1", 0, "link:s1~tor1#0"),
            ("s1", "tor1", 1, "link:s1~tor1#1"),
        ],
        ("s1", "core1"): [
            ("s1", "core1", 0, "link:core1~s1#0"),
            ("s1", "core1", 1, "link:core1~s1#1"),
            ("s1", "core1", 2, "link:core1~s1#2"),
        ],
    }


def test_links_between_names_either_way(parallel):
    """The names and indices of every pair's links, asked both ways."""
    names = {
        (a, b): [(link.index, link.name) for link in links_between(parallel, a, b)]
        for a in ("s1", "tor1", "core1")
        for b in ("s1", "tor1", "core1")
        if a != b
    }
    assert names == {
        ("s1", "tor1"): [(0, "link:s1~tor1#0"), (1, "link:s1~tor1#1")],
        ("tor1", "s1"): [(0, "link:s1~tor1#0"), (1, "link:s1~tor1#1")],
        ("s1", "core1"): [(i, f"link:core1~s1#{i}") for i in range(3)],
        ("core1", "s1"): [(i, f"link:core1~s1#{i}") for i in range(3)],
        ("tor1", "core1"): [(i, f"link:core1~tor1#{i}") for i in range(2)],
        ("core1", "tor1"): [(i, f"link:core1~tor1#{i}") for i in range(2)],
    }
    assert links_between(parallel, "s1", "ghost") == []


def test_multigraph_export(parallel):
    graph = topology_to_networkx(parallel, multigraph=True)
    assert graph.name == "parallel"
    assert list(graph.nodes(data="type")) == [
        ("s1", "server"),
        ("tor1", "tor"),
        ("core1", "core"),
    ]
    edges = sorted(
        (*sorted((a, b)), key) for a, b, key in graph.edges(keys=True)
    )
    assert edges == [
        ("core1", "s1", 0),
        ("core1", "s1", 1),
        ("core1", "s1", 2),
        ("core1", "tor1", 0),
        ("core1", "tor1", 1),
        ("s1", "tor1", 0),
        ("s1", "tor1", 1),
    ]
    simple = topology_to_networkx(parallel)
    assert sorted(map(sorted, simple.edges())) == [
        ["core1", "s1"],
        ["core1", "tor1"],
        ["s1", "tor1"],
    ]
