"""Figure 7: minimal-RG algorithm vs failure sampling on fat trees.

The paper plots "% minimal RGs detected" against computational time for
the exact algorithm and for sampling with 10^3..10^7 rounds, on the
Table-3 topologies.  The exact algorithm took 17+ hours on topology B on
their cluster, so the quick profile reproduces the *shape* on scaled
fat trees (k = 4/6/8, same structure, tractable exact ground truth):

* the exact algorithm reaches 100% but costs the most time;
* sampling detects a large fraction of minimal RGs in a small fraction
  of the exact algorithm's time, improving monotonically with rounds.

The §6.2.1 scale claim (27,648-server topology audited with ~90% of
dependencies identified) is exercised via the traffic-sampling collector
on topology C in ``test_scale_claim_topology_c``.
"""

from __future__ import annotations

import time

import pytest

from repro.acquisition import NetworkDependencyCollector, TrafficSampledCollector
from repro.core import minimal_risk_groups
from repro.core.spec import AuditSpec
from repro.depdb import DepDB
from repro.engine import AuditEngine, SIAAuditor
from repro.topology import TOPOLOGY_C, FatTreeConfig, fat_tree, fat_tree_routes

#: Scaled stand-ins for topologies A/B/C (same fat-tree structure).
SCALED = {
    "smoke": {"A": 4, "B": 4, "C": 6},
    "quick": {"A": 4, "B": 6, "C": 8},
    "paper": {"A": 8, "B": 12, "C": 16},
}
ROUND_SERIES = {
    "smoke": {
        "A": (100, 1_000, 5_000),
        "B": (500, 2_000, 10_000),
        "C": (1_000, 5_000, 20_000),
    },
    "quick": {
        "A": (100, 1_000, 10_000),
        "B": (1_000, 10_000, 30_000),
        "C": (1_000, 10_000, 50_000),
    },
    "paper": {
        "A": (10_000, 100_000, 1_000_000),
        "B": (10_000, 100_000, 1_000_000),
        "C": (10_000, 100_000, 1_000_000),
    },
}
#: Minimum detection the largest round count must reach per topology —
#: like the paper's Fig 7, bigger topologies detect less at equal rounds.
FINAL_DETECTION_FLOOR = {"A": 0.95, "B": 0.85, "C": 0.45}


def deployment_graph(ports: int):
    """3-way redundant deployment across three pods of a fat tree."""
    config = FatTreeConfig(ports=ports)
    topology = fat_tree(config)
    servers = [f"srv-p{p}-t0-0" for p in range(3)]
    static = {s: fat_tree_routes(config, s) for s in servers}
    depdb = DepDB()
    NetworkDependencyCollector(
        topology, servers=servers, static_routes=static
    ).adapt_into(depdb)
    auditor = SIAAuditor(depdb)
    return auditor.build_graph(
        AuditSpec(deployment="fig7", servers=tuple(servers))
    )


@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_fig7_accuracy_vs_time(benchmark, emit, scale, name):
    ports = SCALED[scale][name]
    graph = deployment_graph(ports)

    started = time.perf_counter()
    reference = minimal_risk_groups(graph)
    exact_seconds = time.perf_counter() - started

    rows = [["minimal-RG", "-", f"{exact_seconds:.3f}", "100.0%"]]
    detections = []
    for rounds in ROUND_SERIES[scale][name]:
        engine = AuditEngine(n_workers=1)
        engine.compile(graph)
        started = time.perf_counter()
        result = engine.sample(graph, rounds, seed=7, minimise=True)
        seconds = time.perf_counter() - started
        rate = result.detection_rate(reference)
        detections.append((rounds, rate, seconds))
        rows.append(["sampling", rounds, f"{seconds:.3f}", f"{rate:.1%}"])
    emit.table(
        f"Figure 7 — topology {name} (scaled fat-tree k={ports}, "
        f"{graph.stats()['events']} events, {len(reference)} minimal RGs)",
        ["algorithm", "rounds", "seconds", "% minimal RGs detected"],
        rows,
    )

    # Shape assertions (the paper's qualitative claims).
    rates = [rate for _r, rate, _t in detections]
    assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:])), (
        "detection must not degrade with more rounds"
    )
    assert rates[-1] >= FINAL_DETECTION_FLOOR[name]

    # Benchmark one mid-series sampling configuration.
    mid_rounds = ROUND_SERIES[scale][name][1]
    benchmark.pedantic(
        lambda: AuditEngine(n_workers=1).sample(graph, mid_rounds, seed=7),
        rounds=1,
        iterations=1,
    )


def test_scale_claim_topology_c(benchmark, emit, scale):
    """§1/§6.2.1: 27,648 servers + 2,880 switches/routers audited; ~90%
    of relevant dependencies identified under bounded effort."""
    topology = fat_tree(TOPOLOGY_C)
    counts = topology.counts()
    switches = counts["tor"] + counts["aggregation"] + counts["core"]
    assert counts["server"] == 27_648
    assert switches == 2_880

    servers = [f"srv-p{p}-t0-0" for p in range(8)]
    static = {s: fat_tree_routes(TOPOLOGY_C, s) for s in servers}
    collector = TrafficSampledCollector(
        topology,
        servers=servers,
        static_routes=static,
        flows_per_server=1290,
        seed=3,
    )
    ratio = collector.discovery_ratio()
    records = benchmark.pedantic(collector.collect, rounds=1, iterations=1)
    total_routes = sum(len(static[s]) for s in servers)
    measured = len(records) / total_routes
    emit.table(
        "Scale claim — topology C dependency discovery",
        ["metric", "paper", "measured"],
        [
            ["servers", 27648, counts["server"]],
            ["switches/routers", 2880, switches],
            ["dependencies identified", "~90%", f"{measured:.0%}"],
            ["expected discovery ratio", "-", f"{ratio:.0%}"],
        ],
    )
    assert 0.80 <= measured <= 1.0
