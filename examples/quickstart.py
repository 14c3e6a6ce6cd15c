"""Quickstart: audit the independence of a small redundant deployment.

Walks the paper's core loop end to end on the Figure 2/3 sample storage
system: collect dependency data, build the fault graph, find and rank
risk groups, and print the auditing report.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    AuditSpec,
    ComponentSets,
    FaultSets,
    SIAAuditor,
    minimal_risk_groups,
    rank_by_probability,
    top_event_probability,
)
from repro.acquisition import (
    HardwareInventoryCollector,
    NetworkDependencyCollector,
)
from repro.depdb import DepDB, SoftwareDependency
from repro.topology import StorageSamplePlan, storage_sample


def figure_4_warmup() -> None:
    """The paper's worked example (Figure 4b): two sources, one shared
    component, weighted analysis."""
    print("== Figure 4 warm-up ==")
    sets = ComponentSets.from_mapping({"E1": ["A1", "A2"], "E2": ["A2", "A3"]})
    graph = sets.to_fault_graph()
    groups = minimal_risk_groups(graph)
    print("minimal risk groups:", [sorted(g) for g in groups])

    weighted = FaultSets.from_mapping(
        {"E1": {"A1": 0.1, "A2": 0.2}, "E2": {"A2": 0.2, "A3": 0.3}}
    )
    probabilities = weighted.probabilities()
    top = top_event_probability(groups, probabilities)
    print(f"Pr(deployment fails) = {top:.3f}   (paper: 0.224)")
    for entry in rank_by_probability(groups, probabilities):
        print("  ", entry.describe())
    print()


def storage_sample_audit() -> None:
    """Audit S1+S2 (shared ToR, shared libc6) vs S1+S3 (separate racks)."""
    print("== Figure 2 sample storage system ==")
    plan = StorageSamplePlan()
    topology = storage_sample(plan)

    depdb = DepDB()
    static = {s: list(plan.routes(s)) for s in plan.servers}
    NetworkDependencyCollector(
        topology, servers=list(plan.servers), static_routes=static
    ).adapt_into(depdb)
    HardwareInventoryCollector(plan.hardware).adapt_into(depdb)
    for server, programs in plan.software.items():
        for program, packages in programs.items():
            depdb.add(SoftwareDependency(program, server, packages))

    auditor = SIAAuditor(depdb)
    base = AuditSpec(deployment="probe", servers=("S1", "S2"), top_n=5)
    report = auditor.compare_combinations(
        base, ["S1", "S2", "S3"], ways=2, title="two-way deployments"
    )
    print(report.render_text(top_rgs=4))
    print("=>", report.summary())


if __name__ == "__main__":
    figure_4_warmup()
    storage_sample_audit()
