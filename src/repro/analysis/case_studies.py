"""The three §6.2 case studies, packaged end-to-end.

Each function builds its substrate, runs acquisition, executes the audit
exactly as the paper describes, and returns a result object carrying both
the measured outcome and the paper's reported numbers — so examples,
tests and benchmarks all share one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.acquisition.hardware import HardwareInventoryCollector
from repro.acquisition.network import NetworkDependencyCollector
from repro.analysis.formal import FormalAnalysisResult, formal_analysis
from repro.cloud.openstack import Host, Scheduler
from repro.core.report import AuditReport, DeploymentAudit
from repro.core.spec import AuditSpec, RGAlgorithm
from repro.depdb.database import DepDB
from repro.depdb.records import HardwareDependency, NetworkDependency
from repro.engine.audit import SIAAuditor
from repro.failures.models import uniform_weigher
from repro.privacy.pia import PIAAuditor, PIAReport
from repro.swinventory.stacks import CLOUDS, all_stack_packages
from repro.topology.datacenter import DatacenterPlan, benson_datacenter
from repro.topology.graph import INTERNET
from repro.topology.lab import LabCloudPlan, lab_cloud

__all__ = [
    "NetworkCaseResult",
    "HardwareCaseResult",
    "network_case_study",
    "hardware_case_study",
    "software_case_study",
]


# --------------------------------------------------------------------- #
# §6.2.1 — common network dependency
# --------------------------------------------------------------------- #


@dataclass
class NetworkCaseResult:
    """Everything §6.2.1 reports, measured."""

    report: AuditReport
    formal: FormalAnalysisResult
    best_deployment: str
    paper_best: str = "Rack5 & Rack29"
    paper_total_deployments: int = 190
    paper_safe_deployments: int = 27
    notes: list[str] = field(default_factory=list)

    @property
    def matches_paper(self) -> bool:
        return (
            self.best_deployment == self.paper_best
            and self.formal.total == self.paper_total_deployments
            and len(self.formal.safe) == self.paper_safe_deployments
        )


def network_datacenter_depdb(
    plan: Optional[DatacenterPlan] = None,
) -> tuple[DepDB, list[str], DatacenterPlan]:
    """Build the Fig-6a topology and collect its network dependencies."""
    plan = plan or DatacenterPlan()
    topology = benson_datacenter(plan)
    servers = [plan.server(r) for r in plan.candidates]
    static = {
        plan.server(r): [plan.route_devices(r)] for r in plan.candidates
    }
    depdb = DepDB()
    NetworkDependencyCollector(
        topology, servers=servers, static_routes=static
    ).adapt_into(depdb)
    return depdb, servers, plan


def network_case_study(
    sampling_rounds: int = 100_000,
    device_failure_probability: float = 0.1,
    seed: int = 7,
) -> NetworkCaseResult:
    """Run the §6.2.1 audit: sampling + size ranking over all rack pairs.

    Args:
        sampling_rounds: Rounds for the failure-sampling audit (the paper
            used 10^6; the default reproduces the result faster).
        device_failure_probability: Uniform device weight for the formal
            cross-check (paper: 0.1).
    """
    depdb, servers, _plan = network_datacenter_depdb()
    weigher = uniform_weigher(device_failure_probability)
    auditor = SIAAuditor(depdb, weigher=weigher)
    base = AuditSpec(
        deployment="probe",
        servers=(servers[0], servers[1]),
        algorithm=RGAlgorithm.SAMPLING,
        sampling_rounds=sampling_rounds,
        sampling_probability=0.2,
        top_n=5,
        seed=seed,
    )
    report = auditor.compare_combinations(
        base, servers, ways=2, title="§6.2.1 network case study"
    )
    formal = formal_analysis(depdb, servers, ways=2, weigher=weigher)
    best = report.best().deployment
    result = NetworkCaseResult(
        report=report,
        formal=formal,
        best_deployment=best,
    )
    result.notes.append(formal.summary())
    return result


# --------------------------------------------------------------------- #
# §6.2.2 — common hardware dependency
# --------------------------------------------------------------------- #


@dataclass
class HardwareCaseResult:
    """Everything §6.2.2 reports, measured."""

    riak_audit: DeploymentAudit
    placements: dict[str, str]
    redeployment_report: AuditReport
    recommended_pair: str
    paper_recommended_pair: str = "Server2 & Server3"
    paper_top_rgs: tuple[frozenset[str], ...] = (
        frozenset({"hw:Server2"}),
        frozenset({"device:Switch1"}),
        frozenset({"device:Core1", "device:Core2"}),
        frozenset({"host:VM7", "host:VM8"}),
    )

    @property
    def measured_top_rgs(self) -> list[frozenset[str]]:
        return [e.events for e in self.riak_audit.top_risk_groups(4)]

    @property
    def matches_paper(self) -> bool:
        return (
            set(self.measured_top_rgs) == set(self.paper_top_rgs)
            and self.recommended_pair == self.paper_recommended_pair
        )


def hardware_case_study(seed: int = 0) -> HardwareCaseResult:
    """Run the §6.2.2 audit: placement, minimal-RG audit, re-deployment."""
    plan = LabCloudPlan()
    lab_cloud(plan)  # validates the topology

    # OpenStack-style placement: VM1-6 belong to other services (pinned);
    # the two redundant Riak VMs go through the least-loaded policy,
    # which lands both on the empty Server2.
    scheduler = Scheduler([Host(s, capacity=4) for s in plan.servers], seed=seed)
    for vm, host in (
        ("VM1", "Server1"),
        ("VM2", "Server1"),
        ("VM3", "Server3"),
        ("VM4", "Server3"),
        ("VM5", "Server4"),
        ("VM6", "Server4"),
    ):
        scheduler.pin(vm, host)
    scheduler.place("VM7")
    scheduler.place("VM8")
    placements = {p.vm: p.host for p in scheduler.placements()}

    # Audit the Riak deployment (VM7, VM8): network + host hardware only,
    # mirroring the case study's dependency scope.
    vm_depdb = DepDB()
    for vm in ("VM7", "VM8"):
        host = scheduler.host_of(vm)
        vm_depdb.add(HardwareDependency(hw=vm, type="Server", dep=host))
        for route in plan.routes(host):
            vm_depdb.add(
                NetworkDependency(src=vm, dst=INTERNET, route=route)
            )
    riak_audit = SIAAuditor(vm_depdb).audit_deployment(
        AuditSpec(deployment="Riak on VM7 & VM8", servers=("VM7", "VM8"))
    )

    # Re-deployment: audit every server pair with full hardware listings.
    server_depdb = DepDB()
    HardwareInventoryCollector(plan.hardware).adapt_into(server_depdb)
    static = {s: list(plan.routes(s)) for s in plan.servers}
    NetworkDependencyCollector(
        lab_cloud(plan), servers=list(plan.servers), static_routes=static
    ).adapt_into(server_depdb)
    auditor = SIAAuditor(server_depdb)
    base = AuditSpec(
        deployment="probe", servers=plan.servers[:2], top_n=4
    )
    redeployment = auditor.compare_combinations(
        base, list(plan.servers), ways=2, title="§6.2.2 re-deployment audit"
    )
    return HardwareCaseResult(
        riak_audit=riak_audit,
        placements=placements,
        redeployment_report=redeployment,
        recommended_pair=redeployment.best().deployment,
    )


# --------------------------------------------------------------------- #
# §6.2.3 — common software dependency (PIA)
# --------------------------------------------------------------------- #


def software_case_study(
    protocol: str = "psop",
    group_bits: int = 768,
    seed: int = 1,
) -> tuple[PIAReport, PIAReport]:
    """Run the §6.2.3 private audit over the four storage stacks.

    Returns:
        (two-way report, three-way report) — the two halves of Table 2.
    """
    auditor = PIAAuditor(
        all_stack_packages(),
        protocol=protocol,
        group_bits=group_bits,
        seed=seed,
    )
    two_way = auditor.audit(
        ways=2, providers=list(CLOUDS), title="Table 2: two-way deployments"
    )
    three_way = auditor.audit(
        ways=3, providers=list(CLOUDS), title="Table 2: three-way deployments"
    )
    return two_way, three_way
