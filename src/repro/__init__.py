"""INDaaS — Independence-as-a-Service (OSDI 2014) reproduction.

A library for *proactively* auditing the independence of redundant system
deployments: collect structural dependency data (network, hardware,
software), build fault graphs, find and rank risk groups, and — across
mutually distrustful providers — audit privately with set-intersection
cardinality protocols.

Quickstart::

    from repro import ComponentSets, minimal_risk_groups

    sets = ComponentSets.from_mapping({
        "E1": ["A1", "A2"],
        "E2": ["A2", "A3"],
    })
    graph = sets.to_fault_graph()
    print(minimal_risk_groups(graph))   # [{A2}, {A1, A3}]

See ``examples/`` for end-to-end scenarios and ``DESIGN.md`` for the full
system inventory.
"""

from repro.core import (
    AuditReport,
    AuditSpec,
    ComponentSets,
    DeploymentAudit,
    DetailLevel,
    Event,
    FaultGraph,
    FaultSets,
    GateType,
    RGAlgorithm,
    RankedRiskGroup,
    RankingMethod,
    build_dependency_graph,
    component_sets_from_graph,
    compose,
    independence_score,
    minimal_risk_groups,
    rank_by_probability,
    rank_by_size,
    top_event_probability,
    unexpected_risk_groups,
)
from repro.depdb import (
    DepDB,
    HardwareDependency,
    NetworkDependency,
    SoftwareDependency,
)
from repro.engine import (
    AuditEngine,
    GraphCache,
    SIAAuditor,
    SamplingResult,
    structural_hash,
)
from repro.errors import IndaasError

# The stable public API facade.  ``repro.api`` defines the versioned
# wire schema; the three front doors below are the supported library
# entry points (``AuditReport`` stays the rich core report class —
# the canonical serialisable carrier lives at ``repro.api.AuditReport``).
from repro import api
from repro.api import AuditRequest, JobStatus, audit, audit_delta, plan

__version__ = "1.0.0"

__all__ = [
    "AuditEngine",
    "AuditReport",
    "AuditRequest",
    "AuditSpec",
    "ComponentSets",
    "DepDB",
    "DeploymentAudit",
    "DetailLevel",
    "Event",
    "FaultGraph",
    "FaultSets",
    "GateType",
    "GraphCache",
    "HardwareDependency",
    "IndaasError",
    "JobStatus",
    "NetworkDependency",
    "RGAlgorithm",
    "RankedRiskGroup",
    "RankingMethod",
    "SIAAuditor",
    "SamplingResult",
    "SoftwareDependency",
    "__version__",
    "api",
    "audit",
    "audit_delta",
    "build_dependency_graph",
    "component_sets_from_graph",
    "compose",
    "independence_score",
    "minimal_risk_groups",
    "plan",
    "rank_by_probability",
    "rank_by_size",
    "structural_hash",
    "top_event_probability",
    "unexpected_risk_groups",
]
