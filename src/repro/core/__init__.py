"""INDaaS core: fault graphs, risk-group analysis, ranking, reports.

This package implements the algorithms of the paper's primary
contribution (§4.1): the three-level dependency-graph representation,
the exact minimal-RG algorithm and the array compilation the sampling
algorithm evaluates, the two ranking algorithms, independence scores and
auditing reports, plus the graph builder that turns DepDB records into
fault graphs.  It imports nothing from :mod:`repro.engine`, which sits
above it: the failure sampler and the SIA auditor that drives a whole
audit live there.
"""

from repro.core.bdd import BDD, compile_graph
from repro.core.builder import build_dependency_graph
from repro.core.compile import CompiledGraph
from repro.core.componentset import ComponentSets, component_sets_from_graph
from repro.core.compose import compose
from repro.core.events import Event, GateType, redundancy_threshold
from repro.core.faultgraph import FaultGraph
from repro.core.faultset import FaultSets
from repro.core.importance import (
    ComponentImportance,
    birnbaum_importance,
    component_importance_ranking,
)
from repro.core.minimal_rg import (
    CutSetExplosion,
    is_minimal_risk_group,
    is_risk_group,
    minimal_risk_groups,
    minimise_family,
    unexpected_risk_groups,
)
from repro.core.probability import (
    cut_probability,
    relative_importance,
    top_event_probability,
    union_probability,
)
from repro.core.ranking import (
    RankedRiskGroup,
    RankingMethod,
    independence_score,
    rank_by_probability,
    rank_by_size,
    rank_risk_groups,
)
from repro.core.report import AuditReport, DeploymentAudit
from repro.core.spec import AuditSpec, DetailLevel, RGAlgorithm

__all__ = [
    "AuditReport",
    "BDD",
    "AuditSpec",
    "CompiledGraph",
    "ComponentImportance",
    "ComponentSets",
    "CutSetExplosion",
    "DeploymentAudit",
    "DetailLevel",
    "Event",
    "FaultGraph",
    "FaultSets",
    "GateType",
    "RGAlgorithm",
    "RankedRiskGroup",
    "RankingMethod",
    "build_dependency_graph",
    "birnbaum_importance",
    "component_importance_ranking",
    "component_sets_from_graph",
    "compile_graph",
    "compose",
    "cut_probability",
    "independence_score",
    "is_minimal_risk_group",
    "is_risk_group",
    "minimal_risk_groups",
    "minimise_family",
    "rank_by_probability",
    "rank_by_size",
    "rank_risk_groups",
    "redundancy_threshold",
    "relative_importance",
    "top_event_probability",
    "unexpected_risk_groups",
    "union_probability",
]
