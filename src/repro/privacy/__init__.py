"""Private independence auditing: Jaccard, MinHash, P-SOP, KS, SMPC, PIA."""

from repro.privacy.audit_trail import (
    AuditTrail,
    TrailEntry,
    commit_component_set,
    meta_audit,
)
from repro.privacy.jaccard import (
    SIGNIFICANT_CORRELATION,
    is_significantly_correlated,
    jaccard,
    jaccard_multiset,
    sorensen_dice,
)
from repro.privacy.ks import KSParty, KSProtocol, KSResult
from repro.privacy.minhash import (
    MinHashSignature,
    estimate_jaccard,
    minhash_signature,
)
from repro.privacy.network_sim import ProtocolNetwork, Transfer
from repro.privacy.normalize import (
    NormalizedComponent,
    normalize_component_set,
    normalize_package,
    normalize_router,
)
from repro.privacy.pia import PIAAuditor, PIAEntry, PIAReport
from repro.privacy.psop import PSOPParty, PSOPProtocol, PSOPResult
from repro.privacy.smpc import SMPCResult, smpc_intersection_cardinality

__all__ = [
    "AuditTrail",
    "KSParty",
    "KSProtocol",
    "KSResult",
    "MinHashSignature",
    "NormalizedComponent",
    "PIAAuditor",
    "PIAEntry",
    "PIAReport",
    "PSOPParty",
    "PSOPProtocol",
    "PSOPResult",
    "ProtocolNetwork",
    "SIGNIFICANT_CORRELATION",
    "SMPCResult",
    "TrailEntry",
    "Transfer",
    "commit_component_set",
    "estimate_jaccard",
    "is_significantly_correlated",
    "jaccard",
    "jaccard_multiset",
    "meta_audit",
    "sorensen_dice",
    "minhash_signature",
    "normalize_component_set",
    "normalize_package",
    "normalize_router",
    "smpc_intersection_cardinality",
]
