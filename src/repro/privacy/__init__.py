"""Private independence auditing: Jaccard, MinHash, P-SOP, KS, PIA."""

from repro.privacy.jaccard import (
    SIGNIFICANT_CORRELATION,
    is_significantly_correlated,
    jaccard,
)
from repro.privacy.ks import KSParty, KSProtocol, KSResult
from repro.privacy.minhash import (
    MinHashSignature,
    estimate_jaccard,
    minhash_signature,
)
from repro.privacy.network_sim import ProtocolNetwork, Transfer
from repro.privacy.pia import PIAAuditor, PIAEntry, PIAReport
from repro.privacy.psop import PSOPParty, PSOPProtocol, PSOPResult

__all__ = [
    "KSParty",
    "KSProtocol",
    "KSResult",
    "MinHashSignature",
    "PIAAuditor",
    "PIAEntry",
    "PIAReport",
    "PSOPParty",
    "PSOPProtocol",
    "PSOPResult",
    "ProtocolNetwork",
    "SIGNIFICANT_CORRELATION",
    "Transfer",
    "estimate_jaccard",
    "is_significantly_correlated",
    "jaccard",
    "minhash_signature",
]
