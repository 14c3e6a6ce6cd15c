"""Failure probability models (§5.1).

INDaaS's weighted analyses need per-component failure probabilities.
**Gill et al.** [SIGCOMM'11] measured annual failure probabilities of
data-center network devices (ToRs are reliable, load balancers are
not); §6.2.1 assumes one uniform probability instead.

Both are packaged here as *weighers* — callables with the
``(kind, identifier) -> probability | None`` signature the dependency
graph builder accepts — plus a combinator for composing them.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.core.builder import Weigher
from repro.core.events import validate_probability

__all__ = [
    "GILL_DEVICE_FAILURE_PROBABILITIES",
    "DEFAULT_HOST_FAILURE_PROBABILITY",
    "gill_network_weigher",
    "uniform_weigher",
    "combine_weighers",
]

#: Annual device failure probabilities in the spirit of Gill et al.'s
#: measurement study (Table: ToR ~5%, aggregation ~10%, core ~2.5%,
#: load balancers ~20%).  Keys match against device-name prefixes.
GILL_DEVICE_FAILURE_PROBABILITIES: dict[str, float] = {
    "tor": 0.052,
    "e": 0.052,          # ToR naming in the Fig-6a topology (e1..e33)
    "switch": 0.052,
    "m": 0.052,          # patch switches
    "agg": 0.103,
    "b": 0.103,          # aggregation naming in the Fig-6a topology
    "core": 0.025,
    "c": 0.025,
    "lb": 0.204,
    "router": 0.025,
}

#: Whole-server annual failure probability (crash, PSU, human error).
DEFAULT_HOST_FAILURE_PROBABILITY = 0.08


def gill_network_weigher(
    overrides: Optional[Mapping[str, float]] = None,
) -> Weigher:
    """Weigher assigning Gill-style probabilities to network devices.

    Device identifiers are matched by longest-prefix against the table,
    tried at the start of the identifier and then after each ``-`` (so
    ``core-3-1`` hits ``core``, ``b1`` hits ``b``, and the fat tree's
    ``pod1-agg0`` hits ``agg``).  Non-device kinds return ``None`` so
    other weighers can fill them in.
    """
    table = dict(GILL_DEVICE_FAILURE_PROBABILITIES)
    if overrides:
        for key, value in overrides.items():
            table[key] = validate_probability(value, what=f"override {key!r}")
    prefixes = sorted(table, key=len, reverse=True)

    def weigh(kind: str, identifier: str) -> Optional[float]:
        if kind != "device":
            return None
        lowered = identifier.lower()
        starts = [0] + [i + 1 for i, ch in enumerate(lowered) if ch == "-"]
        for start in starts:
            for prefix in prefixes:
                if lowered.startswith(prefix, start):
                    return table[prefix]
        return None

    return weigh


def uniform_weigher(probability: float, kinds: Sequence[str] = ()) -> Weigher:
    """Every (matching) leaf fails with the same probability.

    This is the §6.2.1 assumption ("failure probability of all network
    devices is 0.1").  With ``kinds`` empty, all leaf kinds match.
    """
    p = validate_probability(probability)
    wanted = set(kinds)

    def weigh(kind: str, identifier: str) -> Optional[float]:
        if wanted and kind not in wanted:
            return None
        return p

    return weigh


def combine_weighers(*weighers: Weigher, default: Optional[float] = None) -> Weigher:
    """First-match-wins composition of weighers.

    Args:
        default: Probability for leaves no weigher claims (None leaves
            them unweighted, which restricts audits to size ranking).
    """
    if default is not None:
        default = validate_probability(default, what="default probability")

    def weigh(kind: str, identifier: str) -> Optional[float]:
        for weigher in weighers:
            value = weigher(kind, identifier)
            if value is not None:
                return value
        return default

    return weigh
