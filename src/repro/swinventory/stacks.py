"""The four key-value-store software stacks of the §6.2.3 case study.

The paper assigns Riak, MongoDB, Redis and CouchDB to Clouds 1–4 and
privately computes the Jaccard similarity of their package dependency
sets (Table 2).  The real 2014 Debian closures are not available offline,
so we *reconstruct* four package sets whose overlap structure matches
Table 2: set sizes and all 15 intersection-region sizes were fitted (see
DESIGN.md) so that every pairwise and three-way Jaccard lands within
±0.006 of the paper's value — and, crucially, the independence *rankings*
match Table 2 exactly.

Region ``(0, 1)`` holds packages shared by exactly Cloud1 and Cloud2,
region ``(0, 1, 2, 3)`` the universally shared base libraries (libc6,
openssl, ...), and so on.
"""

from __future__ import annotations

from typing import Mapping

from repro.depdb.records import SoftwareDependency
from repro.errors import DependencyDataError

__all__ = [
    "BASE_LIBRARIES",
    "STACKS",
    "CLOUDS",
    "REGION_SIZES",
    "PAPER_TABLE2_TWO_WAY",
    "PAPER_TABLE2_THREE_WAY",
    "stack_of",
    "stack_packages",
    "all_stack_packages",
    "software_records",
]

#: Ubiquitous base libraries that seed the region every stack shares.
BASE_LIBRARIES: tuple[tuple[str, str], ...] = (
    ("libc6", "2.19-18"),
    ("zlib1g", "1.2.8"),
    ("libssl1.0.0", "1.0.1k"),
    ("libstdc++6", "4.9.2"),
    ("libgcc1", "4.9.2"),
    ("libtinfo5", "5.9"),
    ("libselinux1", "2.3"),
    ("libpcre3", "8.35"),
    ("liblzma5", "5.1.1"),
    ("libbz2-1.0", "1.0.6"),
)

#: Stack index -> storage system, as assigned in §6.2.3.
STACKS = ("Riak", "MongoDB", "Redis", "CouchDB")
#: Cloud provider names (Cloud<i> runs STACKS[i-1]).
CLOUDS = ("Cloud1", "Cloud2", "Cloud3", "Cloud4")

#: Fitted intersection-region sizes: key = the subset of stack indices
#: sharing the region, value = how many packages live in it.
REGION_SIZES: dict[tuple[int, ...], int] = {
    (0,): 8,
    (1,): 140,
    (2,): 74,
    (3,): 113,
    (0, 1): 137,
    (0, 2): 42,
    (0, 3): 25,
    (1, 3): 5,
    (2, 3): 69,
    (0, 1, 2): 11,
    (0, 1, 2, 3): 76,
}

#: Table 2 as printed in the paper (deployment -> Jaccard similarity).
PAPER_TABLE2_TWO_WAY: dict[tuple[str, str], float] = {
    ("Cloud2", "Cloud4"): 0.1419,
    ("Cloud2", "Cloud3"): 0.1547,
    ("Cloud1", "Cloud4"): 0.2081,
    ("Cloud1", "Cloud3"): 0.2939,
    ("Cloud3", "Cloud4"): 0.3489,
    ("Cloud1", "Cloud2"): 0.5059,
}
PAPER_TABLE2_THREE_WAY: dict[tuple[str, str, str], float] = {
    ("Cloud2", "Cloud3", "Cloud4"): 0.1128,
    ("Cloud1", "Cloud2", "Cloud4"): 0.1207,
    ("Cloud1", "Cloud3", "Cloud4"): 0.1353,
    ("Cloud1", "Cloud2", "Cloud3"): 0.1536,
}


def stack_of(cloud: str) -> str:
    """Storage system run by a given cloud (``Cloud2`` -> ``MongoDB``)."""
    try:
        index = CLOUDS.index(cloud)
    except ValueError:
        raise DependencyDataError(f"unknown cloud {cloud!r}") from None
    return STACKS[index]


def _region_packages(region: tuple[int, ...], size: int) -> list[str]:
    """Deterministic normalised package identifiers for one region.

    The universally shared region is seeded with real base library names
    (they are exactly the packages every Linux storage system pulls in);
    other regions get synthetic-but-plausible names tagged with the
    sharing pattern so test failures are easy to read.
    """
    packages: list[str] = []
    if region == (0, 1, 2, 3):
        for name, version in BASE_LIBRARIES[: min(size, len(BASE_LIBRARIES))]:
            packages.append(f"{name}@{version}")
    tag = "".join(str(i + 1) for i in region)
    serial = 0
    while len(packages) < size:
        serial += 1
        packages.append(f"lib-shared-c{tag}-{serial:03d}@1.{serial % 10}")
    return packages


def stack_packages(stack: str) -> frozenset[str]:
    """Normalised package identifiers (``name@version``) of one stack."""
    try:
        index = STACKS.index(stack)
    except ValueError:
        raise DependencyDataError(f"unknown stack {stack!r}") from None
    packages: set[str] = set()
    for region, size in REGION_SIZES.items():
        if index in region:
            packages.update(_region_packages(region, size))
    return frozenset(packages)


def all_stack_packages() -> dict[str, frozenset[str]]:
    """``{cloud: packages}`` for all four clouds."""
    return {cloud: stack_packages(stack_of(cloud)) for cloud in CLOUDS}


def software_records(
    hosts: Mapping[str, str] | None = None
) -> list[SoftwareDependency]:
    """Software dependency records for the four stacks.

    Args:
        hosts: Optional ``{cloud: host}`` mapping; defaults to one host
            per cloud named ``<cloud>-node``.
    """
    records = []
    for cloud in CLOUDS:
        host = (hosts or {}).get(cloud, f"{cloud}-node")
        stack = stack_of(cloud)
        records.append(
            SoftwareDependency(
                pgm=stack,
                hw=host,
                dep=tuple(sorted(stack_packages(stack))),
            )
        )
    return records
