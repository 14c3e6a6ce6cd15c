"""Table-2 oracles the stack reconstruction and the PIA tests check against.

:func:`expected_jaccard` computes a combination's Jaccard from the fitted
region sizes alone, without building a package set; the other three read
Table 2 as printed and measure the reconstruction against it.
"""

from __future__ import annotations

from itertools import combinations

from repro.errors import DependencyDataError
from repro.swinventory.stacks import (
    CLOUDS,
    PAPER_TABLE2_THREE_WAY,
    PAPER_TABLE2_TWO_WAY,
    REGION_SIZES,
    all_stack_packages,
)


def expected_jaccard(clouds: tuple[str, ...]) -> float:
    """Analytic Jaccard of a cloud combination from the region sizes.

    This is the ground truth the PIA protocols are checked against.
    """
    indices = set()
    for cloud in clouds:
        indices.add(CLOUDS.index(cloud))
    inter = sum(
        size
        for region, size in REGION_SIZES.items()
        if indices <= set(region)
    )
    union = sum(
        size
        for region, size in REGION_SIZES.items()
        if indices & set(region)
    )
    return inter / union


def paper_rankings() -> tuple[list[tuple[str, ...]], list[tuple[str, ...]]]:
    """Two- and three-way deployment rankings exactly as in Table 2."""
    two = sorted(PAPER_TABLE2_TWO_WAY, key=PAPER_TABLE2_TWO_WAY.get)
    three = sorted(PAPER_TABLE2_THREE_WAY, key=PAPER_TABLE2_THREE_WAY.get)
    return [tuple(t) for t in two], [tuple(t) for t in three]


def region_census() -> dict[str, int]:
    """Sanity numbers for docs/tests: per-cloud set sizes and the total."""
    sizes = {
        cloud: len(packages) for cloud, packages in all_stack_packages().items()
    }
    sizes["universe"] = len(
        frozenset().union(*all_stack_packages().values())
    )
    return sizes


def verify_against_paper(tolerance: float = 0.01) -> None:
    """Assert the reconstruction matches Table 2 (used by tests/benches).

    Checks every Jaccard value within ``tolerance`` and both rankings
    exactly; raises :class:`DependencyDataError` otherwise.
    """
    packages = all_stack_packages()

    def measured(clouds: tuple[str, ...]) -> float:
        sets = [packages[c] for c in clouds]
        inter = frozenset.intersection(*sets)
        union = frozenset.union(*sets)
        return len(inter) / len(union)

    for table in (PAPER_TABLE2_TWO_WAY, PAPER_TABLE2_THREE_WAY):
        for clouds, value in table.items():
            got = measured(tuple(clouds))
            if abs(got - value) > tolerance:
                raise DependencyDataError(
                    f"Jaccard({clouds}) = {got:.4f}, paper says {value:.4f}"
                )
    for paper_rank, size in (
        (sorted(PAPER_TABLE2_TWO_WAY, key=PAPER_TABLE2_TWO_WAY.get), 2),
        (sorted(PAPER_TABLE2_THREE_WAY, key=PAPER_TABLE2_THREE_WAY.get), 3),
    ):
        ours = sorted(
            combinations(CLOUDS, size), key=lambda c: measured(tuple(c))
        )
        if [tuple(p) for p in paper_rank] != [tuple(o) for o in ours]:
            raise DependencyDataError(
                f"{size}-way ranking mismatch: paper {paper_rank}, ours {ours}"
            )
