"""Software substrate: the four Table-2 key-value-store stacks."""

from repro.swinventory.stacks import (
    BASE_LIBRARIES,
    CLOUDS,
    PAPER_TABLE2_THREE_WAY,
    PAPER_TABLE2_TWO_WAY,
    REGION_SIZES,
    STACKS,
    all_stack_packages,
    expected_jaccard,
    software_records,
    stack_of,
    stack_packages,
    verify_against_paper,
)

__all__ = [
    "BASE_LIBRARIES",
    "CLOUDS",
    "PAPER_TABLE2_THREE_WAY",
    "PAPER_TABLE2_TWO_WAY",
    "REGION_SIZES",
    "STACKS",
    "all_stack_packages",
    "expected_jaccard",
    "software_records",
    "stack_of",
    "stack_packages",
    "verify_against_paper",
]
