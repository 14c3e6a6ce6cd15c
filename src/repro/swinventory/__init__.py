"""Software substrate: the four Table-2 key-value-store stacks."""

from repro.swinventory.stacks import (
    BASE_LIBRARIES,
    CLOUDS,
    PAPER_TABLE2_THREE_WAY,
    PAPER_TABLE2_TWO_WAY,
    REGION_SIZES,
    STACKS,
    all_stack_packages,
    software_records,
    stack_of,
    stack_packages,
)

__all__ = [
    "BASE_LIBRARIES",
    "CLOUDS",
    "PAPER_TABLE2_THREE_WAY",
    "PAPER_TABLE2_TWO_WAY",
    "REGION_SIZES",
    "STACKS",
    "all_stack_packages",
    "software_records",
    "stack_of",
    "stack_packages",
]
