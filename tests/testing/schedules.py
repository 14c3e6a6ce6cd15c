"""Seeded fault schedules for the chaos tests.

:func:`seeded_schedule` draws a :class:`FaultSchedule` from the
(point, kind) pairs of :data:`repro.testing.faults.POINT_KINDS`: the
same arguments always produce the same schedule, the reproduction
handle for every chaos test.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.errors import SpecificationError
from repro.testing.faults import POINT_KINDS, Fault, FaultSchedule


def seeded_schedule(
    seed: int,
    *,
    n: int = 4,
    kinds: Optional[Sequence[str]] = None,
    points: Optional[Sequence[str]] = None,
    max_crossing: int = 6,
    max_block: int = 4,
    max_delay: float = 0.05,
) -> FaultSchedule:
    """Generate a schedule deterministically from ``seed``.

    Draws ``n`` faults from the (point, kind) pairs of ``POINT_KINDS``,
    optionally filtered to ``kinds`` and/or ``points``.
    """
    eligible = [
        (point, kind)
        for point, point_kinds in sorted(POINT_KINDS.items())
        for kind in point_kinds
        if (kinds is None or kind in kinds)
        and (points is None or point in points)
    ]
    if not eligible:
        raise SpecificationError(
            "no eligible (point, kind) pairs for the given filters"
        )
    rng = random.Random(seed)
    faults = []
    for _ in range(n):
        point, kind = eligible[rng.randrange(len(eligible))]
        if kind == "worker-kill":
            faults.append(
                Fault(
                    kind=kind,
                    point=point,
                    match={"index": rng.randrange(max_block)},
                )
            )
        else:
            at = rng.randrange(max_crossing)
            delay = round(rng.uniform(0.0, max_delay), 4)
            faults.append(
                Fault(
                    kind=kind,
                    point=point,
                    at=at,
                    # delay only matters for slow faults; keeping it
                    # default elsewhere lets schedules round-trip
                    # through their JSON form unchanged.
                    delay=delay if kind == "slow" else 0.05,
                )
            )
    return FaultSchedule(faults=tuple(faults), seed=seed)
