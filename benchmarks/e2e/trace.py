"""In-memory spans recorded around the harness's calls into each layer.

A span is (name, start, end, parent id, op id).  Spans of one operation
share its op id; set-up spans carry ``SETUP``.  Counts are recorded at the
same boundaries.  Nothing is written until :meth:`Tracer.dump`.

A layer's *self time* is its span's duration minus the part of that
interval its direct children cover.  Spans opened under
:meth:`Tracer.replay` re-measure one piece of an op outside its critical
path (the kernel split, the ranking split): they count for their own
metric but not for the op's coverage.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Optional

SETUP = -1


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    replay: bool


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: list[tuple[int, str, float]] = []
        self._stack: list[int] = []
        self._op = SETUP
        self._replay = False
        #: Wall time spent under ``replay`` so far.
        self.replay_s = 0.0
        #: Op id -> how many times slower than the reference the machine
        #: ran during it (``yardstick.py``); times read out are divided
        #: by it.  Ops without an entry count as speed 1.
        self.speed: dict[int, float] = {}

    # ---------------------------- recording ---------------------------- #

    @contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        previous, self._op = self._op, op_id
        try:
            yield
        finally:
            self._op = previous

    @contextmanager
    def replay(self) -> Iterator[None]:
        if self._replay:
            yield
            return
        self._replay = True
        started = time.perf_counter()
        try:
            yield
        finally:
            self.replay_s += time.perf_counter() - started
            self._replay = False

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span = Span(
            id=len(self.spans),
            name=name,
            start=0.0,
            end=0.0,
            parent=self._stack[-1] if self._stack else None,
            op=self._op,
            replay=self._replay,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.append((self._op, name, value))

    # ---------------------------- reading ------------------------------ #

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the interval its children cover,
        normalised by the machine speed during the span's op."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end)
                )
        return {
            span.id: (
                (span.end - span.start)
                - covered(children.get(span.id, []), span.start, span.end)
            )
            / self.speed.get(span.op, 1.0)
            for span in self.spans
        }

    def per_op(self, name: str) -> dict[int, float]:
        """Op id -> summed self time of the spans called ``name``."""
        selfs = self.self_times()
        totals: dict[int, float] = {}
        for span in self.spans:
            if span.name == name:
                totals[span.op] = totals.get(span.op, 0.0) + selfs[span.id]
        return totals

    def stage_s(self, name: str) -> float:
        """Median self time per op; the set-up total for a set-up-only
        stage; 0.0 for a stage this run never entered."""
        totals = self.per_op(name)
        setup = totals.pop(SETUP, 0.0)
        return statistics.median(totals.values()) if totals else setup

    def covered_by_op(self) -> dict[int, float]:
        """Op id -> self time attributed to its critical-path spans."""
        selfs = self.self_times()
        totals: dict[int, float] = {}
        for span in self.spans:
            if not span.replay:
                totals[span.op] = totals.get(span.op, 0.0) + selfs[span.id]
        return totals

    def count_of_first_op(self, name: str) -> float:
        """One count summed over the lowest-numbered op that recorded it
        (the set-up sum if no op did).  Which ops a run reaches depends on
        the machine; its first op does not, so this repeats exactly."""
        totals: dict[int, float] = {}
        for op_id, count_name, value in self.counts:
            if count_name == name:
                totals[op_id] = totals.get(op_id, 0.0) + value
        setup = totals.pop(SETUP, 0.0)
        return totals[min(totals)] if totals else setup

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "spans": [asdict(span) for span in self.spans],
                    "counts": [list(count) for count in self.counts],
                }
            ),
            encoding="utf-8",
        )
