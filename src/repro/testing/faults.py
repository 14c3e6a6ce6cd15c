"""Deterministic fault injection for the audit pipeline.

The robustness contract of the service ("degrades gracefully under the
failures it audits") is only testable if failures can be *reproduced*.
This module provides that: production code declares named **injection
points** — :func:`fault_point` calls that are no-ops unless an injector
is active — and a :class:`FaultSchedule` decides, deterministically,
which crossings of which points fail and how.

Fault kinds (:data:`FAULT_KINDS`):

* ``connection-reset`` — the point raises :class:`ConnectionResetError`.
* ``slow`` — the point sleeps ``delay`` seconds, then proceeds.
* ``worker-kill`` — a sampling worker process ``os._exit``\\ s mid-plan;
  shipped to workers by block index (see
  :meth:`repro.engine.pool.PersistentPool.run_plan`), so the same block
  dies whatever the worker count.
* ``disk-full`` — the point raises ``OSError(ENOSPC)`` (journal
  appends).

Schedules are either hand-built or loaded from JSON (``indaas serve
--inject schedule.json``); the tests also draw them from a seed.  With
crossing-counted and block-indexed triggers the same schedule yields the
same injected faults run after run.

Usage in tests::

    schedule = FaultSchedule((Fault("worker-kill", "parallel.block"),))
    with FaultInjector(schedule) as injector:
        ...  # exercise the system
    assert injector.fired  # which faults actually triggered

The injector is process-global while active (one at a time); forked
worker processes inherit it but their :func:`fault_point` calls no-op —
worker-side faults travel explicitly through the worker payload, which
keeps behaviour identical under ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import errno
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Union

from repro.errors import SpecificationError

__all__ = [
    "FAULT_KINDS",
    "KILL_EXIT_CODE",
    "Fault",
    "FaultSchedule",
    "FaultInjector",
    "fault_point",
    "install",
    "uninstall",
    "worker_kill_indices",
]

#: Every fault kind the injector knows how to deliver.
FAULT_KINDS = (
    "connection-reset",
    "slow",
    "worker-kill",
    "disk-full",
)

#: Exit status of a deliberately killed sampling worker (distinctive,
#: so an unrelated worker death is not mistaken for an injection).
KILL_EXIT_CODE = 23

#: Injection points wired into production code, with the kinds that
#: make sense at each.  A :class:`Fault` must name one of these pairs.
POINT_KINDS = {
    "transport.request": ("connection-reset", "slow"),
    "server.dispatch": ("slow",),
    "journal.append": ("disk-full",),
    "parallel.block": ("worker-kill",),
}


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        point: Injection-point name the fault arms; ``kind`` must be
            one of the kinds :data:`POINT_KINDS` lists for it.
        at: Fire from the ``at``-th crossing of the point onwards
            (0-based, counted per point).  ``None`` arms every crossing.
        match: Context filter — the fault only fires when every
            ``key: value`` here equals the crossing's context (e.g.
            ``{"index": 3}`` kills the worker running block 3).
        times: Maximum number of firings (default once).
        delay: Sleep seconds for ``slow`` faults.
    """

    kind: str
    point: str
    at: Optional[int] = None
    match: Optional[Mapping] = None
    times: int = 1
    delay: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise SpecificationError(
                f"fault.kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.point not in POINT_KINDS:
            raise SpecificationError(
                f"fault.point must be one of {sorted(POINT_KINDS)}, "
                f"got {self.point!r}"
            )
        if self.kind not in POINT_KINDS[self.point]:
            raise SpecificationError(
                f"fault.kind at {self.point!r} must be one of "
                f"{POINT_KINDS[self.point]}, got {self.kind!r}"
            )
        if self.times < 1:
            raise SpecificationError(
                f"fault.times must be >= 1, got {self.times}"
            )
        if self.delay < 0:
            raise SpecificationError(
                f"fault.delay must be >= 0, got {self.delay}"
            )
        if self.match is not None:
            object.__setattr__(self, "match", dict(self.match))

    def to_dict(self) -> dict:
        payload: dict = {"kind": self.kind, "point": self.point}
        if self.at is not None:
            payload["at"] = self.at
        if self.match is not None:
            payload["match"] = dict(self.match)
        if self.times != 1:
            payload["times"] = self.times
        if self.kind == "slow":
            payload["delay"] = self.delay
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Fault":
        if not isinstance(payload, Mapping):
            raise SpecificationError("fault must be a JSON object")
        unknown = set(payload) - {"kind", "point", "at", "match", "times", "delay"}
        if unknown:
            raise SpecificationError(
                f"unknown fault fields: {sorted(unknown)}"
            )
        for key in ("kind", "point"):
            if key not in payload:
                raise SpecificationError(f"fault.{key} is required")
        return cls(**payload)


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered set of faults, optionally derived from a seed."""

    faults: tuple[Fault, ...]
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def __len__(self) -> int:
        return len(self.faults)

    # ------------------------- serialisation -------------------------- #

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "fault_schedule",
            "seed": self.seed,
            "faults": [fault.to_dict() for fault in self.faults],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FaultSchedule":
        if not isinstance(payload, Mapping):
            raise SpecificationError("fault_schedule must be a JSON object")
        declared = payload.get("kind", "fault_schedule")
        if declared != "fault_schedule":
            raise SpecificationError(
                f"expected a fault_schedule document, got kind={declared!r}"
            )
        faults = payload.get("faults")
        if not isinstance(faults, list):
            raise SpecificationError(
                "fault_schedule.faults must be a list"
            )
        return cls(
            faults=tuple(Fault.from_dict(f) for f in faults),
            seed=payload.get("seed"),
        )

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "FaultSchedule":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecificationError(f"invalid fault_schedule JSON: {exc}")
        return cls.from_dict(payload)

    @classmethod
    def from_path(cls, path: Union[str, Path]) -> "FaultSchedule":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


class FaultInjector:
    """Arms a :class:`FaultSchedule` at the process's injection points.

    Context manager; only one injector may be active per process at a
    time.  Thread-safe: crossings are counted and faults consumed under
    one lock, so a multi-threaded service fires each scheduled fault at
    most ``times`` times.  :attr:`fired` records what actually
    triggered, in firing order — assert on it to prove a chaos run
    exercised what the schedule promised.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self.fired: list[dict] = []
        self._remaining = {
            index: fault.times for index, fault in enumerate(schedule.faults)
        }
        self._crossings: dict[str, int] = {}
        self._lock = threading.Lock()
        self._pid = os.getpid()

    # --------------------------- lifecycle ---------------------------- #

    def __enter__(self) -> "FaultInjector":
        install(self)
        return self

    def __exit__(self, *exc_info) -> None:
        uninstall(self)

    # ---------------------------- firing ------------------------------ #

    def crossing(self, point: str, ctx: Mapping) -> None:
        """Record one crossing of ``point``; deliver a fault if armed."""
        if os.getpid() != self._pid:
            # Forked worker: worker-side faults travel via the worker
            # payload, never through the inherited injector state.
            return
        with self._lock:
            crossing = self._crossings.get(point, 0)
            self._crossings[point] = crossing + 1
            fault = self._select(point, crossing, ctx)
            if fault is None:
                return
            self.fired.append(
                {
                    "point": point,
                    "kind": fault.kind,
                    "crossing": crossing,
                    "ctx": {k: repr(v) for k, v in ctx.items()},
                }
            )
        self._deliver(fault)

    def _select(self, point: str, crossing: int, ctx: Mapping) -> Optional[Fault]:
        # Caller holds the lock.
        for index, fault in enumerate(self.schedule.faults):
            if fault.point != point or self._remaining[index] < 1:
                continue
            if fault.at is not None and crossing < fault.at:
                continue
            if fault.match is not None and any(
                ctx.get(key) != value for key, value in fault.match.items()
            ):
                continue
            self._remaining[index] -= 1
            return fault
        return None

    @staticmethod
    def _deliver(fault: Fault) -> None:
        if fault.kind == "connection-reset":
            raise ConnectionResetError(
                f"injected connection reset at {fault.point}"
            )
        if fault.kind == "disk-full":
            raise OSError(
                errno.ENOSPC, f"injected disk full at {fault.point}"
            )
        if fault.kind == "slow":
            time.sleep(fault.delay)

    # --------------------------- queries ------------------------------ #

    def consume_worker_kills(self, point: str) -> frozenset:
        """Block indices whose worker should die at ``point``.

        Consumes the matching faults (each kill fires once: the killed
        block is retried inline by the crash-recovery path, which must
        not be re-killed) and records them as fired.
        """
        indices = []
        with self._lock:
            for index, fault in enumerate(self.schedule.faults):
                if (
                    fault.kind != "worker-kill"
                    or fault.point != point
                    or self._remaining[index] < 1
                    or not fault.match
                    or "index" not in fault.match
                ):
                    continue
                self._remaining[index] = 0
                indices.append(fault.match["index"])
                self.fired.append(
                    {
                        "point": point,
                        "kind": fault.kind,
                        "crossing": None,
                        "ctx": {"index": repr(fault.match["index"])},
                    }
                )
        return frozenset(indices)


# --------------------------------------------------------------------- #
# Process-global installation
# --------------------------------------------------------------------- #

_ACTIVE: Optional[FaultInjector] = None
_INSTALL_LOCK = threading.Lock()


def install(injector: FaultInjector) -> None:
    """Make ``injector`` the process's active injector (exclusive)."""
    global _ACTIVE
    with _INSTALL_LOCK:
        if _ACTIVE is not None:
            raise SpecificationError(
                "a fault injector is already active in this process"
            )
        _ACTIVE = injector


def uninstall(injector: Optional[FaultInjector] = None) -> None:
    """Deactivate the active injector (idempotent)."""
    global _ACTIVE
    with _INSTALL_LOCK:
        if injector is None or _ACTIVE is injector:
            _ACTIVE = None


def fault_point(name: str, **ctx) -> None:
    """Declare an injection point.  No-op unless an injector is active.

    Raises the armed fault's exception for error kinds
    (``connection-reset``, ``disk-full``) and sleeps for ``slow``.
    """
    injector = _ACTIVE
    if injector is not None:
        injector.crossing(name, ctx)


def worker_kill_indices(point: str = "parallel.block") -> frozenset:
    """Kill set for worker processes (empty when no injector is active)."""
    injector = _ACTIVE
    if injector is None:
        return frozenset()
    return injector.consume_worker_kills(point)
