"""Block plans, the inline loops, and cooperative cancellation.

Sharding model (DESIGN.md): a run of ``rounds`` rounds is cut into
fixed-size *blocks* (the engine's ``block_size``), and every block gets
its own :class:`numpy.random.SeedSequence` child via ``spawn``.  The
block plan depends only on ``(rounds, block_size, seed)`` — never on the
worker count — so any number of workers (including zero, i.e. inline
execution) produces bit-identical merged results.

This module holds what every execution substrate shares: the plan, the
one inline block loop (:func:`run_plan_serial`), the one inline job loop
(:func:`map_jobs` without a pool) and the thread-local cancel scope.
Worker processes live in :mod:`repro.engine.pool` and nowhere else.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.events import check_count, check_integer
from repro.engine.batch import BlockOutcome, run_block
from repro.errors import AnalysisError, AuditCancelled

__all__ = [
    "BlockPlan",
    "plan_blocks",
    "resolve_workers",
    "run_plan_serial",
    "map_jobs",
    "cancel_scope",
    "check_cancelled",
]


# --------------------------------------------------------------------- #
# Cooperative cancellation
# --------------------------------------------------------------------- #

_CANCEL_STATE = threading.local()


@contextlib.contextmanager
def cancel_scope(event: threading.Event):
    """Make audits on this thread cancellable via ``event``.

    While the scope is active, the engine's in-process sampling loops
    call :func:`check_cancelled` at every block boundary; setting
    ``event`` makes the in-flight audit raise
    :class:`~repro.errors.AuditCancelled` there instead of running to
    completion.  Thread-local, so service worker threads sharing one
    engine cancel only their own job.  Scopes nest; the innermost wins,
    and cancellation never perturbs results — a cancelled audit returns
    nothing at all.
    """
    previous = getattr(_CANCEL_STATE, "event", None)
    _CANCEL_STATE.event = event
    try:
        yield event
    finally:
        _CANCEL_STATE.event = previous


def check_cancelled() -> None:
    """Raise :class:`AuditCancelled` if the active scope is signalled."""
    event = getattr(_CANCEL_STATE, "event", None)
    if event is not None and event.is_set():
        raise AuditCancelled("audit cancelled by submitter")


@dataclass(frozen=True)
class BlockPlan:
    """Deterministic decomposition of a sampling run into seeded blocks."""

    rounds: tuple[int, ...]
    seeds: tuple[np.random.SeedSequence, ...]

    def __len__(self) -> int:
        return len(self.rounds)


def plan_blocks(
    rounds: int,
    block_size: int,
    seed_sequence: np.random.SeedSequence,
) -> BlockPlan:
    """Cut ``rounds`` into blocks of ``block_size`` with spawned seeds.

    The plan is a pure function of ``(rounds, block_size)`` and the
    *state* of ``seed_sequence``; spawning advances that state, so
    callers wanting repeatable plans must pass a freshly constructed
    sequence per run (:meth:`~repro.engine.facade.AuditEngine.sample`
    builds one from its integer seed).
    """
    check_count("rounds", rounds)
    check_count("block_size", block_size)
    rounds, block_size = int(rounds), int(block_size)
    sizes = [block_size] * (rounds // block_size)
    if rounds % block_size:
        sizes.append(rounds % block_size)
    return BlockPlan(
        rounds=tuple(sizes), seeds=tuple(seed_sequence.spawn(len(sizes)))
    )


def resolve_workers(n_workers: Optional[int]) -> int:
    """Normalise a worker request to a concrete worker count.

    The convention, shared by ``AuditEngine``, ``PersistentPool`` and
    the CLI ``--workers`` flags: ``None``, ``0`` and ``1`` mean inline
    execution; positive values request that many worker processes;
    exactly ``-1`` means "all CPUs" (``os.cpu_count()``).  Any other
    negative value is rejected — it is far more likely a typo than a
    request — and so is anything :func:`check_integer` refuses.
    """
    if n_workers is None:
        return 1
    check_integer("workers", n_workers)
    if n_workers == -1:
        return max(1, os.cpu_count() or 1)
    if n_workers < 0:
        raise AnalysisError(
            f"workers must be >= 0 or exactly -1 (all CPUs), got {n_workers}"
        )
    return max(1, int(n_workers))


# --------------------------------------------------------------------- #
# Sampling-block execution
# --------------------------------------------------------------------- #


def run_plan_serial(
    compiled,
    plan: BlockPlan,
    *,
    default_probability: float = 0.5,
    minimise: bool = True,
    stopper=None,
) -> list[BlockOutcome]:
    """Execute blocks of ``plan`` inline, in plan order.

    Checks the thread's :func:`cancel_scope` at each block boundary, so
    a cancelled service job stops within one block's wall-clock.  When a
    ``stopper`` (:class:`~repro.engine.adaptive.AdaptiveStopper`) is
    given, each outcome is fed to it in plan order and the loop halts as
    soon as it signals; the returned prefix of outcomes is what the run
    merges.
    """
    outcomes = []
    for block_rounds, seed in zip(plan.rounds, plan.seeds):
        check_cancelled()
        outcome = run_block(
            compiled,
            block_rounds,
            np.random.default_rng(seed),
            default_probability=default_probability,
            minimise=minimise,
        )
        outcomes.append(outcome)
        if stopper is not None and stopper.observe(outcome):
            break
    return outcomes


# --------------------------------------------------------------------- #
# Generic job fan-out (audits, what-if sweeps)
# --------------------------------------------------------------------- #


def map_jobs(fn, argument_tuples: Sequence[tuple], pool=None) -> list:
    """Run ``fn(*args)`` for each argument tuple, results in order.

    With a ``pool`` (a :class:`~repro.engine.pool.PersistentPool`) that
    has workers, jobs fan out over its processes — ``fn`` must then be
    a module-level function and every argument picklable.  Otherwise
    (no pool, one worker, one job) everything runs inline, with zero
    IPC.

    Either way the thread's :func:`cancel_scope` is polled between
    jobs, so a cancelled service job that fans out here (planner
    pricing, multi-spec audits) stops within roughly one job's
    wall-clock; remaining jobs are abandoned, never awaited.
    """
    jobs = list(argument_tuples)
    if pool is not None and pool.workers > 1 and len(jobs) > 1:
        return pool.map_jobs(fn, jobs)
    results = []
    for args in jobs:
        check_cancelled()
        results.append(fn(*args))
    return results
