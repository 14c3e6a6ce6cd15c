"""``indaas watch`` — the long-running incremental auditor.

A file-polling loop over a directory of ``audit-many`` spec files: each
iteration reloads what moved on disk, delta-audits the set against the
previous iteration through one warm
:class:`~repro.engine.facade.AuditEngine`'s result cache, and emits one
canonical :func:`repro.api.job_event` — the same envelope as the audit
server's job event stream.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Callable, Optional, Union

from repro import api
from repro.engine.facade import AuditEngine
from repro.engine.specset import AuditJob, load_audit_job, load_spec_set
from repro.errors import IndaasError, SpecificationError

__all__ = ["WatchService"]


class WatchService:
    """Long-running incremental auditor over a spec directory.

    Each iteration reloads the directory's ``*.json`` deployment specs,
    delta-audits them against the previous iteration's set (the caches
    stay warm inside the shared :class:`AuditEngine`), and produces
    one JSON-serialisable report dict.  Spec errors (half-written files,
    an emptied directory) are reported, not fatal — the service keeps
    polling.

    Each emitted line is a canonical ``repro.api`` event (the same field
    names as the audit server's job event stream): ``kind="event"``,
    ``event="iteration"`` (or ``"error"``), ``seq``, ``elapsed_seconds``
    and the iteration payload.

    Args:
        directory: Directory of ``audit-many``-style spec files.
        engine: Shared engine (a private one is created otherwise).
        interval: Seconds to sleep between polls in :meth:`run`.
        title: Report title used for every iteration.
        include_report: Embed the full audit report dict in every
            iteration (the compact stream of ``indaas watch`` turns this
            off — in the warm steady state, serialising the report is
            most of a poll's work).
        sleep: Injectable sleep function (tests pass a no-op).  The
            default sleeps on the stop event, so :meth:`request_stop`
            interrupts an in-progress interval immediately.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        engine: Optional[AuditEngine] = None,
        interval: float = 2.0,
        title: str = "indaas watch",
        include_report: bool = True,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        if interval < 0:
            raise SpecificationError(f"interval must be >= 0, got {interval}")
        self.directory = Path(directory)
        self.engine = AuditEngine() if engine is None else engine
        self.interval = interval
        self.title = title
        self.include_report = include_report
        self.iterations = 0
        self._stop = threading.Event()
        self._sleep = sleep
        self._previous: Optional[tuple[AuditJob, ...]] = None
        self._previous_graphs: dict = {}
        #: Per spec file: {"snapshot": ((mtime_ns, size) of the spec and
        #: its DepDB), "job": parsed AuditJob, "graph": built FaultGraph
        #: or None} — the steady-state poll's proof that re-parsing (and
        #: re-building the graph) can be skipped for files that did not
        #: move on disk.  The graph is written only after a *successful*
        #: audit of exactly that job (see :meth:`run_once`), so an
        #: errored iteration can never pair a file with a graph built
        #: from different content.
        self._file_cache: dict = {}

    @staticmethod
    def _snapshot(path: Path) -> Optional[tuple[int, int]]:
        try:
            stat = path.stat()
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def _load_jobs(self) -> tuple[tuple[AuditJob, ...], dict]:
        """Load the directory, re-parsing only files that changed.

        Returns the job tuple plus ``{deployment: graph}`` for jobs
        whose spec *and* DepDB files are byte-stable since the previous
        iteration — safe to hand to ``audit_delta(prebuilt_graphs=...)``.
        """
        if not self.directory.is_dir():
            raise SpecificationError(f"{self.directory} is not a directory")
        paths = sorted(
            p for p in self.directory.glob("*.json") if p.is_file()
        )
        jobs: list[AuditJob] = []
        stable_graphs: dict = {}
        fresh_cache: dict = {}
        for path in paths:
            # Snapshots are taken *before* parsing: a write racing the
            # parse leaves a pre-write snapshot behind, so the next poll
            # re-parses instead of trusting a torn read.
            spec_snap = self._snapshot(path)
            cached = self._file_cache.get(path)
            if (
                cached is not None
                and spec_snap is not None
                and cached["snapshot"][0] == spec_snap
                and self._snapshot(Path(cached["job"].metadata["depdb"]))
                == cached["snapshot"][1]
            ):
                job = cached["job"]
                snapshot = cached["snapshot"]
                graph = cached["graph"]
                if graph is not None:
                    # Built from this exact job after a successful audit
                    # — the only pairing that is safe to hand back.
                    stable_graphs[job.spec.deployment] = graph
            else:
                # Read and parse once; stat the DepDB *before*
                # load_audit_job consumes the same payload, for the same
                # torn-read reason as the spec snapshot above.
                depdb_snap, payload = None, None
                try:
                    parsed = json.loads(path.read_text(encoding="utf-8"))
                    if isinstance(parsed, dict):
                        payload = parsed
                        if isinstance(parsed.get("depdb"), str):
                            depdb_snap = self._snapshot(
                                path.parent / parsed["depdb"]
                            )
                except (OSError, json.JSONDecodeError):
                    pass  # load_audit_job raises the clean error below
                job = load_audit_job(path, payload=payload)
                snapshot = (spec_snap, depdb_snap)
                graph = None
            if snapshot[0] is not None and snapshot[1] is not None:
                fresh_cache[path] = {
                    "snapshot": snapshot,
                    "job": job,
                    "graph": graph,
                }
            jobs.append(job)
        self._file_cache = fresh_cache
        if not jobs:
            raise SpecificationError("no deployment spec files found")
        return load_spec_set(jobs), stable_graphs

    def request_stop(self) -> None:
        """Ask :meth:`run` to exit after the current iteration.

        Thread- and signal-safe; with the default sleeper it also wakes
        a loop that is mid-interval, so shutdown latency is bounded by
        one poll, not ``interval``.
        """
        self._stop.set()

    @property
    def stopping(self) -> bool:
        """Whether :meth:`request_stop` has been called."""
        return self._stop.is_set()

    def run_once(self) -> dict:
        """Poll the directory once and return the iteration event."""
        self.iterations += 1
        started = time.perf_counter()
        try:
            jobs, stable_graphs = self._load_jobs()
            outcome = self.engine.audit_delta(
                self._previous,
                jobs,
                title=self.title,
                old_graphs=self._previous_graphs,
                prebuilt_graphs=stable_graphs,
            )
        except IndaasError as exc:
            # A half-written spec/DepDB or an emptied directory is an
            # iteration-level event, not a reason to die; the next poll
            # retries.  (IndaasError covers every domain error here:
            # spec, dependency-data, graph and analysis failures.)
            return api.job_event(
                "error",
                seq=self.iterations,
                directory=str(self.directory),
                error=str(exc),
                elapsed_seconds=time.perf_counter() - started,
            )
        self._previous = jobs
        self._previous_graphs = outcome.new_graphs
        # Only now — after the audit of exactly these jobs succeeded —
        # may each file's cache entry adopt its graph for reuse.
        for entry in self._file_cache.values():
            entry["graph"] = outcome.new_graphs.get(
                entry["job"].spec.deployment
            )
        ranked = outcome.report.ranked_deployments()
        return api.job_event(
            "iteration",
            seq=self.iterations,
            directory=str(self.directory),
            deployments=len(jobs),
            delta=outcome.delta.to_dict(),
            reused=list(outcome.reused),
            recomputed=list(outcome.recomputed),
            regressions=[
                audit.deployment
                for audit in ranked
                if audit.has_unexpected_risk_groups
            ],
            scores={audit.deployment: audit.score for audit in ranked},
            best=ranked[0].deployment,
            elapsed_seconds=time.perf_counter() - started,
            **(
                {"report": outcome.report.to_dict()}
                if self.include_report
                else {}
            ),
        )

    def run(
        self,
        iterations: Optional[int] = None,
        emit: Optional[Callable[[dict], None]] = None,
    ) -> int:
        """Run the poll loop; returns the number of iterations executed.

        Args:
            iterations: Stop after this many polls (None = run until
                interrupted or :meth:`request_stop` is called).
            emit: Callback receiving each iteration's event dict.
        """
        if iterations is not None and iterations < 1:
            raise SpecificationError(
                f"iterations must be >= 1, got {iterations}"
            )
        done = 0
        while iterations is None or done < iterations:
            if self._stop.is_set():
                break
            report = self.run_once()
            done += 1
            if emit is not None:
                emit(report)
            is_last = iterations is not None and done >= iterations
            if not is_last and self.interval > 0 and not self._stop.is_set():
                if self._sleep is not None:
                    self._sleep(self.interval)
                else:
                    self._stop.wait(self.interval)
        return done
