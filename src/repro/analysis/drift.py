"""Periodic auditing and configuration drift (§2).

Beyond one-time audits, the paper motivates *periodic* audits "to
identify correlated failure risks that configuration changes or
evolution might introduce".  This module makes that concrete:

* :func:`diff_depdbs` — structural diff between two dependency
  snapshots (what changed);
* :func:`drift_report` — re-audit a deployment on both snapshots and
  report newly introduced / fixed risk groups and the score movement —
  exactly what a scheduled INDaaS run would page an operator about.

A drift event is exactly a delta-audit request: pass an ``engine``
(e.g. the one a :class:`~repro.service.watch.WatchService` keeps warm)
and the "before" audit is served from its result cache instead of being
recomputed on every period — same report, a fraction of the work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.builder import Weigher
from repro.core.spec import AuditSpec
from repro.depdb.database import DepDB
from repro.depdb.records import DependencyRecord
from repro.depdb import xmlformat
from repro.engine.facade import AuditEngine

__all__ = ["DepDBDiff", "DriftReport", "diff_depdbs", "drift_report"]


@dataclass(frozen=True)
class DepDBDiff:
    """Record-level difference between two dependency snapshots."""

    added: tuple[DependencyRecord, ...]
    removed: tuple[DependencyRecord, ...]

    def summary(self) -> str:
        return (
            f"{len(self.added)} records added, "
            f"{len(self.removed)} removed"
        )

    def render_text(self) -> str:
        lines = [self.summary()]
        for record in self.added:
            lines.append(f"  + {xmlformat.dump_record(record)}")
        for record in self.removed:
            lines.append(f"  - {xmlformat.dump_record(record)}")
        return "\n".join(lines)


def diff_depdbs(before: DepDB, after: DepDB) -> DepDBDiff:
    """Exact record diff (records are hashable value objects)."""
    old = set(before.records())
    new = set(after.records())
    return DepDBDiff(
        added=tuple(sorted(new - old, key=xmlformat.dump_record)),
        removed=tuple(sorted(old - new, key=xmlformat.dump_record)),
    )


@dataclass
class DriftReport:
    """Outcome of re-auditing one deployment across two snapshots."""

    deployment: str
    diff: DepDBDiff
    introduced_risk_groups: tuple[frozenset[str], ...]
    resolved_risk_groups: tuple[frozenset[str], ...]
    introduced_unexpected: tuple[frozenset[str], ...]
    score_before: float
    score_after: float
    failure_probability_before: Optional[float] = None
    failure_probability_after: Optional[float] = None
    metadata: dict = field(default_factory=dict)

    @property
    def regressed(self) -> bool:
        """Did the change introduce any *unexpected* risk group?

        This is the condition a periodic audit should alert on: the
        deployment gained a correlated-failure mode smaller than its
        redundancy level.
        """
        return bool(self.introduced_unexpected)

    def summary(self) -> str:
        verdict = "REGRESSED" if self.regressed else "ok"
        return (
            f"{self.deployment}: {verdict} — "
            f"+{len(self.introduced_risk_groups)} / "
            f"-{len(self.resolved_risk_groups)} risk groups, "
            f"score {self.score_before:.4g} -> {self.score_after:.4g}"
        )

    def render_text(self) -> str:
        lines = [self.summary(), self.diff.summary()]
        for group in self.introduced_unexpected:
            lines.append(
                "  !! new unexpected RG: {" + ", ".join(sorted(group)) + "}"
            )
        for group in self.introduced_risk_groups:
            if group not in self.introduced_unexpected:
                lines.append(
                    "  + new RG: {" + ", ".join(sorted(group)) + "}"
                )
        for group in self.resolved_risk_groups:
            lines.append("  - resolved: {" + ", ".join(sorted(group)) + "}")
        return "\n".join(lines)


def drift_report(
    before: DepDB,
    after: DepDB,
    spec: AuditSpec,
    weigher: Optional[Weigher] = None,
    engine=None,
) -> DriftReport:
    """Audit ``spec`` against both snapshots and compare the outcomes.

    Args:
        before: The snapshot from the previous (approved) audit.
        after: The freshly acquired snapshot.
        spec: Deployment specification to audit under both.
        weigher: Optional failure probabilities (enables Pr comparison).
        engine: Optional :class:`~repro.engine.AuditEngine` (a private
            inline one otherwise).  Its result cache turns periodic drift
            checks into delta audits: an unchanged snapshot (typically
            ``before``, audited last period) is a cache hit, not a
            recomputation.  Results are identical either way.
    """
    if engine is None:
        engine = AuditEngine()
    old_audit = engine.audit_spec(before, spec, weigher=weigher)
    new_audit = engine.audit_spec(after, spec, weigher=weigher)
    old_groups = {entry.events for entry in old_audit.ranking}
    new_groups = {entry.events for entry in new_audit.ranking}
    introduced = tuple(
        sorted(new_groups - old_groups, key=lambda s: (len(s), sorted(s)))
    )
    resolved = tuple(
        sorted(old_groups - new_groups, key=lambda s: (len(s), sorted(s)))
    )
    introduced_unexpected = tuple(
        group for group in introduced if len(group) < spec.redundancy
    )
    return DriftReport(
        deployment=spec.deployment,
        diff=diff_depdbs(before, after),
        introduced_risk_groups=introduced,
        resolved_risk_groups=resolved,
        introduced_unexpected=introduced_unexpected,
        score_before=old_audit.score,
        score_after=new_audit.score,
        failure_probability_before=old_audit.failure_probability,
        failure_probability_after=new_audit.failure_probability,
    )
