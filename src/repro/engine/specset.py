"""Deployment spec sets — loading and validating what a report ranks.

The §4.1.4 deliverable ranks *several* candidate deployments.  This
module is the one place that turns a directory of ``audit-many`` spec
files (or ready jobs) into validated :class:`AuditJob` tuples; the
one-shot fan-out (:meth:`~repro.engine.facade.AuditEngine.audit_many`)
and the cached loop
(:meth:`~repro.engine.facade.AuditEngine.audit_delta`) both start
here.  It does not import the engine.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.core.spec import AuditSpec, RGAlgorithm
from repro.depdb import DepDB
from repro.engine.audit import SIAAuditor
from repro.errors import SpecificationError
from repro.failures import uniform_weigher

__all__ = [
    "AuditJob",
    "SpecSource",
    "load_audit_job",
    "load_report_jobs",
    "load_spec_set",
]


@dataclass
class AuditJob:
    """One self-contained deployment audit (spec + its own DepDB).

    ``probability`` is an optional uniform component failure probability;
    it travels as a plain float (weigher closures don't pickle) and each
    worker builds its weigher locally.
    """

    depdb: object
    spec: AuditSpec
    probability: Optional[float] = None
    metadata: dict = field(default_factory=dict)

    def auditor(self, engine=None) -> SIAAuditor:
        """The auditor of this job's DepDB and weigher on ``engine``."""
        weigher = (
            uniform_weigher(self.probability)
            if self.probability is not None
            else None
        )
        return SIAAuditor(self.depdb, weigher=weigher, engine=engine)


#: A directory of spec files, or spec file paths and/or ready jobs.
SpecSource = Union[str, Path, Sequence[Union[str, Path, AuditJob]]]

#: ``audit-many`` spec fields with their JSON types.  Booleans pass
#: ``isinstance(..., int)``, so they are rejected explicitly where an
#: int is expected.  Validated up front so a mistyped hand-edited file
#: surfaces as a clean SpecificationError (which long-running consumers
#: like ``indaas watch`` survive), never as a TypeError from deep inside
#: AuditSpec.
_SPEC_FIELD_TYPES = {
    "depdb": (str,),
    "name": (str,),
    "algorithm": (str,),
    "rounds": (int,),
    "required": (int,),
    "seed": (int, type(None)),
    "sample_probability": (int, float),
    "probability": (int, float, type(None)),
}


def _check_spec_types(path, payload: dict) -> None:
    servers = payload["servers"]
    if not isinstance(servers, list) or not all(
        isinstance(s, str) for s in servers
    ):
        raise SpecificationError(
            f"{path}: servers must be a list of strings"
        )
    for key, types in _SPEC_FIELD_TYPES.items():
        if key not in payload:
            continue
        value = payload[key]
        if not isinstance(value, types) or isinstance(value, bool):
            wanted = "/".join(
                t.__name__ for t in types if t is not type(None)
            )
            raise SpecificationError(
                f"{path}: {key} must be {wanted}, "
                f"got {type(value).__name__}"
            )


def load_audit_job(
    path: Union[str, Path], payload: Optional[dict] = None
) -> AuditJob:
    """Parse one ``audit-many`` deployment spec file.

    ``payload``, when given, is the file's already-parsed JSON object —
    callers that must inspect the JSON before loading (the watch
    service stats the referenced DepDB first) avoid a second read and
    parse this way.

    The JSON schema (all paths relative to the spec file)::

        {
          "depdb": "web.depdb",          // required: DepDB dump to audit
          "servers": ["S1", "S2"],       // required: redundant servers
          "name": "web-tier",            // optional deployment name
          "algorithm": "minimal",        // or "sampling"
          "rounds": 100000,              // sampling rounds
          "sample_probability": 0.5,     // sampling coin bias
          "required": 1,                 // n of n-of-m redundancy
          "seed": 0,                     // sampling seed
          "probability": 0.1             // uniform component weigher
        }
    """
    path = Path(path)
    if payload is None:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise SpecificationError(f"{path}: cannot read spec: {exc}")
        except json.JSONDecodeError as exc:
            raise SpecificationError(f"{path}: invalid JSON: {exc}")
    if not isinstance(payload, dict):
        raise SpecificationError(f"{path}: spec must be a JSON object")
    for key in ("depdb", "servers"):
        if key not in payload:
            raise SpecificationError(f"{path}: missing required key {key!r}")
    _check_spec_types(path, payload)
    depdb_path = path.parent / payload["depdb"]
    try:
        depdb = DepDB.loads(depdb_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SpecificationError(f"{path}: cannot read DepDB: {exc}")
    servers = tuple(payload["servers"])
    algorithm = payload.get("algorithm", "minimal")
    if algorithm not in ("minimal", "sampling"):
        raise SpecificationError(
            f"{path}: algorithm must be minimal|sampling, got {algorithm!r}"
        )
    spec = AuditSpec(
        deployment=payload.get("name") or " & ".join(servers),
        servers=servers,
        required=payload.get("required", 1),
        algorithm=(
            RGAlgorithm.SAMPLING
            if algorithm == "sampling"
            else RGAlgorithm.MINIMAL
        ),
        sampling_rounds=payload.get("rounds", 100_000),
        sampling_probability=payload.get("sample_probability", 0.5),
        seed=payload.get("seed", 0),
    )
    return AuditJob(
        depdb=depdb,
        spec=spec,
        probability=payload.get("probability"),
        metadata={"source": str(path), "depdb": str(depdb_path)},
    )


def load_spec_set(specs: SpecSource) -> tuple[AuditJob, ...]:
    """Normalise a spec-set source into a tuple of :class:`AuditJob`.

    ``specs`` is either a directory of ``audit-many`` JSON spec files
    (see :func:`load_audit_job`) or a sequence of spec file paths and
    already materialised jobs.  Deployment names must be unique — they
    are the identity the delta layer diffs by.
    """
    if isinstance(specs, (str, Path)):
        root = Path(specs)
        if not root.is_dir():
            raise SpecificationError(f"{root} is not a directory")
        specs = sorted(p for p in root.glob("*.json") if p.is_file())
        if not specs:
            raise SpecificationError("no deployment spec files found")
    jobs = tuple(
        item if isinstance(item, AuditJob) else load_audit_job(item)
        for item in specs
    )
    counts = Counter(job.spec.deployment for job in jobs)
    duplicates = sorted(n for n, count in counts.items() if count > 1)
    if duplicates:
        raise SpecificationError(
            f"duplicate deployment names in spec set: {duplicates}"
        )
    return jobs


def load_report_jobs(specs: SpecSource) -> tuple[AuditJob, ...]:
    """The jobs of one ranked report: at least one, one ranking method."""
    jobs = load_spec_set(specs)
    if not jobs:
        raise SpecificationError("no audit jobs given")
    if len({job.spec.ranking for job in jobs}) != 1:
        raise SpecificationError(
            "all specs in one report must share a ranking method"
        )
    return jobs
