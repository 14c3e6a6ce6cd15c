"""The stable, versioned public API of the INDaaS reproduction.

Every surface of the system — the Python library (``repro.audit()``,
``repro.audit_delta()``, ``repro.plan()``), the CLI's ``--json`` output,
the ``indaas watch`` JSONL stream, and the ``indaas serve`` HTTP service
— speaks the one schema defined here.  Each serialised document is a
JSON object carrying two envelope fields:

* ``schema_version`` — integer, bumped only on incompatible changes;
* ``kind`` — the document type: ``audit_request``, ``audit_report``,
  ``job_status``, ``event``, ``error``, ``mitigation_plan`` or
  ``pia_report``.

The three transport dataclasses:

* :class:`AuditRequest` — one deployment audit, self-contained: the
  dependency data travels inline (Table-1 DepDB dump text), so a request
  can be executed by a local engine or POSTed to a remote server
  unchanged.
* :class:`AuditReport` — the canonical report: ranked deployment dicts
  plus content-address metadata.  ``to_json()`` is byte-deterministic
  (sorted keys, fixed separators), which is what lets the server cache
  and serve reports content-addressed by structural hash.
* :class:`JobStatus` — lifecycle of one server-side audit job.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from repro.core.events import check_real, check_seed, validate_probability
from repro.errors import AnalysisError, FaultGraphError, SpecificationError
from repro.schema import SCHEMA_VERSION, envelope

__all__ = [
    "SCHEMA_VERSION",
    "STORE_DEPDB",
    "AuditRequest",
    "AuditReport",
    "JobStatus",
    "ExecutionResult",
    "JOB_STATES",
    "envelope",
    "job_event",
    "error_body",
    "execute_request",
    "report_for_request",
    "run_request",
    "report_key",
    "merge_reports",
    "audit",
    "audit_delta",
    "plan",
]

#: Sentinel ``depdb`` value: audit against the tenant's server-side
#: dependency store (ingested via the ``/v1/tenants/<t>/depdb`` route)
#: instead of shipping dependency text in the request.
STORE_DEPDB = "@store"

#: Legal values of :attr:`JobStatus.state`, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

_TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


def job_event(event: str, **extra) -> dict:
    """One canonical event (service job event logs, ``indaas watch``).

    Shared field names across every event producer: ``event`` (what
    happened), ``seq`` (1-based position in the stream), and — when
    applicable — ``job_id``, ``tenant``, ``state``, ``elapsed_seconds``,
    ``report_key``, ``error``.
    """
    return envelope("event", {"event": event, **extra})


def error_body(code: str, message: str, **details) -> dict:
    """Canonical structured error document (HTTP bodies, CLI output)."""
    error: dict = {"code": code, "message": message}
    if details:
        error.update(details)
    return envelope("error", {"error": error})


def canonical_json(document: dict) -> str:
    """Byte-deterministic serialisation: sorted keys, fixed separators."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------- #
# Validation helpers
# --------------------------------------------------------------------- #


def _type_name(types: tuple) -> str:
    return "/".join(t.__name__ for t in types if t is not type(None))


def _check_field(payload: Mapping, key: str, types: tuple, kind: str) -> None:
    if key not in payload:
        return
    value = payload[key]
    # Booleans pass isinstance(..., int); reject them unless the field
    # is actually boolean.
    if not isinstance(value, types) or (
        isinstance(value, bool) and bool not in types
    ):
        raise SpecificationError(
            f"{kind}.{key} must be {_type_name(types)}, "
            f"got {type(value).__name__}"
        )


#: Wire types of the request fields; ``seed`` and ``probability`` are
#: checked, range included, by :class:`AuditRequest` itself on every route.
_REQUEST_FIELD_TYPES = {
    "deployment": (str,),
    "depdb": (str,),
    "required": (int,),
    "algorithm": (str,),
    "rounds": (int,),
    "sample_probability": (int, float),
    "ranking": (str,),
    "top_n": (int, type(None)),
    "max_order": (int, type(None)),
    "adaptive": (bool,),
    "base": (str, type(None)),
    "tenant": (str,),
    "metadata": (dict,),
}

#: Request fields that shape the audit *output* — the fingerprint (and
#: therefore the cache identity) covers exactly these, nothing else.
_FINGERPRINT_FIELDS = (
    "deployment",
    "servers",
    "depdb",
    "required",
    "algorithm",
    "rounds",
    "sample_probability",
    "ranking",
    "top_n",
    "max_order",
    "seed",
    "adaptive",
    "probability",
)


@dataclass(frozen=True)
class AuditRequest:
    """One self-contained deployment-audit request (canonical schema).

    Attributes:
        servers: The redundant servers of the candidate deployment.
        depdb: The dependency data as an inline Table-1 DepDB dump —
            the request carries everything needed to execute it.
        deployment: Deployment name (defaults to the joined servers).
        required: Live servers needed to survive (n of n-of-m).
        algorithm: ``"minimal"`` or ``"sampling"``.
        rounds: Sampling rounds (sampling algorithm only).
        sample_probability: Sampling coin bias.
        ranking: ``"size"`` or ``"probability"`` RG ranking.
        top_n: RGs feeding the independence score (None = all).
        max_order: Cut-set truncation for the minimal algorithm.
        seed: Sampling seed.  ``None`` draws fresh OS entropy — such
            requests are executed but never content-addressed (repeat
            runs would not be bit-identical).
        adaptive: Stop sampling early once the detection decision is
            statistically settled; ``rounds`` becomes a budget ceiling.
            Output-shaping (fingerprinted): an adaptive report is not
            interchangeable with its exact-rounds counterpart.
        probability: Optional uniform component failure probability.
        base: Optional structural report key of a previously audited
            spec this request is a delta against; the server diffs the
            two fault graphs and streams the delta as a job event.
            Advisory: it never changes the report, only the telemetry.
        tenant: Admission-control identity on the server.
        metadata: Free-form client annotations (never fingerprinted).
    """

    servers: tuple[str, ...]
    depdb: str
    deployment: str = ""
    required: int = 1
    algorithm: str = "minimal"
    rounds: int = 100_000
    sample_probability: float = 0.5
    ranking: str = "size"
    top_n: Optional[int] = None
    max_order: Optional[int] = None
    seed: Optional[int] = 0
    adaptive: bool = False
    probability: Optional[float] = None
    base: Optional[str] = None
    tenant: str = "default"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "servers", tuple(self.servers))
        if not self.servers or not all(
            isinstance(s, str) and s for s in self.servers
        ):
            raise SpecificationError(
                "audit_request.servers must be a non-empty list of "
                "non-empty strings"
            )
        if not isinstance(self.depdb, str) or not self.depdb.strip():
            raise SpecificationError(
                "audit_request.depdb must be a non-empty DepDB dump"
            )
        if self.algorithm not in ("minimal", "sampling"):
            raise SpecificationError(
                "audit_request.algorithm must be minimal|sampling, "
                f"got {self.algorithm!r}"
            )
        if self.ranking not in ("size", "probability"):
            raise SpecificationError(
                "audit_request.ranking must be size|probability, "
                f"got {self.ranking!r}"
            )
        try:
            check_seed(self.seed)
            if self.probability is not None:
                check_real("probability", self.probability)
                validate_probability(self.probability)
        except (AnalysisError, FaultGraphError) as exc:
            raise SpecificationError(f"audit_request.{exc}") from None
        if not self.deployment:
            object.__setattr__(
                self, "deployment", " & ".join(self.servers)
            )
        if not self.tenant:
            raise SpecificationError(
                "audit_request.tenant must be non-empty"
            )

    # -------------------------- conversions --------------------------- #

    def to_spec(self):
        """The equivalent :class:`~repro.core.spec.AuditSpec`.

        Spec construction re-validates the numeric ranges (rounds,
        probabilities, required vs servers), so a malformed request
        surfaces as a clean :class:`SpecificationError` here.
        """
        from repro.core.ranking import RankingMethod
        from repro.core.spec import AuditSpec, RGAlgorithm

        return AuditSpec(
            deployment=self.deployment,
            servers=self.servers,
            required=self.required,
            algorithm=(
                RGAlgorithm.SAMPLING
                if self.algorithm == "sampling"
                else RGAlgorithm.MINIMAL
            ),
            sampling_rounds=self.rounds,
            sampling_probability=self.sample_probability,
            ranking=RankingMethod(self.ranking),
            top_n=self.top_n,
            max_order=self.max_order,
            seed=self.seed,
            adaptive=self.adaptive,
        )

    def to_job(self):
        """Parse the inline DepDB and build an executable AuditJob."""
        from repro.depdb.database import DepDB
        from repro.engine.specset import AuditJob

        return AuditJob(
            depdb=DepDB.loads(self.depdb),
            spec=self.to_spec(),
            probability=self.probability,
            metadata={"tenant": self.tenant, **self.metadata},
        )

    # ------------------------- serialisation -------------------------- #

    def to_dict(self) -> dict:
        return envelope(
            "audit_request",
            {
                "deployment": self.deployment,
                "servers": list(self.servers),
                "depdb": self.depdb,
                "required": self.required,
                "algorithm": self.algorithm,
                "rounds": self.rounds,
                "sample_probability": self.sample_probability,
                "ranking": self.ranking,
                "top_n": self.top_n,
                "max_order": self.max_order,
                "seed": self.seed,
                "adaptive": self.adaptive,
                "probability": self.probability,
                "base": self.base,
                "tenant": self.tenant,
                "metadata": dict(self.metadata),
            },
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        if indent is None:
            return canonical_json(self.to_dict())
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "AuditRequest":
        if not isinstance(payload, Mapping):
            raise SpecificationError("audit_request must be a JSON object")
        _check_schema_version(payload, "audit_request")
        if "servers" not in payload:
            raise SpecificationError(
                "audit_request.servers is required"
            )
        if "depdb" not in payload:
            raise SpecificationError("audit_request.depdb is required")
        servers = payload["servers"]
        if not isinstance(servers, (list, tuple)):
            raise SpecificationError(
                "audit_request.servers must be a list of strings"
            )
        for key, types in _REQUEST_FIELD_TYPES.items():
            _check_field(payload, key, types, "audit_request")
        known = {f.name for f in fields(cls)}
        kwargs = {
            key: payload[key]
            for key in known
            if key != "servers" and key in payload
        }
        return cls(servers=tuple(servers), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "AuditRequest":
        return cls.from_dict(_parse_object(text, "audit_request"))

    # ------------------------ content address ------------------------- #

    def fingerprint(self) -> str:
        """Content address of the request's *output-shaping* fields.

        Two requests with the same fingerprint are guaranteed to produce
        bit-identical reports (tenant, metadata and the advisory
        ``base`` are excluded), so the server can serve a repeat
        submission straight from its report store.  Computed once per
        request object: the request is immutable, so the memo lives
        exactly as long as it does.
        """
        memo = self.__dict__.get("_fingerprint")
        if memo is None:
            payload = self.to_dict()
            digest = hashlib.sha256(b"indaas-request-v1\0")
            digest.update(
                canonical_json(
                    {key: payload[key] for key in _FINGERPRINT_FIELDS}
                ).encode("utf-8")
            )
            memo = digest.hexdigest()
            object.__setattr__(self, "_fingerprint", memo)
        return memo


def _parse_object(text: Union[str, bytes], kind: str) -> dict:
    # Bytes that are not UTF-8 and nesting past the decoder's recursion
    # limit are malformed input too, not a server fault.
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise SpecificationError(f"invalid {kind} JSON: {exc}")
    if not isinstance(payload, dict):
        raise SpecificationError(f"{kind} must be a JSON object")
    return payload


def _check_schema_version(payload: Mapping, kind: str) -> None:
    version = payload.get("schema_version")
    if version is not None and version != SCHEMA_VERSION:
        raise SpecificationError(
            f"unsupported {kind} schema_version {version!r} "
            f"(this build speaks {SCHEMA_VERSION})"
        )


# --------------------------------------------------------------------- #
# Reports
# --------------------------------------------------------------------- #


@dataclass
class AuditReport:
    """The canonical, serialisable audit report.

    ``deployments`` holds the ranked per-deployment dicts exactly as
    :meth:`repro.core.report.DeploymentAudit.to_dict` produces them —
    most-independent first.  The class is a typed carrier around the
    wire schema; rich post-processing stays on the core objects.
    """

    title: str
    deployments: list
    ranking_method: str = "size"
    client: str = ""
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_core(cls, report) -> "AuditReport":
        """Build from a :class:`repro.core.report.AuditReport`."""
        return cls(
            title=report.title,
            deployments=[
                audit.to_dict() for audit in report.ranked_deployments()
            ],
            ranking_method=report.ranking_method.value,
            client=report.client,
            metadata=dict(report.metadata),
        )

    def best(self) -> dict:
        if not self.deployments:
            raise SpecificationError("report has no deployments")
        return self.deployments[0]

    def to_dict(self) -> dict:
        return envelope(
            "audit_report",
            {
                "title": self.title,
                "client": self.client,
                "ranking_method": self.ranking_method,
                "metadata": dict(self.metadata),
                "deployments": [dict(d) for d in self.deployments],
            },
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        if indent is None:
            return canonical_json(self.to_dict())
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "AuditReport":
        if not isinstance(payload, Mapping):
            raise SpecificationError("audit_report must be a JSON object")
        if "schema_version" not in payload:
            raise SpecificationError(
                "audit_report.schema_version is required"
            )
        _check_schema_version(payload, "audit_report")
        deployments = payload.get("deployments")
        if not isinstance(deployments, list):
            raise SpecificationError(
                "audit_report.deployments must be a list"
            )
        _check_field(payload, "title", (str,), "audit_report")
        _check_field(payload, "client", (str,), "audit_report")
        _check_field(payload, "ranking_method", (str,), "audit_report")
        return cls(
            title=payload.get("title", ""),
            deployments=[dict(d) for d in deployments],
            ranking_method=payload.get("ranking_method", "size"),
            client=payload.get("client", ""),
            metadata=dict(payload.get("metadata", {})),
        )

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "AuditReport":
        return cls.from_dict(_parse_object(text, "audit_report"))


def merge_reports(
    reports: Sequence[AuditReport], title: str, client: str = ""
) -> AuditReport:
    """Combine single-deployment reports into one ranked report.

    Re-applies the canonical §4.1.4 ordering
    (:func:`~repro.core.report.deployment_order`) to the serialised
    fields, so a client assembling per-deployment server reports gets the
    same ranking a single multi-deployment audit would have produced.
    """
    from repro.core.ranking import RankingMethod
    from repro.core.report import deployment_order

    if not reports:
        raise SpecificationError("no reports to merge")
    methods = {r.ranking_method for r in reports}
    if len(methods) != 1:
        raise SpecificationError(
            f"cannot merge reports with mixed ranking methods: {methods}"
        )
    method = RankingMethod(reports[0].ranking_method)
    deployments = [dict(d) for r in reports for d in r.deployments]
    return AuditReport(
        title=title,
        deployments=sorted(
            deployments,
            key=lambda entry: deployment_order(
                method,
                entry.get("score", 0.0),
                entry.get("failure_probability"),
                entry.get("deployment", ""),
            ),
        ),
        ranking_method=method.value,
        client=client,
        metadata={"merged_from": len(reports)},
    )


# --------------------------------------------------------------------- #
# Job status
# --------------------------------------------------------------------- #


@dataclass
class JobStatus:
    """Lifecycle snapshot of one server-side audit job."""

    job_id: str
    state: str
    tenant: str = "default"
    deployment: str = ""
    queue_position: Optional[int] = None
    cached: bool = False
    report_key: Optional[str] = None
    structural_hash: Optional[str] = None
    error: Optional[str] = None
    elapsed_seconds: Optional[float] = None
    events: int = 0

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise SpecificationError(
                f"job_status.state must be one of {JOB_STATES}, "
                f"got {self.state!r}"
            )

    @property
    def is_terminal(self) -> bool:
        return self.state in _TERMINAL_STATES

    def to_dict(self) -> dict:
        return envelope(
            "job_status",
            {
                "job_id": self.job_id,
                "state": self.state,
                "tenant": self.tenant,
                "deployment": self.deployment,
                "queue_position": self.queue_position,
                "cached": self.cached,
                "report_key": self.report_key,
                "structural_hash": self.structural_hash,
                "error": self.error,
                "elapsed_seconds": self.elapsed_seconds,
                "events": self.events,
            },
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        if indent is None:
            return canonical_json(self.to_dict())
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "JobStatus":
        if not isinstance(payload, Mapping):
            raise SpecificationError("job_status must be a JSON object")
        _check_schema_version(payload, "job_status")
        for key in ("job_id", "state"):
            if key not in payload:
                raise SpecificationError(f"job_status.{key} is required")
        known = {f.name for f in fields(cls)}
        return cls(**{k: payload[k] for k in known if k in payload})

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "JobStatus":
        return cls.from_dict(_parse_object(text, "job_status"))


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #


@dataclass
class ExecutionResult:
    """What executing one :class:`AuditRequest` produced."""

    audit: object  # repro.core.report.DeploymentAudit
    graph: object  # repro.core.faultgraph.FaultGraph
    structural_hash: str
    delta: Optional[object] = None  # repro.engine.incremental.GraphDelta


def execute_request(
    request: AuditRequest,
    engine=None,
    progress=None,
    base_graph=None,
    built=None,
) -> ExecutionResult:
    """Run one audit request on an engine (the one shared executor).

    The CLI, the library front doors and the HTTP server all execute
    through here, which is what makes their reports bit-identical for
    the same request: one code path builds the graph and audits it.
    It keeps no result (the service's report store answers repeats), so
    the engine's result cache is neither read nor filled.

    Args:
        request: The request to execute.
        engine: Optional :class:`~repro.engine.AuditEngine` to compile
            and sample on; a private inline engine is used otherwise.
        progress: Optional callback ``progress(stage, **fields)``
            invoked at ``compiled`` (graph built, structural hash known)
            and ``audited`` (result ready) stages.
        base_graph: Previously built fault graph to diff against (the
            server resolves :attr:`AuditRequest.base` to this); the
            delta is reported, never applied — results don't change.
        built: The ``(graph, structural hash)`` pair an earlier
            execution built from the same DepDB text, servers,
            deployment, required count and probability (the server's
            graph index); the parse, the build and the hash are skipped.
    """
    from repro.engine.audit import SIAAuditor
    from repro.engine.cache import structural_hash as graph_hash
    from repro.engine.incremental import graph_delta

    if built is None:
        job = request.to_job()
        auditor = job.auditor(engine)
        spec = job.spec
        graph = auditor.build_graph(spec)
        digest = graph_hash(graph)
    else:
        # Auditing a built graph reads neither the DepDB nor the weigher.
        auditor = SIAAuditor(None, engine=engine)
        spec = request.to_spec()
        graph, digest = built
    delta = None if base_graph is None else graph_delta(base_graph, graph)
    if progress is not None:
        progress(
            "compiled",
            structural_hash=digest,
            events=len(graph.events()),
            **({"delta": delta.to_dict()} if delta is not None else {}),
        )
    audit_result = auditor.audit_graph(graph, spec)
    if progress is not None:
        progress("audited")
    return ExecutionResult(
        audit=audit_result, graph=graph, structural_hash=digest, delta=delta
    )


def report_key(structural_digest: str, request: AuditRequest) -> str:
    """Content address of a finished report.

    Keyed by the built graph's structural hash plus every request field
    that shapes the output *past* the graph — two requests whose DepDB
    texts differ but build the same graph under the same parameters
    share one key (and, by the determinism contract, one report).
    """
    payload = request.to_dict()
    params = {
        key: payload[key]
        for key in _FINGERPRINT_FIELDS
        if key != "depdb"
    }
    digest = hashlib.sha256(b"indaas-report-v1\0")
    digest.update(structural_digest.encode("ascii"))
    digest.update(b"\0")
    digest.update(canonical_json(params).encode("utf-8"))
    return digest.hexdigest()


def report_for_request(
    request: AuditRequest,
    audit,
    structural_digest: Optional[str] = None,
) -> AuditReport:
    """Canonical single-deployment report for an executed request.

    Deliberately excludes anything run-dependent (worker counts, cache
    hits, timings): the report depends only on the request and the
    deterministic audit, so repeat executions — local or remote, any
    worker count — serialise to identical bytes.
    """
    metadata: dict = {}
    if structural_digest is not None:
        metadata["structural_hash"] = structural_digest
        metadata["report_key"] = report_key(structural_digest, request)
    metadata["request_fingerprint"] = request.fingerprint()
    return AuditReport(
        title=request.deployment,
        deployments=[audit.to_dict()],
        ranking_method=request.ranking,
        client=request.metadata.get("client", ""),
        metadata=metadata,
    )


def run_request(request: AuditRequest, engine=None) -> AuditReport:
    """Execute one request and return its canonical report.

    The local twin of :meth:`repro.agents.transport.ServiceClient.audit`:
    same argument, same report bytes, no service in between.  It keeps no
    result, so a repeat is audited again (``AuditEngine.audit_spec`` caches).
    """
    result = execute_request(request, engine=engine)
    return report_for_request(
        request, result.audit, structural_digest=result.structural_hash
    )


# --------------------------------------------------------------------- #
# Library front doors (re-exported as repro.audit / audit_delta / plan)
# --------------------------------------------------------------------- #


def _depdb_text(depdb) -> str:
    """Normalise a DepDB argument (object, dump text, or path) to text."""
    from repro.depdb.database import DepDB

    if isinstance(depdb, DepDB):
        return depdb.dumps()
    if isinstance(depdb, Path):
        return depdb.read_text(encoding="utf-8")
    if isinstance(depdb, str):
        return depdb
    raise SpecificationError(
        f"depdb must be a DepDB, dump text or Path, got {type(depdb).__name__}"
    )


def audit(depdb, servers: Sequence[str], *, engine=None, **params) -> AuditReport:
    """Audit one deployment and return the canonical report.

    ``depdb`` is a :class:`~repro.depdb.database.DepDB`, a Table-1 dump
    string, or a :class:`~pathlib.Path` to one; ``params`` are the
    :class:`AuditRequest` fields (``algorithm``, ``rounds``, ``seed``,
    ``probability``, ...).  A repeat call is audited again.
    """
    request = AuditRequest(
        servers=tuple(servers), depdb=_depdb_text(depdb), **params
    )
    return run_request(request, engine=engine)


def audit_delta(
    old,
    new,
    *,
    engine=None,
    title: str = "delta audit",
    client: str = "",
) -> AuditReport:
    """Delta-audit a spec set against a previous one, canonically.

    ``old``/``new`` are spec directories or
    :class:`~repro.engine.specset.AuditJob` sequences (``old`` may be
    ``None`` for a first run).  Reuse accounting and the deployment-level
    delta land in the report's metadata; the deployments themselves are
    bit-identical to a cold audit of ``new``.
    """
    from repro.engine.facade import AuditEngine

    if engine is None:
        engine = AuditEngine(n_workers=1)
    outcome = engine.audit_delta(old, new, title=title, client=client)
    return AuditReport.from_core(outcome.report)


def plan(
    depdb,
    servers: Sequence[str],
    *,
    probability: float = 0.1,
    top_k: int = 5,
    budget: Optional[int] = None,
    deployment: str = "",
):
    """Ranked mitigation plan for one deployment (library front door).

    Builds the deployment graph under a uniform ``probability`` and
    hands it to a :class:`~repro.analysis.planner.MitigationPlanner`.
    Returns a :class:`~repro.analysis.planner.MitigationPlan`;
    its ``to_dict()`` emits the canonical ``mitigation_plan`` schema.
    """
    from repro.analysis.planner import MitigationPlanner
    from repro.core.spec import AuditSpec
    from repro.depdb.database import DepDB
    from repro.engine.audit import SIAAuditor
    from repro.failures import uniform_weigher

    servers = tuple(servers)
    spec = AuditSpec(
        deployment=deployment or " & ".join(servers), servers=servers
    )
    graph = SIAAuditor(
        DepDB.loads(_depdb_text(depdb)), weigher=uniform_weigher(probability)
    ).build_graph(spec)
    plan = MitigationPlanner(graph, redundancy=spec.redundancy).plan(
        top_k=top_k, budget=budget
    )
    plan.deployment = spec.deployment
    return plan
