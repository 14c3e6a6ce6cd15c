"""``indaas`` command line interface.

Subcommands mirror the evaluation:

* ``indaas case network``    — §6.2.1 network case study
* ``indaas case hardware``   — §6.2.2 hardware case study
* ``indaas case software``   — §6.2.3 private software audit (Table 2)
* ``indaas topology``        — Table 3 fat-tree census
* ``indaas audit``           — SIA audit of a DepDB file (Table-1 text
  or a SQLite store; auto-detected)
* ``indaas db``              — dependency-store maintenance: ``ingest``
  dumps into a SQLite DepDB, ``stats``, ``snapshot``, ``diff``
* ``indaas audit-many``      — concurrent audit of a directory of
  deployment specs (engine-backed)
* ``indaas watch``           — long-running incremental audit of a spec
  directory (warm result cache, JSONL reports)
* ``indaas drift``           — periodic audit across two DepDB snapshots
* ``indaas importance``      — per-component importance measures
* ``indaas plan``            — ranked mitigation plan ("which fix
  first"): Harden/Duplicate candidates from the importance ranking,
  each scored by one walk of the deployment's diagram
* ``indaas pia``             — private audit over component-set files
  (batched fast-path protocols; ``--workers`` fans deployments out,
  ``--json`` carries the wire-byte total)
* ``indaas serve``           — multi-tenant HTTP audit service (canonical
  ``repro.api`` schema, bounded per-tenant admission, content-addressed
  report cache); pair with ``indaas audit --remote URL``
* ``indaas example``         — Figure 4 worked example
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import __version__
from repro.errors import IndaasError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indaas",
        description=(
            "INDaaS: proactive independence auditing of redundant "
            "deployments (OSDI'14 reproduction)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"indaas {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    case = sub.add_parser("case", help="run a §6.2 case study")
    case.add_argument(
        "study", choices=("network", "hardware", "software"),
        help="which case study to run",
    )
    case.add_argument(
        "--rounds", type=int, default=50_000,
        help="sampling rounds for the network study (default 50000)",
    )
    case.add_argument(
        "--group-bits", type=int, default=768,
        help="P-SOP group size for the software study (default 768)",
    )

    topo = sub.add_parser("topology", help="Table 3 fat-tree census")
    topo.add_argument(
        "--ports", type=int, default=16,
        help="switch port count k (Table 3 uses 16/24/48)",
    )

    audit = sub.add_parser("audit", help="SIA audit over a DepDB file")
    audit.add_argument(
        "depdb",
        help=(
            "path to a DepDB: a Table-1 line dump or a SQLite store "
            "(auto-detected; audits are bit-identical either way)"
        ),
    )
    audit.add_argument(
        "--servers", required=True,
        help="comma-separated servers of the deployment",
    )
    audit.add_argument(
        "--algorithm", choices=("minimal", "sampling"), default="minimal"
    )
    audit.add_argument("--rounds", type=int, default=100_000)
    audit.add_argument("--top", type=int, default=10)
    audit.add_argument(
        "--seed", type=int, default=0,
        help="sampling seed (part of the report's content address)",
    )
    audit.add_argument(
        "--adaptive", action="store_true",
        help=(
            "stop sampling early once the failure estimate and risk-"
            "group discovery stabilise (--rounds becomes a ceiling; "
            "sampling algorithm only)"
        ),
    )
    audit.add_argument(
        "--workers", type=int, default=0,
        help=(
            "engine worker processes for sampling audits "
            "(0/1 = in-process, -1 = all cores, other negatives are "
            "rejected; results are identical for any worker count)"
        ),
    )
    audit.add_argument(
        "--json", action="store_true",
        help="emit the canonical audit_report JSON instead of text",
    )
    audit.add_argument(
        "--remote", metavar="URL", default=None,
        help=(
            "execute on an `indaas serve` service instead of locally "
            "(same request, bit-identical report)"
        ),
    )
    audit.add_argument(
        "--tenant", default="default",
        help="admission-control identity for --remote submissions",
    )
    audit.add_argument(
        "--timeout", type=float, default=300.0,
        help="seconds to wait for a --remote job (default 300)",
    )
    audit.add_argument(
        "--retries", type=int, default=4,
        help=(
            "retry attempts for transient --remote failures (connection "
            "errors, 429/503) with capped exponential backoff; 0 "
            "disables retries (default 4)"
        ),
    )

    db = sub.add_parser(
        "db", help="maintain a durable SQLite dependency store"
    )
    db_sub = db.add_subparsers(dest="db_command", required=True)

    db_ingest = db_sub.add_parser(
        "ingest", help="ingest dependency dumps into a SQLite DepDB"
    )
    db_ingest.add_argument("database", help="SQLite DepDB (created if missing)")
    db_ingest.add_argument(
        "sources", nargs="+",
        help="dump files to ingest (Table-1 lines or DepDB JSON)",
    )
    db_ingest.add_argument(
        "--batch-size", type=int, default=1024, dest="batch_size",
        help="records per ingest transaction (default 1024)",
    )

    db_stats = db_sub.add_parser(
        "stats", help="record counts, hosts and content hash of a store"
    )
    db_stats.add_argument("database", help="SQLite DepDB")
    db_stats.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )

    db_snapshot = db_sub.add_parser(
        "snapshot", help="record a content-addressed snapshot of a store"
    )
    db_snapshot.add_argument("database", help="SQLite DepDB")
    db_snapshot.add_argument(
        "--label", default="", help="free-form snapshot annotation"
    )

    db_diff = db_sub.add_parser(
        "diff",
        help=(
            "diff a store against its last snapshot (or a dump file); "
            "exit 2 when the record sets differ"
        ),
    )
    db_diff.add_argument("database", help="SQLite DepDB")
    db_diff.add_argument(
        "--against", default=None, metavar="DUMP",
        help=(
            "compare against this dump file (Table-1 lines or DepDB "
            "JSON) instead of the store's last snapshot"
        ),
    )
    db_diff.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )

    many = sub.add_parser(
        "audit-many",
        help="audit a directory of deployment spec files concurrently",
    )
    many.add_argument(
        "specs",
        help=(
            "directory of *.json deployment specs (each names a DepDB "
            "dump and the servers to audit; see DESIGN.md)"
        ),
    )
    many.add_argument(
        "--workers", type=int, default=-1,
        help="worker processes (default -1 = all cores; 0 = in-process)",
    )
    many.add_argument("--top", type=int, default=5)
    many.add_argument(
        "--title", default="multi-deployment audit",
        help="report title",
    )
    many.add_argument(
        "--json", action="store_true",
        help="emit the full report as JSON instead of text",
    )

    watch = sub.add_parser(
        "watch",
        help=(
            "poll a spec directory and delta-audit it continuously "
            "(one JSON report per iteration on stdout)"
        ),
    )
    watch.add_argument(
        "specs",
        help="directory of *.json deployment specs (audit-many schema)",
    )
    watch.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between polls (default 2.0)",
    )
    watch.add_argument(
        "--iterations", type=int, default=None,
        help="stop after N polls (default: run until interrupted)",
    )
    watch.add_argument(
        "--block-size", type=int, default=4096,
        help="sampling rounds per block (part of the seeded stream)",
    )
    watch.add_argument(
        "--workers", type=int, default=0,
        help=(
            "sampling worker processes shared through one persistent "
            "pool across every poll (default 0 = inline; -1 = all cores)"
        ),
    )
    watch.add_argument(
        "--full", action="store_true",
        help="include the full audit report in every JSON line",
    )

    drift = sub.add_parser(
        "drift", help="compare two DepDB snapshots (periodic audit)"
    )
    drift.add_argument("before", help="previous DepDB dump")
    drift.add_argument("after", help="current DepDB dump")
    drift.add_argument(
        "--servers", required=True,
        help="comma-separated servers of the audited deployment",
    )
    drift.add_argument(
        "--probability", type=float, default=None,
        help="uniform component failure probability (optional)",
    )

    importance = sub.add_parser(
        "importance", help="per-component importance measures"
    )
    importance.add_argument("depdb", help="path to a DepDB dump")
    importance.add_argument("--servers", required=True)
    importance.add_argument(
        "--probability", type=float, default=0.1,
        help="uniform component failure probability (default 0.1)",
    )
    importance.add_argument("--top", type=int, default=10)

    plan = sub.add_parser(
        "plan", help="ranked mitigation plan for one deployment"
    )
    plan.add_argument("depdb", help="path to a DepDB dump")
    plan.add_argument("--servers", required=True)
    plan.add_argument(
        "--probability", type=float, default=0.1,
        help="uniform component failure probability (default 0.1)",
    )
    plan.add_argument(
        "--top-k", type=int, default=5, dest="top_k",
        help="components (by importance) to generate candidates for",
    )
    plan.add_argument(
        "--budget", type=int, default=None,
        help="keep only the best N mitigations in the plan",
    )
    plan.add_argument(
        "--json", action="store_true",
        help="emit the plan as JSON instead of text",
    )

    pia = sub.add_parser(
        "pia", help="private audit over component-set JSON files"
    )
    pia.add_argument(
        "sets",
        help=(
            "JSON file mapping provider name -> list of normalised "
            "component identifiers"
        ),
    )
    pia.add_argument("--ways", type=int, default=2)
    pia.add_argument(
        "--protocol", choices=("psop", "psop-minhash", "plaintext"),
        default="psop",
    )
    pia.add_argument("--group-bits", type=int, default=768)
    pia.add_argument(
        "--workers", type=int, default=0,
        help=(
            "fan deployment measurements out over a process pool "
            "(0 = in-process, -1 = all cores; reports are identical "
            "for any worker count)"
        ),
    )
    pia.add_argument(
        "--json", action="store_true",
        help="emit the canonical pia_report JSON instead of text",
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "run the multi-tenant HTTP audit service (POST canonical "
            "audit_request documents to /v1/audits)"
        ),
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default local)"
    )
    serve.add_argument(
        "--port", type=int, default=8130,
        help="TCP port (default 8130; 0 picks a free port)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="audit worker threads, at least 1 (default 2)",
    )
    serve.add_argument(
        "--per-tenant", type=int, default=8, dest="per_tenant",
        help="queued jobs allowed per tenant before 429 (default 8)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64, dest="queue_limit",
        help="queued jobs allowed service-wide before 429 (default 64)",
    )
    serve.add_argument(
        "--block-size", type=int, default=4096,
        help="sampling rounds per block (part of the seeded stream)",
    )
    serve.add_argument(
        "--engine-workers", type=int, default=0, dest="engine_workers",
        help=(
            "sampling worker processes, shared across all audits "
            "through one persistent per-server pool (default 0 = "
            "inline sampling; -1 = all cores). Audits whose blocks are "
            "too small to repay the dispatch run inline regardless"
        ),
    )
    serve.add_argument(
        "--state-dir", default=None, dest="state_dir", metavar="DIR",
        help=(
            "durable state directory: every job is journalled there and "
            "a restarted server resumes queued/in-flight jobs and "
            "serves finished reports byte-identically (default: "
            "in-memory only)"
        ),
    )
    serve.add_argument(
        "--no-resume", action="store_false", dest="resume",
        help=(
            "with --state-dir: journal new jobs but do not replay "
            "existing journal state on startup"
        ),
    )
    serve.add_argument(
        "--inject", default=None, metavar="SCHEDULE",
        help=(
            "arm a fault_schedule JSON file (repro.testing.faults) for "
            "deterministic chaos testing of this server process"
        ),
    )

    sub.add_parser("example", help="Figure 4 worked example")
    return parser


def _run_case(args: argparse.Namespace) -> int:
    if args.study == "network":
        from repro.analysis.case_studies import network_case_study

        result = network_case_study(sampling_rounds=args.rounds)
        print(result.report.summary())
        print(result.formal.summary())
        print(f"matches paper: {result.matches_paper}")
        return 0
    if args.study == "hardware":
        from repro.analysis.case_studies import hardware_case_study

        result = hardware_case_study()
        print("VM placements:", result.placements)
        print("top risk groups of the initial Riak deployment:")
        for entry in result.riak_audit.top_risk_groups(4):
            print("  ", entry.describe())
        print(f"recommended re-deployment: {result.recommended_pair}")
        print(f"matches paper: {result.matches_paper}")
        return 0
    from repro.analysis.case_studies import software_case_study

    two_way, three_way = software_case_study(group_bits=args.group_bits)
    print(two_way.render_text())
    print()
    print(three_way.render_text())
    return 0


def _run_topology(args: argparse.Namespace) -> int:
    from repro.topology.fattree import FatTreeConfig, fat_tree

    config = FatTreeConfig(ports=args.ports)
    topology = fat_tree(config)
    counts = topology.counts()
    print(f"fat tree with k={args.ports} switch ports")
    for row in ("core", "aggregation", "tor", "server"):
        print(f"  {row:<12} {counts.get(row, 0):>8}")
    print(f"  {'total':<12} {counts['total']:>8}")
    return 0


def _is_sqlite_file(path: str) -> bool:
    try:
        with open(path, "rb") as handle:
            return handle.read(16).startswith(b"SQLite format 3")
    except OSError:
        return False


def _load_depdb_text(path: str) -> str:
    """A DepDB file's records as canonical Table-1 text, whatever the
    storage.

    Text files are parsed and re-dumped, so a flat dump and a SQLite
    store holding the same records produce the same text — and
    therefore the same request fingerprint and byte-identical reports —
    regardless of comment lines, blank lines or trailing whitespace in
    the flat file.
    """
    from repro.depdb.database import DepDB

    if _is_sqlite_file(path):
        with DepDB.sqlite(path) as db:
            return db.dumps()
    with open(path, encoding="utf-8") as handle:
        return DepDB.loads(handle.read()).dumps()


def _run_audit(args: argparse.Namespace) -> int:
    from repro import api

    depdb_text = _load_depdb_text(args.depdb)
    request = api.AuditRequest(
        servers=_parse_servers(args.servers),
        depdb=depdb_text,
        algorithm=args.algorithm,
        rounds=args.rounds,
        seed=args.seed,
        adaptive=args.adaptive,
        tenant=args.tenant,
    )
    if args.remote:
        from repro.agents.transport import RetryPolicy, ServiceClient

        policy = (
            RetryPolicy(retries=args.retries, seed=request.seed or 0)
            if args.retries > 0
            else None
        )
        with ServiceClient(args.remote, retry=policy) as client:
            report = client.audit(request, timeout=args.timeout)
    else:
        from repro.engine import AuditEngine

        with AuditEngine(n_workers=args.workers) as engine:
            report = api.run_request(request, engine=engine)
    if args.json:
        print(report.to_json())
        return 0
    best = report.best()
    print(f"deployment: {best['deployment']}  (score={best['score']:.4g})")
    unexpected = best.get("unexpected_risk_groups") or []
    if unexpected:
        print(f"!! {len(unexpected)} unexpected risk groups")
    for entry in best.get("ranking", [])[: args.top]:
        events = ", ".join(entry["events"])
        line = f"   #{entry['rank']} {{{events}}}"
        if entry.get("probability") is not None:
            line += f"  p={entry['probability']:.4g}"
        print(line)
    return 0


def _load_dump_records(path: str):
    """Parse a dump file (Table-1 text or DepDB JSON) into a memory DepDB."""
    from repro.depdb.database import DepDB

    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if text.lstrip().startswith("{"):
        return DepDB.from_json(text)
    return DepDB.loads(text)


def _run_db(args: argparse.Namespace) -> int:
    import json

    from repro.depdb import record_key
    from repro.depdb.database import DepDB
    from repro.errors import DependencyDataError

    if args.db_command == "ingest":
        with DepDB.sqlite(args.database) as db:
            total_added = 0
            for source in args.sources:
                source_db = _load_dump_records(source)
                added = db.ingest(
                    source_db.iter_records(), batch_size=args.batch_size
                )
                total_added += added
                print(f"{source}: {len(source_db)} records, {added} new")
            counts = db.counts()
            print(
                f"{args.database}: +{total_added} -> "
                f"network={counts['network']} hardware={counts['hardware']} "
                f"software={counts['software']} (total {len(db)})"
            )
        return 0

    if not _is_sqlite_file(args.database):
        raise DependencyDataError(
            f"{args.database} is not a SQLite DepDB store "
            f"(create one with `indaas db ingest`)"
        )

    if args.db_command == "stats":
        with DepDB.sqlite(args.database) as db:
            last = db.last_snapshot()
            stats = {
                "database": args.database,
                "counts": db.counts(),
                "total": len(db),
                "hosts": len(db.hosts()),
                "content_hash": db.content_hash(),
                "snapshots": len(db.snapshots()),
                "last_snapshot": None if last is None else last.to_dict(),
            }
        if args.json:
            print(json.dumps(stats, sort_keys=True))
            return 0
        print(f"{args.database}:")
        for kind, count in stats["counts"].items():
            print(f"  {kind:<10} {count:>8}")
        print(f"  {'total':<10} {stats['total']:>8}")
        print(f"  hosts: {stats['hosts']}")
        print(f"  content hash: {stats['content_hash']}")
        if last is None:
            print("  snapshots: none")
        else:
            print(
                f"  snapshots: {stats['snapshots']} "
                f"(last: seq={last.seq} digest={last.digest[:12]}...)"
            )
        return 0

    if args.db_command == "snapshot":
        with DepDB.sqlite(args.database) as db:
            snap = db.snapshot(args.label)
        print(
            f"snapshot seq={snap.seq} digest={snap.digest} "
            f"({snap.total} records)"
        )
        return 0

    # diff: current store state vs its last snapshot or a dump file.
    with DepDB.sqlite(args.database) as db:
        current = db.content_hash()
        if args.against is not None:
            reference_db = _load_dump_records(args.against)
            reference = reference_db.content_hash()
            store_keys = {record_key(r) for r in db.iter_records()}
            ref_keys = {record_key(r) for r in reference_db.iter_records()}
            detail = {
                "only_in_store": len(store_keys - ref_keys),
                "only_in_reference": len(ref_keys - store_keys),
            }
            reference_name = args.against
        else:
            last = db.last_snapshot()
            if last is None:
                raise DependencyDataError(
                    f"{args.database} has no snapshots to diff against; "
                    f"run `indaas db snapshot` first or pass --against"
                )
            reference = last.digest
            detail = {"snapshot_seq": last.seq, "snapshot_label": last.label}
            reference_name = f"snapshot #{last.seq}"
        changed = current != reference
    outcome = {
        "database": args.database,
        "reference": reference_name,
        "content_hash": current,
        "reference_hash": reference,
        "changed": changed,
        **detail,
    }
    if args.json:
        print(json.dumps(outcome, sort_keys=True))
    elif changed:
        extras = ", ".join(
            f"{k}={v}" for k, v in detail.items() if k.startswith("only_in")
        )
        print(
            f"{args.database} differs from {reference_name}"
            + (f" ({extras})" if extras else "")
        )
    else:
        print(f"{args.database} matches {reference_name} (no drift)")
    return 2 if changed else 0


def _run_audit_many(args: argparse.Namespace) -> int:
    from repro.engine import AuditEngine

    with AuditEngine(n_workers=args.workers) as engine:
        report = engine.audit_many(args.specs, title=args.title)
    if args.json:
        print(report.to_json())
        return 0
    print(report.render_text(top_rgs=args.top))
    unexpected = [
        audit.deployment
        for audit in report.ranked_deployments()
        if audit.has_unexpected_risk_groups
    ]
    if unexpected:
        print(
            f"!! {len(unexpected)} deployment(s) with unexpected risk "
            f"groups: {', '.join(unexpected)}"
        )
    return 0


def _run_watch(args: argparse.Namespace) -> int:
    import json
    import signal

    from repro.engine import AuditEngine
    from repro.service import WatchService

    engine = AuditEngine(n_workers=args.workers, block_size=args.block_size)
    service = WatchService(
        args.specs,
        engine=engine,
        interval=args.interval,
        include_report=args.full,
    )

    def emit(entry: dict) -> None:
        print(json.dumps(entry, sort_keys=True), flush=True)

    def request_stop(signum, frame) -> None:
        service.request_stop()

    try:
        # Graceful shutdown: finish the in-flight iteration, then exit 0.
        signal.signal(signal.SIGTERM, request_stop)
        signal.signal(signal.SIGINT, request_stop)
    except ValueError:
        pass  # not the main thread (embedded run); signals stay external
    try:
        service.run(iterations=args.iterations, emit=emit)
    except KeyboardInterrupt:  # a service: Ctrl-C is the normal exit
        return 0
    finally:
        engine.close()
    return 0


def _parse_servers(raw: str) -> tuple[str, ...]:
    from repro.errors import SpecificationError

    servers = tuple(s.strip() for s in raw.split(",") if s.strip())
    if not servers:
        raise SpecificationError("no servers given")
    return servers


def _run_drift(args: argparse.Namespace) -> int:
    from repro.analysis import drift_report
    from repro.core.spec import AuditSpec
    from repro.depdb.database import DepDB
    from repro.failures import uniform_weigher

    before = DepDB.loads(_load_depdb_text(args.before))
    after = DepDB.loads(_load_depdb_text(args.after))
    servers = _parse_servers(args.servers)
    weigher = (
        uniform_weigher(args.probability)
        if args.probability is not None
        else None
    )
    report = drift_report(
        before,
        after,
        AuditSpec(deployment=" & ".join(servers), servers=servers),
        weigher=weigher,
    )
    print(report.diff.render_text())
    print()
    print(report.render_text())
    return 2 if report.regressed else 0


def _run_importance(args: argparse.Namespace) -> int:
    from repro.core.spec import AuditSpec
    from repro.depdb.database import DepDB
    from repro.engine.audit import SIAAuditor
    from repro.failures import uniform_weigher

    depdb = DepDB.loads(_load_depdb_text(args.depdb))
    servers = _parse_servers(args.servers)
    auditor = SIAAuditor(depdb, weigher=uniform_weigher(args.probability))
    spec = AuditSpec(deployment=" & ".join(servers), servers=servers)
    entries = auditor.component_importance(spec, top=args.top)
    print(f"component importance for {spec.deployment} "
          f"(uniform p={args.probability}):")
    for entry in entries:
        print("  ", entry.describe())
    return 0


def _run_plan(args: argparse.Namespace) -> int:
    import json

    from repro import api

    plan = api.plan(
        _load_depdb_text(args.depdb),
        _parse_servers(args.servers),
        probability=args.probability,
        top_k=args.top_k,
        budget=args.budget,
    )
    if args.json:
        print(json.dumps(plan.to_dict()))
    else:
        print(plan.render_text())
    return 0


def _run_pia(args: argparse.Namespace) -> int:
    import json

    from repro.errors import SpecificationError
    from repro.privacy.pia import PIAAuditor

    with open(args.sets, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SpecificationError(f"invalid component-set JSON: {exc}")
    report = PIAAuditor(
        payload,
        protocol=args.protocol,
        group_bits=args.group_bits,
        n_workers=args.workers,
    ).audit(ways=args.ways)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
        return 0
    print(report.render_text())
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.engine import AuditEngine
    from repro.service import AuditServer, JobManager

    injector = None
    if args.inject:
        from repro.testing.faults import FaultInjector, FaultSchedule

        schedule = FaultSchedule.from_path(args.inject)
        injector = FaultInjector(schedule)
        injector.__enter__()
        print(
            f"indaas serve: fault injection armed "
            f"({len(schedule)} faults, seed={schedule.seed})",
            file=sys.stderr,
            flush=True,
        )
    engine = AuditEngine(
        n_workers=args.engine_workers,
        block_size=args.block_size,
    )
    manager = JobManager(
        engine,
        workers=args.workers,
        per_tenant_limit=args.per_tenant,
        total_limit=args.queue_limit,
        state_dir=args.state_dir,
        resume=args.resume,
    )
    server = AuditServer(manager, host=args.host, port=args.port)

    async def run() -> None:
        await server.start()
        recovered = manager.stats()["journal"]["recovered_jobs"]
        durability = (
            f", journal at {args.state_dir} ({recovered} jobs recovered)"
            if args.state_dir
            else ""
        )
        print(
            f"indaas serve: listening on {server.url} "
            f"({args.workers} workers{durability})",
            file=sys.stderr,
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                signal.signal(signum, lambda *_: stop.set())
        serving = asyncio.ensure_future(server.serve_forever())
        await stop.wait()
        print(
            "indaas serve: draining in-flight jobs",
            file=sys.stderr,
            flush=True,
        )
        serving.cancel()
        await server.stop(drain=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # signal raced the handler install
        pass
    finally:
        engine.close()
        if injector is not None:
            injector.__exit__(None, None, None)
    return 0


def _run_example() -> int:
    from repro import (
        FaultSets,
        minimal_risk_groups,
        rank_by_probability,
        top_event_probability,
    )

    fault_sets = FaultSets.from_mapping(
        {"E1": {"A1": 0.1, "A2": 0.2}, "E2": {"A2": 0.2, "A3": 0.3}}
    )
    graph = fault_sets.to_fault_graph("figure-4b")
    groups = minimal_risk_groups(graph)
    probabilities = fault_sets.probabilities()
    top_probability = top_event_probability(groups, probabilities)
    print("minimal risk groups:", [sorted(g) for g in groups])
    print(f"Pr(top) = {top_probability:.3f}   (paper: 0.224)")
    for entry in rank_by_probability(groups, probabilities):
        print("  ", entry.describe())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve" and args.workers < 1:
        # A service with no audit thread would accept every job and
        # never run one.
        parser.error(f"serve --workers must be at least 1, got {args.workers}")
    try:
        if args.command == "case":
            return _run_case(args)
        if args.command == "topology":
            return _run_topology(args)
        if args.command == "audit":
            return _run_audit(args)
        if args.command == "db":
            return _run_db(args)
        if args.command == "audit-many":
            return _run_audit_many(args)
        if args.command == "watch":
            return _run_watch(args)
        if args.command == "drift":
            return _run_drift(args)
        if args.command == "importance":
            return _run_importance(args)
        if args.command == "plan":
            return _run_plan(args)
        if args.command == "pia":
            return _run_pia(args)
        if args.command == "serve":
            return _run_serve(args)
        return _run_example()
    except IndaasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # e.g. `indaas ... | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
