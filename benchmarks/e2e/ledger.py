"""What the ledger measures and how its numbers are summarised.

Shared by ``run.py`` (produces ledgers), ``compare.py`` (diffs two) and
``test_harness.py``.  ``BENCHMARK.json`` at the repo root is the source
of truth for metric names, units, directions and bounds; the per-layer
registry below says how each per-layer metric is obtained.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RESULTS = ROOT / "benchmarks" / "results" / "e2e"


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# --------------------------------------------------------------------- #
# Summaries
# --------------------------------------------------------------------- #

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q`` quantile, or None with fewer than ten samples beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median.

    Quartile distance (``statistics.quantiles(n=4)``, as the driver takes
    it) with four or more values; the full range with fewer.
    """
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(middle)
    return (max(values) - min(values)) / abs(middle)


# --------------------------------------------------------------------- #
# Per-layer registry: (name, unit, better, how)
#   stage  - median self time per op of the span with that name
#   count  - the count with that name, summed over the first op that has it
#   derived/probe - computed by the workload (see workloads.py)
# --------------------------------------------------------------------- #

PER_LAYER = [
    # pipeline stages -> audit_p50_s on cold_sampling / exact_structural
    ("topology.build_s", "s", "lower", "stage"),
    ("acquisition.stream_s", "s", "lower", "stage"),
    ("acquisition.records", "count", "lower", "count"),
    ("depdb.memory.ingest_s", "s", "lower", "stage"),
    ("depdb.dumps_s", "s", "lower", "stage"),
    ("depdb.loads_s", "s", "lower", "stage"),
    ("api.request_build_s", "s", "lower", "stage"),
    ("core.builder.build_graph_s", "s", "lower", "stage"),
    ("engine.cache.structural_hash_s", "s", "lower", "stage"),
    ("core.compile.compile_s", "s", "lower", "stage"),
    ("engine.sample_s", "s", "lower", "stage"),
    ("core.ranking.rank_s", "s", "lower", "stage"),
    ("core.ranking.score_s", "s", "lower", "stage"),
    ("core.audit.other_s", "s", "lower", "derived"),
    ("core.report.to_dict_s", "s", "lower", "stage"),
    ("api.canonical_json_s", "s", "lower", "stage"),
    ("api.report_bytes", "count", "lower", "count"),
    # kernel split (replayed blocks) -> audit_p50_s, cpu_s_per_audit
    ("core.compile.draw_s", "s", "lower", "stage"),
    ("core.compile.evaluate_s", "s", "lower", "stage"),
    ("core.compile.unpack_s", "s", "lower", "stage"),
    ("engine.batch.witness_s", "s", "lower", "stage"),
    ("engine.batch.minimise_s", "s", "lower", "stage"),
    ("engine.batch.block_other_s", "s", "lower", "derived"),
    ("engine.sample_other_s", "s", "lower", "derived"),
    ("engine.batch.rounds", "count", "lower", "count"),
    ("engine.batch.failing_share", "ratio", "lower", "derived"),
    ("engine.batch.witnesses_per_group", "ratio", "lower", "derived"),
    # exact route -> audit_p50_s on exact_structural
    ("core.minimal_rg.bdd_s", "s", "lower", "stage"),
    ("core.minimal_rg.mocus_s", "s", "lower", "stage"),
    ("core.minimal_rg.groups", "count", "lower", "count"),
    ("core.probability.top_event_s", "s", "lower", "stage"),
    # pool -> pooled_small
    ("engine.pool.startup_s", "s", "lower", "stage"),
    ("engine.pool.warm_hit_rate", "ratio", "higher", "probe"),
    ("engine.pool.shipped_bytes_per_audit", "count", "lower", "probe"),
    ("engine.pool.tasks_per_audit", "count", "lower", "probe"),
    ("engine.pool.respawns", "count", "lower", "probe"),
    ("engine.pool.inline_blocks", "count", "lower", "probe"),
    ("engine.pool.inline_p50_s", "s", "lower", "probe"),
    ("engine.pool.speedup_vs_inline", "ratio", "higher", "probe"),
    ("engine.cache.hit_rate", "ratio", "higher", "probe"),
    # service -> served_mixed
    ("agents.transport.submit_s", "s", "lower", "stage"),
    ("agents.transport.wait_s", "s", "lower", "stage"),
    ("agents.transport.fetch_s", "s", "lower", "stage"),
    ("agents.transport.requests_per_audit", "count", "lower", "count"),
    ("service.server.healthz_s", "s", "lower", "probe"),
    ("service.jobs.inproc_p50_s", "s", "lower", "probe"),
    ("service.journal.overhead_s", "s", "lower", "probe"),
    ("service.journal.cached_overhead_s", "s", "lower", "probe"),
    ("service.jobs.cache_hit_share", "ratio", "higher", "probe"),
    ("service.admission.reject_s", "s", "lower", "probe"),
    ("service.admission.rejected", "count", "lower", "probe"),
    ("api.request_parse_s", "s", "lower", "probe"),
    ("api.fingerprint_s", "s", "lower", "probe"),
    # store -> store_delta
    ("depdb.sqlite.ingest_s", "s", "lower", "stage"),
    ("depdb.sqlite.content_hash_s", "s", "lower", "stage"),
    ("depdb.sqlite.snapshot_s", "s", "lower", "stage"),
    ("depdb.sqlite.replay_s", "s", "lower", "probe"),
    ("depdb.sqlite.query_s", "s", "lower", "probe"),
    ("depdb.sqlite.dumps_s", "s", "lower", "probe"),
    ("depdb.sqlite.bytes_per_record", "count", "lower", "probe"),
    ("engine.incremental.build_graph_s", "s", "lower", "stage"),
    ("engine.incremental.audit_built_s", "s", "lower", "stage"),
    ("engine.incremental.result_hit_share", "ratio", "higher", "probe"),
    # trace health
    ("trace.coverage", "ratio", "higher", "probe"),
    ("trace.overhead_share", "ratio", "lower", "probe"),
]


#: What a user sees on some workloads only: name -> (unit, better, bound).
#: ``BENCHMARK.json`` wants every end-to-end metric on every workload, so
#: these are kept beside it; the ledger form and ``compare.py`` report
#: them for the workloads that have them, with no row elsewhere.
WORKLOAD_ONLY = {
    "audit_p95_s": ("s", "lower", 0.20),
    "cached_p50_s": ("s", "lower", 0.25),
    "ingest_records_per_s": ("1/s", "higher", 0.15),
}

#: Per-layer counts that must repeat exactly between two runs of one seed.
#: ``agents.transport.requests_per_audit`` is not among them: how many
#: long-polls a wait takes depends on when the job's events land.
EXACT_COUNTS = (
    "acquisition.records",
    "engine.batch.rounds",
    "engine.pool.tasks_per_audit",
    "core.minimal_rg.groups",
    "api.report_bytes",
)


# --------------------------------------------------------------------- #
# Machine fingerprint
# --------------------------------------------------------------------- #


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def fingerprint() -> dict:
    import numpy

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "platform": sys.platform,
    }


def fingerprint_slug(fp: dict) -> str:
    """File-name form: what must match for two ledgers to be comparable."""
    cpu = "".join(c if c.isalnum() else "-" for c in fp["cpu_model"].lower())
    cpu = "-".join(part for part in cpu.split("-") if part)
    return f"{cpu}_x{fp['nproc']}_py{fp['python']}_np{fp['numpy']}"
