"""Parallel, batched, cached analysis engine (see DESIGN.md).

This package is the scaling layer on top of the §4.1 analysis core:

* :mod:`repro.engine.cache` — structural-hash keyed compilation cache
  and the plain :class:`LRUCache` the result caches are made of;
* :mod:`repro.engine.batch` — whole-block NumPy witness extraction and
  greedy cut minimisation (no per-round Python on the hot path);
* :mod:`repro.engine.parallel` — deterministic block sharding with
  ``SeedSequence.spawn``, the inline block and job loops, cancellation;
* :mod:`repro.engine.pool` — the worker processes: one persistent pool
  with content-addressed graph shipping;
* :mod:`repro.engine.specset` — loading and validating deployment spec
  sets (:class:`AuditJob`), shared by the fan-out and the cached loop;
* :mod:`repro.engine.facade` — the one engine, :class:`AuditEngine`,
  with its audit result cache, consumed by
  :class:`~repro.core.audit.SIAAuditor`, the what-if analysis, the
  shared request executor, the service and the CLI verbs;
* :mod:`repro.engine.incremental` — the diff the result cache is keyed
  and reported by: graph diffing, spec-set deltas, store-audit outcomes
  (the ``indaas watch`` loop over them is :mod:`repro.service.watch`).

The package sits above :mod:`repro.core` and imports it freely;
``core`` reaches back up only from inside functions.
"""

from repro.engine.batch import (
    BlockOutcome,
    extract_witnesses_batch,
    minimise_cuts_batch,
    run_block,
)
from repro.engine.cache import (
    GraphCache,
    LRUCache,
    compile_cached,
    default_cache,
    structural_hash,
)
from repro.engine.facade import AuditEngine
from repro.engine.incremental import (
    DeltaAuditReport,
    GraphDelta,
    graph_delta,
)
from repro.engine.parallel import (
    BlockPlan,
    map_jobs,
    plan_blocks,
    resolve_workers,
    run_plan_serial,
)
from repro.engine.pool import PersistentPool
from repro.engine.specset import AuditJob, load_audit_job, load_spec_set

# The frozen ledger harness still imports this name; the next
# [benchmark] change switches it to AuditEngine and deletes the alias.
DeltaAuditEngine = AuditEngine

__all__ = [
    "AuditEngine",
    "AuditJob",
    "BlockOutcome",
    "BlockPlan",
    "DeltaAuditReport",
    "GraphCache",
    "GraphDelta",
    "LRUCache",
    "PersistentPool",
    "compile_cached",
    "default_cache",
    "extract_witnesses_batch",
    "graph_delta",
    "load_audit_job",
    "load_spec_set",
    "map_jobs",
    "minimise_cuts_batch",
    "plan_blocks",
    "resolve_workers",
    "run_block",
    "run_plan_serial",
    "structural_hash",
]
