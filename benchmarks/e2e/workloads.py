"""The five workloads of the perf ledger (see README.md for the why).

Every input is a pure function of ``--seed`` (the ``*_inputs`` functions
below need no set-up, so tests can digest them).  Each workload drives
the system only through package-level names, once plainly (``op``, what
the end-to-end metrics time) and once stage by stage under spans
(``staged_op``, what the per-layer metrics time); the two must produce
the same bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import random
import statistics
import time
from pathlib import Path
from typing import Optional

import numpy as np

import repro
from repro import (
    AuditEngine,
    AuditSpec,
    ComponentSets,
    RankingMethod,
    RGAlgorithm,
    SIAAuditor,
    api,
    structural_hash,
)
from repro.acquisition import NetworkDependencyCollector
from repro.agents import ServiceClient
from repro.core import (
    build_dependency_graph,
    independence_score,
    is_minimal_risk_group,
    is_risk_group,
    minimal_risk_groups,
    rank_risk_groups,
    top_event_probability,
)
from repro.depdb import DepDB, NetworkDependency
from repro.engine import (
    DeltaAuditEngine,
    PersistentPool,
    extract_witnesses_batch,
    minimise_cuts_batch,
    plan_blocks,
    run_block,
)
from repro.errors import ServiceError
from repro.failures import uniform_weigher
from repro.service import JobManager, ServiceThread
from repro.topology import (
    INTERNET,
    TOPOLOGY_A,
    FatTreeConfig,
    fat_tree,
    fat_tree_routes,
)

from trace import Tracer



def digest(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def p50(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def timed(call) -> float:
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def fat_tree_server(rng: random.Random, config: FatTreeConfig, pod: int) -> str:
    half = config.ports // 2
    return f"srv-p{pod}-t{rng.randrange(half)}-{rng.randrange(half)}"


def collect(tr: Tracer, topology, servers, static_routes=None) -> list:
    with tr.span("acquisition.stream_s"):
        records = list(
            NetworkDependencyCollector(
                topology, servers=servers, static_routes=static_routes
            ).stream()
        )
    tr.count("acquisition.records", len(records))
    return records


def acquire(topology, servers) -> DepDB:
    """What every plain op does: stream the servers' routes into a DepDB."""
    depdb = DepDB()
    NetworkDependencyCollector(topology, servers=servers).adapt_into(depdb)
    return depdb


def staged_acquire(tr: Tracer, topology, servers) -> str:
    """The same, one span per layer, down to the Table-1 dump text."""
    records = collect(tr, topology, servers)
    depdb = DepDB()
    with tr.span("depdb.memory.ingest_s"):
        depdb.ingest(iter(records))
    with tr.span("depdb.dumps_s"):
        return depdb.dumps()


def hit_rate(info: dict) -> float:
    return info["hits"] / max(1, info["hits"] + info["misses"])


def no_span(name: str):
    return contextlib.nullcontext()


def report_groups(report_json: str) -> list[frozenset]:
    deployment = json.loads(report_json)["deployments"][0]
    return [frozenset(entry["events"]) for entry in deployment["ranking"]]


# --------------------------------------------------------------------- #
# The staged audit: the public calls ``api.execute_request`` makes, one
# span each, plus replays that split ``audit_graph`` and the kernel.
# --------------------------------------------------------------------- #


def unique_rows(rows: np.ndarray) -> np.ndarray:
    bits = np.unique(np.packbits(rows, axis=1), axis=0)
    return np.unpackbits(bits, axis=1, count=rows.shape[1]).astype(bool)


def replay_kernel(tr: Tracer, engine, graph, spec: AuditSpec) -> None:
    """Re-run the op's sampling blocks piece by piece, then whole."""
    compiled = engine.compile(graph)
    plan = plan_blocks(
        spec.sampling_rounds,
        engine.block_size,
        np.random.SeedSequence(spec.seed),
    )
    top = compiled.top_index
    for rounds, seed in zip(plan.rounds, plan.seeds):
        rng = np.random.default_rng(seed)
        with tr.span("core.compile.draw_s"):
            words = compiled.sample_failures_packed(
                rounds,
                None,
                rng,
                default_probability=spec.sampling_probability,
            )
        with tr.span("core.compile.evaluate_s"):
            node_words = compiled.evaluate_batch_packed(words)
        failing = np.flatnonzero(
            compiled.unpack_assignments(
                node_words[top:top + 1], np.arange(rounds)
            )[:, 0]
        )
        groups = 0
        if failing.size:
            with tr.span("core.compile.unpack_s"):
                values = compiled.unpack_assignments(node_words, failing)
            with tr.span("engine.batch.witness_s"):
                witnesses = extract_witnesses_batch(compiled, values, rng)
            witnesses = unique_rows(witnesses)
            with tr.span("engine.batch.minimise_s"):
                minimal = minimise_cuts_batch(compiled, witnesses, rng)
            groups = len(unique_rows(minimal))
            tr.count("engine.batch.witnesses", len(witnesses))
        tr.count("engine.batch.rounds", rounds)
        tr.count("engine.batch.failing", failing.size)
        tr.count("engine.batch.groups", groups)
        with tr.span("engine.batch.run_block"):
            outcome = run_block(
                compiled,
                rounds,
                np.random.default_rng(seed),
                default_probability=spec.sampling_probability,
            )
        if len(outcome.groups) != groups:
            raise AssertionError(
                f"kernel replay found {groups} groups, run_block "
                f"{len(outcome.groups)}"
            )


def replay_audit_graph(tr: Tracer, graph, groups, spec: AuditSpec) -> None:
    """Re-measure what ``audit_graph`` does besides sampling.

    ``groups`` is the sampled family in the order ``audit_graph`` got it;
    the exact family is recomputed here, both ways.
    """
    if spec.algorithm is RGAlgorithm.MINIMAL:
        with tr.span("core.minimal_rg.bdd_s"):
            groups = minimal_risk_groups(graph, max_order=spec.max_order)
        with tr.span("core.minimal_rg.mocus_s"):
            mocus = minimal_risk_groups(graph, spec.max_order, method="mocus")
        if groups != mocus:
            raise AssertionError("BDD and MOCUS families differ")
        tr.count("core.minimal_rg.groups", len(groups))
    if spec.ranking is RankingMethod.PROBABILITY:
        probabilities = graph.probabilities()
        with tr.span("core.probability.top_event_s"):
            top = top_event_probability(groups, probabilities)
        with tr.span("core.ranking.rank_s"):
            ranking = rank_risk_groups(
                groups,
                spec.ranking,
                probabilities=probabilities,
                top_probability=top,
            )
    else:
        with tr.span("core.ranking.rank_s"):
            ranking = rank_risk_groups(groups, spec.ranking)
    with tr.span("core.ranking.score_s"):
        independence_score(ranking, spec.ranking, top_n=spec.top_n)


def span_sample_spec(tr: Tracer, engine) -> list:
    """Put a span around ``engine.sample_spec`` (the one call into the
    sampling layer ``audit_graph`` makes); returns where results land."""
    sample_spec = engine.sample_spec
    results = []

    def traced_sample_spec(*args, **kwargs):
        with tr.span("engine.sample_s"):
            results.append(sample_spec(*args, **kwargs))
        return results[-1]

    engine.sample_spec = traced_sample_spec
    return results


def staged_audit(
    tr: Tracer, text: str, servers, params: dict, replay: bool
) -> str:
    """``repro.audit(text, servers, **params).to_json()``, span by span."""
    engine = AuditEngine(n_workers=1)
    with tr.span("api.request_build_s"):
        request = api.AuditRequest(
            servers=tuple(servers), depdb=text, **params
        )
        spec = request.to_spec()
    with tr.span("depdb.loads_s"):
        depdb = DepDB.loads(request.depdb)
    weigher = (
        uniform_weigher(request.probability)
        if request.probability is not None
        else None
    )
    auditor = SIAAuditor(depdb, weigher=weigher, engine=engine)
    with tr.span("core.builder.build_graph_s"):
        graph = auditor.build_graph(spec)
    with tr.span("engine.cache.structural_hash_s"):
        structural = structural_hash(graph)
    sampling = spec.algorithm is RGAlgorithm.SAMPLING
    if sampling:
        with tr.span("core.compile.compile_s"):
            engine.compile(graph)
    sampled = span_sample_spec(tr, engine)
    with tr.span("core.audit.audit_graph"):
        audit = auditor.audit_graph(graph, spec)
    if sampling != bool(sampled):
        raise AssertionError("audit_graph no longer calls engine.sample_spec")
    with tr.span("core.report.to_dict_s"):
        report = api.report_for_request(
            request, audit, structural_digest=structural
        )
    with tr.span("api.canonical_json_s"):
        data = report.to_json()
    tr.count("api.report_bytes", len(data))
    if replay:
        with tr.replay():
            groups = sampled[0].risk_groups if sampling else None
            replay_audit_graph(tr, graph, groups, spec)
            if sampling:
                replay_kernel(tr, engine, graph, spec)
    return data


def pipeline_metrics(tr: Tracer) -> dict:
    """The derived rows: what is left of a span after its replays."""
    metrics = {}
    blocks = tr.per_op("engine.batch.run_block")
    pieces = [
        tr.per_op(name)
        for name in (
            "core.compile.draw_s",
            "core.compile.evaluate_s",
            "core.compile.unpack_s",
            "engine.batch.witness_s",
            "engine.batch.minimise_s",
        )
    ]
    metrics["engine.batch.block_other_s"] = p50(
        [
            blocks[op] - sum(piece.get(op, 0.0) for piece in pieces)
            for op in blocks
        ]
    )
    samples = tr.per_op("engine.sample_s")
    metrics["engine.sample_other_s"] = p50(
        [samples[op] - blocks[op] for op in blocks if op in samples]
    )
    graph_self = tr.per_op("core.audit.audit_graph")
    replays = [
        tr.per_op(name)
        for name in (
            "core.minimal_rg.bdd_s",
            "core.probability.top_event_s",
            "core.ranking.rank_s",
            "core.ranking.score_s",
        )
    ]
    replayed = set().union(*(set(r) for r in replays)) & set(graph_self)
    metrics["core.audit.other_s"] = p50(
        [
            graph_self[op] - sum(r.get(op, 0.0) for r in replays)
            for op in replayed
        ]
    )
    totals = {
        name: sum(v for _, n, v in tr.counts if n == name)
        for name in (
            "engine.batch.rounds",
            "engine.batch.failing",
            "engine.batch.witnesses",
            "engine.batch.groups",
        )
    }
    if totals["engine.batch.rounds"]:
        metrics["engine.batch.failing_share"] = (
            totals["engine.batch.failing"] / totals["engine.batch.rounds"]
        )
    if totals["engine.batch.groups"]:
        metrics["engine.batch.witnesses_per_group"] = (
            totals["engine.batch.witnesses"] / totals["engine.batch.groups"]
        )
    return metrics


#: What ``engine.sample_s`` splits into (the replayed kernel).
KERNEL_LEAVES = (
    "core.compile.draw_s",
    "core.compile.evaluate_s",
    "core.compile.unpack_s",
    "engine.batch.witness_s",
    "engine.batch.minimise_s",
    "engine.batch.block_other_s",
    "engine.sample_other_s",
)
#: What one sampling audit (request in, report JSON out) splits into.
SAMPLING_AUDIT_LEAVES = (
    "api.request_build_s",
    "depdb.loads_s",
    "core.builder.build_graph_s",
    "engine.cache.structural_hash_s",
    "core.compile.compile_s",
    *KERNEL_LEAVES,
    "core.ranking.rank_s",
    "core.ranking.score_s",
    "core.audit.other_s",
    "core.report.to_dict_s",
    "api.canonical_json_s",
)


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #


class Workload:
    """One workload: set-up, plain ops, staged ops, checks, probes."""

    name = ""
    #: The measured phase is a whole number of cycles of this many ops.
    cycle = 1
    #: Ops planned per second of ``--seconds``: about 0.8 of what the
    #: reference box does, so the planned ops fit the window with room
    #: for a slow spell.  It fixes the op count; it is not a rate limit.
    ops_per_second = 1.0
    #: Whether op ``i`` can be run again and give the same bytes.
    idempotent = True
    #: Per-layer metrics that should add up to one audit op, and what
    #: the time they leave over is.
    leaves: tuple = ()
    rest = "(unattributed)"
    #: Staged audits whose pieces are also re-measured outside the critical
    #: path (a replay costs about two audits); the rest record
    #: critical-path spans only.  The replayed rows are medians over these.
    replayed_ops = 5
    #: (records, seconds as clocked) of the set-up's store ingest, if any.
    ingest: Optional[tuple[int, float]] = None

    def __init__(self, seed: int, scratch: Path, tracer: Tracer) -> None:
        self.seed = seed
        self.scratch = scratch
        self.tr = tracer
        #: op index -> (kind, output digest), filled by ``observe``.
        self.seen: dict[int, tuple[str, str]] = {}
        #: op index -> output, for the ops ``keeps`` selects.
        self.outputs: dict[int, str] = {}
        self.replays = 0

    def planned_ops(self, seconds: float) -> int:
        """How many ops a run of ``--seconds`` does: the same on any
        machine, so two runs of one seed do identical work."""
        cycles = round(self.ops_per_second * seconds / self.cycle)
        return self.cycle * max(1, cycles)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> tuple[str, str]:
        """Run op ``i``; returns its kind (audit|cached) and output."""
        raise NotImplementedError

    def staged_op(self, i: int) -> tuple[str, str]:
        raise NotImplementedError

    def replay_due(self) -> bool:
        self.replays += 1
        return self.replays <= self.replayed_ops

    def keeps(self, i: int) -> bool:
        """Whether ``check`` needs op ``i``'s whole output."""
        return False

    def observe(self, i: int, kind: str, data: str) -> str:
        """Called after each op, outside the timed window."""
        found = digest(data)
        self.seen[i] = (kind, found)
        if self.keeps(i):
            self.outputs[i] = data
        return found

    def kind_of(self, i: int) -> str:
        return self.seen[i][0]

    def check(self) -> list[str]:
        """Correctness failures, one message per wrong op."""
        raise NotImplementedError

    def probes(self, latencies: dict) -> dict:
        """Per-layer numbers spans cannot give (trace runs only)."""
        return {}

    def close(self) -> None:
        pass

    def rerun_matches(self, i: int) -> list[str]:
        _, data = self.op(i)
        if digest(data) != self.seen[i][1]:
            return [f"{self.name}: op {i} is not repeatable"]
        return []


# ---------------------------- cold_sampling ---------------------------- #

COLD_ROUNDS = 16_384
#: Share of the 294 exact minimal RGs of the k=8 stand-in that
#: COLD_ROUNDS of sampling must find (measured 0.37-0.41 on seeds 0..5;
#: the floor leaves room for an unlucky seed, not for a broken sampler).
COLD_DETECTION_FLOOR = 0.3
STAND_IN = FatTreeConfig(ports=8)


def cold_inputs(seed: int, i: int) -> dict:
    rng = random.Random(f"cold_sampling/{seed}/{i}")
    pods = rng.sample(range(TOPOLOGY_A.pods), 3)
    return {
        "servers": tuple(
            fat_tree_server(rng, TOPOLOGY_A, pod) for pod in pods
        ),
        "seed": rng.randrange(2**31),
    }


class ColdSampling(Workload):
    name = "cold_sampling"
    ops_per_second = 1.0
    leaves = (
        "topology.build_s",
        "acquisition.stream_s",
        "depdb.memory.ingest_s",
        "depdb.dumps_s",
    ) + SAMPLING_AUDIT_LEAVES

    def setup(self) -> None:
        pass  # cold means cold: every op starts from the topology

    @staticmethod
    def params(inputs: dict) -> dict:
        return {
            "algorithm": "sampling",
            "rounds": COLD_ROUNDS,
            "seed": inputs["seed"],
        }

    def op(self, i):
        inputs = cold_inputs(self.seed, i)
        depdb = acquire(fat_tree(TOPOLOGY_A), inputs["servers"])
        report = repro.audit(
            depdb.dumps(),
            inputs["servers"],
            engine=AuditEngine(n_workers=1),
            **self.params(inputs),
        )
        return "audit", report.to_json()

    def staged_op(self, i):
        tr = self.tr
        inputs = cold_inputs(self.seed, i)
        with tr.span("topology.build_s"):
            topology = fat_tree(TOPOLOGY_A)
        return "audit", staged_audit(
            tr,
            staged_acquire(tr, topology, inputs["servers"]),
            inputs["servers"],
            self.params(inputs),
            replay=self.replay_due(),
        )

    def keeps(self, i):
        return i < 3

    def check(self):
        failures = []
        topology = fat_tree(TOPOLOGY_A)
        for i in sorted(self.outputs):
            servers = cold_inputs(self.seed, i)["servers"]
            graph = build_dependency_graph(acquire(topology, servers), servers)
            groups = report_groups(self.outputs[i])
            if not groups or not all(is_risk_group(graph, g) for g in groups):
                failures.append(f"cold_sampling: op {i} reports a non-RG")
        rng = random.Random(f"cold_sampling/stand-in/{self.seed}")
        servers = [
            fat_tree_server(rng, STAND_IN, pod)
            for pod in rng.sample(range(STAND_IN.pods), 3)
        ]
        graph = build_dependency_graph(
            acquire(fat_tree(STAND_IN), servers), servers
        )
        found = AuditEngine(n_workers=1).sample(
            graph, COLD_ROUNDS, seed=self.seed
        )
        rate = found.detection_rate(minimal_risk_groups(graph))
        if rate < COLD_DETECTION_FLOOR:
            failures.append(
                f"cold_sampling: detected {rate:.2f} of the stand-in's "
                f"minimal RGs (floor {COLD_DETECTION_FLOOR})"
            )
        return failures + self.rerun_matches(0)


# --------------------------- exact_structural --------------------------- #

#: Topology A's default-algorithm audit takes ~5 s, too few ops for a
#: steady median in one run; k=12 is the same code path at ~0.7 s.
EXACT_TREE = FatTreeConfig(ports=12)
EXACT_PARAMS = {
    "algorithm": "minimal",
    "ranking": "probability",
    "probability": 0.1,
}


def exact_inputs(seed: int) -> dict:
    rng = random.Random(f"exact_structural/{seed}")
    servers = tuple(
        fat_tree_server(rng, EXACT_TREE, pod)
        for pod in rng.sample(range(EXACT_TREE.pods), 4)
    )
    return {
        "servers": servers,
        "pairs": tuple(itertools.combinations(servers, 2)),
    }


class ExactStructural(Workload):
    name = "exact_structural"
    cycle = 6  # every 2-way deployment among the 4 servers, then the merge
    ops_per_second = 1.2
    leaves = (
        "api.request_build_s",
        "depdb.loads_s",
        "core.builder.build_graph_s",
        "engine.cache.structural_hash_s",
        "core.minimal_rg.bdd_s",
        "core.probability.top_event_s",
        "core.ranking.rank_s",
        "core.ranking.score_s",
        "core.audit.other_s",
        "core.report.to_dict_s",
        "api.canonical_json_s",
    )

    def setup(self) -> None:
        tr = self.tr
        self.inputs = exact_inputs(self.seed)
        with tr.span("topology.build_s"):
            topology = fat_tree(EXACT_TREE)
        self.text = staged_acquire(tr, topology, self.inputs["servers"])
        #: Reports of the round in progress, plain and staged ops apart.
        self.rounds: dict[bool, list] = {False: [], True: []}
        self.best: list[dict] = []

    def finish_round(self, data: str, staged: bool) -> None:
        """After the sixth pair: merge, and name the best deployment."""
        reports = self.rounds[staged]
        reports.append(api.AuditReport.from_json(data))
        if len(reports) == len(self.inputs["pairs"]):
            merged = api.merge_reports(reports, "all 2-way deployments")
            self.best.append(
                {"best": merged.best(), "all": merged.deployments}
            )
            reports.clear()

    def pair(self, i: int) -> tuple:
        return self.inputs["pairs"][i % len(self.inputs["pairs"])]

    def op(self, i):
        report = repro.audit(
            self.text,
            self.pair(i),
            engine=AuditEngine(n_workers=1),
            **EXACT_PARAMS,
        )
        data = report.to_json()
        self.finish_round(data, staged=False)
        return "audit", data

    def staged_op(self, i):
        data = staged_audit(
            self.tr,
            self.text,
            self.pair(i),
            EXACT_PARAMS,
            replay=self.replay_due(),
        )
        with self.tr.span("api.merge_reports_s"):
            self.finish_round(data, staged=True)
        return "audit", data

    def keeps(self, i):
        return i == 0

    def check(self):
        failures = []
        depdb = DepDB.loads(self.text)
        graph = build_dependency_graph(depdb, self.inputs["pairs"][0])
        groups = report_groups(self.outputs[0])
        if not groups or not all(
            is_minimal_risk_group(graph, g) for g in groups
        ):
            failures.append("exact_structural: op 0 reports a non-minimal RG")
        for merged in self.best:
            lowest = min(
                d["failure_probability"] for d in merged["all"]
            )
            if (
                len(merged["all"]) != len(self.inputs["pairs"])
                or merged["best"]["failure_probability"] != lowest
            ):
                failures.append("exact_structural: wrong best deployment")
        return failures + self.rerun_matches(0)


# ----------------------------- pooled_small ----------------------------- #

SMALL_GRAPHS = 48
SMALL_ROUNDS = 768
SMALL_BLOCK = 256
SMALL_CHECKED_SHARE = 0.05


def small_inputs(seed: int) -> dict:
    """48 component-set graphs (§6.2.3 shape) and a Zipf(1.1) op stream.

    A graph's shape follows from its popularity rank, not from the seed:
    which shape is hot decides what an op costs, and the ledger compares
    runs of different seeds.  The seed draws which op audits which graph,
    and with which sampling seed.
    """
    rng = random.Random(f"pooled_small/{seed}")
    sets = []
    for g in range(SMALL_GRAPHS):
        shared = 1 + g % 3
        sets.append(
            {
                f"g{g}-P{p}": [f"g{g}-shared-{j}" for j in range(shared)]
                + [f"g{g}-p{p}-{j}" for j in range(5 - shared)]
                for p in range(3 + g % 2)
            }
        )
    draws = np.random.default_rng([seed, 1]).zipf(1.1, size=1 << 16)
    return {
        "sets": sets,
        "picks": ((draws - 1) % SMALL_GRAPHS).tolist(),
        "seed_base": rng.randrange(2**30),
    }


class PooledSmall(Workload):
    name = "pooled_small"
    ops_per_second = 150.0
    replayed_ops = 15
    leaves = (
        "engine.sample_s",
        "core.ranking.rank_s",
        "core.ranking.score_s",
        "core.audit.other_s",
        "core.report.to_dict_s",
        "api.canonical_json_s",
    )

    def setup(self) -> None:
        self.inputs = small_inputs(self.seed)
        self.graphs = [
            ComponentSets.from_mapping(mapping).to_fault_graph(f"small-{g}")
            for g, mapping in enumerate(self.inputs["sets"])
        ]
        self.workers = min(2, os.cpu_count() or 1)
        with self.tr.span("engine.pool.startup_s"):
            self.pool = PersistentPool(self.workers)
            self.engine = AuditEngine(
                n_workers=self.workers, block_size=SMALL_BLOCK, pool=self.pool
            )
            self.auditor = SIAAuditor(DepDB(), engine=self.engine)
            for g in range(SMALL_GRAPHS):
                self.auditor.audit_graph(self.graphs[g], self.spec(g, 0))
        self.inline = SIAAuditor(
            DepDB(), engine=AuditEngine(n_workers=1, block_size=SMALL_BLOCK)
        )
        self.stats_at_start = self.pool.stats()
        self.pool_ops = 0

    def spec(self, g: int, seed: int) -> AuditSpec:
        return AuditSpec(
            deployment=f"small-{g}",
            servers=tuple(self.inputs["sets"][g]),
            algorithm=RGAlgorithm.SAMPLING,
            sampling_rounds=SMALL_ROUNDS,
            seed=seed,
        )

    def pick(self, i: int) -> int:
        return self.inputs["picks"][i % len(self.inputs["picks"])]

    def audit(self, auditor: SIAAuditor, i: int) -> str:
        g = self.pick(i)
        spec = self.spec(g, self.inputs["seed_base"] + i)
        audit = auditor.audit_graph(self.graphs[g], spec)
        return api.canonical_json(audit.to_dict())

    def op(self, i):
        self.pool_ops += 1
        return "audit", self.audit(self.auditor, i)

    def staged_op(self, i):
        tr = self.tr
        self.pool_ops += 1
        g = self.pick(i)
        spec = self.spec(g, self.inputs["seed_base"] + i)
        sampled = span_sample_spec(tr, self.engine)
        try:
            with tr.span("core.audit.audit_graph"):
                audit = self.auditor.audit_graph(self.graphs[g], spec)
        finally:
            del self.engine.sample_spec
        with tr.span("core.report.to_dict_s"):
            document = audit.to_dict()
        with tr.span("api.canonical_json_s"):
            data = api.canonical_json(document)
        tr.count("api.report_bytes", len(data))
        if self.replay_due():
            with tr.replay():
                replay_audit_graph(
                    tr, self.graphs[g], sampled[0].risk_groups, spec
                )
                replay_kernel(
                    tr, self.inline.engine, self.graphs[g], spec
                )
        return "audit", data

    def check(self):
        failures = []
        rng = random.Random(f"pooled_small/check/{self.seed}")
        for i in sorted(self.seen):
            if rng.random() >= SMALL_CHECKED_SHARE:
                continue
            data = self.audit(self.inline, i)
            if digest(data) != self.seen[i][1]:
                failures.append(f"pooled_small: op {i} differs from inline")
                continue
            g = self.pick(i)
            groups = [
                frozenset(entry["events"])
                for entry in json.loads(data)["ranking"]
            ]
            if not groups or not all(
                is_risk_group(self.graphs[g], group) for group in groups
            ):
                failures.append(f"pooled_small: op {i} reports a non-RG")
        return failures

    def probes(self, latencies):
        stats = self.pool.stats()
        ops = max(1, self.pool_ops)
        delta = {
            key: stats[key] - self.stats_at_start[key]
            for key in ("tasks", "warm_hits", "cold_misses", "shipped_bytes")
        }
        # The same op stream through both engines, taking turns, so both
        # medians see the same machine and their ratio needs no yardstick.
        inline, pooled = [], []
        for i in range(min(300, len(self.seen))):
            inline.append(timed(lambda: self.audit(self.inline, i)))
            pooled.append(timed(lambda: self.audit(self.auditor, i)))
        lookups = delta["warm_hits"] + delta["cold_misses"]
        return {
            "engine.pool.warm_hit_rate": (
                delta["warm_hits"] / lookups if lookups else 0.0
            ),
            "engine.pool.shipped_bytes_per_audit": (
                delta["shipped_bytes"] / ops
            ),
            "engine.pool.tasks_per_audit": delta["tasks"] / ops,
            "engine.pool.respawns": stats["respawns"],
            "engine.pool.inline_blocks": stats["inline_blocks"],
            "engine.pool.inline_p50_s": p50(inline),
            "engine.pool.speedup_vs_inline": (
                p50(inline) / p50(pooled) if pooled else 0.0
            ),
            "engine.cache.hit_rate": hit_rate(
                self.inline.engine.info()["cache"]
            ),
        }

    def close(self) -> None:
        self.pool.close()


# ----------------------------- served_mixed ----------------------------- #

SERVED_TREE = FatTreeConfig(ports=8)
SERVED_ROUNDS = 4096
SERVED_TENANTS = 4
SERVED_WINDOW = 128
#: Cached repeats per cold request.  A cached answer costs ~1/15 of a
#: cold one, so 8:1 lets each kind take a comparable share of the wall
#: time and a regression of either moves audits_per_s.
SERVED_CACHED_PER_COLD = 8
#: Cycles of each paired mini-phase in the journal and in-process probes.
SERVED_PROBE_CYCLES = 12


def served_inputs(seed: int, i: int) -> dict:
    """Op ``i``: the cold request of its cycle, or a repeat of one of the
    last 128 cold requests."""
    cycle, slot = divmod(i, 1 + SERVED_CACHED_PER_COLD)
    cold = cycle
    if slot:
        rng = random.Random(f"served_mixed/{seed}/{i}")
        cold = rng.randrange(max(0, cycle - SERVED_WINDOW + 1), cycle + 1)
    rng = random.Random(f"served_mixed/{seed}/cold/{cold}")
    return {
        "kind": "cached" if slot else "audit",
        "cold": cold,
        "pods": tuple(sorted(rng.sample(range(SERVED_TREE.pods), 2))),
        "seed": rng.randrange(2**31),
        "tenant": f"tenant-{cold % SERVED_TENANTS}",
    }


def serve(state_dir: Optional[Path], **manager) -> ServiceThread:
    manager.setdefault("workers", 1)
    return ServiceThread(JobManager(state_dir=state_dir, **manager)).start()


class ServedMixed(Workload):
    name = "served_mixed"
    cycle = 1 + SERVED_CACHED_PER_COLD
    ops_per_second = 100.0
    replayed_ops = 15
    idempotent = False
    #: The wait is split by a local replay of the request; what the
    #: replay leaves of it is the server's own share.
    leaves = (
        "agents.transport.submit_s",
        "agents.transport.fetch_s",
    ) + SAMPLING_AUDIT_LEAVES
    rest = "(server side of the wait: HTTP, jobs, journal, thread hand-offs)"

    def setup(self) -> None:
        tr = self.tr
        rng = random.Random(f"served_mixed/{self.seed}")
        with tr.span("topology.build_s"):
            topology = fat_tree(SERVED_TREE)
        self.servers = [
            fat_tree_server(rng, SERVED_TREE, pod)
            for pod in range(SERVED_TREE.pods)
        ]
        self.text = staged_acquire(tr, topology, self.servers)
        self.handle = serve(self.scratch / "state")
        self.client = ServiceClient(self.handle.url)
        self.client.health()
        #: Submits the server answered from its report cache.
        self.cached_answers = 0

    def params(self, i: int, **overrides) -> tuple[tuple, dict]:
        inputs = served_inputs(self.seed, i)
        servers = tuple(self.servers[pod] for pod in inputs["pods"])
        return servers, {
            "algorithm": "sampling",
            "rounds": SERVED_ROUNDS,
            "seed": inputs["seed"],
            "tenant": inputs["tenant"],
            **overrides,
        }

    def request(self, i: int, **overrides) -> api.AuditRequest:
        servers, params = self.params(i, **overrides)
        return api.AuditRequest(servers=servers, depdb=self.text, **params)

    def remote(self, client: ServiceClient, i: int, span, **overrides):
        """submit -> long-poll -> fetch, as ``indaas audit --remote``."""
        with span("agents.transport.submit_s"):
            status = client.submit(self.request(i, **overrides))
        cached = status.cached
        if not status.is_terminal:
            with span("agents.transport.wait_s"):
                status = client.wait(status.job_id, timeout=120)
        with span("agents.transport.fetch_s"):
            data = client.report_bytes(job_id=status.job_id)
        return data.decode("utf-8"), cached

    def op(self, i):
        data, cached = self.remote(self.client, i, no_span)
        self.cached_answers += cached
        return served_inputs(self.seed, i)["kind"], data

    def staged_op(self, i):
        tr = self.tr
        kind = served_inputs(self.seed, i)["kind"]
        sent = self.client.request_count
        data, cached = self.remote(self.client, i, tr.span)
        self.cached_answers += cached
        if kind == "audit":
            tr.count(
                "agents.transport.requests_per_audit",
                self.client.request_count - sent,
            )
            if self.replay_due():
                with tr.replay():
                    servers, params = self.params(i)
                    local = staged_audit(tr, self.text, servers, params, True)
                if local != data:
                    raise AssertionError("staged bytes differ from served")
        return kind, data

    def check(self):
        failures = []
        cold: dict[int, str] = {}
        rng = random.Random(f"served_mixed/check/{self.seed}")
        for i in sorted(self.seen):
            kind, found = self.seen[i]
            request = served_inputs(self.seed, i)["cold"]
            if kind == "cached":
                if cold.get(request) != found:
                    failures.append(f"served_mixed: cached op {i} != cold")
                continue
            cold[request] = found
            if rng.random() < 0.05:
                servers, params = self.params(i)
                local = repro.audit(self.text, servers, **params).to_json()
                if digest(local) != found:
                    failures.append(f"served_mixed: op {i} != local audit")
        cached = sum(1 for kind, _ in self.seen.values() if kind == "cached")
        hits = self.handle.server.manager.stats()["cache_hits"]
        if not hits == self.cached_answers == cached:
            failures.append(
                f"served_mixed: {cached} cached ops, {self.cached_answers} "
                f"answered from cache, server counted {hits} hits"
            )
        return failures

    def mini_phase(self, handle: ServiceThread, tenant: str) -> dict:
        """Latencies of a few fresh cycles against another server."""
        latencies = {"audit": [], "cached": []}
        with ServiceClient(handle.url) as client:
            for i in range(SERVED_PROBE_CYCLES * self.cycle):
                started = time.perf_counter()
                self.remote(client, i, no_span, tenant=tenant)
                elapsed = time.perf_counter() - started
                latencies[served_inputs(self.seed, i)["kind"]].append(elapsed)
        return latencies

    def probes(self, latencies):
        metrics = {}
        manager = self.handle.server.manager
        stats = manager.stats()
        metrics["service.jobs.cache_hit_share"] = stats["cache_hits"] / max(
            1, sum(stats["jobs"].values())
        )
        metrics["engine.cache.hit_rate"] = hit_rate(
            manager.engine.info()["cache"]
        )
        metrics["service.server.healthz_s"] = p50(
            [timed(self.client.health) for _ in range(50)]
        )

        # Journal cost seen from outside: the same mix against a fresh
        # server with and without a state_dir (JobJournal is not a
        # package-level name, so it is never called directly).
        phases = {}
        for label, state_dir in (
            ("plain", None),
            ("journalled", self.scratch / "state-probe"),
        ):
            handle = serve(state_dir)
            try:
                phases[label] = self.mini_phase(handle, "probe")
            finally:
                handle.stop(drain=False)
        for metric, kind in (
            ("service.journal.overhead_s", "audit"),
            ("service.journal.cached_overhead_s", "cached"),
        ):
            metrics[metric] = p50(phases["journalled"][kind]) - p50(
                phases["plain"][kind]
            )

        inproc = JobManager(workers=1, state_dir=self.scratch / "state-inproc")
        try:
            samples = []
            for cycle in range(SERVED_PROBE_CYCLES):
                request = self.request(cycle * self.cycle)
                started = time.perf_counter()
                job = inproc.submit(request)
                key = inproc.wait(job.id, timeout=120).report_key
                inproc.report_bytes(key)
                samples.append(time.perf_counter() - started)
            metrics["service.jobs.inproc_p50_s"] = p50(samples)
        finally:
            inproc.shutdown(drain=False)

        refusing = serve(None, workers=0, per_tenant_limit=2)
        try:
            with ServiceClient(refusing.url, retry=None) as client:
                requests = [
                    self.request(cycle * self.cycle, tenant="crowded")
                    for cycle in range(3)
                ]
                client.submit(requests[0])
                client.submit(requests[1])
                started = time.perf_counter()
                try:
                    client.submit(requests[2])
                    rejected = 0
                except ServiceError as error:
                    rejected = int(error.status == 429)
                metrics["service.admission.reject_s"] = (
                    time.perf_counter() - started
                )
                metrics["service.admission.rejected"] = rejected
        finally:
            refusing.stop(drain=False)

        wire = self.request(0).to_json()
        parsed = api.AuditRequest.from_json(wire)
        metrics["api.request_parse_s"] = p50(
            [timed(lambda: api.AuditRequest.from_json(wire)) for _ in range(50)]
        )
        metrics["api.fingerprint_s"] = p50(
            [timed(parsed.fingerprint) for _ in range(50)]
        )
        return metrics

    def close(self) -> None:
        self.client.close()
        self.handle.stop(drain=False)


# ------------------------------ store_delta ------------------------------ #

#: Topology A's 65 536 records make each store audit ~1.3 s, too few
#: cycles for a steady median in one run; k=12 (15 552 records) runs the
#: same hash / snapshot / query code at ~0.3 s per audit.
STORE_TREE = FatTreeConfig(ports=12)
STORE_ROUNDS = 4096
#: Re-routed records per drift.  Records cannot be removed, so a large
#: drift would grow the audited graph from cycle to cycle and the audit
#: with it; four keeps op cost stationary over a run.
STORE_DRIFT_RECORDS = 4


def store_inputs(seed: int) -> dict:
    rng = random.Random(f"store_delta/{seed}")
    return {
        "servers": tuple(
            fat_tree_server(rng, STORE_TREE, pod)
            for pod in rng.sample(range(STORE_TREE.pods), 3)
        ),
        "seed": rng.randrange(2**31),
    }


def store_drift(servers: tuple, cycle: int) -> list[NetworkDependency]:
    """Cycle ``cycle`` re-routes one audited server through a middlebox."""
    server = servers[cycle % len(servers)]
    routes = fat_tree_routes(STORE_TREE, server)[:STORE_DRIFT_RECORDS]
    return [
        NetworkDependency(
            src=server, dst=INTERNET, route=route + (f"middlebox-{cycle}",)
        )
        for route in routes
    ]


def store_output(audit, structural: str, content: str) -> str:
    return api.canonical_json(
        {
            "audit": audit.to_dict(),
            "structural_hash": structural,
            "content_hash": content,
        }
    )


class StoreDelta(Workload):
    name = "store_delta"
    cycle = 2
    ops_per_second = 2.2
    idempotent = False
    leaves = (
        "depdb.sqlite.content_hash_s",
        "engine.incremental.build_graph_s",
        "engine.cache.structural_hash_s",
        "engine.incremental.audit_built_s",
        *KERNEL_LEAVES,
        "core.ranking.rank_s",
        "core.ranking.score_s",
        "depdb.sqlite.snapshot_s",
    )

    def setup(self) -> None:
        tr = self.tr
        self.inputs = store_inputs(self.seed)
        with tr.span("topology.build_s"):
            topology = fat_tree(STORE_TREE)
        names = [device.name for device in topology.servers()]
        self.records = collect(
            tr,
            topology,
            names,
            static_routes={
                name: fat_tree_routes(STORE_TREE, name) for name in names
            },
        )
        self.path = self.scratch / "store.sqlite"
        self.store = DepDB.sqlite(self.path)
        started = time.perf_counter()
        with tr.span("depdb.sqlite.ingest_s"):
            self.store.ingest(iter(self.records))
        self.ingest = (len(self.records), time.perf_counter() - started)
        self.engine = DeltaAuditEngine(n_workers=1)
        self.spec = AuditSpec(
            deployment="store-delta",
            servers=self.inputs["servers"],
            algorithm=RGAlgorithm.SAMPLING,
            sampling_rounds=STORE_ROUNDS,
            seed=self.inputs["seed"],
        )
        # The first audit of a store has no snapshot to diff against;
        # the measured ones all do.
        self.engine.audit_store(self.store, self.spec)
        #: op index -> (changed, cache_hit) as the engine reported them.
        self.flags: dict[int, tuple[bool, bool]] = {}

    def drift(self, i: int) -> str:
        cycle, cached = divmod(i, 2)
        if not cached:
            self.store.ingest(iter(store_drift(self.inputs["servers"], cycle)))
        return "cached" if cached else "audit"

    def op(self, i):
        kind = self.drift(i)
        outcome = self.engine.audit_store(self.store, self.spec)
        self.flags[i] = (outcome.changed, outcome.cache_hit)
        return kind, store_output(
            outcome.audit, outcome.structural_hash, outcome.content_hash
        )

    def staged_op(self, i):
        """``DeltaAuditEngine.audit_store``, one span per public call."""
        tr = self.tr
        kind = self.drift(i)
        with tr.span("depdb.sqlite.content_hash_s"):
            content = self.store.content_hash()
            last = self.store.last_snapshot()
        auditor = SIAAuditor(self.store, engine=self.engine)
        with tr.span("engine.incremental.build_graph_s"):
            graph = auditor.build_graph(self.spec)
        with tr.span("engine.cache.structural_hash_s"):
            structural = structural_hash(graph)
        sampled = span_sample_spec(tr, self.engine)
        try:
            with tr.span("engine.incremental.audit_built_s"):
                audit, hit = self.engine.audit_built(
                    auditor, graph, self.spec
                )
        finally:
            del self.engine.sample_spec
        with tr.span("depdb.sqlite.snapshot_s"):
            self.store.snapshot(structural)
        self.flags[i] = (last is None or last.digest != content, hit)
        if kind == "audit" and self.replay_due():
            with tr.replay():
                replay_audit_graph(
                    tr, graph, sampled[0].risk_groups, self.spec
                )
                replay_kernel(tr, self.engine, graph, self.spec)
        data = store_output(audit, structural, content)
        tr.count("api.report_bytes", len(data))
        return kind, data

    def check(self):
        failures = []
        for i, (changed, hit) in sorted(self.flags.items()):
            if (changed, hit) != ((False, True) if i % 2 else (True, False)):
                failures.append(
                    f"store_delta: op {i} changed={changed} cache_hit={hit}"
                )
        for i in sorted(self.seen):
            if i % 2 and self.seen[i][1] != self.seen[i - 1][1]:
                failures.append(
                    f"store_delta: re-audit {i} != drifted audit {i - 1}"
                )
        # The store's answer is the answer of a cold audit of its records.
        cold = DeltaAuditEngine(n_workers=1).audit_store(
            DepDB(self.store.iter_records()), self.spec, record_snapshot=False
        )
        output = store_output(
            cold.audit, cold.structural_hash, cold.content_hash
        )
        if digest(output) != self.seen[max(self.seen)][1]:
            failures.append("store_delta: store audit != cold audit")
        graph = build_dependency_graph(self.store, self.inputs["servers"])
        if not all(
            is_risk_group(graph, entry.events) for entry in cold.audit.ranking
        ):
            failures.append("store_delta: reports a non-RG")
        return failures

    def probes(self, latencies):
        servers = self.inputs["servers"]
        hits = sum(1 for _, hit in self.flags.values() if hit)
        return {
            "depdb.memory.ingest_s": timed(
                lambda: DepDB().ingest(iter(self.records))
            ),
            "depdb.sqlite.replay_s": timed(
                lambda: sum(1 for _ in self.store.iter_records())
            ),
            "depdb.sqlite.query_s": p50(
                [
                    timed(
                        lambda: [self.store.network_paths(s) for s in servers]
                    )
                    for _ in range(20)
                ]
            ),
            "depdb.sqlite.dumps_s": timed(self.store.dumps),
            "depdb.sqlite.bytes_per_record": self.path.stat().st_size
            / len(self.store),
            "engine.incremental.result_hit_share": hits
            / max(1, len(self.flags)),
            "engine.cache.hit_rate": hit_rate(self.engine.info()["cache"]),
        }

    def close(self) -> None:
        self.store.close()


WORKLOADS = {
    w.name: w
    for w in (ColdSampling, ExactStructural, PooledSmall, ServedMixed, StoreDelta)
}


def input_digest(name: str, seed: int, ops: int = 40) -> str:
    """Digest of the first ``ops`` generated inputs (no set-up needed)."""
    if name == "cold_sampling":
        inputs = [cold_inputs(seed, i) for i in range(ops)]
    elif name == "exact_structural":
        inputs = exact_inputs(seed)
    elif name == "pooled_small":
        small = small_inputs(seed)
        inputs = [small["sets"], small["picks"][:ops], small["seed_base"]]
    elif name == "served_mixed":
        inputs = [served_inputs(seed, i) for i in range(ops)]
    elif name == "store_delta":
        store = store_inputs(seed)
        inputs = [
            store,
            [
                [list(r.route) for r in store_drift(store["servers"], c)]
                for c in range(ops)
            ],
        ]
    else:
        raise KeyError(name)
    return digest(json.dumps(inputs, sort_keys=True))
