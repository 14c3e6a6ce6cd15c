"""Randomized parity harness (ISSUE 2 satellite).

Extends the PR-1 determinism contract to the incremental layer with a
seeded fuzzer: for ~20 randomly generated small deployments, the serial
:class:`FailureSampler`, :meth:`AuditEngine.sample` and a delta audit
after a no-op diff must be bit-identical per ``(seed, block_size)``.

Everything derives from one master seed, so a failure reproduces
exactly; bump ``SPEC_COUNT`` locally to fuzz harder.
"""

import numpy as np
import pytest

from repro import AuditSpec, FailureSampler, RGAlgorithm, SIAAuditor
from repro.core.componentset import ComponentSets
from repro.depdb import DepDB
from repro.depdb.records import HardwareDependency
from repro.engine import AuditEngine
from repro.engine import AuditJob

MASTER_SEED = 0xC0FFEE
SPEC_COUNT = 20
BLOCK_SIZES = (256, 1000, 4096)


def random_component_sets(rng: np.random.Generator) -> dict[str, list[str]]:
    """A random k-provider deployment with a random shared pool."""
    providers = int(rng.integers(2, 4))
    shared = int(rng.integers(1, 5))
    sets = {}
    for i in range(providers):
        exclusive = int(rng.integers(2, 9))
        members = [f"shared-{j}" for j in range(shared) if rng.random() < 0.8]
        members += [f"p{i}-{j}" for j in range(exclusive)]
        if not members:
            members = [f"p{i}-0"]
        sets[f"P{i}"] = members
    return sets


def random_cases():
    """The deterministic fuzz corpus: (graph, rounds, seed, block_size)."""
    rng = np.random.default_rng(MASTER_SEED)
    cases = []
    for index in range(SPEC_COUNT):
        sets = random_component_sets(rng)
        graph = ComponentSets.from_mapping(sets).to_fault_graph(
            f"random-{index}"
        )
        rounds = int(rng.integers(500, 5_000))
        seed = int(rng.integers(0, 2**31))
        block_size = int(rng.choice(BLOCK_SIZES))
        cases.append(
            pytest.param(
                graph,
                rounds,
                seed,
                block_size,
                id=f"spec{index}-b{block_size}-r{rounds}",
            )
        )
    return cases


@pytest.mark.parametrize("graph,rounds,seed,block_size", random_cases())
def test_serial_engine_and_noop_delta_are_bit_identical(
    graph, rounds, seed, block_size
):
    serial = FailureSampler(graph, seed=seed, batch_size=block_size).run(
        rounds
    )
    engine = AuditEngine(block_size=block_size).sample(
        graph, rounds, seed=seed
    )
    delta_engine = AuditEngine(block_size=block_size)
    cold = delta_engine.sample(graph, rounds, seed=seed)
    # A no-op diff: the same structure re-audited on the same engine
    # must not change a bit.
    noop = delta_engine.sample(graph.copy(), rounds, seed=seed)

    for result in (engine, cold, noop):
        assert result.risk_groups == serial.risk_groups
        assert result.top_failures == serial.top_failures
        assert result.top_probability_estimate == serial.top_probability_estimate
        assert result.unique_failure_sets == serial.unique_failure_sets


def random_depdb_jobs():
    """A handful of random DepDB-backed sampling audit specs."""
    rng = np.random.default_rng(MASTER_SEED + 1)
    jobs = []
    for index in range(6):
        sets = random_component_sets(rng)
        depdb = DepDB(
            HardwareDependency(hw=provider, type="component", dep=element)
            for provider in sets
            for element in sets[provider]
        )
        servers = tuple(sorted(sets))
        spec = AuditSpec(
            deployment=f"random-deployment-{index}",
            servers=servers,
            algorithm=RGAlgorithm.SAMPLING,
            sampling_rounds=int(rng.integers(1_000, 4_000)),
            seed=int(rng.integers(0, 2**31)),
        )
        jobs.append(
            pytest.param(
                AuditJob(depdb=depdb, spec=spec), id=f"deployment{index}"
            )
        )
    return jobs


@pytest.mark.parametrize("job", random_depdb_jobs())
def test_audit_parity_plain_engine_and_noop_delta(job):
    plain = SIAAuditor(job.depdb).audit_deployment(job.spec)
    engineered = SIAAuditor(
        job.depdb, engine=AuditEngine()
    ).audit_deployment(job.spec)
    delta_engine = AuditEngine()
    outcome = delta_engine.audit_delta(None, [job])
    noop = delta_engine.audit_delta([job], [job])
    assert noop.reused == (job.spec.deployment,)

    for audit in (engineered, outcome.report.audits[0], noop.report.audits[0]):
        assert [e.events for e in audit.ranking] == [
            e.events for e in plain.ranking
        ]
        assert audit.score == plain.score
        assert audit.failure_probability == plain.failure_probability
        assert audit.notes == plain.notes
