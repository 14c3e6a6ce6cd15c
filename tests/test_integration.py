"""Cross-module integration tests: the full Figure-1 lifecycle.

One story, end to end: a provider builds its substrate, acquisition
modules fill DepDBs, the agent audits (SIA and PIA), configuration
drifts, and the periodic audit catches the regression.
"""

import pytest

from repro import (
    AuditSpec,
    DetailLevel,
    RGAlgorithm,
    SIAAuditor,
    minimal_risk_groups,
)
from repro.acquisition import (
    HardwareInventoryCollector,
    LogMiningCollector,
    NetworkDependencyCollector,
    SoftwarePackageCollector,
    acquire_into,
    generate_logs,
)
from repro.analysis import drift_report
from repro.core.bdd import compile_graph
from repro.depdb import DepDB
from repro.hwinventory import generate_inventory
from repro.privacy import PIAAuditor
from repro.swinventory import generate_universe
from repro.topology import FatTreeConfig, fat_tree, fat_tree_routes


@pytest.fixture(scope="module")
def fleet_depdb() -> tuple[DepDB, list[str]]:
    """A small fat-tree cloud with all four acquisition modules."""
    config = FatTreeConfig(ports=4)
    topology = fat_tree(config)
    servers = [f"srv-p{p}-t0-0" for p in range(3)]
    static = {s: fat_tree_routes(config, s) for s in servers}

    universe = generate_universe(packages=60, seed=5)
    programs = [n for n in universe.names() if n.startswith("lib-l")][:3]
    inventory = generate_inventory(servers, batch_size=2, seed=5)

    logs = generate_logs(
        {("frontend", "authdb"): 5},
        {("frontend", f"{programs[0]}@1.0"): 3},
        seed=5,
    )
    depdb = DepDB()
    acquire_into(
        depdb,
        [
            NetworkDependencyCollector(
                topology, servers=servers, static_routes=static
            ),
            HardwareInventoryCollector(inventory.as_mapping()),
            SoftwarePackageCollector(
                universe, {s: [programs[i]] for i, s in enumerate(servers)}
            ),
            LogMiningCollector(
                logs,
                host_of={"frontend": servers[0], "authdb": servers[1]},
                min_support=2,
            ),
        ],
    )
    return depdb, servers


class TestFullSIALifecycle:
    def test_every_level_of_detail_audits(self, fleet_depdb):
        depdb, servers = fleet_depdb
        auditor = SIAAuditor(depdb, weigher=lambda k, i: 0.05)
        for level in DetailLevel:
            audit = auditor.audit_deployment(
                AuditSpec(
                    deployment=f"lvl-{level.value}",
                    servers=tuple(servers[:2]),
                    level=level,
                )
            )
            assert audit.ranking
            if level is DetailLevel.COMPONENT_SET:
                # The component-set level deliberately discards weights.
                assert audit.failure_probability is None
            else:
                assert audit.failure_probability is not None

    def test_minimal_sampling_and_bdd_agree(self, fleet_depdb):
        depdb, servers = fleet_depdb
        auditor = SIAAuditor(depdb)
        spec = AuditSpec(deployment="agree", servers=tuple(servers[:2]))
        graph = auditor.build_graph(spec)
        exact = minimal_risk_groups(graph)
        via_bdd = compile_graph(graph).minimal_cut_sets()
        assert exact == via_bdd
        sampled = auditor.audit_deployment(
            AuditSpec(
                deployment="agree",
                servers=tuple(servers[:2]),
                algorithm=RGAlgorithm.SAMPLING,
                sampling_rounds=8_000,
                seed=1,
            )
        )
        assert {e.events for e in sampled.ranking} <= set(exact)

    def test_batch_hardware_sharing_is_flagged(self, fleet_depdb):
        """Servers 0 and 1 share a procurement batch: common models must
        appear as unexpected RGs."""
        depdb, servers = fleet_depdb
        auditor = SIAAuditor(depdb)
        audit = auditor.audit_deployment(
            AuditSpec(deployment="batch", servers=tuple(servers[:2]))
        )
        singleton_kinds = {
            next(iter(e.events)).split(":")[0]
            for e in audit.ranking
            if e.size == 1
        }
        assert "hw" in singleton_kinds

    def test_drift_catches_recabling(self, fleet_depdb):
        depdb, servers = fleet_depdb
        spec = AuditSpec(deployment="drift", servers=tuple(servers[:2]))
        # Drift: server 1 gains a path through server 0's ToR.
        drifted = DepDB.loads(depdb.dumps())
        from repro.depdb import NetworkDependency

        drifted.add(
            NetworkDependency(
                servers[1], "Internet", ("pod0-tor0", "pod0-agg0", "core-0-0")
            )
        )
        report = drift_report(depdb, drifted, spec)
        assert not report.diff.is_empty
        # The added path is redundant (ANDed), so no regression — scores
        # move but no new unexpected singleton appears from re-cabling.
        assert not report.regressed


class TestFullPIALifecycle:
    def test_private_audit_with_trail(self, fleet_depdb):
        depdb, servers = fleet_depdb
        # Each "provider" is one server's software view.
        component_sets = {}
        for server in servers:
            records = depdb.software_on(server)
            components = sorted(
                {pkg for record in records for pkg in record.dep}
            )
            if components:
                component_sets[server] = components
        assert len(component_sets) >= 2
        auditor = PIAAuditor(component_sets, protocol="plaintext")
        report = auditor.audit(ways=2, providers=list(component_sets))
        assert report.entries
