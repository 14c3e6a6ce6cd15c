"""Cross-module integration tests: the full Figure-1 lifecycle.

One story, end to end: a provider builds its substrate, acquisition
modules fill a DepDB, the auditors audit it (SIA and PIA), configuration
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
    NetworkDependencyCollector,
    acquire_into,
)
from repro.analysis import drift_report
from repro.core.bdd import compile_graph
from repro.depdb import DepDB, NetworkDependency, SoftwareDependency
from repro.privacy import PIAAuditor
from repro.topology import FatTreeConfig, fat_tree, fat_tree_routes

SERVERS = [f"srv-p{p}-t0-0" for p in range(3)]

#: Servers 0 and 1 come from one procurement batch and share their CPU
#: and disk models; server 2 shares no model with them.
INVENTORY = {
    SERVERS[0]: [("CPU", "X5550"), ("Disk", "WD-RE4-1TB"), ("NIC", "BCM5709")],
    SERVERS[1]: [("CPU", "X5550"), ("Disk", "WD-RE4-1TB"), ("NIC", "I350")],
    SERVERS[2]: [("CPU", "E5-2650"), ("Disk", "ST-2TB"), ("NIC", "X540")],
}

#: One program per server, listed by hand as the §3 client does; every
#: closure pulls in the shared base library.
SOFTWARE = [
    SoftwareDependency("riak1", SERVERS[0], ("libc6@2.19", "erlang@17.3")),
    SoftwareDependency(
        "riak2", SERVERS[1], ("libc6@2.19", "erlang@17.3", "libssl@1.0.1k")
    ),
    SoftwareDependency("redis", SERVERS[2], ("libc6@2.19", "jemalloc@3.6")),
]


@pytest.fixture(scope="module")
def fleet_depdb() -> tuple[DepDB, list[str]]:
    """A small fat-tree cloud: network and hardware DAMs fill one DepDB,
    and the software records are added to it directly."""
    config = FatTreeConfig(ports=4)
    static = {s: fat_tree_routes(config, s) for s in SERVERS}
    depdb = DepDB()
    acquire_into(
        depdb,
        [
            NetworkDependencyCollector(
                fat_tree(config), servers=SERVERS, static_routes=static
            ),
            HardwareInventoryCollector(INVENTORY),
        ],
    )
    depdb.ingest(SOFTWARE)
    return depdb, SERVERS


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
        drifted.add(
            NetworkDependency(
                servers[1], "Internet", ("pod0-tor0", "pod0-agg0", "core-0-0")
            )
        )
        report = drift_report(depdb, drifted, spec)
        assert report.diff.added
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
