"""Shared fixtures for the Figure-1 role tests.

Three labs: the three-server shared-ToR DepDB of the service tests
(``lab_sources``), the §6.2.1 lab cloud behind real acquisition modules
(``lab_source``), and the four Table-2 software stacks, one source each
(``software_sources``); plus a live in-process audit service.
"""

import pytest

from repro.acquisition import (
    HardwareInventoryCollector,
    NetworkDependencyCollector,
)
from repro.agents import AuditRequest, DataSource, ServiceClient
from repro.depdb.database import DepDB
from repro.service import JobManager, ServiceThread
from repro.swinventory import software_records
from repro.topology import lab_cloud
from repro.topology.lab import LAB_HARDWARE, LabCloudPlan

from tests.service.conftest import DEPDB


LAB_DEPLOYMENTS = (("S1", "S2"), ("S1", "S3"), ("S2", "S3"))


def lab_request(**fields) -> AuditRequest:
    """Alice's Step-1 message over the ``lab_sources`` topology."""
    fields.setdefault("data_sources", ("lab",))
    fields.setdefault("deployments", LAB_DEPLOYMENTS)
    fields.setdefault("dependency_types", ("network",))
    return AuditRequest(client="alice", **fields)


@pytest.fixture(scope="module")
def service():
    handle = ServiceThread(JobManager(workers=2)).start()
    yield handle
    handle.stop()


@pytest.fixture
def client(service):
    with ServiceClient(service.url) as remote:
        yield remote


@pytest.fixture
def lab_sources() -> dict:
    """One data source serving the shared-ToR topology's records."""
    return {"lab": DataSource("lab", depdb=DepDB.loads(DEPDB))}


@pytest.fixture
def lab_source() -> DataSource:
    plan = LabCloudPlan()
    topo = lab_cloud(plan)
    static = {s: list(plan.routes(s)) for s in plan.servers}
    return DataSource(
        "lab",
        modules=[
            NetworkDependencyCollector(
                topo, servers=list(plan.servers), static_routes=static
            ),
            HardwareInventoryCollector(LAB_HARDWARE),
        ],
    )


@pytest.fixture
def software_sources() -> dict:
    """Four single-provider sources with the Table-2 software stacks."""
    return {
        record.hw: DataSource(record.hw, depdb=DepDB([record]))
        for record in software_records()
    }
