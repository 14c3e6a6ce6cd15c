"""Topology substrates: fat trees (Table 3), the Benson-style data center
(Fig 6a), the lab IaaS cloud (Fig 6b), and the Figure-2 sample system."""

from repro.topology.datacenter import (
    CANDIDATE_RACKS,
    GROUP_A_RACKS,
    GROUP_B_RACKS,
    GROUP_C_RACKS,
    DatacenterPlan,
    benson_datacenter,
)
from repro.topology.fattree import (
    TOPOLOGY_A,
    TOPOLOGY_B,
    TOPOLOGY_C,
    FatTreeConfig,
    fat_tree,
)
from repro.topology.graph import INTERNET, Device, DeviceType, Topology
from repro.topology.lab import LAB_HARDWARE, LAB_SERVERS, LabCloudPlan, lab_cloud
from repro.topology.routing import (
    fat_tree_routes,
    route_devices,
    shortest_routes,
)
from repro.topology.storage_sample import StorageSamplePlan, storage_sample

__all__ = [
    "CANDIDATE_RACKS",
    "Device",
    "DeviceType",
    "DatacenterPlan",
    "FatTreeConfig",
    "GROUP_A_RACKS",
    "GROUP_B_RACKS",
    "GROUP_C_RACKS",
    "INTERNET",
    "LAB_HARDWARE",
    "LAB_SERVERS",
    "LabCloudPlan",
    "StorageSamplePlan",
    "TOPOLOGY_A",
    "TOPOLOGY_B",
    "TOPOLOGY_C",
    "Topology",
    "benson_datacenter",
    "fat_tree",
    "fat_tree_routes",
    "lab_cloud",
    "route_devices",
    "shortest_routes",
    "storage_sample",
]
