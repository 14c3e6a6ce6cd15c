"""Pluggable dependency acquisition modules (DAMs, §3)."""

from repro.acquisition.base import DependencyAcquisitionModule, acquire_into
from repro.acquisition.hardware import HardwareInventoryCollector
from repro.acquisition.network import (
    NetworkDependencyCollector,
    TrafficSampledCollector,
)

__all__ = [
    "DependencyAcquisitionModule",
    "HardwareInventoryCollector",
    "NetworkDependencyCollector",
    "TrafficSampledCollector",
    "acquire_into",
]
