"""Failure-probability models: Gill-style device rates, uniform rates."""

from repro.failures.models import (
    DEFAULT_HOST_FAILURE_PROBABILITY,
    GILL_DEVICE_FAILURE_PROBABILITIES,
    combine_weighers,
    gill_network_weigher,
    uniform_weigher,
)

__all__ = [
    "DEFAULT_HOST_FAILURE_PROBABILITY",
    "GILL_DEVICE_FAILURE_PROBABILITIES",
    "combine_weighers",
    "gill_network_weigher",
    "uniform_weigher",
]
