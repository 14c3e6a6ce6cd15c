"""Unit tests for failure-probability models."""

import pytest

from repro.failures import (
    GILL_DEVICE_FAILURE_PROBABILITIES,
    combine_weighers,
    gill_network_weigher,
    uniform_weigher,
)
from repro.topology import (
    DeviceType,
    FatTreeConfig,
    benson_datacenter,
    fat_tree,
    lab_cloud,
    storage_sample,
)

#: Device names the examples weigh with ``gill_network_weigher``
#: (``hardening_planner.py``, ``periodic_drift_audit.py``).
EXAMPLE_DEVICES = (
    "tor1", "tor2", "agg1", "agg2", "agg-shared", "core1", "core2", "Internet",
)


def whole_identifier_prefix(identifier):
    """The older rule: the longest key that prefixes the whole name."""
    lowered = identifier.lower()
    for key in sorted(GILL_DEVICE_FAILURE_PROBABILITIES, key=len, reverse=True):
        if lowered.startswith(key):
            return GILL_DEVICE_FAILURE_PROBABILITIES[key]
    return None


class TestGillWeigher:
    def test_device_prefix_matching(self):
        weigh = gill_network_weigher()
        assert weigh("device", "core-3-1") == pytest.approx(0.025)
        # ToR naming in the Fig-6a topology
        assert weigh("device", "e17") == pytest.approx(0.052)
        assert weigh("device", "b1") == pytest.approx(0.103)

    def test_fat_tree_switches_weighed_by_role(self):
        weigh = gill_network_weigher()
        by_role = {
            DeviceType.CORE: GILL_DEVICE_FAILURE_PROBABILITIES["core"],
            DeviceType.AGGREGATION: GILL_DEVICE_FAILURE_PROBABILITIES["agg"],
            DeviceType.TOR: GILL_DEVICE_FAILURE_PROBABILITIES["tor"],
        }
        topology = fat_tree(FatTreeConfig(4))
        for role, probability in by_role.items():
            devices = [d.name for d in topology.devices(role)]
            assert devices
            assert {d: weigh("device", d) for d in devices} == {
                d: probability for d in devices
            }
        # Matching after a "-" adds the pod-prefixed names and changes
        # no value the whole-name prefix already gave.
        names = [d.name for d in topology.devices() if d.type not in by_role]
        for other in (benson_datacenter(), lab_cloud(), storage_sample()):
            names += [d.name for d in other.devices()]
        names += EXAMPLE_DEVICES
        assert {n: weigh("device", n) for n in names} == {
            n: whole_identifier_prefix(n) for n in names
        }

    def test_longest_prefix_wins(self):
        weigh = gill_network_weigher()
        # "core-1" must hit "core" (0.025), not "c" (0.025 same here) —
        # check with an override that separates them.
        weigh = gill_network_weigher(overrides={"c": 0.5})
        assert weigh("device", "core-1-1") == pytest.approx(0.025)
        assert weigh("device", "c1") == pytest.approx(0.5)

    def test_non_device_kinds_deferred(self):
        weigh = gill_network_weigher()
        assert weigh("pkg", "libc6") is None
        assert weigh("host", "S1") is None

    def test_override_validation(self):
        with pytest.raises(Exception):
            gill_network_weigher(overrides={"tor": 2.0})


class TestUniformAndMapping:
    def test_uniform_all_kinds(self):
        weigh = uniform_weigher(0.1)
        assert weigh("device", "x") == 0.1
        assert weigh("pkg", "y") == 0.1

    def test_uniform_kind_filter(self):
        weigh = uniform_weigher(0.1, kinds=["device"])
        assert weigh("device", "x") == 0.1
        assert weigh("pkg", "y") is None


class TestCombine:
    def test_first_match_wins(self):
        table = {("device", "x"): 0.9}
        weigh = combine_weighers(
            lambda kind, identifier: table.get((kind, identifier)),
            uniform_weigher(0.1),
        )
        assert weigh("device", "x") == 0.9
        assert weigh("device", "y") == 0.1

    def test_default_fills_gaps(self):
        weigh = combine_weighers(
            uniform_weigher(0.2, kinds=["device"]), default=0.01
        )
        assert weigh("pkg", "libc6") == 0.01

    def test_no_default_leaves_none(self):
        weigh = combine_weighers(uniform_weigher(0.2, kinds=["device"]))
        assert weigh("pkg", "libc6") is None
