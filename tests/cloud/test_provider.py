"""Unit tests for cloud providers as PIA data sources."""

import pytest

from repro.cloud import CloudProvider
from repro.depdb import (
    DepDB,
    HardwareDependency,
    NetworkDependency,
    SoftwareDependency,
)
from repro.errors import SpecificationError


@pytest.fixture
def provider() -> CloudProvider:
    db = DepDB()
    db.add(NetworkDependency("n1", "Internet", ("isp-router-1", "isp-router-2")))
    db.add(HardwareDependency("n1", "Disk", "SED900"))
    db.add(SoftwareDependency("Riak", "n1", ("libc6@2.19", "libssl@1.0")))
    db.add(SoftwareDependency("Nginx", "n2", ("libc6@2.19", "pcre@8.35")))
    return CloudProvider(name="CloudX", depdb=db)


class TestComponentSet:
    def test_default_includes_network_and_software(self, provider):
        components = provider.component_set()
        assert "isp-router-1" in components
        assert "libc6@2.19" in components
        assert "SED900" not in components  # hardware excluded by default

    def test_hardware_opt_in(self, provider):
        provider.include_kinds = ("hardware",)
        assert provider.component_set() == frozenset({"SED900"})

    def test_host_restriction(self, provider):
        components = provider.component_set(hosts=["n2"])
        assert components == frozenset({"libc6@2.19", "pcre@8.35"})

    def test_empty_set_rejected(self, provider):
        with pytest.raises(SpecificationError, match="empty"):
            provider.component_set(hosts=["ghost"])

    def test_invalid_kinds_rejected(self):
        with pytest.raises(SpecificationError):
            CloudProvider(name="X", include_kinds=("quantum",))

    def test_empty_name_rejected(self):
        with pytest.raises(SpecificationError):
            CloudProvider(name="")
