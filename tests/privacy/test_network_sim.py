"""Unit tests for the byte-accounting protocol network."""

import pytest

from repro.errors import ProtocolError
from repro.privacy import ProtocolNetwork
from repro.privacy.network_sim import int_wire_size


class TestIntWireSize:
    def test_fixed_width(self):
        assert int_wire_size(5, 128) == 128
        assert int_wire_size(2**1000, 128) == 128

    def test_overflow_rejected(self):
        with pytest.raises(ProtocolError):
            int_wire_size(2**1025, 128)

    def test_negative_rejected(self):
        with pytest.raises(ProtocolError):
            int_wire_size(-1, 16)


class TestProtocolNetwork:
    def make(self) -> ProtocolNetwork:
        net = ProtocolNetwork()
        net.register(["A", "B", "C"])
        return net

    def test_send_accounting(self):
        net = self.make()
        net.send("A", "B", 100)
        net.send("B", "C", 50)
        assert net.bytes_sent("A") == 100
        assert net.bytes_sent("B") == 50
        assert net.total_bytes() == 150

    def test_send_elements_uses_fixed_width(self):
        net = self.make()
        net.send_elements("A", "B", [1, 2, 3], element_bytes=128)
        assert net.total_bytes() == 3 * 128

    def test_unknown_party_rejected(self):
        net = self.make()
        with pytest.raises(ProtocolError):
            net.send("A", "Z", 10)

    def test_self_send_rejected(self):
        net = self.make()
        with pytest.raises(ProtocolError):
            net.send("A", "A", 10)

    def test_negative_bytes_rejected(self):
        net = self.make()
        with pytest.raises(ProtocolError):
            net.send("A", "B", -1)

    def test_duplicate_registration_rejected(self):
        net = ProtocolNetwork()
        with pytest.raises(ProtocolError):
            net.register(["A", "A"])

    def test_per_party_sent(self):
        net = self.make()
        net.send("A", "B", 7)
        assert net.per_party_sent() == {"A": 7}
