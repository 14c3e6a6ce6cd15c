"""Simulated multi-party network with byte accounting.

The PIA evaluation (Figure 8a) measures *total traffic sent* per party.
Protocol implementations route every transfer through a
:class:`ProtocolNetwork`, which delivers payloads in-process while
recording exact byte counts per sender and receiver —
so the bandwidth benchmarks measure the real wire cost of the real
ciphertexts rather than an analytic estimate.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ProtocolError

__all__ = ["Transfer", "ProtocolNetwork", "int_wire_size"]


def int_wire_size(value: int, element_bytes: int) -> int:
    """Wire size of one big integer at a fixed element width."""
    if value < 0:
        raise ProtocolError("negative wire values are not encodable")
    needed = (value.bit_length() + 7) // 8
    if needed > element_bytes:
        raise ProtocolError(
            f"value needs {needed} bytes but element width is {element_bytes}"
        )
    return element_bytes


@dataclass(frozen=True)
class Transfer:
    """One recorded message."""

    sender: str
    receiver: str
    n_bytes: int


@dataclass
class ProtocolNetwork:
    """In-process message fabric with per-party accounting."""

    parties: tuple[str, ...] = ()
    transfers: list[Transfer] = field(default_factory=list)
    _sent: dict = field(default_factory=lambda: defaultdict(int))

    def register(self, parties: Sequence[str]) -> None:
        names = tuple(parties)
        if len(set(names)) != len(names):
            raise ProtocolError(f"duplicate party names: {names}")
        self.parties = names

    def _check(self, name: str) -> None:
        if self.parties and name not in self.parties:
            raise ProtocolError(f"unknown party {name!r}")

    def send(self, sender: str, receiver: str, n_bytes: int) -> None:
        """Record one transfer of ``n_bytes`` from sender to receiver."""
        self._check(sender)
        self._check(receiver)
        if sender == receiver:
            raise ProtocolError(f"party {sender!r} sending to itself")
        if n_bytes < 0:
            raise ProtocolError(f"negative transfer size: {n_bytes}")
        self.transfers.append(Transfer(sender, receiver, n_bytes))
        self._sent[sender] += n_bytes

    def send_elements(
        self,
        sender: str,
        receiver: str,
        values: Sequence[int],
        element_bytes: int,
    ) -> None:
        """Record a batch of fixed-width big integers."""
        total = sum(int_wire_size(v, element_bytes) for v in values)
        self.send(sender, receiver, total)

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def bytes_sent(self, party: str) -> int:
        return self._sent.get(party, 0)

    def total_bytes(self) -> int:
        return sum(t.n_bytes for t in self.transfers)

    def per_party_sent(self) -> dict[str, int]:
        return dict(self._sent)
