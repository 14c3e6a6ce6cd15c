"""End-to-end parity tests for the batched PIA protocols.

The contract (DESIGN.md "PIA fast path"): for the same seeds ``run()``
produces results bit-identical to the ``run_serial()`` reference —
same counts, same transfer log, same per-party RNG end states — P-SOP
for any worker count, and ``PIAAuditor`` reports are byte-identical for
any worker count.
"""

import json
from pathlib import Path

import pytest

from repro import api
from repro.crypto import SharedGroup, generate_keypair
from repro.errors import ProtocolError
from repro.privacy import (
    KSParty,
    KSProtocol,
    PIAAuditor,
    PSOPParty,
    PSOPProtocol,
    ks,
    pia,
    psop,
)
from repro.privacy.network_sim import ProtocolNetwork


@pytest.fixture(scope="module")
def group() -> SharedGroup:
    return SharedGroup.with_bits(768)


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(bits=256, seed=0)


DATASETS = {
    "A": ["x", "y", "z", "shared"],
    "B": ["y", "w", "shared"],
    "C": {"shared": 2, "z": 1},
}


def make_psop(group, n_workers=0, seeds=(0, 1, 2)):
    parties = [
        PSOPParty(name, elements, group, seed=seed)
        for (name, elements), seed in zip(DATASETS.items(), seeds)
    ]
    protocol = PSOPProtocol(
        parties, network=ProtocolNetwork(), n_workers=n_workers
    )
    return protocol, parties


def assert_psop_equal(left, right):
    for field in (
        "parties",
        "intersection",
        "union",
        "jaccard",
        "bytes_sent",
        "total_bytes",
        "element_bytes",
        "metadata",
    ):
        assert getattr(left, field) == getattr(right, field), field


class TestPSOPFastPath:
    def test_bit_identical_to_serial(self, group):
        serial_protocol, serial_parties = make_psop(group)
        fast_protocol, fast_parties = make_psop(group)
        serial = serial_protocol.run_serial()
        fast = fast_protocol.run()
        assert_psop_equal(serial, fast)
        # Same transfer log, message by message.
        assert serial_protocol.network.transfers == fast_protocol.network.transfers
        # Same permuter end state: later draws must agree.
        for a, b in zip(serial_parties, fast_parties):
            assert a.permuter.permutation(16) == b.permuter.permutation(16)

    def test_worker_count_does_not_affect_results(self, group):
        inline = make_psop(group, n_workers=0)[0].run()
        fanned = make_psop(group, n_workers=2)[0].run()
        assert_psop_equal(inline, fanned)

    def test_unseeded_parties_are_reseeded_reproducibly(
        self, group, monkeypatch
    ):
        """No silent nondeterminism — the protocol seed pins parties
        constructed without one."""
        monkeypatch.setattr(psop, "SEED", 7)
        results = []
        for _ in range(2):
            parties = [
                PSOPParty(name, elements, group, seed=None)
                for name, elements in DATASETS.items()
            ]
            protocol = PSOPProtocol(parties, network=ProtocolNetwork())
            results.append((protocol.run(), protocol.network.transfers))
        assert_psop_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]

    def test_two_party_wire_volume_preserved(self, group):
        """The fast path replays the exact serial wire schedule."""
        parties = [
            PSOPParty("A", ["x"], group, seed=0),
            PSOPParty("B", ["y"], group, seed=1),
        ]
        result = PSOPProtocol(parties).run()
        assert result.total_bytes == 4 * group.element_bytes


def make_ks(keypair, seeds=(3, 4, 5)):
    datasets = {
        "A": ["x", "y", "z", "common"],
        "B": ["common", "y", "q"],
        "C": ["common", "z", "x", "v"],
    }
    parties = [
        KSParty(name, elements, seed=seed)
        for (name, elements), seed in zip(datasets.items(), seeds)
    ]
    return KSProtocol(parties, keypair=keypair), parties


def assert_ks_equal(left, right):
    for field in (
        "parties",
        "intersection",
        "bytes_sent",
        "total_bytes",
        "ciphertext_bytes",
        "metadata",
    ):
        assert getattr(left, field) == getattr(right, field), field


class TestKSFastPath:
    def test_bit_identical_to_serial(self, keypair):
        serial_protocol, serial_parties = make_ks(keypair)
        fast_protocol, fast_parties = make_ks(keypair)
        serial = serial_protocol.run_serial()
        fast = fast_protocol.run()
        assert_ks_equal(serial, fast)
        assert serial_protocol.network.transfers == fast_protocol.network.transfers
        # Same RNG and permuter end states.
        for a, b in zip(serial_parties, fast_parties):
            assert a._rng.random() == b._rng.random()
            assert a.permuter.permutation(8) == b.permuter.permutation(8)

    def test_unseeded_parties_are_reseeded_reproducibly(
        self, keypair, monkeypatch
    ):
        monkeypatch.setattr(ks, "SEED", 11)
        results = []
        for _ in range(2):
            parties = [
                KSParty("A", ["x", "y", "c"], seed=None),
                KSParty("B", ["c", "z"], seed=None),
            ]
            protocol = KSProtocol(parties, keypair=keypair)
            results.append((protocol.run(), protocol.network.transfers))
        assert_ks_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]

    def test_the_module_seed_pins_unseeded_parties(self, keypair, monkeypatch):
        def derived_seeds():
            parties = [KSParty(name, ["c"], seed=None) for name in "AB"]
            KSProtocol(parties, keypair=keypair)
            return [party.seed for party in parties]

        default = derived_seeds()
        assert default == derived_seeds()
        monkeypatch.setattr(ks, "SEED", ks.SEED + 1)
        assert derived_seeds() != default

    def test_dealt_key_shares_add_up_to_lambda(self, keypair):
        protocol, parties = make_ks(keypair)
        shares = [party._lam_share for party in parties]
        assert sum(shares) == protocol.private.lam
        # The balancing share is negative; each party still decrypts
        # with ``pow(c, share, n^2)``, which inverts modularly.
        assert shares[-1] < 0


SETS = {
    "CloudA": ["a", "b", "s"],
    "CloudB": ["c", "s"],
    "CloudC": ["d", "e", "s"],
    "CloudD": ["f", "s", "a"],
}


#: Pinned ``pia_report`` documents for ``SETS`` at ``group_bits=768,
#: minhash_size=32``.
GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "pia_reports.json").read_text()
)
PROTOCOLS = ["plaintext", "psop", "psop-minhash"]


def report_bytes(report) -> str:
    return api.canonical_json(report.to_dict())


@pytest.mark.parametrize("n_workers", [0, 2])
@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestPIAGolden:
    @pytest.fixture(autouse=True)
    def _signature_size(self, monkeypatch):
        monkeypatch.setattr(pia, "MINHASH_SIZE", 32)

    def auditor(self, protocol, n_workers):
        return PIAAuditor(
            SETS, protocol=protocol, group_bits=768, n_workers=n_workers
        )

    def test_audit(self, protocol, n_workers):
        report = self.auditor(protocol, n_workers).audit(ways=2)
        assert report_bytes(report) == api.canonical_json(
            GOLDEN["audit"][protocol]
        )

    def test_report_is_a_pure_function_of_its_inputs(
        self, protocol, n_workers
    ):
        # Nothing stripped: a report carries no wall-clock.
        first, second = (
            self.auditor(protocol, n_workers).audit(ways=2) for _ in range(2)
        )
        assert report_bytes(first) == report_bytes(second)

    def test_audit_n_of_m(self, protocol, n_workers):
        report = self.auditor(protocol, n_workers).audit_n_of_m(
            2, list(SETS)
        )
        assert report_bytes(report) == api.canonical_json(
            GOLDEN["audit_n_of_m"][protocol]
        )
