"""P-SOP: private set-intersection cardinality over a commutative ring
(§4.2.2, §4.2.4).

The k providers form a logical ring.  Each one hashes every element of
its (multiset-expanded) dataset into the shared group, encrypts with its
own commutative key, permutes, and forwards to its successor; after k-1
hops every dataset has been encrypted by *all* parties, so equal
plaintexts map to equal final ciphertexts regardless of encryption order.
Sharing the final datasets lets everyone count

* ``|S_0 ∩ ... ∩ S_{k-1}|`` — ciphertexts present in all k datasets, and
* ``|S_0 ∪ ... ∪ S_{k-1}|`` — distinct ciphertexts overall,

hence the Jaccard similarity — while nobody ever sees another provider's
elements in the clear.  Multisets are supported by occurrence tagging
(``e||1``, ``e||2``, ...), exactly as described in the paper.

Two executions produce bit-identical results for the same seeds:

* the *serial* reference (:meth:`PSOPProtocol.run_serial`) walks the
  ring hop by hop, one exponentiation per element per hop;
* the *batched* execution (:meth:`PSOPProtocol.run`) collapses the ring
  algebraically — ``(((h^{e_0})^{e_1})...)^{e_{k-1}} =
  h^{e_0 e_1 ... e_{k-1} mod q}`` — into one exponentiation per distinct
  hashed element, replaying permuter draws and wire accounting exactly.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

from repro.crypto.commutative import CommutativeKey, SharedGroup, hash_to_group
from repro.crypto.permutation import Permuter
from repro.errors import ProtocolError
from repro.privacy.network_sim import ProtocolNetwork
from repro.privacy.pipeline import _batched_pows, _open_pool

__all__ = ["PSOPParty", "PSOPResult", "PSOPProtocol"]

#: Protocol seed: reseeds every party constructed without a seed of its
#: own, so no run is silently nondeterministic.
SEED = 0

Dataset = Union[Iterable[str], Mapping[str, int]]


@dataclass
class PSOPResult:
    """Outcome of one P-SOP execution.

    Attributes:
        intersection: ``|∩ S_i|`` (multiset-aware).
        union: ``|∪ S_i|``.
        jaccard: ``intersection / union``.
        bytes_sent: Total wire bytes per party (Figure 8a's metric).
    """

    parties: tuple[str, ...]
    intersection: int
    union: int
    jaccard: float
    bytes_sent: dict[str, int]
    total_bytes: int
    element_bytes: int
    metadata: dict = field(default_factory=dict)


class PSOPParty:
    """One provider participating in P-SOP."""

    def __init__(
        self,
        name: str,
        elements: Dataset,
        group: SharedGroup,
        seed: Optional[int] = None,
    ) -> None:
        self.name = name
        self.group = group
        self.seed = seed
        self._build(seed)
        self._expanded = _expand_multiset(elements)
        if not self._expanded:
            raise ProtocolError(f"party {name!r} has an empty dataset")

    def _build(self, seed: Optional[int]) -> None:
        self.key = CommutativeKey(self.group, seed=seed)
        self.permuter = Permuter(seed=None if seed is None else seed + 1)

    def reseed(self, seed: int) -> None:
        """Re-derive key and permuter from a protocol-assigned seed.

        Called by :class:`PSOPProtocol` for parties constructed without
        a seed, so unseeded runs are still reproducible end to end.
        """
        self.seed = seed
        self._build(seed)

    @property
    def size(self) -> int:
        return len(self._expanded)

    def hashed_elements(self) -> list[int]:
        """The local dataset hashed into the shared group, local order."""
        return [hash_to_group(e, self.group) for e in self._expanded]

    def initial_dataset(self) -> list[int]:
        """Hash, encrypt with own key, and permute the local dataset."""
        encrypted = self.key.encrypt_many(self.hashed_elements())
        return self.permuter.shuffle(encrypted)

    def reencrypt(self, dataset: Sequence[int]) -> list[int]:
        """Ring step: encrypt a received dataset and permute it."""
        return self.permuter.shuffle(self.key.encrypt_many(list(dataset)))


def _expand_multiset(elements: Dataset) -> list[str]:
    """Occurrence-tag duplicates: e appearing t times -> e||1 .. e||t."""
    if isinstance(elements, Mapping):
        expanded: list[str] = []
        for element, count in elements.items():
            if count < 1:
                raise ProtocolError(
                    f"multiset count must be >= 1, got {count} for {element!r}"
                )
            expanded.extend(f"{element}||{i}" for i in range(1, count + 1))
        return expanded
    pool = list(elements)
    counts = Counter(pool)
    expanded = []
    for element, count in counts.items():
        expanded.extend(f"{element}||{i}" for i in range(1, count + 1))
    return expanded


class PSOPProtocol:
    """Supervised P-SOP execution (the auditing agent's role in Fig 1).

    Args:
        parties: The participating providers (ring order = list order).
        network: Optional shared byte-accounting fabric; a fresh one is
            created when omitted.
        n_workers: Process fan-out for :meth:`run`'s exponentiation
            batch (0/1 = inline; results are identical for any count).
    """

    def __init__(
        self,
        parties: Sequence[PSOPParty],
        network: Optional[ProtocolNetwork] = None,
        *,
        n_workers: int = 0,
    ) -> None:
        if len(parties) < 2:
            raise ProtocolError("P-SOP needs at least two parties")
        names = [p.name for p in parties]
        if len(set(names)) != len(names):
            raise ProtocolError(f"duplicate party names: {names}")
        if len({p.group.prime for p in parties}) != 1:
            raise ProtocolError("all parties must share one group")
        self.parties = list(parties)
        self.n_workers = n_workers
        seeder = random.Random(SEED)
        for party in self.parties:
            derived = seeder.randrange(1 << 62)
            if party.seed is None:
                party.reseed(derived)
        self.network = network if network is not None else ProtocolNetwork()
        self.network.register(names)

    def run(self) -> PSOPResult:
        """Batched execution, bit-identical to :meth:`run_serial`.

        The serial schedule costs ``k^2 * n`` exponentiations (every
        party re-encrypts every dataset).  Collapsing the ring to the
        composed exponent ``E = prod e_i mod q`` and deduplicating
        hashed elements across parties costs one exponentiation per
        distinct element — the Figure-8 overheads workload drops by
        ``~2k^2/(k+1)``.
        """
        parties = self.parties
        network = self.network
        k = len(parties)
        group = parties[0].group
        width = group.element_bytes

        hashed = [party.hashed_elements() for party in parties]
        sizes = [len(h) for h in hashed]

        # Replay each party's private permuter draws: one shuffle per round,
        # over a dataset of the same length as in the serial schedule.  The
        # protocol result only exposes multiset counts, but the RNG end
        # state must match so party objects stay interchangeable.
        for i, party in enumerate(parties):
            party.permuter.shuffle(range(sizes[i]))
            for hop in range(1, k):
                party.permuter.shuffle(range(sizes[(i - hop) % k]))

        # Replay the wire schedule (ciphertexts always occupy exactly
        # ``element_bytes``, so byte counts depend only on dataset sizes).
        for hop in range(1, k):
            for slot in range(k):
                holder = (slot + hop - 1) % k
                network.send(
                    parties[holder].name,
                    parties[(holder + 1) % k].name,
                    sizes[slot] * width,
                )
        for slot in range(k):
            holder = (slot + k - 1) % k
            for receiver in range(k):
                if receiver == holder:
                    continue
                network.send(
                    parties[holder].name,
                    parties[receiver].name,
                    sizes[slot] * width,
                )

        # Collapse the ring: one exponentiation per distinct hashed element.
        exponent = 1
        q = group.subgroup_order
        for party in parties:
            exponent = exponent * party.key.exponent % q
        flat = [value for values in hashed for value in values]
        with _open_pool(self.n_workers) as pool:
            powers = _batched_pows(flat, exponent, group.prime, pool)
        counters = []
        position = 0
        for size in sizes:
            counters.append(Counter(powers[position : position + size]))
            position += size
        return self._result(counters, width)

    def run_serial(self) -> PSOPResult:
        """Reference execution: walk the ring hop by hop.

        The specification :meth:`run` is held to (parity tests, the
        Figure-8 bench); nothing in ``src/`` calls it.
        """
        k = len(self.parties)
        group = self.parties[0].group
        width = group.element_bytes

        # Round 0: everyone prepares its own dataset.
        datasets: list[list[int]] = [p.initial_dataset() for p in self.parties]
        owners = list(range(k))

        # Rounds 1..k-1: forward around the ring, re-encrypting.
        for hop in range(1, k):
            next_datasets: list[list[int]] = [[] for _ in range(k)]
            next_owners = [0] * k
            for slot in range(k):
                holder = (owners[slot] + hop - 1) % k
                successor = (holder + 1) % k
                self.network.send_elements(
                    self.parties[holder].name,
                    self.parties[successor].name,
                    datasets[slot],
                    width,
                )
                next_datasets[slot] = self.parties[successor].reencrypt(
                    datasets[slot]
                )
                next_owners[slot] = owners[slot]
            datasets = next_datasets
            owners = next_owners

        # Final share: each holder broadcasts its fully-encrypted dataset.
        for slot in range(k):
            holder = (owners[slot] + k - 1) % k
            for receiver in range(k):
                if receiver == holder:
                    continue
                self.network.send_elements(
                    self.parties[holder].name,
                    self.parties[receiver].name,
                    datasets[slot],
                    width,
                )

        counters = [Counter(d) for d in datasets]
        return self._result(counters, width)

    def _result(
        self,
        counters: Sequence[Counter],
        width: int,
    ) -> PSOPResult:
        """Count intersection/union and assemble the result record."""
        k = len(self.parties)
        keys: set[int] = set()
        for counter in counters:
            keys.update(counter)
        intersection = sum(
            min(counter[key] for counter in counters) for key in keys
        )
        union = sum(
            max(counter[key] for counter in counters) for key in keys
        )
        return PSOPResult(
            parties=tuple(p.name for p in self.parties),
            intersection=intersection,
            union=union,
            jaccard=intersection / union,
            bytes_sent=self.network.per_party_sent(),
            total_bytes=self.network.total_bytes(),
            element_bytes=width,
            metadata={"hops": k - 1, "dataset_sizes": [p.size for p in self.parties]},
        )
