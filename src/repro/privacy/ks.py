"""Kissner–Song style PSI cardinality — the paper's PIA baseline (§6.3.2).

Multi-party private set-intersection cardinality from homomorphic
encryption and polynomial encoding [Kissner & Song, CRYPTO'05], in the
honest-but-curious, non-colluding model of §4.2.1.  The protocol is
peer-to-peer: the key is *threshold-shared* (simulated by additive
sharing of the Paillier decryption exponent dealt at setup), so no
single party — and no agent — can decrypt alone:

1. a setup dealer generates the Paillier keypair and deals additive
   shares of the decryption exponent to the k providers;
2. each provider encodes its hashed dataset as the monic polynomial
   ``f_j`` whose roots are its elements, masks it with a fresh random
   polynomial ``r_j`` of equal degree, and the ring accumulates
   ``Enc(λ) = Enc(Σ_j f_j · r_j)`` hop by hop; the last hop broadcasts
   ``Enc(λ)`` to everyone;
3. each provider evaluates ``Enc(λ(e))`` for every local element by
   encrypted Horner's rule, blinds it, permutes its batch, and
   broadcasts the batch to all other providers;
4. **threshold decryption**: every provider computes a partial
   decryption ``c^{λ_i}`` of every evaluation ciphertext and sends it to
   every other provider — the O(k³·n) traffic that makes KS bandwidth
   grow much faster with k than P-SOP's (Figure 8a);
5. combining the shares reveals ``λ(e)``; zeros (w.h.p. elements lying
   in every provider's set) in any one batch give the intersection
   cardinality.

The encrypted Horner step costs O(n) ciphertext exponentiations per
element — O(n²) big-modexps total — which is why Figure 8b shows KS
orders of magnitude slower than P-SOP.

Two executions produce the same counts, transfer log and per-party RNG
end states for the same seeds: the *serial* reference
(:meth:`KSProtocol.run_serial`) performs one exponentiation at a time;
the *batched* execution (:meth:`KSProtocol.run`) draws encryption noise
in serial order but exponentiates ``r^n mod n^2`` in one batch, turns
the encrypted Horner evaluation into a simultaneous
multi-exponentiation against fixed-base digit tables of the aggregated
coefficients, and batches the threshold-decryption shares.  (Evaluation
ciphertexts may differ from the serial transcript in their *noise
component* because multi-exponentiation reduces exponents mod n — every
plaintext, count and byte total still matches exactly.)
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.crypto.fastexp import digit_table, multi_exp
from repro.crypto.paillier import PaillierPrivateKey, PaillierPublicKey
from repro.crypto.permutation import Permuter
from repro.errors import ProtocolError
from repro.privacy.network_sim import ProtocolNetwork

__all__ = ["KSParty", "KSResult", "KSProtocol"]

#: Protocol seed: deals the key shares and reseeds every party
#: constructed without a seed of its own.
SEED = 0


@dataclass
class KSResult:
    """Outcome of one KS execution."""

    parties: tuple[str, ...]
    intersection: int
    bytes_sent: dict[str, int]
    total_bytes: int
    ciphertext_bytes: int
    metadata: dict = field(default_factory=dict)


def _hash_element(element: str, modulus: int) -> int:
    """Map an identifier to a non-zero field element below ``modulus``."""
    digest = hashlib.sha256(element.encode("utf-8")).digest()
    value = int.from_bytes(digest, "big") % modulus
    return value or 1


def _poly_from_roots(roots: Sequence[int], modulus: int) -> list[int]:
    """Monic polynomial with the given roots: prod (x - r), low-order first."""
    coeffs = [1]
    for root in roots:
        neg = (-root) % modulus
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] = (nxt[i] + c * neg) % modulus
            nxt[i + 1] = (nxt[i + 1] + c) % modulus
        coeffs = nxt
    return coeffs


def _poly_multiply(a: Sequence[int], b: Sequence[int], modulus: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % modulus
    return out


def _power_vector(x: int, count: int, modulus: int) -> list[int]:
    """``[x^0, x^1, ..., x^(count-1)] mod modulus``."""
    ys = [1] * count
    acc = 1
    for j in range(1, count):
        acc = acc * x % modulus
        ys[j] = acc
    return ys


class KSParty:
    """One provider in the KS protocol."""

    def __init__(
        self, name: str, elements: Iterable[str], seed: Optional[int] = None
    ) -> None:
        self.name = name
        self.elements = sorted(set(elements))
        if not self.elements:
            raise ProtocolError(f"party {name!r} has an empty dataset")
        self.seed = seed
        self._rng = random.Random(seed)
        self.permuter = Permuter(seed=None if seed is None else seed + 1)
        self._lam_share: int = 0

    def reseed(self, seed: int) -> None:
        """Re-derive RNG and permuter from a protocol-assigned seed.

        Called by :class:`KSProtocol` for parties constructed without a
        seed, so unseeded runs are still reproducible end to end.
        """
        self.seed = seed
        self._rng = random.Random(seed)
        self.permuter = Permuter(seed=seed + 1)

    def masked_polynomial(self, n: int) -> list[int]:
        """Plaintext coefficients of ``f_j * r_j`` (draws the mask poly).

        Split out so the batched driver can reproduce the exact RNG draw
        order (mask coefficients first, encryption noise after) while
        exponentiating in bulk.
        """
        roots = [_hash_element(e, n) for e in self.elements]
        f = _poly_from_roots(roots, n)
        r = [self._rng.randrange(1, n) for _ in range(len(roots) + 1)]
        return _poly_multiply(f, r, n)

    def masked_encrypted_polynomial(
        self, public: PaillierPublicKey
    ) -> list[int]:
        """``Enc(f_j * r_j)`` coefficients (step 2)."""
        rng = self._rng
        return [
            public.encrypt(c, rng) for c in self.masked_polynomial(public.n)
        ]

    def evaluate_encrypted(
        self, public: PaillierPublicKey, encrypted_coeffs: Sequence[int]
    ) -> list[int]:
        """Blinded ``Enc(λ(e))`` for each local element (step 3)."""
        evaluations = []
        n = public.n
        for element in self.elements:
            x = _hash_element(element, n)
            # Horner: acc = c_d; acc = acc*x + c_i  (all under encryption).
            acc = encrypted_coeffs[-1]
            for coeff in reversed(encrypted_coeffs[:-1]):
                acc = public.add(public.multiply_plain(acc, x), coeff)
            blind = self._rng.randrange(1, n)
            evaluations.append(public.multiply_plain(acc, blind))
        return self.permuter.shuffle(evaluations)

    def partial_decryptions(
        self, public: PaillierPublicKey, ciphertexts: Sequence[int]
    ) -> list[int]:
        """``c^{λ_i} mod n²`` for every ciphertext (step 4)."""
        nsq = public.nsq
        share = self._lam_share
        return [pow(c, share, nsq) for c in ciphertexts]


class KSProtocol:
    """Peer-to-peer KS execution with byte accounting.

    Args:
        parties: Participating providers (ring order = list order).
        keypair: The dealer's Paillier keypair (key generation dominates
            small runs; benchmarks share one across configurations).
    """

    def __init__(
        self,
        parties: Sequence[KSParty],
        keypair: tuple[PaillierPublicKey, PaillierPrivateKey],
    ) -> None:
        if len(parties) < 2:
            raise ProtocolError("KS needs at least two parties")
        names = [p.name for p in parties]
        if len(set(names)) != len(names):
            raise ProtocolError(f"duplicate party names: {names}")
        self.parties = list(parties)
        self.network = ProtocolNetwork()
        self.network.register(names)
        self.public, self.private = keypair
        self._deal_key_shares()
        seeder = random.Random(SEED + 0x5EED)
        for party in self.parties:
            derived = seeder.randrange(1 << 62)
            if party.seed is None:
                party.reseed(derived)

    def _deal_key_shares(self) -> None:
        """Additively share the decryption exponent λ across parties."""
        rng = random.Random(SEED + 99)
        modulus = self.public.n * self.private.lam  # shares need headroom
        total = 0
        for party in self.parties[:-1]:
            share = rng.randrange(modulus)
            party._lam_share = share
            total += share
        self.parties[-1]._lam_share = self.private.lam - total

    def _threshold_decrypt(self, partials: Sequence[int]) -> int:
        """Combine partial decryptions ``c^{λ_i}`` into the plaintext."""
        public = self.public
        x = 1
        for partial in partials:
            x = (x * partial) % public.nsq
        l_value = (x - 1) // public.n
        return (l_value * self.private.mu) % public.n

    def run(self) -> KSResult:
        """Batched execution, bit-identical to :meth:`run_serial`.

        The encrypted Horner rule costs ``d`` full exponentiations per
        element; the simultaneous multi-exponentiation against the fixed
        aggregated-coefficient tables shares one squaring chain per
        element instead, and the same digit tables serve every element
        of every party.  Encryption noise and threshold-decryption
        shares run as whole-dataset batches.
        """
        public = self.public
        network = self.network
        parties = self.parties
        n, nsq = public.n, public.nsq
        width = public.ciphertext_bytes
        k = len(parties)

        # Step 2: masked polynomials.  Mask coefficients and encryption
        # noise are drawn in the exact serial order (per party: mask poly
        # first, then one noise draw per coefficient); only the ``r^n``
        # exponentiations are batched.
        coeff_lists: list[list[int]] = []
        noises: list[int] = []
        for party in parties:
            coeffs = party.masked_polynomial(n)
            coeff_lists.append(coeffs)
            noises.extend(public.draw_noise(party._rng) for _ in coeffs)
        noise_powers = [pow(r, n, nsq) for r in noises]

        aggregated: list[Optional[int]] = []
        position = 0
        for i, (party, coeffs) in enumerate(zip(parties, coeff_lists)):
            encrypted = [
                public.raw_encrypt(c, rn)
                for c, rn in zip(
                    coeffs, noise_powers[position : position + len(coeffs)]
                )
            ]
            position += len(coeffs)
            if len(encrypted) > len(aggregated):
                aggregated.extend([None] * (len(encrypted) - len(aggregated)))
            for j, coeff in enumerate(encrypted):
                aggregated[j] = (
                    coeff
                    if aggregated[j] is None
                    else public.add(aggregated[j], coeff)
                )
            if i < k - 1:
                network.send_elements(
                    party.name,
                    parties[i + 1].name,
                    [c for c in aggregated if c is not None],
                    width,
                )
        last = parties[-1]
        for party in parties[:-1]:
            network.send_elements(last.name, party.name, aggregated, width)

        # Step 3: blinded encrypted evaluations.  Per party and element the
        # serial path draws exactly one blind (Horner draws nothing), so
        # pre-drawing the blinds preserves the RNG streams.
        xs = [[_hash_element(e, n) for e in party.elements] for party in parties]
        blinds = [
            [party._rng.randrange(1, n) for _ in party.elements]
            for party in parties
        ]
        # One set of digit tables serves every party.
        tables = [digit_table(c, nsq) for c in aggregated]
        raw_evals = [
            [
                pow(
                    multi_exp(tables, _power_vector(x, len(tables), n), nsq),
                    blind,
                    nsq,
                )
                for x, blind in zip(xs[i], blinds[i])
            ]
            for i in range(k)
        ]
        batches: list[list[int]] = []
        for party, evals in zip(parties, raw_evals):
            shuffled = party.permuter.shuffle(evals)
            batches.append(shuffled)
            for receiver in parties:
                if receiver is party:
                    continue
                network.send_elements(
                    party.name, receiver.name, shuffled, width,
                )

        # Step 4: threshold-decryption shares — every party's partials over
        # every evaluation ciphertext as one flat pair batch (one sweep, not
        # one per party; shares may be negative, pow inverts modularly).
        all_ciphertexts = [c for batch in batches for c in batch]
        pairs = [
            (c, party._lam_share) for party in parties for c in all_ciphertexts
        ]
        flat_partials = [pow(c, share, nsq) for c, share in pairs]
        partials_by_party = []
        for i, party in enumerate(parties):
            partials = flat_partials[
                i * len(all_ciphertexts) : (i + 1) * len(all_ciphertexts)
            ]
            partials_by_party.append(partials)
            for receiver in parties:
                if receiver is party:
                    continue
                network.send_elements(
                    party.name, receiver.name, partials, width,
                )

        return self._result(
            batches, partials_by_party, len(aggregated) - 1, width
        )

    def run_serial(self) -> KSResult:
        """Reference execution: one exponentiation at a time.

        The specification :meth:`run` is held to (parity tests, the
        Figure-8 bench); nothing in ``src/`` calls it.
        """
        public = self.public
        width = public.ciphertext_bytes
        k = len(self.parties)

        # Step 2: ring-accumulate Enc(lambda), then broadcast it.
        aggregated: list[int] = []
        for i, party in enumerate(self.parties):
            coeffs = party.masked_encrypted_polynomial(public)
            if len(coeffs) > len(aggregated):
                aggregated.extend([None] * (len(coeffs) - len(aggregated)))
            for j, coeff in enumerate(coeffs):
                aggregated[j] = (
                    coeff
                    if aggregated[j] is None
                    else public.add(aggregated[j], coeff)
                )
            if i < k - 1:
                self.network.send_elements(
                    party.name,
                    self.parties[i + 1].name,
                    [c for c in aggregated if c is not None],
                    width,
                )
        last = self.parties[-1]
        for party in self.parties[:-1]:
            self.network.send_elements(
                last.name, party.name, aggregated, width
            )

        # Step 3: everyone evaluates and broadcasts its blinded batch.
        batches: list[list[int]] = []
        for party in self.parties:
            evals = party.evaluate_encrypted(public, aggregated)
            batches.append(evals)
            for receiver in self.parties:
                if receiver is party:
                    continue
                self.network.send_elements(
                    party.name, receiver.name, evals, width,
                )

        # Step 4: threshold decryption — every party sends a partial
        # decryption of every evaluation ciphertext to every other party.
        all_ciphertexts = [c for batch in batches for c in batch]
        partials_by_party = []
        for party in self.parties:
            partials = party.partial_decryptions(public, all_ciphertexts)
            partials_by_party.append(partials)
            for receiver in self.parties:
                if receiver is party:
                    continue
                self.network.send_elements(
                    party.name, receiver.name, partials, width,
                )

        # Step 5: combine shares; zeros in party 0's batch = |intersection|.
        return self._result(
            batches, partials_by_party, len(aggregated) - 1, width
        )

    def _result(
        self,
        batches: Sequence[Sequence[int]],
        partials_by_party: Sequence[Sequence[int]],
        aggregated_degree: int,
        width: int,
    ) -> KSResult:
        """Threshold-combine the shares and assemble the result record."""
        intersection = 0
        for index in range(len(batches[0])):
            plaintext = self._threshold_decrypt(
                [partials[index] for partials in partials_by_party]
            )
            if plaintext == 0:
                intersection += 1
        return KSResult(
            parties=tuple(p.name for p in self.parties),
            intersection=intersection,
            bytes_sent=self.network.per_party_sent(),
            total_bytes=self.network.total_bytes(),
            ciphertext_bytes=width,
            metadata={
                "dataset_sizes": [len(p.elements) for p in self.parties],
                "aggregated_degree": aggregated_degree,
            },
        )
