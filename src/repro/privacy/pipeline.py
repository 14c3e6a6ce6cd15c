"""Batched PIA protocol drivers — the private-audit fast path.

The serial protocol implementations in :mod:`repro.privacy.psop` and
:mod:`repro.privacy.ks` walk their rings one element-exponentiation at a
time.  This module restructures the same protocols into whole-dataset
array batches:

* **P-SOP** (:func:`run_psop_fast`): the ring collapses algebraically.
  After k hops every element is ``h^{e_0 e_1 ... e_{k-1} mod q}``, so
  the driver multiplies the party exponents once and performs a single
  exponentiation per *distinct* hashed element across all parties
  (shared elements cost one modexp total), while replaying every
  permuter draw and wire transfer of the serial schedule exactly.
* **KS** (:func:`run_ks_fast`): encryption noise powers ``r^n mod n^2``
  are drawn in serial order but exponentiated in one batch; the
  encrypted Horner evaluation becomes a simultaneous multi-exponentiation
  against fixed-base digit tables of the aggregated coefficients
  (computed once, reused across every party's whole dataset); threshold
  decryption shares are batched per party.

Both drivers produce **bit-identical** results to the serial reference
for the same seeds — same intersection counts, same transfer log, same
per-party RNG end states — which the parity tests enforce.  (P-SOP is
bitwise down to the ciphertext values; KS evaluation ciphertexts may
differ from the serial transcript in their *noise component* because
multi-exponentiation reduces exponents mod n — every plaintext, count
and byte total still matches exactly.)

Exponentiation batches optionally fan out through
:func:`repro.engine.parallel.map_jobs` over one
:class:`~repro.engine.pool.PersistentPool` per protocol run, shared by
all of its stages.  Chunking is fixed (never a function of the worker
count) and merging is positional, so any worker count — including zero
— produces the same results.

:class:`PIAPipeline` is the whole-audit driver: it enumerates candidate
deployments like :class:`repro.privacy.pia.PIAAuditor`, derives
deterministic per-party key/permutation streams via
``numpy.random.SeedSequence.spawn``, and fans independent deployment
measurements out over the pool.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.crypto.commutative import SharedGroup
from repro.crypto.fastexp import (
    batch_pow,
    chunked,
    digit_table,
    multi_exp,
    pow_chunk,
    pow_pairs_chunk,
)
from repro.crypto.hashing import HashFamily
from repro.engine.parallel import map_jobs, resolve_workers
from repro.engine.pool import PersistentPool
from repro.errors import ProtocolError
from repro.privacy.jaccard import jaccard
from repro.privacy.ks import KSProtocol, KSResult, _hash_element
from repro.privacy.minhash import minhash_signature
from repro.privacy.pia import PIAEntry, PIAReport
from repro.privacy.psop import PSOPParty, PSOPProtocol, PSOPResult

__all__ = ["run_psop_fast", "run_ks_fast", "PIAPipeline"]

#: Bases per exponentiation chunk.  Fixed so the block plan — and hence
#: the merged output — never depends on the worker count.
POW_CHUNK = 192


def _open_pool(n_workers: int):
    """Context manager for one run's fan-out: a pool, or ``None`` inline.

    The pool spawns nothing until a stage actually fans out, and the
    ``with`` block brings its processes home.
    """
    workers = resolve_workers(n_workers)
    return PersistentPool(workers) if workers > 1 else contextlib.nullcontext()


def _batched_pows(
    bases: Sequence[int],
    exponent: int,
    modulus: int,
    pool: Optional[PersistentPool],
    *,
    dedupe: bool = False,
) -> list[int]:
    """``pow(b, exponent, modulus)`` for every base, fanning out chunks.

    Accepts negative exponents when ``dedupe`` is off (Python's ``pow``
    inverts modularly), which the dealt KS key shares rely on.  With
    ``dedupe`` each distinct base is exponentiated once — inline via
    :func:`repro.crypto.fastexp.batch_pow`, or by extracting the
    distinct bases before chunking so workers never repeat work.
    """
    if pool is None or len(bases) <= POW_CHUNK:
        if dedupe:
            return batch_pow(bases, exponent, modulus)
        return [pow(b, exponent, modulus) for b in bases]
    targets = list(bases)
    if dedupe:
        seen: set[int] = set()
        targets = []
        for b in bases:
            if b not in seen:
                seen.add(b)
                targets.append(b)
    jobs = [
        (chunk, exponent, modulus) for chunk in chunked(targets, POW_CHUNK)
    ]
    flat: list[int] = []
    for chunk_result in map_jobs(pow_chunk, jobs, pool):
        flat.extend(chunk_result)
    if not dedupe:
        return flat
    memo = dict(zip(targets, flat))
    return [memo[b] for b in bases]


def _batched_pow_pairs(
    pairs: Sequence[tuple[int, int]],
    modulus: int,
    pool: Optional[PersistentPool],
) -> list[int]:
    """``pow(base, exp, modulus)`` per pair, fanning out chunks.

    One call covers work with per-item exponents (the KS threshold-
    decryption shares of every party), so the stage is one sweep
    rather than one per party.
    """
    if pool is None or len(pairs) <= POW_CHUNK:
        return pow_pairs_chunk(pairs, modulus)
    jobs = [(chunk, modulus) for chunk in chunked(pairs, POW_CHUNK)]
    flat: list[int] = []
    for chunk_result in map_jobs(pow_pairs_chunk, jobs, pool):
        flat.extend(chunk_result)
    return flat


# --------------------------------------------------------------------- #
# P-SOP
# --------------------------------------------------------------------- #


def run_psop_fast(
    protocol: PSOPProtocol, *, n_workers: int = 0
) -> PSOPResult:
    """Batched P-SOP execution, bit-identical to the serial ring.

    The serial schedule costs ``k^2 * n`` exponentiations (every party
    re-encrypts every dataset).  Collapsing the ring to the composed
    exponent ``E = prod e_i mod q`` and deduplicating hashed elements
    across parties costs one exponentiation per distinct element — the
    Figure-8 overheads workload drops by ``~2k^2/(k+1)``.
    """
    started = time.perf_counter()
    parties = protocol.parties
    network = protocol.network
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
                phase=f"ring-hop-{hop}",
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
                phase="share",
            )

    # Collapse the ring: one exponentiation per distinct hashed element.
    exponent = 1
    q = group.subgroup_order
    for party in parties:
        exponent = exponent * party.key.exponent % q
    flat = [value for values in hashed for value in values]
    with _open_pool(n_workers) as pool:
        powers = _batched_pows(flat, exponent, group.prime, pool, dedupe=True)
    counters = []
    position = 0
    for size in sizes:
        counters.append(Counter(powers[position : position + size]))
        position += size
    return protocol._result(counters, width, started)


# --------------------------------------------------------------------- #
# KS
# --------------------------------------------------------------------- #


def _power_vector(x: int, count: int, modulus: int) -> list[int]:
    """``[x^0, x^1, ..., x^(count-1)] mod modulus``."""
    ys = [1] * count
    acc = 1
    for j in range(1, count):
        acc = acc * x % modulus
        ys[j] = acc
    return ys


def _eval_party_job(
    aggregated: Sequence[int],
    xs: Sequence[int],
    blinds: Sequence[int],
    n: int,
    nsq: int,
) -> list[int]:
    """Worker kernel: one party's blinded encrypted evaluations.

    Rebuilds the coefficient digit tables locally (cheaper than
    pickling them) — a pure function of its arguments, so results are
    identical wherever it runs.
    """
    tables = [digit_table(c, nsq) for c in aggregated]
    out = []
    for x, blind in zip(xs, blinds):
        value = multi_exp(tables, _power_vector(x, len(tables), n), nsq)
        out.append(pow(value, blind, nsq))
    return out


def run_ks_fast(protocol: KSProtocol, *, n_workers: int = 0) -> KSResult:
    """Batched KS execution, bit-identical to the serial reference.

    The encrypted Horner rule costs ``d`` full exponentiations per
    element; the simultaneous multi-exponentiation against the fixed
    aggregated-coefficient tables shares one squaring chain per element
    instead, and the same digit tables serve every element of every
    party.  Encryption noise and threshold-decryption shares run as
    whole-dataset batches.
    """
    with _open_pool(n_workers) as pool:
        return _run_ks(protocol, pool)


def _run_ks(protocol: KSProtocol, pool: Optional[PersistentPool]) -> KSResult:
    started = time.perf_counter()
    public = protocol.public
    network = protocol.network
    parties = protocol.parties
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
    noise_powers = _batched_pows(noises, n, nsq, pool)

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
                phase="ring",
            )
    last = parties[-1]
    for party in parties[:-1]:
        network.send_elements(
            last.name, party.name, aggregated, width, phase="broadcast"
        )

    # Step 3: blinded encrypted evaluations.  Per party and element the
    # serial path draws exactly one blind (Horner draws nothing), so
    # pre-drawing the blinds preserves the RNG streams.
    xs = [[_hash_element(e, n) for e in party.elements] for party in parties]
    blinds = [
        [party._rng.randrange(1, n) for _ in party.elements]
        for party in parties
    ]
    if pool is not None and k > 1:
        raw_evals = map_jobs(
            _eval_party_job,
            [(aggregated, xs[i], blinds[i], n, nsq) for i in range(k)],
            pool,
        )
    else:
        tables = [digit_table(c, nsq) for c in aggregated]
        raw_evals = [
            [
                pow(
                    multi_exp(
                        tables, _power_vector(x, len(tables), n), nsq
                    ),
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
                phase="evaluations",
            )

    # Step 4: threshold-decryption shares — every party's partials over
    # every evaluation ciphertext as one flat pair batch (one sweep, not
    # one per party; shares may be negative, pow inverts modularly).
    all_ciphertexts = [c for batch in batches for c in batch]
    pairs = [
        (c, party._lam_share) for party in parties for c in all_ciphertexts
    ]
    flat_partials = _batched_pow_pairs(pairs, nsq, pool)
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
                phase="decryption-shares",
            )

    return protocol._result(
        batches, partials_by_party, len(aggregated) - 1, width, started
    )


# --------------------------------------------------------------------- #
# Whole-audit driver
# --------------------------------------------------------------------- #


def _measure_psop_job(
    names: Sequence[str],
    inputs: Sequence[Sequence[str]],
    prime: int,
    seeds: Sequence[int],
) -> tuple[int, int, float, int]:
    """Worker kernel: one deployment's P-SOP measurement.

    Returns ``(intersection, union, jaccard, total_bytes)``.
    """
    group = SharedGroup(prime=prime)
    parties = [
        PSOPParty(name, elements, group, seed=seed)
        for name, elements, seed in zip(names, inputs, seeds)
    ]
    result = PSOPProtocol(parties).run()
    return result.intersection, result.union, result.jaccard, result.total_bytes


class PIAPipeline:
    """Batched PIA driver: ``PIAAuditor`` semantics at pipeline speed.

    Measurements for candidate deployments are independent, so they fan
    out over the process pool; each deployment's parties draw their
    key/permutation streams from dedicated ``SeedSequence.spawn``
    children of the pipeline seed, making reports deterministic for any
    worker count.  Because P-SOP is exact, rankings and Jaccard values
    match :class:`repro.privacy.pia.PIAAuditor` for the same inputs.

    Args:
        component_sets: ``{provider: normalised component identifiers}``.
        protocol: ``"psop"``, ``"psop-minhash"`` or ``"plaintext"``.
        group_bits: Commutative-group modulus size (paper: 1024).
        minhash_size: Signature length m for the MinHash variant.
        seed: Root of the per-deployment/per-party seed tree.
        n_workers: Deployment fan-out (0/1 = inline); each
            :meth:`audit` opens one pool for its sweep and closes it.
    """

    def __init__(
        self,
        component_sets: Mapping[str, Sequence[str]],
        protocol: str = "psop",
        group_bits: int = 1024,
        minhash_size: int = 256,
        seed: int = 0,
        n_workers: int = 0,
    ) -> None:
        if len(component_sets) < 2:
            raise ProtocolError("PIA needs at least two providers")
        if protocol not in ("psop", "psop-minhash", "plaintext"):
            raise ProtocolError(f"unknown protocol {protocol!r}")
        self.sets = {
            name: frozenset(items) for name, items in component_sets.items()
        }
        for name, items in self.sets.items():
            if not items:
                raise ProtocolError(f"provider {name!r} has no components")
        self.protocol = protocol
        self.minhash_size = minhash_size
        self.seed = seed
        self.n_workers = n_workers
        self._group_bits = group_bits
        self._family = HashFamily(size=minhash_size, seed=seed)

    @property
    def providers(self) -> list[str]:
        return list(self.sets)

    def _inputs(self, name: str) -> list[str]:
        """One provider's protocol input (sorted set or MinHash slots)."""
        if self.protocol == "psop-minhash":
            return minhash_signature(
                self.sets[name], self._family
            ).slot_elements()
        return sorted(self.sets[name])

    def audit(
        self,
        ways: int = 2,
        providers: Optional[Sequence[str]] = None,
        title: Optional[str] = None,
    ) -> PIAReport:
        """Measure every ``ways``-way deployment and rank them."""
        from repro.cloud.deployment import enumerate_deployments

        pool = list(providers) if providers is not None else self.providers
        missing = [p for p in pool if p not in self.sets]
        if missing:
            raise ProtocolError(f"unknown providers: {missing}")
        subsets = [d.members for d in enumerate_deployments(pool, ways)]
        started = time.perf_counter()

        if self.protocol == "plaintext":
            measured = [
                (jaccard([self.sets[n] for n in members]), members)
                for members in subsets
            ]
            total_bytes = 0
            estimated = False
        else:
            inputs = {name: self._inputs(name) for name in pool}
            group = SharedGroup.with_bits(self._group_bits)
            root = np.random.SeedSequence(self.seed)
            jobs = []
            for child, members in zip(root.spawn(len(subsets)), subsets):
                seeds = [
                    int(s.generate_state(1)[0])
                    for s in child.spawn(len(members))
                ]
                jobs.append(
                    (
                        members,
                        [inputs[n] for n in members],
                        group.prime,
                        seeds,
                    )
                )
            with _open_pool(self.n_workers) as pool:
                outcomes = map_jobs(_measure_psop_job, jobs, pool)
            estimated = self.protocol == "psop-minhash"
            measured = []
            total_bytes = 0
            for members, (intersection, _, value, n_bytes) in zip(
                subsets, outcomes
            ):
                if estimated:
                    # delta/m: agreeing slots over signature size (§4.2.4).
                    value = intersection / self.minhash_size
                measured.append((value, members))
                total_bytes += n_bytes

        measured.sort(key=lambda t: (t[0], t[1]))
        entries = [
            PIAEntry(
                rank=i + 1,
                deployment=members,
                jaccard=value,
                estimated=estimated,
            )
            for i, (value, members) in enumerate(measured)
        ]
        return PIAReport(
            title=title or f"all {ways}-way redundancy deployments",
            entries=entries,
            protocol=self.protocol,
            total_bytes=total_bytes,
            elapsed_seconds=time.perf_counter() - started,
            metadata={
                "providers": pool,
                "ways": ways,
                "n_workers": self.n_workers,
            },
        )
