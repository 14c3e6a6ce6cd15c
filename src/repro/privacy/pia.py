"""Private Independence Auditing — PIA (§4.2).

Orchestrates the end-to-end private workflow: take each provider's
component-set, run a private set-intersection cardinality protocol for
every candidate redundancy deployment, and rank deployments by Jaccard
similarity (ascending = most independent first) into the report the
client receives — Table 2's exact shape.

Protocols:

* ``psop`` — exact Jaccard via the commutative-encryption ring (§4.2.4);
* ``psop-minhash`` — MinHash signatures through P-SOP for large sets,
  estimating ``J ≈ δ/m`` (§4.2.4);
* ``plaintext`` — non-private reference (ground truth for tests and for
  the SIA-vs-PIA comparisons of §6.3.3).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from repro.cloud.deployment import enumerate_deployments
from repro.crypto.commutative import SharedGroup
from repro.crypto.hashing import HashFamily
from repro.engine.parallel import map_jobs
from repro.errors import ProtocolError
from repro.privacy.jaccard import is_significantly_correlated, jaccard
from repro.privacy.minhash import minhash_signature
from repro.privacy.network_sim import ProtocolNetwork
from repro.privacy.pipeline import _open_pool
from repro.privacy.psop import PSOPParty, PSOPProtocol
from repro.schema import envelope

__all__ = ["PIAEntry", "PIAReport", "PIAAuditor"]

#: MinHash signature length m of the ``psop-minhash`` protocol.
MINHASH_SIZE = 256


@dataclass(frozen=True)
class PIAEntry:
    """One deployment's similarity measurement."""

    rank: int
    deployment: tuple[str, ...]
    jaccard: float
    estimated: bool

    @property
    def name(self) -> str:
        return " & ".join(self.deployment)

    @property
    def significantly_correlated(self) -> bool:
        return is_significantly_correlated(self.jaccard)


@dataclass
class PIAReport:
    """Ranking of candidate deployments by Jaccard similarity (§4.2.5)."""

    title: str
    entries: list[PIAEntry]
    protocol: str
    total_bytes: int = 0
    metadata: dict = field(default_factory=dict)

    def best(self) -> PIAEntry:
        return self.entries[0]

    def to_dict(self) -> dict:
        return envelope("pia_report", self._payload())

    def _payload(self) -> dict:
        return {
            "title": self.title,
            "protocol": self.protocol,
            "total_bytes": self.total_bytes,
            "entries": [
                {
                    "rank": e.rank,
                    "deployment": list(e.deployment),
                    "jaccard": e.jaccard,
                    "estimated": e.estimated,
                }
                for e in self.entries
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render_text(self) -> str:
        lines = [f"PIA report: {self.title}  (protocol: {self.protocol})"]
        lines.append(f"{'Rank':<6}{'Deployment':<40}{'Jaccard':<10}")
        for entry in self.entries:
            flag = "  !! correlated" if entry.significantly_correlated else ""
            lines.append(
                f"{entry.rank:<6}{entry.name:<40}{entry.jaccard:<10.4f}{flag}"
            )
        return "\n".join(lines)


def _psop_job(
    names: Sequence[str],
    inputs: Sequence[Sequence[str]],
    group: SharedGroup,
    seeds: Sequence[Optional[int]],
    network: Optional[ProtocolNetwork] = None,
) -> tuple[int, float, int]:
    """Worker kernel: one deployment's P-SOP measurement.

    Returns ``(intersection, jaccard, wire bytes moved)``.
    """
    parties = [
        PSOPParty(name, elements, group, seed=seed)
        for name, elements, seed in zip(names, inputs, seeds)
    ]
    result = PSOPProtocol(parties, network=network).run()
    return result.intersection, result.jaccard, result.total_bytes


class PIAAuditor:
    """Agent-side PIA driver.

    Measurements for candidate deployments are independent, so
    :meth:`audit` and :meth:`audit_n_of_m` fan them out over a process
    pool; party seeds depend only on the position inside a deployment,
    making reports identical for any worker count.

    Args:
        component_sets: ``{provider: component identifiers}``.
        protocol: ``"psop"``, ``"psop-minhash"`` or ``"plaintext"``.
        group_bits: Commutative-group modulus size (paper: 1024).
        seed: Base seed for party keys/permutations (reproducibility).
        n_workers: Deployment fan-out (0/1 = inline); each report opens
            one pool for its sweep and closes it.
    """

    def __init__(
        self,
        component_sets: Mapping[str, Sequence[str]],
        protocol: str = "psop",
        group_bits: int = 1024,
        seed: Optional[int] = 0,
        n_workers: int = 0,
    ) -> None:
        if not isinstance(component_sets, Mapping):
            raise ProtocolError(
                "component sets must map provider names to lists"
            )
        if len(component_sets) < 2:
            raise ProtocolError("PIA needs at least two providers")
        if protocol not in ("psop", "psop-minhash", "plaintext"):
            raise ProtocolError(f"unknown protocol {protocol!r}")
        self.sets = {}
        for name, items in component_sets.items():
            # A bare string would pass for the set of its characters.
            if isinstance(items, str) or not isinstance(items, Iterable):
                raise ProtocolError(
                    f"provider {name!r}: components must be a list, "
                    f"got {type(items).__name__}"
                )
            members = list(items)
            if not members:
                raise ProtocolError(f"provider {name!r} has no components")
            if not all(isinstance(c, str) and c for c in members):
                raise ProtocolError(
                    f"provider {name!r}: components must be non-empty strings"
                )
            self.sets[name] = frozenset(members)
        self.protocol = protocol
        self.minhash_size = MINHASH_SIZE
        self.seed = seed
        self.n_workers = n_workers
        self._group_bits = group_bits
        self._family = HashFamily(
            size=self.minhash_size, seed=0 if seed is None else seed
        )

    @property
    def providers(self) -> list[str]:
        return list(self.sets)

    def _check_known(self, names: Sequence[str]) -> None:
        missing = [n for n in names if n not in self.sets]
        if missing:
            raise ProtocolError(f"unknown providers: {missing}")

    def _inputs(self, name: str) -> list[str]:
        """One provider's protocol input (sorted set or MinHash slots)."""
        if self.protocol == "psop-minhash":
            return minhash_signature(
                self.sets[name], self._family
            ).slot_elements()
        return sorted(self.sets[name])

    def _measure(
        self,
        subsets: Sequence[tuple[str, ...]],
        network: Optional[ProtocolNetwork] = None,
    ) -> tuple[list[float], int]:
        """Similarity of every subset, in order, and the wire bytes moved."""
        if self.protocol == "plaintext":
            return [
                jaccard([self.sets[n] for n in members]) for members in subsets
            ], 0
        inputs = {
            name: self._inputs(name)
            for name in {n for members in subsets for n in members}
        }
        group = SharedGroup.with_bits(self._group_bits)
        jobs = [
            (
                members,
                [inputs[n] for n in members],
                group,
                [
                    None if self.seed is None else self.seed + 17 * i
                    for i in range(len(members))
                ],
                network,
            )
            for members in subsets
        ]
        with _open_pool(self.n_workers) as workers:
            outcomes = map_jobs(_psop_job, jobs, workers)
        # psop-minhash estimates delta/m: agreeing slots over signature
        # size (§4.2.4).
        estimated = self.protocol == "psop-minhash"
        values = [
            intersection / self.minhash_size if estimated else value
            for intersection, value, _ in outcomes
        ]
        return values, sum(n_bytes for _, _, n_bytes in outcomes)

    # ------------------------------------------------------------------ #
    # Single-deployment measurement
    # ------------------------------------------------------------------ #

    def measure(
        self,
        deployment: Sequence[str],
        network: Optional[ProtocolNetwork] = None,
    ) -> tuple[float, bool, int]:
        """Similarity of one provider combination.

        Returns:
            (jaccard, estimated?, wire bytes moved)
        """
        names = tuple(deployment)
        self._check_known(names)
        if len(names) < 2:
            raise ProtocolError("a deployment needs at least two providers")
        values, n_bytes = self._measure([names], network)
        return values[0], self.protocol == "psop-minhash", n_bytes

    # ------------------------------------------------------------------ #
    # Reports
    # ------------------------------------------------------------------ #

    def _report(
        self,
        pool: Sequence[str],
        subsets: Sequence[tuple[str, ...]],
        title: str,
        metadata: dict,
    ) -> PIAReport:
        """Measure every subset of ``pool`` and rank them ascending."""
        values, total_bytes = self._measure(subsets)
        entries = [
            PIAEntry(
                rank=i + 1,
                deployment=members,
                jaccard=value,
                estimated=self.protocol == "psop-minhash",
            )
            for i, (value, members) in enumerate(sorted(zip(values, subsets)))
        ]
        return PIAReport(
            title=title,
            entries=entries,
            protocol=self.protocol,
            total_bytes=total_bytes,
            metadata={"providers": list(pool), **metadata},
        )

    def audit_n_of_m(
        self,
        n: int,
        providers: Sequence[str],
    ) -> PIAReport:
        """Audit one *n-of-m* deployment (§4.2.5).

        For an n-of-m deployment the agent "needs to obtain the Jaccard
        similarity across all the n cloud providers and the similarity
        across all the m cloud providers": the report carries one entry
        per n-subset (candidate working sets) plus the all-m entry, so a
        client sees both which quorum is most independent and how
        correlated the full pool is.
        """
        pool = list(providers)
        self._check_known(pool)
        if not 2 <= n <= len(pool):
            raise ProtocolError(f"n={n} outside 2..{len(pool)}")
        subsets = [d.members for d in enumerate_deployments(pool, n)]
        if len(pool) > n:
            subsets.append(tuple(pool))
        return self._report(
            pool,
            subsets,
            f"{n}-of-{len(pool)} redundancy deployment",
            {"n": n, "m": len(pool)},
        )

    def audit(
        self,
        ways: int = 2,
        providers: Optional[Sequence[str]] = None,
        title: Optional[str] = None,
        deployments: Optional[Sequence[Sequence[str]]] = None,
    ) -> PIAReport:
        """Measure ``deployments`` and rank them; by default every
        ``ways``-way deployment over ``providers``."""
        pool = list(providers) if providers is not None else self.providers
        self._check_known(pool)
        if deployments is None:
            subsets = [d.members for d in enumerate_deployments(pool, ways)]
            title = title or f"all {ways}-way redundancy deployments"
        else:
            subsets = list(dict.fromkeys(tuple(d) for d in deployments))
            for members in subsets:
                picked = set(members)
                if not len(members) == len(picked) == ways or picked - set(pool):
                    raise ProtocolError(
                        f"deployment {list(members)} is not {ways} distinct "
                        f"providers out of {pool}"
                    )
            title = title or f"{len(subsets)} requested {ways}-way deployments"
        return self._report(pool, subsets, title, {"ways": ways})
