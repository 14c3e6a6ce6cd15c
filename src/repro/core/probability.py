"""Failure probability computations (§4.1.3, "Failure probability ranking").

The probability-based ranking needs two quantities:

* ``Pr(C)`` for a risk group ``C`` — the chance that every event in ``C``
  fails simultaneously (a plain product under independence);
* ``Pr(T)`` for the top event — computed by the inclusion–exclusion
  principle over the minimal RGs of ``T`` (the paper's worked example:
  ``Pr(T) = 0.1*0.3 + 0.2 - 0.1*0.3*0.2 = 0.224``).

Whoever holds the graph reads ``Pr(T)`` off the graph's one diagram
(:meth:`~repro.core.bdd.BDD.probability`): the exact audit, the size
ranking's best effort and ``formal_analysis``.  This module serves the
bare family, which has no diagram: sampled audits and callers of
:func:`union_probability`.  Inclusion–exclusion is exponential in the
number of minimal RGs, so above :data:`IE_CROSSOVER` sets it takes
:func:`_shannon_union` instead: a memoised Shannon expansion over the
minimal family that visits the nodes of the family's reduced ordered BDD
without building it, and so returns that diagram's probability walk bit
for bit.  When that recursion outgrows :data:`UNION_WORK_BUDGET` it
raises :class:`~repro.core.minimal_rg.CutSetExplosion`; there is no
estimate to fall back to.  Every weight is checked once.  The references
this one behaviour is tested against (inclusion–exclusion over the
family as given, the first-order bounds, the BDD fold, the per-cut
Monte-Carlo scan) are test oracles, not options.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from operator import or_
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.core.events import validate_probability
from repro.core.minimal_rg import CutSetExplosion
from repro.errors import AnalysisError, FaultGraphError

__all__ = [
    "cut_probability",
    "union_probability",
    "top_event_probability",
    "relative_importance",
]

#: :func:`union_probability` takes inclusion-exclusion up to this many
#: distinct cut sets and the diagram pass above it.  It was the measured
#: crossover (7, 8 and 12 sets depending on cut size) until the flat-array
#: BDD kernel moved the curves to 7, 7 and 9-10; it stays 10, because
#: moving it changes the bits of every family between the old and new
#: crossover.  Median ms, seeded
#: random families, inclusion-exclusion / BDD (x86-64, CPython 3.11):
#:   sets   1-3 of 10 events   2-5 of 24 events   8-12 of 40 events
#:     6      0.04 / 0.05        0.06 / 0.06        0.10 / 0.25
#:     8      0.19 / 0.06        0.26 / 0.12        0.53 / 0.73
#:    10      0.87 / 0.08        1.16 / 0.25        2.14 / 1.78
#:    12      3.27 / 0.08        5.11 / 0.41        8.61 / 3.38
#:    16, 20                     83 / 0.96, 1403 / 1.37
IE_CROSSOVER = 10

#: Work the exact pass may do before it raises :class:`CutSetExplosion`,
#: in 64-bit words of cuts scanned: every cut each diagram node partitions
#: and every (cut, absorber) pair its absorption may check, once per word
#: of the bitmasks, :data:`_NODE_WORK` per node, and the pre-pass's packed
#: word compares at :data:`_COMPARES_PER_WORD` a unit.  Tripping it costs
#: about what the BDD fold it replaced spent to trip its 100 000-node
#: budget: 0.14-0.29 s against 0.17-0.34 s, per-family median ratio
#: 0.85-0.98, on 17 random families (2-core x86-64, CPython 3.11).  The
#: fat-tree families need 0.29 million (k=12, 320 cuts) and 3.73 million
#: (k=16, 1 280 cuts).
UNION_WORK_BUDGET = 7_000_000

#: A node's fixed cost (a call, two frozensets, the memo) in scanned words:
#: about 6 us against about 0.02 us a word.
_NODE_WORK = 300

#: Packed word compares the minimality pre-pass makes in the time the
#: recursion scans one word (2-5 ns a compare, against about 0.02 us).
_COMPARES_PER_WORD = 8

#: uint64 cells one vectorised step holds at once (8 MB): the pre-pass's
#: row pairs.
_CHUNK_CELLS = 1 << 20


def cut_probability(
    cut: Iterable[str], probabilities: Mapping[str, float]
) -> float:
    """Probability that *all* events in ``cut`` fail (independent events)."""
    prob = 1.0
    for event in cut:
        try:
            prob *= probabilities[event]
        except KeyError:
            raise AnalysisError(f"no failure probability for {event!r}") from None
    return prob


def union_probability(
    cuts: Sequence[frozenset[str]], probabilities: Mapping[str, float]
) -> float:
    """Probability that at least one cut fully fails.

    The family is deduplicated and sorted by (size, members), so the bits
    do not depend on input order, then goes to inclusion–exclusion up to
    :data:`IE_CROSSOVER` sets and to :func:`_shannon_union` above.

    Args:
        cuts: Collection of cut sets (typically the minimal RGs); a cut is
            a collection of event names, never one string.
        probabilities: Failure probability per basic event, each in
            ``[0, 1]``; every event of every cut needs one.

    Raises:
        CutSetExplosion: The family outgrew :data:`UNION_WORK_BUDGET`.
            A caller that holds the family's graph reads its diagram
            instead.
    """
    if isinstance(cuts, str):
        raise AnalysisError(f"cut sets must be a collection, not {cuts!r}")
    cut_list = []
    for cut in cuts:
        if isinstance(cut, str):
            raise AnalysisError(
                f"a cut set must be a collection of events, not {cut!r}"
            )
        cut_list.append(frozenset(cut))
    if not cut_list:
        raise AnalysisError("cannot compute a union over zero cut sets")
    weights = _checked_weights(cut_list, probabilities)
    family = sorted(set(cut_list), key=lambda c: (len(c), sorted(c)))
    if len(family) <= IE_CROSSOVER:
        return _inclusion_exclusion(family, weights)
    return _shannon_union(family, weights)


def _checked_weights(
    cuts: list[frozenset[str]], probabilities: Mapping[str, float]
) -> dict[str, float]:
    """The weight of every event in ``cuts``, each checked once."""
    weights = {}
    for event in sorted(frozenset().union(*cuts)):
        try:
            weight = probabilities[event]
        except KeyError:
            raise AnalysisError(f"no failure probability for {event!r}") from None
        try:
            weights[event] = validate_probability(
                weight, what=f"failure probability of {event!r}"
            )
        except FaultGraphError as exc:
            raise AnalysisError(str(exc)) from None
    return weights


def _inclusion_exclusion(
    cuts: list[frozenset[str]], probabilities: Mapping[str, float]
) -> float:
    """Exact union probability: sum over non-empty subsets of cuts."""
    n = len(cuts)
    total = 0.0
    # Depth-first enumeration keeps the running union incrementally.
    def recurse(start: int, union: frozenset[str], size: int) -> None:
        nonlocal total
        for i in range(start, n):
            merged = union | cuts[i]
            sign = 1.0 if (size + 1) % 2 == 1 else -1.0
            total += sign * cut_probability(merged, probabilities)
            recurse(i + 1, merged, size + 1)

    try:
        recurse(0, frozenset(), 0)
    finally:
        recurse = None  # the closure names itself: break the cycle
    return min(max(total, 0.0), 1.0)


def _shannon_union(
    cuts: list[frozenset[str]],
    weights: Mapping[str, float],
    memo: Optional[dict[frozenset[int], float]] = None,
) -> float:
    """Exact union probability of a (size, members)-sorted family.

    Returns, bit for bit, what folding the family's DNF into a reduced
    ordered BDD (variables numbered by first appearance in the minimal
    family) and walking it with ``p * high + (1 - p) * low`` returns,
    without building the diagram.  A node's value depends only on the
    monotone function it stands for, whose minimal cut family is a
    canonical key and whose top variable is the family's lowest-numbered
    one.  So ``value(F)``, memoised on ``F`` as a set of bitmasks, splits
    on that variable ``v``: the cuts without ``v`` are the low cofactor;
    the cuts with ``v``, less ``v``, plus the cuts without ``v`` that none
    of those absorbs, are the high one (1.0 once ``{v}`` is a cut).  It
    makes the diagram's nodes, its terminals, its ``p`` and its
    arithmetic, one memo entry per node (``memo``, when given, keeps them).

    Cuts with a proper subset in the family are dropped first, by packed
    word compares (no float matrix, so no BLAS thread), and the work is
    counted against :data:`UNION_WORK_BUDGET`; past it the pass raises
    :class:`CutSetExplosion`.
    """
    if not cuts[0]:
        return 1.0  # the empty cut: the top event has always happened
    bit, masks = _numbered(cuts)
    words = -(-len(bit) // 64)  # of a bitmask, at most
    absorbed, spent = _absorbed(cuts, masks, words)
    if absorbed.any():
        cuts = [cut for cut, gone in zip(cuts, absorbed) if not gone]
        bit, masks = _numbered(cuts)
    prob = [weights[event] for event in bit]
    memo = {} if memo is None else memo
    lookup = memo.get
    left = UNION_WORK_BUDGET - spent

    def value(family: frozenset[int]) -> float:
        nonlocal left
        union = reduce(or_, family)
        v = union & -union
        low = [c for c in family if not c & v]
        high = [c ^ v for c in family if c & v]
        certain = 0 in high  # {v} is a cut: the high cofactor is true
        scanned = len(family) + (0 if certain else len(low) * len(high))
        left -= scanned * words + _NODE_WORK
        if left < 0:
            raise CutSetExplosion(_over_budget())
        if certain:
            up = 1.0
        else:
            kept = low
            room = reduce(or_, low, 0)
            for h in high:
                if h & room == h:  # else h lies in no cut of ``low``
                    kept = [c for c in kept if c & h != h]
            key = frozenset(high + kept)
            up = lookup(key)
            if up is None:
                up = value(key)
        if low:
            key = frozenset(low)
            down = lookup(key)
            if down is None:
                down = value(key)
        else:
            down = 0.0
        p = prob[v.bit_length() - 1]
        memo[family] = result = p * up + (1.0 - p) * down
        return result

    # One frame per variable at most: each level splits one off.
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(previous + len(bit))
    try:
        return value(frozenset(masks))
    finally:
        sys.setrecursionlimit(previous)
        value = None  # the closure names itself: break the cycle


def _over_budget() -> str:
    return f"exact union exceeded {UNION_WORK_BUDGET} units of work"


def _numbered(
    cuts: list[frozenset[str]],
) -> tuple[dict[str, int], list[int]]:
    """Each event's bit, numbered by first appearance in the family with
    every cut's members in sorted order, and each cut as a bitmask."""
    bit: dict[str, int] = {}
    for cut in cuts:
        new = cut.difference(bit)
        if new:
            for event in sorted(new):
                bit[event] = 1 << len(bit)
    return bit, [sum(map(bit.__getitem__, cut)) for cut in cuts]


def _absorbed(
    cuts: list[frozenset[str]], masks: list[int], words: int
) -> tuple[np.ndarray, int]:
    """Which cuts of a distinct, size-sorted family have a proper subset
    in it, and what finding out cost in scanned words.

    The ``words``-word rows of ``masks`` are compared in chunks of rows
    against every row of a smaller size; the cost is charged before any
    row is packed.
    """
    n = len(cuts)
    sizes = np.fromiter(map(len, cuts), dtype=np.intp, count=n)
    # Rows start:stop meet rows :limit, the first row of their largest size.
    first = np.searchsorted(sizes, sizes, side="left")
    step = max(1, _CHUNK_CELLS // n)
    chunks = []
    for start in range(0, n, step):
        stop = min(n, start + step)
        chunks.append((start, stop, int(first[stop - 1])))
    spent = sum((stop - start) * limit for start, stop, limit in chunks)
    spent = spent * words // _COMPARES_PER_WORD
    if spent > UNION_WORK_BUDGET:
        raise CutSetExplosion(_over_budget())
    packed = np.frombuffer(
        b"".join(mask.to_bytes(8 * words, "little") for mask in masks),
        dtype="<u8",
    ).reshape(n, words)
    absorbed = np.zeros(n, dtype=bool)
    for start, stop, limit in chunks:
        if not limit:
            continue  # no smaller cut yet
        # Cut i lies inside cut j when none of its words leaves j.
        outside = ~packed[start:stop, None, :]
        left_over = packed[None, :limit, 0] & outside[:, :, 0]
        for word in range(1, words):
            left_over |= packed[None, :limit, word] & outside[:, :, word]
        inside = left_over == 0
        inside &= sizes[None, :limit] < sizes[start:stop, None]
        absorbed[start:stop] = inside.any(axis=1)
    return absorbed, spent


def top_event_probability(
    minimal_rgs: Sequence[frozenset[str]], probabilities: Mapping[str, float]
) -> float:
    """``Pr(T)`` from the minimal RG family (inclusion–exclusion, §4.1.3)."""
    return union_probability(minimal_rgs, probabilities)


def relative_importance(
    cut: Iterable[str],
    top_probability: float,
    probabilities: Mapping[str, float],
) -> float:
    """``I_C = Pr(C) / Pr(T)`` — the ranking weight of one RG (§4.1.3)."""
    if not 0.0 < top_probability <= 1.0:
        raise AnalysisError(
            f"top-event probability must be in (0,1], got {top_probability}"
        )
    return cut_probability(cut, probabilities) / top_probability


def expected_error_minhash(m: int) -> float:
    """Broder's expected MinHash estimation error, O(1/sqrt(m)) (§4.2.2)."""
    if m < 1:
        raise AnalysisError(f"signature size must be >= 1, got {m}")
    return 1.0 / math.sqrt(m)
