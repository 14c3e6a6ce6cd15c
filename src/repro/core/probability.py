"""Failure probability computations (§4.1.3, "Failure probability ranking").

The probability-based ranking needs two quantities:

* ``Pr(C)`` for a risk group ``C`` — the chance that every event in ``C``
  fails simultaneously (a plain product under independence);
* ``Pr(T)`` for the top event — computed by the inclusion–exclusion
  principle over the minimal RGs of ``T`` (the paper's worked example:
  ``Pr(T) = 0.1*0.3 + 0.2 - 0.1*0.3*0.2 = 0.224``).

Inclusion–exclusion is exponential in the number of minimal RGs, so above
:data:`IE_CROSSOVER` sets ``method="auto"`` builds a reduced ordered BDD of
the family's DNF instead: the same exact value in one linear pass.  The
Monte-Carlo estimator is reached only by name or when that diagram outgrows
:data:`BDD_NODE_BUDGET`; the rare-event / Esary–Proschan bounds only by name.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.core.bdd import BDD, ONE, ZERO
from repro.core.events import GateType
from repro.core.faultgraph import FaultGraph
from repro.core.minimal_rg import CutSetExplosion
from repro.errors import AnalysisError

__all__ = [
    "cut_probability",
    "union_probability",
    "top_event_probability",
    "relative_importance",
    "tree_probability",
    "graph_probability_sampled",
]

#: Above this many cut sets, ``method="exact"`` (inclusion-exclusion,
#: 2^n terms) is refused by name.
EXACT_LIMIT = 20

#: ``auto`` takes inclusion-exclusion up to this many distinct cut sets and
#: the BDD pass above it.  It was the measured crossover (7, 8 and 12 sets
#: depending on cut size) until the flat-array BDD kernel moved the curves
#: to 7, 7 and 9-10; it stays 10, because moving it changes the bits of
#: every family between the old and new crossover.  Median ms, seeded
#: random families, inclusion-exclusion / BDD (x86-64, CPython 3.11):
#:   sets   1-3 of 10 events   2-5 of 24 events   8-12 of 40 events
#:     6      0.04 / 0.05        0.06 / 0.06        0.10 / 0.25
#:     8      0.19 / 0.06        0.26 / 0.12        0.53 / 0.73
#:    10      0.87 / 0.08        1.16 / 0.25        2.14 / 1.78
#:    12      3.27 / 0.08        5.11 / 0.41        8.61 / 3.38
#:    16, 20                     83 / 0.96, 1403 / 1.37
IE_CROSSOVER = 10

#: Decision nodes ``auto`` may allocate before it falls back to Monte-Carlo:
#: tripping it costs ~0.4 s, about one 200 000-round estimate (0.3-0.8 s);
#: the largest family measured (fat tree k=16, 1 280 cuts) needs 36 314.
BDD_NODE_BUDGET = 100_000


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
    cuts: Sequence[frozenset[str]],
    probabilities: Mapping[str, float],
    method: str = "auto",
    mc_rounds: int = 200_000,
    seed: int = 0,
) -> float:
    """Probability that at least one cut fully fails.

    Args:
        cuts: Collection of cut sets (typically the minimal RGs).
        probabilities: Failure probability per basic event.
        method: ``"exact"`` (inclusion–exclusion), ``"monte-carlo"``,
            ``"rare-event"`` (first-order upper bound ``sum Pr(ci)``),
            ``"esary-proschan"`` (``1 - prod(1 - Pr(ci))``), or ``"auto"``,
            which is exact: the family is deduplicated and sorted by (size,
            members), so the bits do not depend on input order, then goes
            to inclusion–exclusion up to :data:`IE_CROSSOVER` sets and to
            :func:`_bdd_union` above.  Only if that diagram outgrows
            :data:`BDD_NODE_BUDGET` does ``auto`` return the
            ``"monte-carlo"`` estimate for ``mc_rounds`` / ``seed``.
    """
    cut_list = [frozenset(c) for c in cuts]
    if not cut_list:
        raise AnalysisError("cannot compute a union over zero cut sets")
    if method == "auto":
        family = sorted(set(cut_list), key=lambda c: (len(c), sorted(c)))
        if len(family) <= IE_CROSSOVER:
            return _inclusion_exclusion(family, probabilities)
        try:
            return _bdd_union(family, probabilities)
        except CutSetExplosion:
            method = "monte-carlo"
    if method == "exact":
        if len(cut_list) > EXACT_LIMIT:
            raise AnalysisError(
                f"{len(cut_list)} cut sets exceed the exact inclusion-"
                f"exclusion limit ({EXACT_LIMIT}); use method='monte-carlo'"
            )
        return _inclusion_exclusion(cut_list, probabilities)
    if method == "monte-carlo":
        return _monte_carlo_union(cut_list, probabilities, mc_rounds, seed)
    if method == "rare-event":
        return min(
            1.0, sum(cut_probability(c, probabilities) for c in cut_list)
        )
    if method == "esary-proschan":
        prod = 1.0
        for cut in cut_list:
            prod *= 1.0 - cut_probability(cut, probabilities)
        return 1.0 - prod
    raise AnalysisError(f"unknown method {method!r}")


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


def _bdd_union(
    cuts: list[frozenset[str]], probabilities: Mapping[str, float]
) -> float:
    """Exact union probability of a (size, members)-sorted family.

    ORs one AND-chain per cut into a reduced ordered BDD, in family order,
    with variables in order of first appearance: on the fat-tree families
    (k=12, 320 cuts) that allocates 5 080 nodes where frequency or
    alphabetical order allocates 100 833 / 107 998 and a balanced OR-tree
    54 273.  A cut that leaves the root unchanged is a superset of an
    earlier one; the diagram is rebuilt without such cuts, so they never
    shift the variable order and the bits never depend on them.
    """
    variables = list(dict.fromkeys(e for cut in cuts for e in sorted(cut)))
    cut_probability(variables, probabilities)  # every event has a weight
    bdd = BDD(variables, max_nodes=BDD_NODE_BUDGET)
    minimal = []
    with bdd._recursion_headroom():
        for cut in cuts:
            term = ONE
            for var in sorted((bdd.var_index[e] for e in cut), reverse=True):
                term = bdd.make(var, ZERO, term)
            root = bdd.apply("or", bdd.root, term)
            if root != bdd.root:
                bdd.root = root
                minimal.append(cut)
    if len(minimal) < len(cuts):
        return _bdd_union(minimal, probabilities)
    return bdd.probability(probabilities)


def _monte_carlo_union(
    cuts: list[frozenset[str]],
    probabilities: Mapping[str, float],
    rounds: int,
    seed: int,
) -> float:
    """Estimate the union probability by direct simulation."""
    if rounds < 1:
        raise AnalysisError(f"mc_rounds must be >= 1, got {rounds}")
    events = sorted({e for cut in cuts for e in cut})
    index = {e: i for i, e in enumerate(events)}
    probs = np.array([probabilities.get(e) for e in events], dtype=object)
    missing = [events[i] for i, p in enumerate(probs) if p is None]
    if missing:
        raise AnalysisError(f"no failure probability for {missing[0]!r}")
    probs = probs.astype(float)
    cut_indices = [np.array([index[e] for e in cut]) for cut in cuts]
    rng = np.random.default_rng(seed)
    hits = 0
    batch = 8192
    remaining = rounds
    while remaining > 0:
        block = min(batch, remaining)
        remaining -= block
        draws = rng.random((block, len(events))) < probs[None, :]
        any_cut = np.zeros(block, dtype=bool)
        for idx in cut_indices:
            any_cut |= draws[:, idx].all(axis=1)
        hits += int(any_cut.sum())
    return hits / rounds


def top_event_probability(
    minimal_rgs: Sequence[frozenset[str]],
    probabilities: Mapping[str, float],
    method: str = "auto",
    mc_rounds: int = 200_000,
    seed: int = 0,
) -> float:
    """``Pr(T)`` from the minimal RG family (inclusion–exclusion, §4.1.3)."""
    return union_probability(
        minimal_rgs, probabilities, method=method, mc_rounds=mc_rounds, seed=seed
    )


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


def tree_probability(graph: FaultGraph, top: Optional[str] = None) -> float:
    """Exact bottom-up ``Pr(T)`` for *tree-shaped* weighted graphs.

    Requires every event below the top to feed exactly one gate; shared
    events would make bottom-up products wrong, so they raise instead of
    silently computing a biased value (use the cut-set route or
    :func:`graph_probability_sampled` for DAGs).
    """
    root = graph.top if top is None else top
    below = graph.descendants(root)
    shared = [n for n in below if len(graph.parents(n)) > 1]
    if shared:
        raise AnalysisError(
            f"graph is not a tree (shared events, e.g. {sorted(shared)[:3]}); "
            f"bottom-up probabilities would be biased"
        )
    values: dict[str, float] = {}
    for name in graph.topological_order():
        if name != root and name not in below:
            continue
        event = graph.event(name)
        if event.is_basic:
            if event.probability is None:
                raise AnalysisError(f"basic event {name!r} has no probability")
            values[name] = event.probability
            continue
        kid_probs = [values[c] for c in graph.children(name)]
        if event.gate is GateType.OR:
            alive = 1.0
            for p in kid_probs:
                alive *= 1.0 - p
            values[name] = 1.0 - alive
        elif event.gate is GateType.AND:
            prob = 1.0
            for p in kid_probs:
                prob *= p
            values[name] = prob
        else:  # K_OF_N: Poisson-binomial tail via dynamic programming
            k = graph.threshold(name)
            dist = np.zeros(len(kid_probs) + 1)
            dist[0] = 1.0
            for p in kid_probs:
                dist[1:] = dist[1:] * (1 - p) + dist[:-1] * p
                dist[0] *= 1 - p
            values[name] = float(dist[k:].sum())
    return values[root]


def graph_probability_sampled(
    graph: FaultGraph,
    rounds: int = 200_000,
    seed: int = 0,
    batch_size: int = 8192,
) -> float:
    """Monte-Carlo ``Pr(T)`` directly on the (possibly shared-node) graph."""
    from repro.core.compile import CompiledGraph  # local: avoid cycle

    compiled = CompiledGraph(graph)
    probs = graph.probabilities()
    weights = [probs[n] for n in compiled.basic_names]
    rng = np.random.default_rng(seed)
    failures = 0
    remaining = rounds
    while remaining > 0:
        block = min(batch_size, remaining)
        remaining -= block
        draws = compiled.sample_failures(block, weights, rng)
        failures += int(compiled.evaluate_batch(draws).sum())
    return failures / rounds


def expected_error_minhash(m: int) -> float:
    """Broder's expected MinHash estimation error, O(1/sqrt(m)) (§4.2.2)."""
    if m < 1:
        raise AnalysisError(f"signature size must be >= 1, got {m}")
    return 1.0 / math.sqrt(m)
