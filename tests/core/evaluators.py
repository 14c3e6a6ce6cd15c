"""Independent Pr(T) evaluators the exact route is checked against.

The first two share no code with ``repro.core.probability`` or
``repro.core.bdd``:

* :func:`brute_force_union` sums the weight of every one of the 2^n event
  states in which some cut set has fully failed;
* :func:`bn_top_probability` reads the fault graph as a Bayesian network in
  the style of arXiv:2306.13334 (availability of replicated and k-of-n
  services): basic events are independent root nodes with a prior, every
  gate is a node with a *deterministic* conditional probability table over
  its children, and ``P(top = failed)`` is the marginal obtained by
  enumerating the joint distribution.

The third, :func:`bdd_union`, is the bit-for-bit oracle: the BDD fold
``union_probability`` used before its memoised Shannon recursion, which
must return the same float, not just a close one.

:func:`per_cut_monte_carlo_union` is the Monte-Carlo oracle: the
simulation ``union_probability``'s over-budget estimate ran one cut at a
time over the boolean draws before it evaluated cuts over packed round
words.  Same draws, same hits, so the float must be ``==``.

The named Pr(T) engines ``union_probability`` offered before it had one
behaviour are references here: :func:`inclusion_exclusion_union` (the
§4.1.3 specification, over the family as given, refused above
:data:`EXACT_LIMIT` sets), :func:`rare_event_bound` and
:func:`esary_proschan_union`.  So are the graph-side evaluators
:func:`tree_probability` (bottom-up on trees), :func:`graph_probability_sampled`
(Monte-Carlo on the compiled graph) and :func:`count_failure_states` (the
diagram's model count).

:func:`without_cut_sets` is the family oracle: Rauzy's minimal-solutions
walk with his ``without`` operator, which filtered each high branch
against the low cofactor's minimal-solutions *family* before
:meth:`BDD.minimal_solutions` filtered it against the cofactor's
*function*.  The lists must be equal.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Mapping, Optional, Sequence

import numpy as np

from repro import FaultGraph, GateType
from repro.core import probability
from repro.core.bdd import BDD, ONE, ZERO, compile_graph
from repro.core.compile import CompiledGraph
from repro.core.probability import cut_probability
from repro.errors import AnalysisError

#: Decision nodes the fold may allocate before :class:`CutSetExplosion`:
#: tripping it cost ~0.4 s, about one 200 000-round estimate.
BDD_NODE_BUDGET = 100_000

#: Above this many cut sets, :func:`inclusion_exclusion_union` (2^n terms)
#: is refused.
EXACT_LIMIT = 20


def brute_force_union(
    cuts: Sequence[frozenset[str]], probabilities: Mapping[str, float]
) -> float:
    """Total weight of the event states that contain some whole cut."""
    events = sorted({e for cut in cuts for e in cut})
    bit = {e: 1 << i for i, e in enumerate(events)}
    states = np.arange(1 << len(events), dtype=np.int64)
    weight = np.ones(len(states))
    for event in events:
        p = probabilities[event]
        weight *= np.where(states & bit[event], p, 1.0 - p)
    failed = np.zeros(len(states), dtype=bool)
    for cut in cuts:
        mask = sum(bit[e] for e in cut)
        failed |= (states & mask) == mask
    return math.fsum(weight[failed])


def gate_cpt(n_children: int, threshold: int) -> dict[tuple, float]:
    """``P(gate failed | child states)``: 1 at or above the threshold, else 0.

    OR is threshold 1, AND threshold n, k-of-n threshold k.
    """
    return {
        states: 1.0 if sum(states) >= threshold else 0.0
        for states in product((0, 1), repeat=n_children)
    }


def bn_top_probability(
    graph: FaultGraph, probabilities: Mapping[str, float]
) -> float:
    """``P(top = failed)`` by enumerating the network's joint distribution."""
    roots = graph.basic_events()
    gates = [n for n in graph.topological_order() if not graph.is_basic(n)]
    cpts = {
        g: gate_cpt(len(graph.children(g)), graph.threshold(g)) for g in gates
    }
    terms = []
    for assignment in product((0, 1), repeat=len(roots)):
        state = dict(zip(roots, assignment))
        joint = math.prod(
            probabilities[r] if state[r] else 1.0 - probabilities[r]
            for r in roots
        )
        for gate in gates:  # children first: the order is topological
            parents = tuple(state[c] for c in graph.children(gate))
            state[gate] = int(cpts[gate][parents])
        terms.append(joint * state[graph.top])
    return math.fsum(terms)


def bdd_union(
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
        return bdd_union(minimal, probabilities)
    return bdd.probability(probabilities)


def per_cut_monte_carlo_union(
    cuts: list[frozenset[str]],
    weights: Mapping[str, float],
    rounds: int,
    seed: int,
) -> float:
    """Estimate the union probability by direct simulation."""
    events = sorted({e for cut in cuts for e in cut})
    index = {e: i for i, e in enumerate(events)}
    probs = np.array([weights[e] for e in events], dtype=float)
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


def without(bdd: BDD, left: int, right: int, cache: dict) -> int:
    """The sets of ``left`` not absorbed by any set of ``right``.

    Both operands are read as *cut-set families*: each root-to-ONE
    path encodes one set, containing exactly the variables taken on
    high edges.  The result drops every ``left`` set that is a
    superset of some ``right`` set — Rauzy's ``without`` operator.
    """
    if left == ZERO or right == ONE:
        # right == ONE encodes {∅}, which absorbs everything.
        return ZERO
    if right == ZERO or left == ONE:
        return left
    key = (left, right)
    cached = cache.get(key)
    if cached is not None:
        return cached
    var, low, high = bdd._var, bdd._low, bdd._high
    l_var, r_var = var[left], var[right]
    if l_var < r_var:
        # No right set mentions l_var, so membership of the variable
        # never matters for absorption: filter both cofactors.
        result = bdd.make(
            l_var,
            without(bdd, low[left], right, cache),
            without(bdd, high[left], right, cache),
        )
    elif l_var > r_var:
        # Left sets cannot contain r_var; only the right sets without
        # it (its low cofactor) can absorb them.
        result = without(bdd, left, low[right], cache)
    else:
        # A left set containing the variable is absorbed by a right
        # set with it (high side) or without it (low side).
        filtered = without(bdd, high[left], high[right], cache)
        filtered = without(bdd, filtered, low[right], cache)
        result = bdd.make(
            l_var, without(bdd, low[left], low[right], cache), filtered
        )
    cache[key] = result
    return result


def without_minimal_solutions(bdd: BDD) -> int:
    """Root of the minimal-solutions BDD by the :func:`without` walk.

    A high branch keeps only the sets not already covered with the
    variable working: the minimal solutions of the high cofactor
    :func:`without` those of the low cofactor.
    """
    var, low, high = bdd._var, bdd._low, bdd._high
    cache: dict[int, int] = {}
    without_cache: dict[tuple[int, int], int] = {}

    def walk(node_id: int) -> int:
        if node_id <= ONE:
            return node_id
        cached = cache.get(node_id)
        if cached is not None:
            return cached
        kept = walk(low[node_id])
        result = bdd.make(
            var[node_id],
            kept,
            without(bdd, walk(high[node_id]), kept, without_cache),
        )
        cache[node_id] = result
        return result

    try:
        with bdd._recursion_headroom():
            return walk(bdd.root)
    finally:
        walk = None


def without_cut_sets(
    graph: FaultGraph, max_order: int | None = None
) -> list[frozenset[str]]:
    """``graph``'s minimal cut sets, enumerated off the :func:`without` walk's
    diagram by :meth:`BDD.minimal_cut_sets`."""
    bdd = compile_graph(graph)
    bdd._minsol_cache[bdd.root] = without_minimal_solutions(bdd)
    return bdd.minimal_cut_sets(max_order=max_order)


def inclusion_exclusion_union(
    cuts: Sequence[frozenset[str]], probabilities: Mapping[str, float]
) -> float:
    """Inclusion-exclusion over ``cuts`` as given (the §4.1.3 formula)."""
    if len(cuts) > EXACT_LIMIT:
        raise AnalysisError(
            f"{len(cuts)} cut sets exceed the exact inclusion-exclusion "
            f"limit ({EXACT_LIMIT})"
        )
    return probability._inclusion_exclusion(list(cuts), probabilities)


def rare_event_bound(
    cuts: Sequence[frozenset[str]], probabilities: Mapping[str, float]
) -> float:
    """First-order upper bound ``min(1, sum Pr(c))``."""
    return min(1.0, sum(cut_probability(c, probabilities) for c in cuts))


def esary_proschan_union(
    cuts: Sequence[frozenset[str]], probabilities: Mapping[str, float]
) -> float:
    """``1 - prod(1 - Pr(c))``: an upper bound, exact for disjoint cuts."""
    return 1.0 - math.prod(1.0 - cut_probability(c, probabilities) for c in cuts)


def count_failure_states(bdd: BDD) -> int:
    """Number of assignments that fail the top event (model count).

    This is the quantity SAT-based counters like ApproxCount
    estimate; with a BDD it is exact and linear.
    """
    var, low, high = bdd._var, bdd._low, bdd._high
    cache: dict[int, int] = {ZERO: 0, ONE: 1}

    def walk(node_id: int) -> int:
        if node_id in cache:
            return cache[node_id]
        level, lo, hi = var[node_id], low[node_id], high[node_id]
        count = (walk(lo) << (var[lo] - level - 1)) + (
            walk(hi) << (var[hi] - level - 1)
        )
        cache[node_id] = count
        return count

    try:
        with bdd._recursion_headroom():
            return walk(bdd.root) << var[bdd.root]
    finally:
        walk = None


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
