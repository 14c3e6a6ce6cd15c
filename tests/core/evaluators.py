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
``union_probability(method="auto")`` used before its memoised Shannon
recursion, which must return the same float, not just a close one.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from repro import FaultGraph
from repro.core.bdd import BDD, ONE, ZERO
from repro.core.probability import cut_probability

#: Decision nodes the fold may allocate before :class:`CutSetExplosion`:
#: tripping it cost ~0.4 s, about one 200 000-round estimate.
BDD_NODE_BUDGET = 100_000


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
