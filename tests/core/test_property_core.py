"""Property-based tests for the core algorithms (hypothesis).

Invariants checked on randomly generated fault graphs:

* every reported minimal RG is a risk group and is minimal;
* the diagram route (``auto``, ``bdd``) returns the family of the paper's
  family-combination traversal (``mocus``, kept by name as the specification);
* the minimal-solutions walk that filters against the low cofactor's
  function returns the list of the walk that filtered against its family
  (``evaluators.without``), at every ``max_order``;
* the sampler only reports risk groups, and (minimised) only minimal ones;
* fault graphs are monotone: adding failures never un-fails the top;
* absorption (minimise_family) yields an antichain covering the input;
* exact inclusion-exclusion matches the per-cut Monte-Carlo oracle;
* ``Pr(T)`` from the minimal RGs equals ``Pr(T)`` from the graph's own BDD;
* the union is monotone in the family, and its bits do not depend on
  order, duplicates or absorbed supersets;
* the Shannon recursion returns the BDD fold's float, ``==``, with one
  memo entry per node of the fold's diagram.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro import FailureSampler, FaultGraph, GateType, minimal_risk_groups
from repro.core import probability
from repro.core.bdd import BDD, ONE, ZERO, compile_graph
from repro.core.compile import CompiledGraph
from repro.core.minimal_rg import is_minimal_risk_group, minimise_family
from repro.core.probability import top_event_probability, union_probability
from tests.core import evaluators


@st.composite
def fault_graphs(draw) -> FaultGraph:
    """Random layered DAGs with 3-8 leaves and 2-6 gates."""
    n_leaves = draw(st.integers(3, 8))
    g = FaultGraph("random")
    nodes = []
    for i in range(n_leaves):
        nodes.append(g.add_basic_event(f"L{i}"))
    n_gates = draw(st.integers(2, 6))
    for i in range(n_gates):
        fan_in = draw(st.integers(1, min(4, len(nodes))))
        children = draw(
            st.lists(
                st.sampled_from(nodes),
                min_size=fan_in,
                max_size=fan_in,
                unique=True,
            )
        )
        gate = draw(st.sampled_from([GateType.AND, GateType.OR, GateType.K_OF_N]))
        k = None
        if gate is GateType.K_OF_N:
            k = draw(st.integers(1, len(children)))
        nodes.append(g.add_gate(f"G{i}", gate, children, k=k))
    # Root everything unreachable into one final OR gate on top of the
    # last gate plus any orphans.
    reachable = g.descendants(nodes[-1]) | {nodes[-1]}
    orphans = [n for n in g.events() if n not in reachable and not g.parents(n)]
    if orphans:
        g.add_gate("ROOT", GateType.OR, [nodes[-1], *orphans], top=True)
    else:
        g.set_top(nodes[-1])
    g.validate()
    return g


@settings(max_examples=60, deadline=None)
@given(fault_graphs())
def test_minimal_rgs_are_minimal_risk_groups(graph):
    groups = minimal_risk_groups(graph)
    for group in groups:
        assert is_minimal_risk_group(graph, group)


@settings(max_examples=60, deadline=None)
@given(fault_graphs())
def test_minimal_rg_family_is_antichain(graph):
    groups = minimal_risk_groups(graph)
    for a in groups:
        for b in groups:
            if a is not b:
                assert not a <= b


@settings(max_examples=60, deadline=None)
@given(fault_graphs())
def test_diagram_route_equals_the_mocus_specification(graph):
    reference = minimal_risk_groups(graph, method="mocus")
    assert minimal_risk_groups(graph) == reference


@settings(max_examples=80, deadline=None)
@given(fault_graphs(), st.sampled_from([None, 1, 2, 3]))
def test_filter_walk_equals_the_without_walk(graph, max_order):
    cut_sets = compile_graph(graph).minimal_cut_sets(max_order=max_order)
    assert cut_sets == evaluators.without_cut_sets(graph, max_order=max_order)
    assert cut_sets == minimal_risk_groups(
        graph, max_order=max_order, method="mocus"
    )


def test_without_terminals():
    bdd = BDD(["a", "b"])
    a = bdd.literal("a")
    assert evaluators.without(bdd, ZERO, a, {}) == ZERO
    assert evaluators.without(bdd, a, ZERO, {}) == a
    assert evaluators.without(bdd, a, ONE, {}) == ZERO  # {∅} absorbs everything
    assert evaluators.without(bdd, ONE, a, {}) == ONE   # ∅ has no strict subset


def test_without_drops_supersets():
    bdd = BDD(["a", "b"])
    a = bdd.literal("a")
    ab = bdd.apply("and", a, bdd.literal("b"))
    # {a,b} is a superset of {a}: nothing survives.
    assert evaluators.without(bdd, ab, a, {}) == ZERO
    # {a} is not a superset of {a,b}.
    assert evaluators.without(bdd, a, ab, {}) == a


@settings(max_examples=30, deadline=None)
@given(fault_graphs(), st.integers(0, 2**31 - 1))
def test_sampler_reports_only_minimal_risk_groups(graph, seed):
    result = FailureSampler(graph, seed=seed, batch_size=256).run(400)
    for group in result.risk_groups:
        assert graph.evaluate(group)
        assert is_minimal_risk_group(graph, group)


@settings(max_examples=30, deadline=None)
@given(fault_graphs(), st.integers(0, 2**31 - 1))
def test_sampled_groups_subset_of_true_minimal_family(graph, seed):
    true_groups = set(minimal_risk_groups(graph))
    result = FailureSampler(graph, seed=seed, batch_size=256).run(400)
    assert set(result.risk_groups) <= true_groups


@settings(max_examples=40, deadline=None)
@given(fault_graphs(), st.data())
def test_fault_graphs_are_monotone(graph, data):
    """Failing a superset of events can only keep/raise the top value."""
    leaves = graph.basic_events()
    subset = data.draw(st.sets(st.sampled_from(leaves), max_size=len(leaves)))
    extra = data.draw(st.sets(st.sampled_from(leaves), max_size=len(leaves)))
    small = graph.evaluate(subset)
    big = graph.evaluate(set(subset) | set(extra))
    assert big or not small


@settings(max_examples=40, deadline=None)
@given(fault_graphs())
def test_compiled_evaluator_matches_reference(graph):
    compiled = CompiledGraph(graph)
    rng = np.random.default_rng(0)
    failures = rng.random((16, compiled.n_basic)) < 0.4
    top = compiled.evaluate_batch(failures)
    for row in range(16):
        failed = {
            compiled.basic_names[i] for i in np.flatnonzero(failures[row])
        }
        assert top[row] == graph.evaluate(failed)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sets(st.sampled_from("abcdefg"), min_size=0, max_size=4).map(
            frozenset
        ),
        min_size=1,
        max_size=12,
    )
)
def test_minimise_family_antichain_and_coverage(family):
    result = minimise_family(family)
    # antichain
    for a in result:
        for b in result:
            if a is not b:
                assert not a <= b
    # coverage: every input set contains some kept set
    for original in family:
        assert any(kept <= original for kept in result)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.sets(st.sampled_from("abcde"), min_size=1, max_size=3).map(
            frozenset
        ),
        min_size=1,
        max_size=6,
        unique=True,
    ),
    st.dictionaries(
        st.sampled_from("abcde"),
        st.floats(0.05, 0.95),
        min_size=5,
        max_size=5,
    ),
)
def test_inclusion_exclusion_matches_monte_carlo(cuts, probs):
    """Six cuts at most: ``auto`` takes them by inclusion-exclusion."""
    exact = union_probability(cuts, probs)
    estimate = evaluators.per_cut_monte_carlo_union(cuts, probs, 60_000, 3)
    assert abs(exact - estimate) < 0.02


@settings(max_examples=60, deadline=None)
@given(fault_graphs(), st.data())
def test_cut_set_probability_equals_graph_diagram(graph, data):
    """Three exact routes: ``auto`` (inclusion-exclusion on families this
    small), the Shannon recursion by name, and the graph's own diagram."""
    weight = st.floats(0.01, 0.99)
    probs = {leaf: data.draw(weight) for leaf in graph.basic_events()}
    groups = minimal_risk_groups(graph)
    from_graph = compile_graph(graph).probability(probs)
    assert abs(top_event_probability(groups, probs) - from_graph) <= 1e-12
    assert abs(probability._shannon_union(groups, probs) - from_graph) <= 1e-12


#: Families of 11+ distinct cuts, i.e. on the BDD side of ``IE_CROSSOVER``.
large_families = st.lists(
    st.sets(st.sampled_from("abcdefghij"), min_size=1, max_size=4).map(
        frozenset
    ),
    min_size=probability.IE_CROSSOVER + 1,
    max_size=40,
    unique=True,
)
weights = st.fixed_dictionaries(
    {event: st.floats(0.01, 0.99) for event in "abcdefghij"}
)


@settings(max_examples=60, deadline=None)
@given(large_families, weights)
def test_adding_a_cut_set_never_lowers_the_union(cuts, probs):
    assert union_probability(cuts, probs) >= (
        union_probability(cuts[:-1], probs) - 1e-12
    )


@settings(max_examples=60, deadline=None)
@given(large_families, weights, st.randoms(use_true_random=False))
def test_union_bits_ignore_order_duplicates_and_supersets(cuts, probs, rng):
    value = union_probability(cuts, probs)
    shuffled = rng.sample(cuts, len(cuts))
    assert union_probability(shuffled, probs) == value
    assert union_probability(cuts + rng.sample(cuts, 3), probs) == value
    supersets = [cut | {rng.choice("abcdefghij")} for cut in rng.sample(cuts, 3)]
    assert union_probability(supersets + cuts, probs) == value


#: Up to 90 events, so a family's bitmasks may span two 64-bit words.
ORACLE_EVENTS = [f"x{i:02d}" for i in range(90)]


@st.composite
def oracle_families(draw):
    """11-40 distinct cuts over 5-90 events, up to two long runs of 20-50
    events (so that more than 63 variables happen), supersets and
    duplicates of them on top, and weights that include 0 and 1."""
    names = ORACLE_EVENTS[: draw(st.integers(5, 90))]
    cut = st.sets(st.sampled_from(names), min_size=1, max_size=4)
    runs = st.tuples(st.integers(0, 40), st.integers(20, 50)).map(
        lambda run: frozenset(ORACLE_EVENTS[run[0] : run[0] + run[1]])
    )
    cuts = draw(
        st.lists(
            st.one_of(cut.map(frozenset), runs),
            min_size=probability.IE_CROSSOVER + 1,
            max_size=40,
            unique=True,
        )
    )
    supersets = [
        base | {extra}
        for base, extra in draw(
            st.lists(st.tuples(st.sampled_from(cuts), st.sampled_from(names)))
        )
    ]
    duplicates = draw(st.lists(st.sampled_from(cuts), max_size=3))
    weight = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99))
    probs = {name: draw(weight) for name in ORACLE_EVENTS}
    return supersets + cuts + duplicates, probs


@settings(max_examples=80, deadline=None)
@given(oracle_families())
def test_recursion_is_the_fold_bit_for_bit(case):
    cuts, probs = case
    family = sorted(set(cuts), key=lambda c: (len(c), sorted(c)))
    made: list[evaluators.BDD] = []

    class Recording(evaluators.BDD):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            made.append(self)

    with mock.patch.object(evaluators, "BDD", Recording):
        try:
            expected = evaluators.bdd_union(family, probs)
        except probability.CutSetExplosion:
            assume(False)
    memo: dict = {}
    # A family the fold finishes may still outgrow the recursion's budget:
    # open it, so every example the oracle answers is compared.
    with mock.patch.object(probability, "UNION_WORK_BUDGET", 10**12):
        assert probability._shannon_union(family, probs, memo) == expected
        assert union_probability(cuts, probs) == expected
    assert len(memo) == made[-1].size()
