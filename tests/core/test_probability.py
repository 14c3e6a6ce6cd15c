"""Unit tests for probability computations (§4.1.3 worked example)."""

import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from repro import AuditSpec, FaultGraph, GateType, SIAAuditor, minimal_risk_groups
from repro.acquisition import NetworkDependencyCollector
from repro.core import probability
from repro.core.bdd import compile_graph
from repro.core.ranking import rank_by_probability
from repro.core.probability import (
    cut_probability,
    expected_error_minhash,
    top_event_probability,
    union_probability,
)
from repro.depdb import DepDB
from repro.errors import AnalysisError
from repro.failures import uniform_weigher
from repro.topology import FatTreeConfig, fat_tree
from tests.core.evaluators import (
    bn_top_probability,
    brute_force_union,
    esary_proschan_union,
    graph_probability_sampled,
    per_cut_monte_carlo_union,
    rare_event_bound,
    tree_probability,
)

CUTS_4B = [frozenset({"A2"}), frozenset({"A1", "A3"})]


class TestCutProbability:
    def test_product(self, figure_4b_probs):
        assert cut_probability({"A1", "A3"}, figure_4b_probs) == pytest.approx(
            0.03
        )

    def test_single(self, figure_4b_probs):
        assert cut_probability({"A2"}, figure_4b_probs) == 0.2

    def test_missing_probability(self):
        with pytest.raises(AnalysisError, match="no failure probability"):
            cut_probability({"zz"}, {})


class TestUnionProbability:
    def test_paper_inclusion_exclusion(self, figure_4b_probs):
        # Pr(T) = 0.1*0.3 + 0.2 - 0.1*0.3*0.2 = 0.224
        assert union_probability(CUTS_4B, figure_4b_probs) == pytest.approx(
            0.224
        )

    def test_monte_carlo_agrees(self, figure_4b_probs):
        """The per-cut simulation oracle lands near the exact value."""
        estimate = per_cut_monte_carlo_union(CUTS_4B, figure_4b_probs, 200_000, 0)
        assert estimate == pytest.approx(
            union_probability(CUTS_4B, figure_4b_probs), abs=0.01
        )

    def test_rare_event_upper_bound(self, figure_4b_probs):
        bound = rare_event_bound(CUTS_4B, figure_4b_probs)
        assert bound == pytest.approx(0.23)
        assert bound >= union_probability(CUTS_4B, figure_4b_probs)

    def test_esary_proschan_bound(self, figure_4b_probs):
        bound = esary_proschan_union(CUTS_4B, figure_4b_probs)
        # 1 - (1-0.2)(1-0.03) = 0.224; equals exact here because the two
        # cuts share no events.
        assert bound == pytest.approx(0.224)
        assert bound == pytest.approx(
            union_probability(CUTS_4B, figure_4b_probs), abs=1e-15
        )

    def test_overlapping_cuts_inclusion_exclusion(self):
        probs = {"a": 0.5, "b": 0.5}
        cuts = [frozenset({"a"}), frozenset({"a", "b"})]
        # Union = Pr(a) since second cut implies the first.
        assert union_probability(cuts, probs) == pytest.approx(0.5)

    def test_auto_is_exact_beyond_the_limit(self):
        probs = {f"e{i}": 0.01 for i in range(30)}
        cuts = [frozenset({f"e{i}"}) for i in range(30)]
        value = union_probability(cuts, probs)
        exact = 1 - 0.99**30
        assert value == pytest.approx(exact, abs=1e-12)

    def test_small_families_are_stable_under_order_and_duplicates(
        self, figure_4b_probs
    ):
        # The bit-level laws of larger families: test_property_core.py.
        value = union_probability(CUTS_4B, figure_4b_probs)
        assert union_probability(CUTS_4B[::-1] * 6, figure_4b_probs) == value

    def test_empty_cuts_rejected(self):
        with pytest.raises(AnalysisError):
            union_probability([], {})


def random_family(rng: random.Random, n_sets: int, n_events: int = 14):
    """``n_sets`` distinct 1..4-event cuts over ``n_events`` weighted events."""
    names = [f"e{i:02d}" for i in range(n_events)]
    family = set()
    while len(family) < n_sets:
        family.add(frozenset(rng.sample(names, rng.randint(1, 4))))
    probs = {name: rng.uniform(0.01, 0.6) for name in names}
    return sorted(family, key=lambda c: (len(c), sorted(c))), probs


@pytest.fixture(scope="module")
def fat_tree_pairs():
    """The ledger's ``exact_structural`` shape: every 2-way deployment of
    four servers in four pods of a k=12 fat tree, every device at 0.1."""
    servers = [f"srv-p{pod}-t{pod % 6}-{(pod + 1) % 6}" for pod in (0, 3, 7, 10)]
    depdb = DepDB()
    NetworkDependencyCollector(
        fat_tree(FatTreeConfig(ports=12)), servers=servers
    ).adapt_into(depdb)
    auditor = SIAAuditor(depdb, weigher=uniform_weigher(0.1))
    return [
        auditor.build_graph(AuditSpec(deployment=" & ".join(pair), servers=pair))
        for pair in combinations(servers, 2)
    ]


class TestExactAuto:
    """``auto`` against evaluators that share no code with it."""

    @pytest.mark.parametrize("n_sets", range(1, 21))
    def test_bdd_pass_matches_inclusion_exclusion(self, n_sets):
        cuts, probs = random_family(random.Random(4130 + n_sets), n_sets)
        reference = probability._inclusion_exclusion(cuts, probs)
        assert probability._shannon_union(cuts, probs) == pytest.approx(
            reference, abs=1e-12
        )
        assert union_probability(cuts, probs) == pytest.approx(
            reference, abs=1e-12
        )

    @pytest.mark.parametrize("n_sets", (1, 7, 11, 25, 60))
    def test_matches_enumeration_of_every_event_state(self, n_sets):
        cuts, probs = random_family(random.Random(n_sets), n_sets, 16)
        assert union_probability(cuts, probs) == pytest.approx(
            brute_force_union(cuts, probs), abs=1e-12
        )

    def test_fat_tree_families_match_the_graph_diagram(self, fat_tree_pairs):
        for graph in fat_tree_pairs:
            groups = minimal_risk_groups(graph)
            probs = graph.probabilities()
            assert len(groups) == 320
            assert union_probability(groups, probs) == pytest.approx(
                compile_graph(graph).probability(probs), abs=1e-12
            )

    def test_wide_family_needs_no_caller_side_recursion_limit(self):
        """Twelve disjoint 100-event cuts: the diagram is 1 200 variables
        deep, and for disjoint cuts Esary-Proschan is the closed form."""
        cuts = [
            frozenset(f"c{i:02d}-{j:03d}" for j in range(100)) for i in range(12)
        ]
        probs = {event: 0.99 for cut in cuts for event in cut}
        assert union_probability(cuts, probs) == pytest.approx(
            esary_proschan_union(cuts, probs), abs=1e-12
        )

    @pytest.mark.parametrize("n_sets", (3, 40))
    def test_missing_probability_names_the_event(self, n_sets):
        cuts, probs = random_family(random.Random(6), n_sets)
        # Only a superset of the first cut mentions the unweighted event.
        cuts.append(cuts[0] | {"unweighted"})
        with pytest.raises(AnalysisError, match="'unweighted'"):
            union_probability(cuts, probs)


class TestInputChecks:
    """Each weight is checked once, before the family takes a route, and a
    string is refused where a cut or a family belongs."""

    @pytest.mark.parametrize("route", ["auto", "monte-carlo"])
    @pytest.mark.parametrize("weight", [1.5, -0.1, float("nan"), "high"])
    def test_bad_weight_names_the_event(self, route, weight, monkeypatch):
        """``auto`` takes the two cuts by inclusion-exclusion; the
        ``monte-carlo`` family (named for the estimate it once got) has ten
        more cuts and no work budget, so it would raise
        :class:`CutSetExplosion` after the weights are checked."""
        cuts, probs = list(CUTS_4B), {"A1": 0.1, "A2": weight, "A3": 0.3}
        if route == "monte-carlo":
            cuts += [frozenset({f"x{i}"}) for i in range(10)]
            probs |= {f"x{i}": 0.1 for i in range(10)}
            monkeypatch.setattr(probability, "UNION_WORK_BUDGET", 0)
        with pytest.raises(AnalysisError, match="'A2'"):
            union_probability(cuts, probs)

    @pytest.mark.parametrize("weight", [1.5, -0.1, float("nan")])
    def test_bad_weight_on_the_diagram_path(self, weight):
        cuts, probs = random_family(random.Random(7), 40)
        probs[sorted(cuts[-1])[0]] = weight
        with pytest.raises(AnalysisError, match="must be in"):
            union_probability(cuts, probs)

    def test_string_cut_and_string_family_are_refused(self):
        probs = {"a": 0.1, "b": 0.2}
        with pytest.raises(AnalysisError, match="'ab'"):
            union_probability(["ab"], probs)
        with pytest.raises(AnalysisError, match="'ab'"):
            union_probability([frozenset("a"), "ab"], probs)
        with pytest.raises(AnalysisError, match="'ab'"):
            union_probability("ab", probs)

    def test_weights_of_zero_and_one_are_valid(self):
        probs = {"A1": 1.0, "A2": 0.0, "A3": 1}
        assert union_probability(CUTS_4B, probs) == 1.0


class TestBayesianNetworkEvaluator:
    """Replicated and k-of-n services (arXiv:2306.13334) three ways: the
    cut-set route, the graph's own diagram and the network enumeration."""

    @staticmethod
    def service(replicas: int, needed: int) -> FaultGraph:
        """``replicas`` hosts over two racks and one shared image; the
        service needs ``needed`` of them up."""
        rng = random.Random(replicas * 10 + needed)
        g = FaultGraph(f"{needed}-of-{replicas}")
        g.add_basic_event("image", probability=0.01)
        for rack in range(2):
            g.add_basic_event(f"rack{rack}", probability=rng.uniform(0.01, 0.1))
        for i in range(replicas):
            g.add_basic_event(f"host{i}", probability=rng.uniform(0.05, 0.3))
            g.add_gate(
                f"replica{i}", GateType.OR, [f"host{i}", f"rack{i % 2}", "image"]
            )
        g.add_gate(
            "service",
            GateType.K_OF_N,
            [f"replica{i}" for i in range(replicas)],
            k=replicas - needed + 1,
            top=True,
        )
        return g

    @pytest.mark.parametrize(
        "replicas, needed", [(2, 1), (3, 1), (3, 2), (5, 3), (6, 3), (7, 2)]
    )
    def test_three_evaluators_agree(self, replicas, needed):
        graph = self.service(replicas, needed)
        probs = graph.probabilities()
        network = bn_top_probability(graph, probs)
        groups = minimal_risk_groups(graph)
        assert top_event_probability(groups, probs) == pytest.approx(
            network, abs=1e-12
        )
        assert compile_graph(graph).probability(probs) == pytest.approx(
            network, abs=1e-12
        )

    def test_plain_replication_closed_form(self):
        """Three replicas on private hosts behind one shared switch."""
        g = FaultGraph("replicated")
        g.add_basic_event("switch", probability=0.02)
        for i in range(3):
            g.add_basic_event(f"host{i}", probability=0.1)
            g.add_gate(f"replica{i}", GateType.OR, [f"host{i}", "switch"])
        g.add_gate(
            "service", GateType.AND, [f"replica{i}" for i in range(3)], top=True
        )
        closed_form = 0.02 + 0.98 * 0.1**3
        probs = g.probabilities()
        assert bn_top_probability(g, probs) == pytest.approx(closed_form, abs=1e-15)
        assert top_event_probability(
            minimal_risk_groups(g), probs
        ) == pytest.approx(closed_form, abs=1e-15)


class TestRelativeImportance:
    """``I_C = Pr(C) / Pr(T)``, the weight ``rank_by_probability`` gives
    each RG (§4.1.3)."""

    def test_paper_values(self, figure_4b_probs):
        top = top_event_probability(CUTS_4B, figure_4b_probs)
        importance = {
            ranked.events: ranked.importance
            for ranked in rank_by_probability(CUTS_4B, figure_4b_probs, top)
        }
        assert importance[frozenset({"A2"})] == (
            pytest.approx(0.8929, abs=1e-4)
        )
        assert importance[frozenset({"A1", "A3"})] == (
            pytest.approx(0.1339, abs=1e-4)
        )

    def test_invalid_top_probability(self, figure_4b_probs):
        for top in (0.0, 1.5):
            with pytest.raises(AnalysisError, match="top-event probability"):
                rank_by_probability(CUTS_4B, figure_4b_probs, top)


class TestTreeProbability:
    def test_simple_or(self):
        g = FaultGraph()
        g.add_basic_event("a", probability=0.1)
        g.add_basic_event("b", probability=0.2)
        g.add_gate("top", GateType.OR, ["a", "b"], top=True)
        assert tree_probability(g) == pytest.approx(1 - 0.9 * 0.8)

    def test_simple_and(self):
        g = FaultGraph()
        g.add_basic_event("a", probability=0.1)
        g.add_basic_event("b", probability=0.2)
        g.add_gate("top", GateType.AND, ["a", "b"], top=True)
        assert tree_probability(g) == pytest.approx(0.02)

    def test_k_of_n_poisson_binomial(self):
        g = FaultGraph()
        for name in "abc":
            g.add_basic_event(name, probability=0.5)
        g.add_gate("top", GateType.K_OF_N, list("abc"), k=2, top=True)
        # P(X >= 2) for Binomial(3, 0.5) = 4/8 = 0.5
        assert tree_probability(g) == pytest.approx(0.5)

    def test_shared_nodes_rejected(self, figure_4b):
        with pytest.raises(AnalysisError, match="not a tree"):
            tree_probability(figure_4b)

    def test_missing_weight_rejected(self):
        g = FaultGraph()
        g.add_basic_event("a")
        g.add_gate("top", GateType.OR, ["a"], top=True)
        with pytest.raises(AnalysisError, match="no probability"):
            tree_probability(g)


class TestGraphProbabilitySampled:
    def test_matches_cut_set_probability(self, figure_4b, figure_4b_probs):
        sampled = graph_probability_sampled(figure_4b, rounds=200_000, seed=0)
        assert sampled == pytest.approx(0.224, abs=0.01)


class TestMinHashError:
    def test_broder_bound(self):
        assert expected_error_minhash(100) == pytest.approx(0.1)
        assert expected_error_minhash(400) == pytest.approx(0.05)

    def test_invalid_size(self):
        with pytest.raises(AnalysisError):
            expected_error_minhash(0)


#: Ranks 35 three-event groups over seven unequal weights and takes
#: inclusion-exclusion over the first eight, printing every float's bits.
HASH_SEED_SCRIPT = """
import itertools, json
from repro.core.probability import union_probability
from repro.core.ranking import rank_by_probability
weights = dict(zip("ABCDEFG", (0.11, 0.23, 0.37, 0.41, 0.53, 0.67, 0.79)))
groups = [frozenset(c) for c in itertools.combinations("ABCDEFG", 3)]
ranked = rank_by_probability(groups, weights)
print(json.dumps([
    [sorted(r.events), r.probability.hex(), r.importance.hex()]
    for r in ranked
] + [union_probability(groups[:8], weights).hex()]))
"""


def test_probabilities_do_not_follow_the_hash_seed():
    src = str(Path(probability.__file__).parents[2])

    def run(seed: str) -> str:
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        ).stdout

    assert run("1") == run("2")
