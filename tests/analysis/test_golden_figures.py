"""Golden regression pins for the fig7/fig9 headline numbers.

Perf refactors keep touching the sampling hot path; the determinism
contract says results may never move unless a PR *means* to move them.
These tests pin smoke-scale headline numbers — Figure 7 detection rates
and the Figure 9 SIA-vs-PIA deployment rankings — to a checked-in JSON
file, so a silent behavioural change fails loudly instead of drifting.

To intentionally re-baseline after a deliberate semantic change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/analysis/test_golden_figures.py

and commit the regenerated ``golden/figures.json`` with an explanation.
"""

import json
import os
from pathlib import Path

import pytest

from repro import AuditEngine, AuditSpec, RGAlgorithm, SIAAuditor
from repro.core import minimal_risk_groups
from repro.core.report import AuditReport
from repro.depdb import DepDB
from repro.depdb.records import HardwareDependency
from repro.privacy.pia import PIAAuditor

GOLDEN_PATH = Path(__file__).parent / "golden" / "figures.json"

#: Figure 7 (smoke scale): topology-A stand-in, fixed seed.
FIG7_PORTS = 4
FIG7_SERVERS = 3
FIG7_SEED = 7
FIG7_ROUNDS = (100, 1_000, 5_000)

#: Figure 9 (smoke scale): 4 providers with *asymmetric* overlap —
#: sliding 12-element windows over a 30-element universe, so different
#: pairs have genuinely different Jaccard similarity and the "which
#: deployment is most independent" question has a pinnable answer.
FIG9_WINDOW = 12
FIG9_UNIVERSE = 30
FIG9_PROVIDERS = 4
FIG9_STRIDE = 7
FIG9_ROUNDS = 1_500


def fig7_graph():
    from repro.acquisition import NetworkDependencyCollector
    from repro.topology import FatTreeConfig, fat_tree, fat_tree_routes

    config = FatTreeConfig(ports=FIG7_PORTS)
    topology = fat_tree(config)
    servers = [f"srv-p{p}-t0-0" for p in range(FIG7_SERVERS)]
    static = {s: fat_tree_routes(config, s) for s in servers}
    depdb = DepDB()
    NetworkDependencyCollector(
        topology, servers=servers, static_routes=static
    ).adapt_into(depdb)
    return SIAAuditor(depdb).build_graph(
        AuditSpec(deployment="fig7", servers=tuple(servers))
    )


def compute_fig7() -> dict:
    graph = fig7_graph()
    reference = minimal_risk_groups(graph)
    series = []
    for rounds in FIG7_ROUNDS:
        result = AuditEngine(n_workers=1).sample(graph, rounds, seed=FIG7_SEED)
        series.append(
            {
                "rounds": rounds,
                "detection_rate": result.detection_rate(reference),
                "top_failures": result.top_failures,
                "risk_groups": len(result.risk_groups),
            }
        )
    return {
        "ports": FIG7_PORTS,
        "servers": FIG7_SERVERS,
        "seed": FIG7_SEED,
        "events": graph.stats()["events"],
        "minimal_rg_count": len(reference),
        "series": series,
    }


def fig9_sets() -> dict[str, list[str]]:
    return {
        f"P{i}": [
            f"e{(i * FIG9_STRIDE + j) % FIG9_UNIVERSE}"
            for j in range(FIG9_WINDOW)
        ]
        for i in range(FIG9_PROVIDERS)
    }


def fig9_sia_report(sets: dict, algorithm: RGAlgorithm) -> AuditReport:
    from itertools import combinations

    depdb = DepDB(
        HardwareDependency(hw=provider, type="component", dep=element)
        for provider in sets
        for element in sets[provider]
    )
    auditor = SIAAuditor(depdb)
    specs = [
        AuditSpec(
            deployment=f"{a} & {b}",
            servers=(a, b),
            algorithm=algorithm,
            sampling_rounds=FIG9_ROUNDS,
            seed=0,
        )
        for a, b in combinations(sorted(sets), 2)
    ]
    return auditor.audit(specs, title="fig9 golden")


def compute_fig9() -> dict:
    sets = fig9_sets()
    sampling = fig9_sia_report(sets, RGAlgorithm.SAMPLING)
    minimal = fig9_sia_report(sets, RGAlgorithm.MINIMAL)
    pia = PIAAuditor(sets, protocol="plaintext").audit(ways=2)
    return {
        "providers": FIG9_PROVIDERS,
        "elements": FIG9_WINDOW,
        "rounds": FIG9_ROUNDS,
        "sia_sampling": {
            "ranking": [
                a.deployment for a in sampling.ranked_deployments()
            ],
            "scores": {a.deployment: a.score for a in sampling.audits},
        },
        "sia_minimal": {
            "ranking": [a.deployment for a in minimal.ranked_deployments()],
            "scores": {a.deployment: a.score for a in minimal.audits},
        },
        "pia_plaintext": {
            "ranking": [entry.name for entry in pia.entries],
            "jaccard": {entry.name: entry.jaccard for entry in pia.entries},
        },
    }


def compute_all() -> dict:
    return {"fig7": compute_fig7(), "fig9": compute_fig9()}


@pytest.fixture(scope="module")
def computed() -> dict:
    measured = compute_all()
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(measured, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return measured


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN_PATH.exists():  # pragma: no cover - setup error
        pytest.fail(
            f"{GOLDEN_PATH} missing; regenerate with REPRO_UPDATE_GOLDEN=1"
        )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class TestGoldenFig7:
    def test_headline_numbers_pinned(self, computed, golden):
        assert computed["fig7"] == golden["fig7"]

    def test_detection_improves_with_rounds(self, computed):
        rates = [
            point["detection_rate"] for point in computed["fig7"]["series"]
        ]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        assert rates[-1] >= 0.95


class TestGoldenFig9:
    def test_rankings_pinned(self, computed, golden):
        assert computed["fig9"] == golden["fig9"]

    def test_sia_and_pia_agree_on_the_independent_pairs(self, computed):
        """The paper's point: both engines surface the same winners.

        The two zero-overlap provider pairs must outrank every
        overlapping pair under the exact SIA engine and under PIA.
        """
        fig9 = computed["fig9"]
        disjoint = {"P0 & P2", "P1 & P3"}
        assert set(fig9["sia_minimal"]["ranking"][:2]) == disjoint
        assert set(fig9["pia_plaintext"]["ranking"][:2]) == disjoint
        jaccard = fig9["pia_plaintext"]["jaccard"]
        assert all(jaccard[name] == 0.0 for name in disjoint)


def test_golden_file_is_exactly_what_this_code_computes(computed, golden):
    """Whole-document equality — any drift anywhere fails here."""
    assert computed == golden
