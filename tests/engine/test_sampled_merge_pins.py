"""Pinned bytes of sampled audits whose merge carries many groups.

A sampled audit merges the risk groups of every block into one family.
The graphs here have the shape of the §6.2.3 component-set deployments
(3-4 providers of 5 components, some shared): they have 19 to 257
minimal risk groups, and 768 rounds in 256-round blocks find dozens to
hundreds of them.  Each pin is the sha-256 of a canonical document, so
any change to how blocks turn rows into groups or how the merge folds
them fails here unless it is byte-neutral.  ``elapsed_seconds`` is the
only field dropped before hashing.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import AuditEngine, AuditSpec, ComponentSets, RGAlgorithm, SIAAuditor
from repro.depdb import DepDB

ROUNDS = 768
BLOCK = 256


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def component_sets(g: int) -> dict[str, list[str]]:
    """Graph ``g`` of the small-audit shape: ``3 + g % 2`` providers of
    five components, ``1 + g % 3`` of them shared by every provider."""
    shared = 1 + g % 3
    return {
        f"g{g}-P{p}": [f"g{g}-shared-{j}" for j in range(shared)]
        + [f"g{g}-p{p}-{j}" for j in range(5 - shared)]
        for p in range(3 + g % 2)
    }


def graph(g: int):
    return ComponentSets.from_mapping(component_sets(g)).to_fault_graph(
        f"small-{g}"
    )


def spec(g: int, seed: int) -> AuditSpec:
    return AuditSpec(
        deployment=f"small-{g}",
        servers=tuple(component_sets(g)),
        algorithm=RGAlgorithm.SAMPLING,
        sampling_rounds=ROUNDS,
        seed=seed,
    )


def report_bytes(g: int, seed: int) -> str:
    auditor = SIAAuditor(
        DepDB(), engine=AuditEngine(n_workers=1, block_size=BLOCK)
    )
    document = auditor.audit_graph(graph(g), spec(g, seed)).to_dict()
    document.pop("elapsed_seconds", None)
    return json.dumps(document, sort_keys=True)


def result_document(result) -> str:
    return json.dumps(
        {
            "rounds": result.rounds,
            "top_failures": result.top_failures,
            "risk_groups": [sorted(group) for group in result.risk_groups],
            "estimate": result.top_probability_estimate,
            "minimised": result.minimised,
            "metadata": result.metadata,
        },
        sort_keys=True,
    )


# (graph, seed) -> (groups the merge carries, sha-256 of the report)
REPORT_PINS = {
    (0, 1): (
        65,
        "3f3cbfabc390f948a6199e4c907984547f2515433ba501a171fb7e4174dab4c3",
    ),
    (1, 2): (
        71,
        "a59bc7cc5e9137105c79979efef2e0fe65912032e035a4d6fc4c1f60dfd08f26",
    ),
    (3, 3): (
        194,
        "7523df75fb863c2aa3425b5e22916b72bfa484ff93f1a126e67e598755ea9a2e",
    ),
    (3, 4): (
        198,
        "b8f833ccf4ed5127b94b2e97e45207344e3fca8b0f1f9ee2e86a572ad185b328",
    ),
    (4, 5): (
        29,
        "a2f131e24b09d51b8aa8330a77342ba5a5fb81f07d8207e3873f52fcc7f18030",
    ),
    (7, 6): (
        70,
        "8725e3449eaf0523fe6a87fb5172bc93e2d5a646beeaba2264cb1e56ef5c9ba1",
    ),
}


@pytest.mark.parametrize(
    "g, seed", sorted(REPORT_PINS), ids=lambda v: str(v)
)
def test_sampled_report_bytes_are_pinned(g, seed):
    groups, pin = REPORT_PINS[(g, seed)]
    result = AuditEngine(n_workers=1, block_size=BLOCK).sample(
        graph(g), ROUNDS, seed=seed
    )
    assert len(result.risk_groups) == groups
    assert sha(report_bytes(g, seed)) == pin


RAW_PIN = (
    56,
    "180f712a922d8cf245c2efce32929da8d1199f0742468f768e142e29154aca46",
)


def test_unminimised_sample_is_pinned():
    groups, pin = RAW_PIN
    result = AuditEngine(n_workers=1, block_size=BLOCK).sample(
        graph(3), ROUNDS, sample_probability=0.2, minimise=False, seed=9
    )
    assert len(result.risk_groups) == groups
    assert sha(result_document(result)) == pin
