"""Oracles for the sampled merge and for block group conversion.

Minimised blocks hold minimal risk groups of one monotone graph, so the
merge only unions and sorts them; raw failing sets (``minimise=False``)
still go through absorption.  Both are checked against
:func:`minimise_family` over the union of the blocks' own groups, run
block by block through :func:`run_plan_serial`.  ``_rows_to_groups`` is
checked against the per-row ``np.flatnonzero`` form it replaced.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compile import CompiledGraph
from repro.core.minimal_rg import minimise_family
from repro.engine import AuditEngine
from repro.engine.batch import _rows_to_groups
from repro.engine.parallel import plan_blocks, run_plan_serial
from tests.core.test_property_core import fault_graphs

ROUNDS = 512


def family_order(group):
    return (len(group), sorted(group))


def absorbed_union(graph, rounds, block_size, seed, *, minimise):
    """``minimise_family`` over every block's groups, sorted as the
    merge sorts, plus the union it was taken over."""
    plan = plan_blocks(rounds, block_size, np.random.SeedSequence(seed))
    outcomes = run_plan_serial(CompiledGraph(graph), plan, minimise=minimise)
    union = set().union(*(outcome.groups for outcome in outcomes))
    return sorted(minimise_family(union), key=family_order), union


@settings(max_examples=40, deadline=None)
@given(fault_graphs(), st.integers(0, 2**31 - 1), st.sampled_from([64, 256]))
def test_minimised_merge_equals_absorbed_union(graph, seed, block_size):
    expected, union = absorbed_union(
        graph, ROUNDS, block_size, seed, minimise=True
    )
    result = AuditEngine(n_workers=1, block_size=block_size).sample(
        graph, ROUNDS, seed=seed
    )
    assert result.risk_groups == expected
    # Absorption had nothing to remove: the union already is an antichain.
    assert len(expected) == len(union)


def test_unminimised_merge_still_absorbs_supersets(deep_graph):
    expected, union = absorbed_union(deep_graph, 2_000, 256, 4, minimise=False)
    assert any(a < b for a in union for b in union)
    result = AuditEngine(n_workers=1, block_size=256).sample(
        deep_graph, 2_000, minimise=False, seed=4
    )
    assert result.risk_groups == expected
    assert len(result.risk_groups) < len(union)
    for a in result.risk_groups:
        assert not any(b < a for b in result.risk_groups)


def flatnonzero_groups(names, rows):
    """The per-row form ``_rows_to_groups`` replaced."""
    return {frozenset(names[i] for i in np.flatnonzero(row)) for row in rows}


@pytest.mark.parametrize(
    "shape, density",
    [
        ((0, 5), 0.5),
        ((0, 1), 0.5),
        ((6, 1), 0.5),
        ((6, 1), 0.0),
        ((9, 4), 0.0),
        ((9, 4), 1.0),
        ((40, 7), 0.3),
        ((128, 65), 0.5),
    ],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rows_to_groups_matches_flatnonzero(shape, density, seed):
    rng = np.random.default_rng(seed)
    rows = rng.random(shape) < density
    if shape[0]:
        rows[rng.integers(shape[0])] = False  # at least one all-false row
    names = [f"e{i}" for i in range(shape[1])]
    assert _rows_to_groups(SimpleNamespace(basic_names=names), rows) == (
        flatnonzero_groups(names, rows)
    )
