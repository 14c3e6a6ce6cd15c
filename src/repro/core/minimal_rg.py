"""Exact minimal risk group (RG) computation (§4.1.2, "Minimal RG algorithm").

A *risk group* is a set of basic failure events whose simultaneous failure
fails the top event; it is *minimal* when no proper subset is still a risk
group.  Minimal RGs are the classic "minimal cut sets" of fault tree
analysis [Vesely et al. 1981].  The problem is NP-hard in general (Valiant
1979), which is exactly why the paper pairs this precise algorithm with
the cheaper failure-sampling alternative.

:func:`minimal_risk_groups` runs one exact algorithm on every graph: it
compiles the structure function into a reduced ordered BDD and extracts
the cut sets with Rauzy's minimal-solutions recursion
(:meth:`~repro.core.bdd.BDD.minimal_cut_sets`) — absorption on the shared
diagram instead of on exploded set families.  That is ``method="auto"``.

``method="mocus"`` is the paper's algorithm as written, kept by name as
the *specification* the diagram is tested against (the parity suites in
``tests/core`` and the perf ledger's ``core.minimal_rg.mocus_s`` span):
traverse the graph bottom-up, combining children's cut-set families
through each gate —

* ``OR``  — union of the children's families,
* ``AND`` — cartesian products across children,
* ``K_OF_N`` — cartesian products across every ``k``-subset of children,

with *absorption* (dropping supersets) applied aggressively after each
combination step so intermediate families stay small.  Both return
bit-identical sorted families; nothing selects between them.

``max_order`` implements standard fault-tree truncation: cut sets larger
than the given order are discarded during the traversal.  Truncated results
are still sound (every returned set is a minimal RG) but may be incomplete.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Optional

from repro.core.events import GateType
from repro.core.faultgraph import FaultGraph
from repro.errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - typing only, bdd imports us
    from repro.core.bdd import BDD

__all__ = [
    "CutSetExplosion",
    "MAX_GROUPS",
    "node_budget",
    "minimal_risk_groups",
    "minimise_family",
    "is_risk_group",
    "is_minimal_risk_group",
    "unexpected_risk_groups",
]

#: Safety valve of every exact-RG computation: a cut-set family that grows
#: past this many sets raises :class:`CutSetExplosion`.
MAX_GROUPS = 1_000_000


def node_budget(max_groups: Optional[int]) -> Optional[int]:
    """BDD decision-node cap matching a ``max_groups`` family cap.

    An adversarial variable ordering makes the diagram itself (not just
    the family) exponential, so every compile on a cut-set path should
    carry this budget: generous headroom over the family cap, but never
    unbounded while a cap is set.
    """
    return None if max_groups is None else max(10_000, 2 * max_groups)


class CutSetExplosion(AnalysisError):
    """Raised when the cut-set family exceeds its cap (:data:`MAX_GROUPS`).

    Callers can either set ``max_order`` truncation or fall back to the
    failure sampling algorithm.
    """


def minimise_family(
    family: Iterable[frozenset[str]],
) -> list[frozenset[str]]:
    """Remove non-minimal sets (absorption law): keep no supersets.

    Runs in roughly O(total number of element occurrences) using an
    element->kept-set index, rather than the quadratic all-pairs check.
    """
    unique = sorted(set(family), key=lambda s: (len(s), sorted(s)))
    if unique and not unique[0]:
        # The empty set never enters the element index below, yet it is
        # a subset of every set: it alone survives.
        return unique[:1]
    kept: list[frozenset[str]] = []
    kept_sizes: list[int] = []
    by_element: dict[str, list[int]] = defaultdict(list)
    for candidate in unique:
        hits: dict[int, int] = defaultdict(int)
        absorbed = False
        for element in candidate:
            for idx in by_element[element]:
                hits[idx] += 1
                if hits[idx] == kept_sizes[idx]:
                    absorbed = True
                    break
            if absorbed:
                break
        if absorbed:
            continue
        idx = len(kept)
        kept.append(candidate)
        kept_sizes.append(len(candidate))
        for element in candidate:
            by_element[element].append(idx)
    return kept


def _overflow(
    accumulated: set[frozenset[str]], max_groups: int, where: str
) -> set[frozenset[str]]:
    """Enforce ``max_groups`` *during* accumulation.

    Absorption first: a raw product crossing the cap may still minimise
    to a small family (shared singletons absorb most unions), so only a
    family that stays oversized after :func:`minimise_family` raises.
    Either way the blow-up is caught while accumulating — memory and
    work stay bounded by the cap, never by the raw product size.  The
    2x slack keeps the minimise pass amortised: after a shrink below
    the cap, at least ``max_groups`` further sets arrive before the
    next pass.
    """
    if len(accumulated) <= 2 * max_groups:
        return accumulated
    accumulated = set(minimise_family(accumulated))
    if len(accumulated) > max_groups:
        raise CutSetExplosion(
            f"cut-set family at {where} exceeded {max_groups} sets"
        )
    return accumulated


def _product(
    left: list[frozenset[str]],
    right: list[frozenset[str]],
    max_order: Optional[int],
    max_groups: int,
    where: str,
) -> list[frozenset[str]]:
    """Cartesian combine two families (AND gate), minimising as we go."""
    out: set[frozenset[str]] = set()
    for a in left:
        for b in right:
            merged = a | b
            if max_order is None or len(merged) <= max_order:
                out.add(merged)
                out = _overflow(out, max_groups, where)
    return minimise_family(out)


def _bdd_minimal_risk_groups(
    graph: FaultGraph,
    root: str,
    max_order: Optional[int],
) -> tuple[list[frozenset[str]], BDD]:
    """The BDD route: compile and run Rauzy's minimal-solutions
    extraction.  Returns the family and the diagram it was read from,
    whose root is ``root``'s whole function even under ``max_order``."""
    from repro.core.bdd import compile_graph  # deferred: bdd imports us

    scoped = (
        graph
        if graph.has_top and root == graph.top
        else graph.subgraph(root)
    )
    bdd = compile_graph(scoped, max_nodes=node_budget(MAX_GROUPS))
    groups = bdd.minimal_cut_sets(max_order=max_order, max_groups=MAX_GROUPS)
    return groups, bdd


def minimal_risk_groups(
    graph: FaultGraph,
    top: Optional[str] = None,
    max_order: Optional[int] = None,
    method: str = "auto",
) -> list[frozenset[str]]:
    """Compute all minimal risk groups of ``graph``.

    Args:
        graph: The dependency graph to analyse (any level of detail).
        top: Event to treat as the top; defaults to the graph's top event.
        max_order: Optional truncation — discard cut sets with more than
            this many events.  ``None`` computes the complete family.
        method: ``"auto"`` compiles the graph and extracts via Rauzy's
            minimal-solutions recursion; ``"mocus"`` runs the paper's
            family-combination traversal, kept by name as the
            specification the diagram is tested against.  Both return
            bit-identical sorted families.

    Returns:
        Minimal RGs sorted by (size, lexicographic members) so results are
        deterministic and directly consumable by the ranking step.

    Raises:
        CutSetExplosion: An intermediate family grew past
            :data:`MAX_GROUPS` sets.
    """
    if method not in ("auto", "mocus"):
        raise AnalysisError(f"method must be auto|mocus, got {method!r}")
    root = graph.top if top is None else top
    if method == "auto":
        return _bdd_minimal_risk_groups(graph, root, max_order)[0]
    max_groups = MAX_GROUPS
    families: dict[str, list[frozenset[str]]] = {}
    needed = graph.descendants(root) | {root}
    for name in graph.topological_order():
        if name not in needed:
            continue
        event = graph.event(name)
        if event.is_basic:
            families[name] = [frozenset((name,))]
            continue
        kids = graph.children(name)
        gate = event.gate
        if gate is GateType.OR:
            merged: list[frozenset[str]] = []
            for child in kids:
                merged.extend(families[child])
            family = minimise_family(merged)
        elif gate is GateType.AND:
            family = [frozenset()]
            for child in kids:
                family = _product(
                    family, families[child], max_order, max_groups,
                    where=repr(name),
                )
                if len(family) > max_groups:
                    raise CutSetExplosion(
                        f"cut-set family at {name!r} exceeded {max_groups} sets"
                    )
        else:  # K_OF_N
            k = graph.threshold(name)
            accumulated: set[frozenset[str]] = set()
            for subset in combinations(kids, k):
                partial = [frozenset()]
                for child in subset:
                    partial = _product(
                        partial, families[child], max_order, max_groups,
                        where=repr(name),
                    )
                accumulated.update(partial)
                accumulated = _overflow(accumulated, max_groups, repr(name))
            family = minimise_family(accumulated)
        if len(family) > max_groups:
            raise CutSetExplosion(
                f"cut-set family at {name!r} exceeded {max_groups} sets"
            )
        families[name] = family
    result = families[root]
    return sorted(result, key=lambda s: (len(s), sorted(s)))


def is_risk_group(graph: FaultGraph, events: Iterable[str]) -> bool:
    """Whether simultaneously failing ``events`` fails the top event."""
    return graph.evaluate(events)


def is_minimal_risk_group(graph: FaultGraph, events: Iterable[str]) -> bool:
    """Whether ``events`` is an RG from which no event can be dropped."""
    group = set(events)
    if not graph.evaluate(group):
        return False
    return all(not graph.evaluate(group - {e}) for e in group)


def unexpected_risk_groups(
    risk_groups: Iterable[frozenset[str]], expected_size: int
) -> list[frozenset[str]]:
    """Filter RGs smaller than the deployment's intended redundancy.

    The paper (§1) defines an unexpected RG as "a smaller than expected
    RG": an r-way redundant deployment expects every minimal RG to contain
    at least r events (one per replica), so anything smaller reveals a
    hidden common dependency.
    """
    if expected_size < 1:
        raise AnalysisError(f"expected_size must be >= 1, got {expected_size}")
    return [rg for rg in risk_groups if len(rg) < expected_size]
