"""Binary decision diagrams over fault graphs.

The MOCUS-style cut-set route (§4.1.2) and inclusion–exclusion (§4.1.3)
both explode combinatorially; the classic remedy in fault-tree analysis
is to compile the structure function into a **reduced ordered BDD**
(Bryant 1986, Rauzy 1993).  On a BDD,

* the exact top-event probability of a *shared-node DAG* is a single
  linear-time traversal (bottom-up products would be biased there), and
* minimal cut sets fall out of Rauzy's recursion.

This is an extension beyond the paper's prototype, ablated in the
benchmarks against the inclusion–exclusion and Monte-Carlo routes.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Mapping, Optional

from repro.core.events import GateType
from repro.core.faultgraph import FaultGraph
from repro.core.minimal_rg import (
    DEFAULT_MAX_GROUPS,
    CutSetExplosion,
    node_budget,
)
from repro.errors import AnalysisError

__all__ = ["BDD", "DEFAULT_BDD_NODE_BUDGET", "compile_graph"]

#: Decision-node valve every :func:`compile_graph` carries unless told
#: otherwise — the one place the family cap becomes a diagram cap.
DEFAULT_BDD_NODE_BUDGET = node_budget(DEFAULT_MAX_GROUPS)

#: Terminal node ids.
ZERO = 0
ONE = 1


class BDD:
    """A reduced ordered BDD manager for one fault graph.

    Use :func:`compile_graph`; the manager is not a general-purpose BDD
    library (no quantification, no dynamic reordering) — just what fault
    analysis needs, kept small and auditable.

    Node ``i`` is ``(_var[i], _low[i], _high[i])``: branch on the variable
    with ordering index ``_var[i]``, to ``_low[i]`` when the component is
    alive and to ``_high[i]`` when it failed.  The terminals sit one level
    below every variable (``_var == len(variables)``), so a walk reads a
    child's level without asking whether the child is a terminal.
    """

    def __init__(
        self, variables: list[str], max_nodes: Optional[int] = None
    ) -> None:
        if len(set(variables)) != len(variables):
            raise AnalysisError("duplicate variable names")
        self.variables = list(variables)
        self.var_index = {name: i for i, name in enumerate(variables)}
        self.max_nodes = max_nodes
        terminal = len(self.variables)
        self._var: list[int] = [terminal, terminal]
        self._low: list[int] = [ZERO, ONE]
        self._high: list[int] = [ZERO, ONE]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._and_cache: dict[tuple[int, int], int] = {}
        self._or_cache: dict[tuple[int, int], int] = {}
        self._minsol_cache: dict[int, int] = {}
        self.root = ZERO

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def make(self, var: int, low: int, high: int) -> int:
        """Hash-consed node creation with the reduction rule."""
        if low == high:
            return low
        key = (var, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        node_id = len(self._var)
        if self.max_nodes is not None and node_id - 2 >= self.max_nodes:
            # Same valve semantics as the MOCUS max_groups cap: an
            # adversarial variable ordering makes the diagram (and
            # therefore the extraction) exponential; raise instead of
            # silently building it.
            raise CutSetExplosion(
                f"BDD exceeded {self.max_nodes} decision nodes"
            )
        self._var.append(var)
        self._low.append(low)
        self._high.append(high)
        self._unique[key] = node_id
        return node_id

    def literal(self, name: str) -> int:
        """The BDD of "component ``name`` failed"."""
        try:
            var = self.var_index[name]
        except KeyError:
            raise AnalysisError(f"unknown variable {name!r}") from None
        return self.make(var, ZERO, ONE)

    def apply(self, op: str, left: int, right: int) -> int:
        """Binary AND/OR with memoisation (Bryant's apply)."""
        if op == "and":
            return self._and(left, right)
        if op == "or":
            return self._or(left, right)
        raise AnalysisError(f"unknown operation {op!r}")

    def _and(self, left: int, right: int) -> int:
        if left == ZERO or right == ZERO:
            return ZERO
        if left == ONE:
            return right
        if right == ONE or left == right:
            return left
        key = (left, right) if left < right else (right, left)
        cached = self._and_cache.get(key)
        if cached is not None:
            return cached
        var, low, high = self._var, self._low, self._high
        l_var, r_var = var[left], var[right]
        if l_var == r_var:
            result = self.make(
                l_var,
                self._and(low[left], low[right]),
                self._and(high[left], high[right]),
            )
        elif l_var < r_var:
            result = self.make(
                l_var, self._and(low[left], right), self._and(high[left], right)
            )
        else:
            result = self.make(
                r_var, self._and(left, low[right]), self._and(left, high[right])
            )
        self._and_cache[key] = result
        return result

    def _or(self, left: int, right: int) -> int:
        if left == ONE or right == ONE:
            return ONE
        if left == ZERO:
            return right
        if right == ZERO or left == right:
            return left
        key = (left, right) if left < right else (right, left)
        cached = self._or_cache.get(key)
        if cached is not None:
            return cached
        var, low, high = self._var, self._low, self._high
        l_var, r_var = var[left], var[right]
        if l_var == r_var:
            result = self.make(
                l_var,
                self._or(low[left], low[right]),
                self._or(high[left], high[right]),
            )
        elif l_var < r_var:
            result = self.make(
                l_var, self._or(low[left], right), self._or(high[left], right)
            )
        else:
            result = self.make(
                r_var, self._or(left, low[right]), self._or(left, high[right])
            )
        self._or_cache[key] = result
        return result

    def apply_many(self, op: str, operands: list[int]) -> int:
        """N-ary AND/OR, folded from the last operand down.

        A gate's children mostly arrive in variable order, so each step
        puts a higher variable on top of the finished tail: an n-wide OR
        of leaves allocates 2n-1 nodes, where a fold from the first
        operand rebuilds the whole chain per operand (n²/2).  The diagram
        is canonical for its variable order, so the fold direction
        changes neither the result nor a bit of :meth:`probability`.
        """
        if not operands:
            raise AnalysisError("apply_many needs at least one operand")
        result = operands[-1]
        for operand in reversed(operands[:-1]):
            result = self.apply(op, operand, result)
        return result

    def at_least(self, k: int, operands: list[int]) -> int:
        """BDD of "at least k of the operands are true" (k-of-n gates)."""
        if not 1 <= k <= len(operands):
            raise AnalysisError(
                f"threshold {k} outside 1..{len(operands)}"
            )
        # DP over children: state[j] = "at least j of the seen children".
        state = [ONE] + [ZERO] * k
        for operand in operands:
            for j in range(k, 0, -1):
                state[j] = self._or(state[j], self._and(state[j - 1], operand))
        return state[k]

    # ------------------------------------------------------------------ #
    # Analyses
    # ------------------------------------------------------------------ #
    #
    # Reading walks (probability, the path enumeration) are loops.  The
    # one recursive walk, minimal_solutions', builds nodes: it is a
    # closure that names itself, a reference cycle through the diagram's
    # arrays, so it clears its own name on the way out and the diagram
    # dies by refcount, not at the next cyclic collection.

    def size(self) -> int:
        """Decision nodes reachable from the root."""
        low, high = self._low, self._high
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            node_id = stack.pop()
            if node_id <= ONE or node_id in seen:
                continue
            seen.add(node_id)
            stack.append(low[node_id])
            stack.append(high[node_id])
        return len(seen)

    def evaluate(self, failed: set[str]) -> bool:
        """Follow one assignment down the diagram."""
        node_id = self.root
        while node_id > ONE:
            name = self.variables[self._var[node_id]]
            node_id = (
                self._high[node_id] if name in failed else self._low[node_id]
            )
        return node_id == ONE

    def probability(self, probabilities: Mapping[str, float]) -> float:
        """Exact top-event probability under independent failures.

        Linear in BDD size; correct for shared-node DAGs, unlike a
        bottom-up walk of the fault graph itself.  Nodes are made
        children-first, so one loop over ids ``2..root`` meets every
        child before its parent: no recursion, and none of the nodes a
        later :meth:`minimal_solutions` adds above the root.  Every
        variable a node of that range branches on needs a weight.
        """
        variables, var, low, high = (
            self.variables, self._var, self._low, self._high
        )
        weight = [probabilities.get(name) for name in variables]
        value = [0.0, 1.0]
        for node_id in range(2, self.root + 1):
            p = weight[var[node_id]]
            if p is None:
                raise AnalysisError(
                    f"no failure probability for {variables[var[node_id]]!r}"
                )
            value.append(
                p * value[high[node_id]] + (1.0 - p) * value[low[node_id]]
            )
        return value[self.root]

    @contextmanager
    def _recursion_headroom(self):
        """Recursion depth here is bounded by the variable count (``apply``,
        :meth:`falsified` and :meth:`minimal_solutions` descend one level
        per variable), so big graphs need more stack than CPython's
        default 1000 frames: ``compile_graph`` and
        :meth:`minimal_solutions` run in it."""
        wanted = 4 * len(self.variables) + 200
        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(max(previous, wanted))
        try:
            yield
        finally:
            sys.setrecursionlimit(previous)

    def falsified(self, family: int, function: int, memo: dict) -> int:
        """The sets of the family ``family`` on which the function
        ``function`` is false, a set read as the assignment failing exactly
        its members.  On a monotone function that is absorption by its
        minimal solutions, without building them.  ``memo`` is per walk."""
        var, low, high = self._var, self._low, self._high
        while True:
            # A diagram read as a family holds only sets it is true on.
            if family == ZERO or function == ONE or family == function:
                return ZERO
            if function == ZERO:
                return family
            f_var, g_var = var[family], var[function]
            if g_var >= f_var:
                break
            function = low[function]  # no set of the family holds g_var
        key = (family, function)
        result = memo.get(key)
        if result is not None:
            return result
        if f_var < g_var:
            g_low = g_high = function
        else:
            g_low, g_high = low[function], high[function]
        result = self.make(
            f_var,
            self.falsified(low[family], g_low, memo),
            self.falsified(high[family], g_high, memo),
        )
        memo[key] = result
        return result

    def minimal_solutions(self) -> int:
        """Root of the minimal-solutions BDD (Rauzy 1993).

        For the monotone structure functions fault graphs compile to,
        the returned diagram's ONE-paths (high-edge variables) are
        exactly the minimal cut sets: at a node ``(v, F0, F1)`` the high
        branch keeps only the sets on which ``F0`` is false
        (:meth:`falsified`), which is absorption performed on the shared
        diagram instead of on exploded set families.
        """
        var, low, high = self._var, self._low, self._high
        cache: dict[int, int] = {}
        memo: dict[tuple[int, int], int] = {}

        def walk(node_id: int) -> int:
            if node_id <= ONE:
                return node_id
            cached = cache.get(node_id)
            if cached is not None:
                return cached
            kept = walk(low[node_id])
            filtered = self.falsified(walk(high[node_id]), low[node_id], memo)
            result = self.make(var[node_id], kept, filtered)
            cache[node_id] = result
            return result

        cached = self._minsol_cache.get(self.root)
        if cached is None:
            try:
                with self._recursion_headroom():
                    cached = walk(self.root)
            finally:
                walk = None
            self._minsol_cache[self.root] = cached
        return cached

    def minimal_cut_sets(
        self,
        max_order: Optional[int] = None,
        max_groups: Optional[int] = None,
    ) -> list[frozenset[str]]:
        """Minimal cut sets via Rauzy's minimal-solutions recursion.

        Enumerates the ONE-paths of :meth:`minimal_solutions`, so every
        set is produced exactly once and no family-level absorption ever
        runs — time is O(diagram size + output).  Validated bit-identical
        to the MOCUS implementation in the tests.

        Args:
            max_order: Discard cut sets with more than this many events
                (same truncation semantics as the MOCUS route).
            max_groups: Raise :class:`CutSetExplosion` when more than
                this many cut sets would be enumerated.
        """
        variables, var, low, high = (
            self.variables, self._var, self._low, self._high
        )
        out: list[frozenset[str]] = []
        path: list[str] = []
        # (node, path length above it, the variable its high edge adds):
        # a node's low subtree is popped before its high one, the order
        # a recursion takes.
        stack = [(self.minimal_solutions(), 0, None)]
        while stack:
            node_id, depth, name = stack.pop()
            del path[depth:]
            if name is not None:
                path.append(name)
            if node_id == ONE:
                if max_groups is not None and len(out) >= max_groups:
                    raise CutSetExplosion(
                        f"cut-set family exceeded {max_groups} sets"
                    )
                out.append(frozenset(path))
            elif node_id != ZERO:
                depth = len(path)
                if max_order is None or depth < max_order:
                    stack.append(
                        (high[node_id], depth, variables[var[node_id]])
                    )
                stack.append((low[node_id], depth, None))
        return sorted(out, key=lambda s: (len(s), sorted(s)))


def compile_graph(
    graph: FaultGraph,
    ordering: Optional[list[str]] = None,
    max_nodes: Optional[int] = DEFAULT_BDD_NODE_BUDGET,
) -> BDD:
    """Compile a fault graph's structure function into a BDD.

    Args:
        graph: Any validated fault graph (shared nodes welcome).
        ordering: Optional variable ordering (basic-event names); the
            default uses the graph's topological leaf order, which keeps
            related components adjacent and the BDD small.
        max_nodes: Safety valve — raise
            :class:`~repro.core.minimal_rg.CutSetExplosion` if the
            diagram (including later extraction work) grows beyond this
            many decision nodes.  An adversarial ordering makes the
            diagram exponential, so every compile carries the shared
            budget by default; pass ``None`` for an unbounded one.
    """
    graph.validate()
    leaves = (
        list(ordering) if ordering is not None else graph.basic_events()
    )
    if set(leaves) != set(graph.basic_events()):
        raise AnalysisError(
            "ordering must contain exactly the graph's basic events"
        )
    bdd = BDD(leaves, max_nodes=max_nodes)
    node_bdds: dict[str, int] = {}
    with bdd._recursion_headroom():
        for name in graph.topological_order():
            event = graph.event(name)
            if event.is_basic:
                node_bdds[name] = bdd.literal(name)
                continue
            children = [node_bdds[c] for c in graph.children(name)]
            if event.gate is GateType.OR:
                node_bdds[name] = bdd.apply_many("or", children)
            elif event.gate is GateType.AND:
                node_bdds[name] = bdd.apply_many("and", children)
            else:
                node_bdds[name] = bdd.at_least(graph.threshold(name), children)
    bdd.root = node_bdds[graph.top]
    return bdd
