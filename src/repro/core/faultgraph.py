"""Fault graph: the dependency-graph representation used by INDaaS (§4.1.1).

A :class:`FaultGraph` is a rooted directed acyclic graph of
:class:`~repro.core.events.Event` nodes.  Edges point from an intermediate
event to the child events whose failures feed its input gate.  Nodes may be
shared (an event can feed several gates) — this sharing is exactly how common
dependencies such as a shared aggregation switch appear in the model.

The class is deliberately self-contained (plain dictionaries) for speed.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator, Optional

from repro.core.events import Event, GateType, redundancy_threshold
from repro.errors import FaultGraphError

__all__ = ["FaultGraph"]


class FaultGraph:
    """A DAG of failure events with AND / OR / k-of-n input gates.

    Typical construction, mirroring Figure 4(a) of the paper::

        g = FaultGraph()
        for comp in ("A1", "A2", "A3"):
            g.add_basic_event(comp)
        g.add_gate("E1", GateType.OR, ["A1", "A2"])
        g.add_gate("E2", GateType.OR, ["A2", "A3"])
        g.add_gate("top", GateType.AND, ["E1", "E2"], top=True)
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._events: dict[str, Event] = {}
        self._children: dict[str, tuple[str, ...]] = {}
        self._parents: dict[str, list[str]] = {}
        self._top: Optional[str] = None
        self._topo_cache: Optional[list[str]] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_basic_event(
        self,
        name: str,
        probability: Optional[float] = None,
        description: str = "",
        kind: str = "",
        exist_ok: bool = False,
    ) -> str:
        """Add a leaf failure event and return its name.

        Args:
            exist_ok: If true and an identical basic event already exists,
                silently keep the existing node (useful when several servers
                share a component and the builder adds it once per server).
        """
        if name in self._events:
            if exist_ok and self._events[name].is_basic:
                return name
            raise FaultGraphError(f"duplicate event {name!r}")
        event = Event(
            name,
            probability=probability,
            description=description,
            kind=kind,
        )
        self._events[name] = event
        self._children[name] = ()
        self._parents.setdefault(name, [])
        self._topo_cache = None
        return name

    def add_gate(
        self,
        name: str,
        gate: GateType,
        children: Iterable[str],
        k: Optional[int] = None,
        probability: Optional[float] = None,
        description: str = "",
        kind: str = "",
        top: bool = False,
    ) -> str:
        """Add an intermediate (or top) event fed by ``children``.

        Children must already exist.  Duplicate children are rejected since
        they would silently distort k-of-n thresholds.  So a new gate,
        whose children all predate it, cannot close a cycle.
        """
        if name in self._events:
            raise FaultGraphError(f"duplicate event {name!r}")
        kids = tuple(children)
        if not kids:
            raise FaultGraphError(f"gate {name!r} needs at least one child")
        if len(set(kids)) != len(kids):
            raise FaultGraphError(f"gate {name!r} has duplicate children")
        for child in kids:
            if child not in self._events:
                raise FaultGraphError(
                    f"gate {name!r} references unknown child {child!r}"
                )
        event = Event(
            name,
            gate=gate,
            k=k if gate is GateType.K_OF_N else None,
            probability=probability,
            description=description,
            kind=kind,
        )
        # Validate threshold against actual fan-in early.
        event.threshold(len(kids))
        self._events[name] = event
        self._children[name] = kids
        self._parents.setdefault(name, [])
        for child in kids:
            self._parents[child].append(name)
        if top:
            self.set_top(name)
        self._topo_cache = None
        return name

    def add_redundancy_gate(
        self,
        name: str,
        children: Iterable[str],
        required: int,
        top: bool = False,
        description: str = "",
    ) -> str:
        """Add a gate modelling an *required-of-m* redundant deployment.

        The gate fails when enough children have failed that fewer than
        ``required`` remain alive (§4.1.1, "n-of-m AND gates").
        """
        kids = tuple(children)
        k = redundancy_threshold(required, len(kids))
        if k == len(kids):
            return self.add_gate(
                name, GateType.AND, kids, top=top, description=description
            )
        if k == 1:
            return self.add_gate(
                name, GateType.OR, kids, top=top, description=description
            )
        return self.add_gate(
            name, GateType.K_OF_N, kids, k=k, top=top, description=description
        )

    def set_top(self, name: str) -> None:
        """Mark ``name`` as the top event (failure of the whole deployment)."""
        if name not in self._events:
            raise FaultGraphError(f"unknown event {name!r}")
        self._top = name

    def set_probability(self, name: str, probability: Optional[float]) -> None:
        """Assign (or clear) the failure probability of an event."""
        event = self.event(name)
        if probability is None:
            event.probability = None
        else:
            event.probability = Event(name, probability=probability).probability

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    @property
    def top(self) -> str:
        """Name of the top event.  Raises if none was designated."""
        if self._top is None:
            raise FaultGraphError(f"fault graph {self.name!r} has no top event")
        return self._top

    @property
    def has_top(self) -> bool:
        return self._top is not None

    def __contains__(self, name: str) -> bool:
        return name in self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[str]:
        return iter(self._events)

    def event(self, name: str) -> Event:
        try:
            return self._events[name]
        except KeyError:
            raise FaultGraphError(f"unknown event {name!r}") from None

    def children(self, name: str) -> tuple[str, ...]:
        self.event(name)
        return self._children[name]

    def parents(self, name: str) -> tuple[str, ...]:
        self.event(name)
        return tuple(self._parents[name])

    def is_basic(self, name: str) -> bool:
        return self.event(name).is_basic

    def basic_events(self) -> list[str]:
        """All leaf event names, in insertion order."""
        return [n for n, e in self._events.items() if e.is_basic]

    def events(self) -> list[str]:
        return list(self._events)

    def probability_of(self, name: str) -> Optional[float]:
        return self.event(name).probability

    def probabilities(self) -> dict[str, float]:
        """Mapping of basic event name -> probability for weighted graphs.

        Raises :class:`FaultGraphError` if any basic event lacks a weight,
        because downstream probability analyses would silently be wrong.
        """
        probs: dict[str, float] = {}
        missing: list[str] = []
        for name in self.basic_events():
            p = self._events[name].probability
            if p is None:
                missing.append(name)
            else:
                probs[name] = p
        if missing:
            preview = ", ".join(missing[:5])
            raise FaultGraphError(
                f"{len(missing)} basic events lack probabilities "
                f"(e.g. {preview}); assign them or audit at the "
                f"component-set level"
            )
        return probs

    def threshold(self, name: str) -> int:
        """Failed-children count required to fail intermediate event ``name``."""
        return self.event(name).threshold(len(self._children[name]))

    # ------------------------------------------------------------------ #
    # Traversal & validation
    # ------------------------------------------------------------------ #

    def topological_order(self) -> list[str]:
        """Event names ordered children-before-parents (Kahn's algorithm)."""
        if self._topo_cache is not None:
            return list(self._topo_cache)
        in_deg = {n: len(kids) for n, kids in self._children.items()}
        queue = deque(n for n, d in in_deg.items() if d == 0)
        order: list[str] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for parent in self._parents[node]:
                in_deg[parent] -= 1
                if in_deg[parent] == 0:
                    queue.append(parent)
        if len(order) != len(self._events):
            raise FaultGraphError(f"fault graph {self.name!r} contains a cycle")
        self._topo_cache = order
        return list(order)

    def validate(self) -> None:
        """Check structural invariants; raises :class:`FaultGraphError`.

        * the graph is acyclic,
        * a top event is designated and every event can reach it (no
          dangling islands that would silently be ignored by audits),
        * every gate's threshold is consistent with its fan-in.
        """
        self.topological_order()
        top = self.top
        reachable = self._descendants_of(top) | {top}
        orphans = [n for n in self._events if n not in reachable]
        if orphans:
            preview = ", ".join(sorted(orphans)[:5])
            raise FaultGraphError(
                f"{len(orphans)} events unreachable from top {top!r} "
                f"(e.g. {preview})"
            )
        for name in self._events:
            if not self._events[name].is_basic:
                self.threshold(name)

    def _descendants_of(self, name: str) -> set[str]:
        seen: set[str] = set()
        stack = [name]
        while stack:
            node = stack.pop()
            for child in self._children[node]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def descendants(self, name: str) -> set[str]:
        """All events reachable below ``name`` (excluding itself)."""
        self.event(name)
        return self._descendants_of(name)

    def basic_events_under(self, name: str) -> set[str]:
        """Leaf events in the subgraph rooted at ``name`` (inclusive)."""
        below = self._descendants_of(name) | {name}
        return {n for n in below if self._events[n].is_basic}

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def evaluate(self, failed: Iterable[str]) -> bool:
        """Whether the top event fails given a set of failed basic events.

        Implements one "sampling round" of §4.1.2 deterministically: basic
        events listed in ``failed`` output 1, gates propagate according to
        their type, and the value of the top event is returned.
        """
        return self.evaluate_all(failed)[self.top]

    def evaluate_all(self, failed: Iterable[str]) -> dict[str, bool]:
        """Failure value of *every* event under the given assignment."""
        failed_set = set(failed)
        unknown = failed_set.difference(self._events)
        if unknown:
            raise FaultGraphError(f"unknown events in assignment: {sorted(unknown)}")
        values: dict[str, bool] = {}
        for name in self.topological_order():
            event = self._events[name]
            if event.is_basic:
                values[name] = name in failed_set
            else:
                kids = self._children[name]
                fails = sum(values[c] for c in kids)
                values[name] = fails >= event.threshold(len(kids))
        return values

    # ------------------------------------------------------------------ #
    # Transformation
    # ------------------------------------------------------------------ #

    def copy(self, name: Optional[str] = None) -> "FaultGraph":
        """Deep copy (event objects are re-created, metadata shallow-copied)."""
        clone = FaultGraph(self.name if name is None else name)
        for node in self.topological_order():
            event = self._events[node]
            if event.is_basic:
                clone.add_basic_event(
                    node,
                    probability=event.probability,
                    description=event.description,
                    kind=event.kind,
                )
            else:
                clone.add_gate(
                    node,
                    event.gate,
                    self._children[node],
                    k=event.k,
                    probability=event.probability,
                    description=event.description,
                    kind=event.kind,
                )
            clone._events[node].metadata = dict(event.metadata)
        if self._top is not None:
            clone.set_top(self._top)
        return clone

    def subgraph(self, root: str, name: str = "") -> "FaultGraph":
        """Extract the subgraph rooted at ``root`` as a new fault graph."""
        keep = self._descendants_of(root) | {root}
        clone = FaultGraph(name or f"{self.name}/{root}")
        for node in self.topological_order():
            if node not in keep:
                continue
            event = self._events[node]
            if event.is_basic:
                clone.add_basic_event(
                    node,
                    probability=event.probability,
                    description=event.description,
                    kind=event.kind,
                )
            else:
                clone.add_gate(
                    node,
                    event.gate,
                    self._children[node],
                    k=event.k,
                    probability=event.probability,
                    description=event.description,
                    kind=event.kind,
                )
        clone.set_top(root)
        return clone

    def map_probabilities(
        self, assign: Callable[[Event], Optional[float]]
    ) -> "FaultGraph":
        """Return a copy whose basic-event weights come from ``assign``.

        ``assign`` receives each basic :class:`Event` and returns a
        probability (or ``None`` to leave the event unweighted).  Used to
        "upgrade" a structural graph to the fault-set level once failure
        probabilities become available (§5.1).
        """
        clone = self.copy()
        for node in clone.basic_events():
            clone.set_probability(node, assign(clone.event(node)))
        return clone

    def stats(self) -> dict[str, int]:
        """Node/edge counts, useful in reports and benchmarks."""
        n_edges = sum(len(kids) for kids in self._children.values())
        basics = sum(1 for e in self._events.values() if e.is_basic)
        return {
            "events": len(self._events),
            "basic_events": basics,
            "gates": len(self._events) - basics,
            "edges": n_edges,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        top = self._top if self._top is not None else "?"
        return (
            f"FaultGraph({self.name!r}, top={top!r}, "
            f"events={s['events']}, basic={s['basic_events']})"
        )
