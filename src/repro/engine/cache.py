"""Compiled-graph caching keyed by structural hashes.

Repeated audits, what-if sweeps and ``compare_combinations`` runs evaluate
the *same* fault graph (or a handful of close variants) over and over.
Compiling a :class:`~repro.core.compile.CompiledGraph` — validation,
topological sort, array flattening — is pure overhead on every repeat, so
the engine hashes the graph's structure once and reuses the compiled form.

The hash covers everything evaluation and sampling depend on: node names,
gate types/thresholds, child wiring, the top event and per-event failure
probabilities.  Descriptions and the graph's display name are excluded, so
two graphs that evaluate identically share one cache entry.  Because a
lookup re-hashes the graph each time, mutating a cached graph is safe: the
mutated structure simply hashes to a new key.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Optional

from repro.core.bdd import BDD, DEFAULT_BDD_NODE_BUDGET, compile_graph
from repro.core.compile import CompiledGraph
from repro.core.faultgraph import FaultGraph
from repro.errors import AnalysisError

__all__ = [
    "structural_hash",
    "GraphCache",
    "LRUCache",
    "DEFAULT_BDD_NODE_BUDGET",
    "default_cache",
    "compile_cached",
]


def structural_hash(graph: FaultGraph) -> str:
    """Hex digest identifying a graph's evaluation-relevant structure.

    Two graphs get the same hash iff they have the same events (names,
    basic/gate kind, gate type and threshold, children in order, failure
    probability) and the same top event.  O(nodes + edges).
    """
    digest = hashlib.sha256()
    digest.update(b"indaas-fault-graph-v1\0")
    top = graph.top if graph.has_top else ""
    digest.update(top.encode())
    digest.update(b"\0")
    for name in sorted(graph.events()):
        event = graph.event(name)
        digest.update(name.encode())
        if event.is_basic:
            digest.update(b"\0basic\0")
            digest.update(repr(event.probability).encode())
        else:
            digest.update(b"\0gate\0")
            digest.update(event.gate.name.encode())
            digest.update(b"\0")
            digest.update(str(graph.threshold(name)).encode())
            for child in graph.children(name):
                digest.update(b"\0")
                digest.update(child.encode())
        digest.update(b"\1")
    return digest.hexdigest()


class GraphCache:
    """Thread-safe LRU cache of compiled fault-graph artefacts.

    One structural hash maps to both the array-compiled form (used by the
    sampler) and the BDD form (used by exact probability queries); each is
    built on first demand.
    """

    def __init__(
        self,
        maxsize: int = 128,
        bdd_node_budget: Optional[int] = DEFAULT_BDD_NODE_BUDGET,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.bdd_node_budget = bdd_node_budget
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def _entry(self, key: str) -> dict:
        """Fetch-or-create the (LRU-refreshed) slot for ``key``."""
        entry = self._entries.get(key)
        if entry is None:
            entry = {}
            self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return entry

    def compile(self, graph: FaultGraph) -> CompiledGraph:
        """Return the cached :class:`CompiledGraph`, compiling on miss."""
        key = structural_hash(graph)
        with self._lock:
            entry = self._entry(key)
            compiled = entry.get("compiled")
            if compiled is not None:
                self.hits += 1
                return compiled
            self.misses += 1
        compiled = CompiledGraph(graph)
        with self._lock:
            self._entry(key).setdefault("compiled", compiled)
        return compiled

    def compile_bdd(self, graph: FaultGraph) -> BDD:
        """Return the cached BDD form, compiling on miss.

        Compilation carries the cache's node budget: an adversarially
        ordered graph raises
        :class:`~repro.core.minimal_rg.CutSetExplosion` (before anything
        is cached) instead of building an exponential diagram — the same
        valve the uncached exact-RG routes apply.
        """
        key = structural_hash(graph)
        with self._lock:
            entry = self._entry(key)
            bdd = entry.get("bdd")
            if bdd is not None:
                self.hits += 1
                return bdd
            self.misses += 1
        bdd = compile_graph(graph, max_nodes=self.bdd_node_budget)
        with self._lock:
            self._entry(key).setdefault("bdd", bdd)
        return bdd

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def info(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
            }


class LRUCache:
    """Minimal thread-safe LRU map with hit/miss accounting.

    Shared by the engine's audit result cache and the audit service's
    content-addressed report store.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise AnalysisError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            return None

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def info(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
            }


_DEFAULT_CACHE: Optional[GraphCache] = None
_DEFAULT_LOCK = threading.Lock()


def default_cache() -> GraphCache:
    """The process-wide cache (one per worker process as well)."""
    global _DEFAULT_CACHE
    with _DEFAULT_LOCK:
        if _DEFAULT_CACHE is None:
            _DEFAULT_CACHE = GraphCache()
        return _DEFAULT_CACHE


def compile_cached(graph: FaultGraph) -> CompiledGraph:
    """Compile ``graph`` through the process-wide cache."""
    return default_cache().compile(graph)
