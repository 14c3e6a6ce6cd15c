"""Compiled-graph caching keyed by structural hashes.

Repeated audits evaluate the *same* fault graph (or a handful of close
variants) over and over.
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

from repro.core.compile import CompiledGraph
from repro.core.faultgraph import FaultGraph
from repro.errors import AnalysisError

__all__ = [
    "structural_hash",
    "GraphCache",
    "LRUCache",
    "default_cache",
    "compile_cached",
]

#: Compiled graphs every :class:`GraphCache` keeps (LRU), one per structure.
MAX_CACHED_GRAPHS = 128


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


class LRUCache:
    """Minimal thread-safe LRU map with hit/miss accounting.

    The one LRU of the tree: the compiled-graph cache, the engine's audit
    result cache, a pool worker's graph cache and the audit service's
    content-addressed stores are all made of it.
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
            self._touch(key)

    def setdefault(self, key, value):
        """Store ``value`` unless ``key`` already has an entry; return the
        stored entry, so writers racing on one key all keep the first."""
        with self._lock:
            stored = self._entries.setdefault(key, value)
            self._touch(key)
            return stored

    def _touch(self, key) -> None:
        # Mark ``key`` most recently used and evict past the cap; the
        # caller holds the lock.
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


class GraphCache(LRUCache):
    """Thread-safe LRU cache of the sampler's :class:`CompiledGraph` forms.

    Keyed by :func:`structural_hash`: each structure is compiled on first
    demand and counted as one hit or one miss per request.
    """

    def __init__(self) -> None:
        super().__init__(MAX_CACHED_GRAPHS)

    def compile(self, graph: FaultGraph) -> CompiledGraph:
        """Return the cached :class:`CompiledGraph`, compiling on miss."""
        # It hashes the graph itself, so no caller can hand it a wrong key.
        key = structural_hash(graph)
        compiled = self.get(key)
        if compiled is None:
            compiled = self.setdefault(key, CompiledGraph(graph))
        return compiled


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
