"""Compiled, array-based fault-graph evaluation.

The failure sampling algorithm (§4.1.2) needs to evaluate the same graph
under up to 10^7 random assignments.  Re-walking Python dictionaries per
round would dominate the runtime, so :class:`CompiledGraph` flattens a
:class:`~repro.core.faultgraph.FaultGraph` once into integer arrays and then
evaluates whole *batches* of assignments with NumPy.

The compiled form is immutable and safe to share across threads.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.faultgraph import FaultGraph
from repro.errors import FaultGraphError

__all__ = ["CompiledGraph", "pack_rounds", "unpack_rounds"]

#: Explicit little-endian uint64, so packed words mean the same bits on
#: any host: bit ``i`` of word ``j`` is round ``j * 64 + i``.
_WORD = np.dtype("<u8")


def pack_rounds(failures: np.ndarray) -> np.ndarray:
    """Pack a ``(rounds, n)`` boolean matrix into ``(n, ceil(rounds/64))``
    uint64 words.

    Row ``k`` of the result carries column ``k`` of ``failures`` as a
    bitset: bit ``i`` of word ``j`` is round ``j * 64 + i``.  Tail bits
    past ``rounds`` are zero, so monotone gate evaluation over words
    never manufactures spurious failing rounds.
    """
    failures = np.asarray(failures, dtype=bool)
    if failures.ndim != 2:
        raise FaultGraphError(
            f"expected a (rounds, n) boolean matrix, got {failures.shape}"
        )
    packed8 = np.packbits(
        np.ascontiguousarray(failures.T), axis=1, bitorder="little"
    )
    pad = -packed8.shape[1] % 8
    if pad:
        packed8 = np.pad(packed8, ((0, 0), (0, pad)))
    return np.ascontiguousarray(packed8).view(_WORD)


def unpack_rounds(words: np.ndarray, rounds: int) -> np.ndarray:
    """Inverse of :func:`pack_rounds`: ``(n, W)`` words → ``(rounds, n)``
    booleans."""
    words = np.ascontiguousarray(words, dtype=_WORD)
    return (
        np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")[
            :, :rounds
        ]
        .T.astype(bool)
    )


def _threshold_words(child_words: np.ndarray, threshold: int) -> np.ndarray:
    """Per-round popcount comparison over packed words: for each bit
    position, whether at least ``threshold`` of the ``(c, W)`` child rows
    have that bit set.

    Uses bit-sliced counters: ``planes[p]`` holds bit ``p`` of a per-round
    ripple-carry counter, so adding each child is a handful of word-wide
    AND/XOR ops instead of 64 scalar additions.  The final comparison is a
    bitwise MSB-first ``counter >= threshold`` comparator.
    """
    c, width = child_words.shape
    n_planes = c.bit_length()  # counter holds values up to c
    planes = np.zeros((n_planes, width), dtype=_WORD)
    for row in child_words:
        carry = row.copy()
        for p in range(n_planes):
            planes[p], carry = planes[p] ^ carry, planes[p] & carry
    ge = np.zeros(width, dtype=_WORD)
    eq = np.full(width, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=_WORD)
    for p in reversed(range(n_planes)):
        if (threshold >> p) & 1:
            eq &= planes[p]
        else:
            ge |= eq & planes[p]
    return ge | eq


def _threshold_bits(child_bits: Sequence[int], threshold: int) -> int:
    """:func:`_threshold_words` over arbitrary-precision ``int`` bitsets:
    the bits set in at least ``threshold`` of ``child_bits``.

    Only called with ``2 <= threshold < len(child_bits)``, so the
    comparator's ``eq`` (all ones, ``-1``) is always masked by a plane.
    """
    planes = [0] * len(child_bits).bit_length()
    for carry in child_bits:
        for p, plane in enumerate(planes):
            if not carry:
                break
            planes[p], carry = plane ^ carry, plane & carry
    ge, eq = 0, -1
    for p in reversed(range(len(planes))):
        if (threshold >> p) & 1:
            eq &= planes[p]
        else:
            ge |= eq & planes[p]
    return ge | eq


def _set_bits(mask: int, ids: Sequence[int]) -> tuple[int, ...]:
    """Positions of the set bits of ``mask``, ascending, as the objects
    ``ids`` holds (one shared int per node, not one per occurrence)."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(ids[low.bit_length() - 1])
        mask ^= low
    return tuple(bits)


class CompiledGraph:
    """Flattened topological representation of a fault graph.

    Nodes are numbered in a topological order (children before parents);
    basic events occupy the positions given by :attr:`basic_index`.  Each
    gate stores its failure threshold and a slice into a flat child-index
    array.
    """

    def __init__(self, graph: FaultGraph) -> None:
        graph.validate()
        self.graph = graph
        order = graph.topological_order()
        self.order: list[str] = order
        self.index: dict[str, int] = {name: i for i, name in enumerate(order)}
        self.n_nodes = len(order)
        self.top_index = self.index[graph.top]

        self.basic_names: list[str] = [n for n in order if graph.is_basic(n)]
        self.n_basic = len(self.basic_names)
        self.basic_index = np.array(
            [self.index[n] for n in self.basic_names], dtype=np.int64
        )
        self.basic_position = {name: i for i, name in enumerate(self.basic_names)}

        thresholds = np.zeros(self.n_nodes, dtype=np.int64)
        child_offsets = np.zeros(self.n_nodes + 1, dtype=np.int64)
        flat_children: list[int] = []
        self.gate_order: list[int] = []
        for i, name in enumerate(order):
            child_offsets[i] = len(flat_children)
            if graph.is_basic(name):
                continue
            self.gate_order.append(i)
            kids = graph.children(name)
            thresholds[i] = graph.threshold(name)
            flat_children.extend(self.index[c] for c in kids)
        child_offsets[self.n_nodes] = len(flat_children)
        self.thresholds = thresholds
        self.child_offsets = child_offsets
        self.flat_children = np.array(flat_children, dtype=np.int64)
        # Pure-Python mirrors for the row-bitset path (``cones``,
        # ``evaluate_gate_bits``), which indexes per gate, not per batch.
        self._children_py: list[list[int]] = [
            flat_children[child_offsets[i]:child_offsets[i + 1]]
            for i in range(self.n_nodes)
        ]
        self._thresholds_py: list[int] = thresholds.tolist()
        self._cones: Optional[tuple[tuple[int, ...], ...]] = None
        self._cone_plans: Optional[tuple[tuple, ...]] = None
        self._witness_plan: Optional[tuple[tuple, ...]] = None

    # ------------------------------------------------------------------ #
    # Batch evaluation
    # ------------------------------------------------------------------ #

    def evaluate_batch(
        self, failures: np.ndarray, return_all: bool = False
    ) -> np.ndarray:
        """Evaluate a batch of basic-event assignments.

        Args:
            failures: Boolean array of shape ``(rounds, n_basic)`` whose
                columns follow :attr:`basic_names` order.
            return_all: If true, return the full ``(rounds, n_nodes)`` value
                matrix instead of just the top-event column.

        Returns:
            ``(rounds,)`` boolean vector of top-event values, or the full
            matrix when ``return_all`` is set.
        """
        failures = np.asarray(failures, dtype=bool)
        if failures.ndim != 2 or failures.shape[1] != self.n_basic:
            raise FaultGraphError(
                f"expected shape (rounds, {self.n_basic}), got {failures.shape}"
            )
        rounds = failures.shape[0]
        values = np.zeros((rounds, self.n_nodes), dtype=bool)
        values[:, self.basic_index] = failures
        offs = self.child_offsets
        kids = self.flat_children
        thresholds = self.thresholds
        for i in self.gate_order:
            child_vals = values[:, kids[offs[i]:offs[i + 1]]]
            values[:, i] = child_vals.sum(axis=1) >= thresholds[i]
        if return_all:
            return values
        return values[:, self.top_index]

    # ------------------------------------------------------------------ #
    # Packed (bit-parallel) evaluation
    # ------------------------------------------------------------------ #

    def evaluate_batch_packed(self, packed: np.ndarray) -> np.ndarray:
        """Evaluate packed basic-event words for every node.

        Args:
            packed: ``(n_basic, W)`` uint64 words from :func:`pack_rounds`
                (or :meth:`sample_failures_packed`); bit ``i`` of word
                ``j`` is round ``j * 64 + i``, rows follow
                :attr:`basic_names` order.

        Returns:
            ``(n_nodes, W)`` uint64 node-value words — one bitset row per
            node, 64 rounds per bitwise gate op.  Logically identical to
            ``evaluate_batch(return_all=True)`` transposed and packed:
            OR gates are word-wise ``|`` over children, AND gates ``&``,
            and k-of-n gates a bit-sliced popcount comparison.

        Gates are evaluated a :attr:`witness_plan` run at a time, runs
        children-first: no gate of a run feeds another, so an OR or AND
        run is one gather and one reduction.
        """
        packed = np.ascontiguousarray(packed, dtype=_WORD)
        if packed.ndim != 2 or packed.shape[0] != self.n_basic:
            raise FaultGraphError(
                f"expected shape ({self.n_basic}, W), got {packed.shape}"
            )
        width = packed.shape[1]
        words = np.zeros((self.n_nodes, width), dtype=_WORD)
        words[self.basic_index] = packed
        for k, gates, kids in reversed(self.witness_plan):
            if k <= 1:
                words[gates] = np.bitwise_or.reduce(words[kids], axis=1)
            elif k >= kids.shape[1]:
                words[gates] = np.bitwise_and.reduce(words[kids], axis=1)
            else:
                for gate, row in zip(gates, kids):
                    words[gate] = _threshold_words(words[row], k)
        return words

    def unpack_node_major(
        self, node_words: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """Unpack selected rounds of a packed node-value matrix.

        Args:
            node_words: ``(n_nodes, W)`` words from
                :meth:`evaluate_batch_packed`.
            rows: Round indices to extract; one outside ``[0, 64 * W)``
                is a :class:`FaultGraphError`.

        Returns:
            C-contiguous ``(n_nodes, len(rows))`` boolean matrix, column
            ``r`` being the node values of round ``rows[r]`` — the layout
            witness extraction works on.
        """
        node_words = np.ascontiguousarray(node_words, dtype=_WORD)
        rows = np.asarray(rows, dtype=np.int64)
        limit = 64 * node_words.shape[1]
        if ((rows < 0) | (rows >= limit)).any():
            raise FaultGraphError(f"round indices must lie in [0, {limit})")
        bits = np.unpackbits(node_words.view(np.uint8), axis=1, bitorder="little")
        return bits.take(rows, axis=1).view(bool)

    def unpack_assignments(
        self, node_words: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """:meth:`unpack_node_major`, rounds-major: its transposed view,
        ``(len(rows), n_nodes)``, row ``r`` being round ``rows[r]``."""
        return self.unpack_node_major(node_words, rows).T

    def sample_failures_packed(
        self,
        rounds: int,
        probabilities: Optional[Sequence[float]],
        rng: np.random.Generator,
        default_probability: float = 0.5,
    ) -> np.ndarray:
        """Draw a failure matrix directly in packed form.

        Consumes exactly the random stream of :meth:`sample_failures`
        (the same ``rng.random`` call), so a packed run is bit-identical
        to a boolean run from the same generator state — including every
        draw made *after* sampling (witness extraction, minimisation).
        """
        return pack_rounds(
            self.sample_failures(
                rounds,
                probabilities,
                rng,
                default_probability=default_probability,
            )
        )

    # ------------------------------------------------------------------ #
    # Row-bitset evaluation (one int per node, bit r = row r)
    # ------------------------------------------------------------------ #

    @property
    def cones(self) -> tuple[tuple[int, ...], ...]:
        """Per basic event (in :attr:`basic_names` order), the gates above
        it — its ancestor cone — as node indices in topological order.

        Changing one basic event's value can only change the gates in its
        cone, so re-evaluating those (in this order) brings a full set of
        node values up to date.  Derived from the child arrays on first
        use and kept on the instance, so it shares the lifetime of
        whatever cache holds the compiled graph.
        """
        if self._cones is None:
            self._build_cones()
        return self._cones

    @property
    def cone_plans(self) -> tuple[tuple[Optional[tuple[int, ...]], ...], ...]:
        """Per basic event, aligned with its :attr:`cones` entry, what
        :meth:`clear_cone_bits` reads for each gate: for an AND gate, the
        children that are the event or lie in its cone (on a monotone
        graph the others cannot change); ``None`` for a gate re-evaluated
        from all its children.  Memoised with :attr:`cones`.
        """
        if self._cone_plans is None:
            self._build_cones()
        return self._cone_plans

    def _build_cones(self) -> None:
        """Fill :attr:`cones` and :attr:`cone_plans` from one pass of
        ancestor bitmasks, reading the set bits of each event's mask."""
        children, thresholds = self._children_py, self._thresholds_py
        ids = list(range(self.n_nodes))
        # above[n]: bitmask of n's strict ancestors.  Parents come after
        # children in node order, so by the time a gate is visited
        # (descending) its own mask is complete.
        above = [0] * self.n_nodes
        # Each AND gate's children as a bitmask, which an event's cone
        # mask narrows to the changed ones.
        and_children: dict[int, int] = {}
        for gate in reversed(self.gate_order):
            mask = above[gate] | (1 << gate)
            kids, k = children[gate], thresholds[gate]
            for child in kids:
                above[child] |= mask
            if 1 < k >= len(kids):
                and_children[gate] = sum(1 << child for child in kids)
        cones = []
        plans = []
        for node in self.basic_index.tolist():
            cone = _set_bits(above[node], ids)
            changed = above[node] | (1 << node)
            cones.append(cone)
            plans.append(
                tuple(
                    _set_bits(and_children[gate] & changed, ids)
                    if gate in and_children
                    else None
                    for gate in cone
                )
            )
        self._cones = tuple(cones)
        self._cone_plans = tuple(plans)

    @property
    def witness_plan(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        """``reversed(gate_order)`` cut into runs of like gates, each a
        ``(threshold, (G,) gates, (G, arity) children)``; memoised like
        :attr:`cones`.

        A run is a maximal stretch of *consecutive* gates with equal
        ``(arity, threshold)`` none of which is a child of an earlier
        gate of the run: parents come first in this order, so when a run
        starts the demand on each of its gates is final and witness
        extraction resolves the run in one array pass.  Gates are never
        reordered — the runs concatenate to ``reversed(gate_order)`` —
        which keeps the random stream of a gate-at-a-time walk.
        """
        if self._witness_plan is None:
            runs: list[tuple[int, list[int], list[list[int]]]] = []
            shape = None  # (threshold, arity) of the current run
            claimed: set[int] = set()  # children of the current run's gates
            for gate in reversed(self.gate_order):
                kids, k = self._children_py[gate], self._thresholds_py[gate]
                if (k, len(kids)) != shape or gate in claimed:
                    runs.append((k, [], []))
                    shape, claimed = (k, len(kids)), set()
                runs[-1][1].append(gate)
                runs[-1][2].append(kids)
                claimed.update(kids)
            self._witness_plan = tuple(
                (k, np.array(gates), np.array(kids)) for k, gates, kids in runs
            )
        return self._witness_plan

    def evaluate_gate_bits(self, gate: int, bits: Sequence[int]) -> int:
        """Value of one gate from its children's row bitsets.

        ``bits[n]`` is node ``n``'s value as an arbitrary-precision int
        whose bit ``r`` is row ``r``; the same OR / AND / bit-sliced
        k-of-n split as :meth:`evaluate_batch_packed`, one gate at a time.
        """
        kids = self._children_py[gate]
        k = self._thresholds_py[gate]
        if k <= 1:
            value = 0
            for child in kids:
                value |= bits[child]
            return value
        if k >= len(kids):
            value = -1
            for child in kids:
                value &= bits[child]
            return value
        return _threshold_bits([bits[child] for child in kids], k)

    def clear_cone_bits(self, position: int, bits: list[int]) -> None:
        """Bring the cone of basic event ``position`` (in
        :attr:`basic_names` order) up to date in ``bits`` after some of
        that event's bits were *cleared*.

        Equal to :meth:`evaluate_gate_bits` over the cone in order, but an
        AND gate is its current bits ANDed with its changed children only
        (:attr:`cone_plans`): values only clear when an input clears, so
        the children left out hold bits the gate already has.
        """
        evaluate = self.evaluate_gate_bits
        for gate, changed in zip(self.cones[position], self.cone_plans[position]):
            if changed is None:
                bits[gate] = evaluate(gate, bits)
            else:
                value = bits[gate]
                for child in changed:
                    value &= bits[child]
                bits[gate] = value

    def sample_failures(
        self,
        rounds: int,
        probabilities: Optional[Sequence[float]],
        rng: np.random.Generator,
        default_probability: float = 0.5,
    ) -> np.ndarray:
        """Draw a ``(rounds, n_basic)`` failure matrix.

        Args:
            probabilities: Per-basic-event failure chances aligned with
                :attr:`basic_names`; when ``None`` every event fails with
                ``default_probability`` (the paper's coin flip).
        """
        if probabilities is None:
            return rng.random((rounds, self.n_basic)) < default_probability
        probs = np.asarray(probabilities, dtype=float)
        if probs.shape != (self.n_basic,):
            raise FaultGraphError(
                f"expected {self.n_basic} probabilities, got {probs.shape}"
            )
        return rng.random((rounds, self.n_basic)) < probs[None, :]
