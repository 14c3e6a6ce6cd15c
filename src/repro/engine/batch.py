"""Vectorised post-processing for failure-sampling blocks.

The first failure sampler evaluated rounds in NumPy batches but then fell
back into a per-failing-row Python loop for witness extraction and greedy
cut minimisation.  On dense
graphs most rounds fail, so that loop dominated the runtime.  This module
moves both steps to whole-block operations:

* :func:`extract_witnesses_batch` walks the gates one *run* of like gates
  at a time (:attr:`CompiledGraph.witness_plan`, not once per gate, let
  alone per round) over node-major arrays, selecting the required
  children of every failing gate of the run for all rounds at once — on
  the random stream a gate-at-a-time walk would consume.  A slice of a
  run is scored slot-major (one contiguous row per child slot), so the
  per-cell choice is a column-wise first minimum and each chosen child
  is found from one offset per ``(gate, slot)``, with no per-child
  index grid;
* :func:`minimise_cuts_batch` greedily shrinks a whole block of witnesses
  over row bitsets (one int per node, bit ``r`` = witness ``r``): the
  graph is evaluated once, and trying to drop one candidate event from
  every witness that still contains it re-evaluates only that event's
  ancestor cone.  A gate outside the cone cannot see the change, and on a
  monotone graph clearing an input only clears bits, so an AND gate in
  the cone is its old bits ANDed with its changed children alone, and
  OR-ing the old cone values back for the rows whose top stopped failing
  undoes exactly their trial — the result equals trial-evaluating each
  candidate against the whole graph;
* :func:`run_block` ties sampling, evaluation and both steps together
  into the unit of work the inline loop and the pool's workers share;
* :func:`merge_block_outcomes` folds a run's block outcomes into its
  :class:`SamplingResult`.

Determinism: every random choice is drawn from the block's own
:class:`numpy.random.Generator`, and consumption depends only on the
block's content — never on other blocks or on scheduling.  Running the
same block with the same seed therefore yields the same outcome whether
it executes inline, in another process, or interleaved with other blocks;
this is what makes serial/parallel parity exact (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from operator import or_
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.compile import CompiledGraph, unpack_rounds
from repro.core.minimal_rg import minimise_family
from repro.errors import AnalysisError, FaultGraphError

__all__ = [
    "BlockOutcome",
    "SamplingResult",
    "extract_witnesses_batch",
    "merge_block_outcomes",
    "minimise_cuts_batch",
    "run_block",
]


@dataclass
class BlockOutcome:
    """Aggregated result of one sampling block (picklable, mergeable).

    Attributes:
        rounds: Rounds evaluated in this block.
        top_failures: Rounds in which the top event failed.
        groups: The distinct risk groups this block found: minimal ones
            when the block ran with minimisation, its distinct raw
            failing sets otherwise.
    """

    rounds: int
    top_failures: int
    groups: set[frozenset[str]] = field(default_factory=set)


@dataclass
class SamplingResult:
    """Outcome of a sampling run.

    Attributes:
        rounds: Number of sampling rounds executed.
        top_failures: Rounds in which the top event failed.
        risk_groups: Aggregated risk groups, an antichain (no group
            contains another), sorted by size, then members.
        top_probability_estimate: Fraction of failing rounds — an unbiased
            estimate of the top-event failure probability *under the
            sampling distribution*, every event failing with the run's
            ``sample_probability`` (not the graph's own weights).
        minimised: Whether ``risk_groups`` are the union of the blocks'
            minimal groups, or their raw failing sets after absorption.
        metadata: Run bookkeeping: the block plan, the stopping rule.
    """

    rounds: int
    top_failures: int
    risk_groups: list[frozenset[str]]
    top_probability_estimate: float
    minimised: bool = True
    metadata: dict = field(default_factory=dict)

    def detection_rate(self, reference: Iterable[frozenset[str]]) -> float:
        """Fraction of ``reference`` minimal RGs found by this run.

        This is the y-axis of Figure 7.  Only exact matches count; when
        the sampler ran without minimisation, a reference RG also counts
        as detected when some sampled RG equals it after absorption.
        """
        ref = {frozenset(r) for r in reference}
        if not ref:
            raise AnalysisError("reference minimal RG collection is empty")
        found = set(self.risk_groups)
        return len(ref & found) / len(ref)


def merge_block_outcomes(
    outcomes: Sequence[BlockOutcome],
    *,
    minimised: bool,
    metadata: Optional[dict] = None,
) -> SamplingResult:
    """Fold per-block outcomes into one :class:`SamplingResult`.

    Counts add, group sets union, and the family is
    sorted by ``(size, sorted members)`` — all order-insensitive, so the
    merge of a parallel run equals the merge of the same blocks run
    serially.  Minimised blocks hold minimal risk groups of one monotone
    graph, and distinct minimal groups never contain one another, so
    their union is already an antichain and is only sorted.  Raw failing
    sets (``minimised=False``) are absorption-minimised first.
    """
    if not outcomes:
        raise AnalysisError("no block outcomes to merge")
    rounds = sum(o.rounds for o in outcomes)
    top_failures = sum(o.top_failures for o in outcomes)
    collected: set[frozenset[str]] = set()
    for outcome in outcomes:
        collected |= outcome.groups
    family = collected if minimised else minimise_family(collected)
    return SamplingResult(
        rounds=rounds,
        top_failures=top_failures,
        risk_groups=sorted(family, key=lambda s: (len(s), sorted(s))),
        top_probability_estimate=top_failures / rounds,
        minimised=minimised,
        metadata=metadata or {},
    )


#: Cells (needed rows x children) one slice of a run scores at once: half
#: a MB of doubles, cache-resident, and what keeps a block's peak memory
#: from growing with the length of its runs (DESIGN.md, "Sampling pipeline").
_SLICE_CELLS = 1 << 16


def extract_witnesses_batch(
    compiled: CompiledGraph,
    values: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Extract one witness per failing assignment, for a whole block.

    Args:
        compiled: The compiled graph the assignments were evaluated on.
        values: ``(m, n_nodes)`` boolean node-value matrix whose every row
            has a failing top event (from ``evaluate_batch(return_all=True)``
            restricted to failing rounds).  The kernel works node-major:
            the transposed view ``unpack_assignments`` returns is used in
            place, any other layout is copied once.
        rng: Source for the per-row random child choices; each failing
            gate keeps ``threshold`` failing children chosen uniformly at
            random.

    Returns:
        ``(m, n_basic)`` boolean witness matrix in :attr:`basic_names`
        column order.  Each row is a sufficient (not necessarily minimal)
        failing set of its assignment.
    """
    values = np.asarray(values, dtype=bool)
    if values.ndim != 2 or values.shape[1] != compiled.n_nodes:
        raise FaultGraphError(
            f"expected shape (m, {compiled.n_nodes}), got {values.shape}"
        )
    return np.ascontiguousarray(
        _witnesses_node_major(compiled, values.T, rng).T
    )


def _witnesses_node_major(
    compiled: CompiledGraph, values: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """:func:`extract_witnesses_batch` on ``(n_nodes, m)`` values, a run
    of :attr:`CompiledGraph.witness_plan` at a time, returning the
    ``(n_basic, m)`` witnesses node-major as well.  A run's needed
    ``(gate, row)`` cells are taken gate by gate, rows ascending, and
    ``Generator.random`` fills sequentially, so one draw per slice of a
    run is the concatenation of a gate-at-a-time walk's draws."""
    values = np.ascontiguousarray(values)
    m = values.shape[1]
    if not values[compiled.top_index].all():
        raise FaultGraphError("cannot extract witnesses: some top rows pass")
    # Not zeros_like: a flat scatter into anything but C order is lost.
    needed = np.zeros(values.shape, dtype=bool)
    needed[compiled.top_index] = True
    flat_needed = needed.reshape(-1)
    for k, gates, children in compiled.witness_plan:
        arity = children.shape[1]
        if k >= arity:
            # AND: every child is required (and fails, since the gate
            # does).  One gate at a time: a run's gates may share children.
            for gate, kids in zip(gates, children):
                needed[kids] |= needed[gate] & values[kids]
            continue
        # OR / k-of-n: keep k failing children per row, chosen at random.
        step = max(1, _SLICE_CELLS // max(1, m * arity))
        for lo in range(0, len(gates), step):
            kids = children[lo:lo + step]
            demand = np.flatnonzero(needed[gates[lo:lo + step]])
            if demand.size == 0:
                continue
            # Slot-major: row j holds the j-th child of every needed cell.
            passing = ~values[kids.T].reshape(arity, -1).take(demand, axis=1)
            # The draw stays row-major — one row of `arity` per cell, as
            # the per-gate walk consumed it; only the read is transposed.
            # Failing children keep their draw (+ 0.0); passing ones score
            # past all of them, and are masked out again below.
            scores = np.add(
                rng.random((demand.size, arity)).T, passing, order="C"
            )
            if k == 1:
                # argmin, a slot at a time: a strict < keeps the lower
                # slot on a tie, argmin's first occurrence.
                best, chosen = scores[0], 0
                for j in range(1, arity):
                    better = scores[j] < best
                    best = np.minimum(best, scores[j])
                    chosen = chosen + better * (j - chosen)
                kept = best < 1.0
            else:
                chosen = np.argpartition(scores, k - 1, axis=0)[:k]
                kept = np.take_along_axis(scores, chosen, axis=0) < 1.0
            # Cell (s, r)'s j-th child is flat (kids[s, j] * m + r), i.e.
            # its demand index s * m + r plus (kids[s, j] - s) * m.
            offsets = ((kids - np.arange(len(kids))[:, None]) * m).reshape(-1)
            picked = demand + offsets.take(demand // m * arity + chosen)
            flat_needed[picked[kept]] = True
    return needed[compiled.basic_index]


def _rows_to_bits(columns: np.ndarray) -> list[int]:
    """One int per row of a boolean ``(n, m)`` matrix: bit ``r`` of
    ``result[i]`` is ``columns[i, r]``.

    Same bit order as :func:`~repro.core.compile.pack_rounds`, minus its
    padding to whole uint64 words — ``np.pad`` alone costs more than the
    rest of a small block's minimisation.
    """
    packed = np.packbits(columns, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _bits_to_rows(bits: Sequence[int], m: int) -> np.ndarray:
    """Inverse of :func:`_rows_to_bits` for ``m``-bit ints."""
    width = (m + 7) // 8
    packed = np.frombuffer(
        b"".join(value.to_bytes(width, "little") for value in bits),
        dtype=np.uint8,
    ).reshape(len(bits), width)
    return np.unpackbits(packed, axis=1, count=m, bitorder="little").astype(
        bool
    )


def minimise_cuts_batch(
    compiled: CompiledGraph,
    cuts: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedily shrink a block of failing sets to minimal risk groups.

    One cut at a time, greedy minimisation tries to drop each event in
    turn, keeping a drop whenever the top event still fails.  Here the loop is
    inverted: for each candidate event (in one shuffled order shared by
    the block) the drop is tried for every cut still containing it at
    once.  One pass suffices — the graph is monotone, so an event that
    could not be dropped against a superset can never be dropped against
    the final subset.

    Node values are kept as one row bitset per node (bit ``r`` = cut
    ``r``) and are always the evaluation of the current cuts.  Trying a
    candidate clears its bit for the rows holding it and re-evaluates
    only the gates above it (:meth:`CompiledGraph.clear_cone_bits`, an
    AND gate from its changed children alone); every other node cannot
    change.  Rows whose top stopped failing get the cone's previous
    values back — by monotonicity the new values are a subset of the
    old, so OR-ing the old bits of exactly those rows restores them.
    The whole graph is evaluated once, not once per candidate.

    Args:
        cuts: ``(m, n_basic)`` boolean matrix; every row must be a risk
            group (the top event fails under it).

    Returns:
        A new ``(m, n_basic)`` matrix of row-wise minimal risk groups.

    Raises:
        FaultGraphError: on a shape mismatch, or when some row is not a
            risk group.
    """
    cuts = np.asarray(cuts, dtype=bool)
    if cuts.ndim != 2 or cuts.shape[1] != compiled.n_basic:
        raise FaultGraphError(
            f"expected shape (m, {compiled.n_basic}), got {cuts.shape}"
        )
    minimal = _minimise_node_major(compiled, cuts.T, rng)
    return np.ascontiguousarray(_bits_to_rows(minimal, cuts.shape[0]).T)


def _minimise_node_major(
    compiled: CompiledGraph, cuts: np.ndarray, rng: np.random.Generator
) -> list[int]:
    """:func:`minimise_cuts_batch` on ``(n_basic, m)`` cuts (column ``r``
    = cut ``r``), returning the minimal cuts as each basic event's row
    bitset, in :attr:`basic_names` order."""
    m = cuts.shape[1]
    evaluate = compiled.evaluate_gate_bits
    bits = [0] * compiled.n_nodes
    basic_nodes = compiled.basic_index.tolist()
    for node, value in zip(basic_nodes, _rows_to_bits(cuts)):
        bits[node] = value
    for gate in compiled.gate_order:
        bits[gate] = evaluate(gate, bits)
    top = compiled.top_index
    if bits[top] != (1 << m) - 1:
        raise FaultGraphError("cannot minimise: some rows are not risk groups")

    # Row sizes as a bit-sliced counter (planes[p] = bit p of every row's
    # size), so "size > 1" and "size -= 1" stay bitset operations.
    sizes = cuts.sum(axis=0)
    shifts = np.arange(int(sizes.max(initial=0)).bit_length())
    planes = _rows_to_bits((sizes >> shifts[:, None] & 1).astype(bool))
    multi = reduce(or_, planes[1:], 0)
    candidates = np.flatnonzero(cuts.any(axis=1))
    cones = compiled.cones
    clear = compiled.clear_cone_bits
    for position in rng.permutation(candidates).tolist():
        node = basic_nodes[position]
        live = bits[node] & multi
        if not live:
            continue
        cone = cones[position]
        before = [bits[gate] for gate in cone]
        bits[node] ^= live
        clear(position, bits)
        kept = live & ~bits[top]
        if kept:
            bits[node] |= kept
            for gate, old in zip(cone, before):
                bits[gate] |= old & kept
        borrow = live ^ kept
        if borrow:
            for p, plane in enumerate(planes):
                planes[p], borrow = plane ^ borrow, borrow & ~plane
                if not borrow:
                    break
            multi = reduce(or_, planes[1:], 0)
    return [bits[node] for node in basic_nodes]


def _distinct_groups(
    compiled: CompiledGraph, columns: np.ndarray
) -> set[frozenset[str]]:
    """The named risk groups of the distinct columns of a boolean
    ``(n_basic, m)`` matrix: each column is packed once and hashed as
    bytes, and only the distinct ones are unpacked and named."""
    packed = np.ascontiguousarray(np.packbits(columns, axis=0).T)
    width = packed.shape[1]
    keys = set(packed.view(f"V{width}").ravel().tolist())
    rows = np.unpackbits(
        np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(-1, width),
        axis=1,
        count=compiled.n_basic,
    )
    return _rows_to_groups(compiled, rows.astype(bool))


def _rows_to_groups(
    compiled: CompiledGraph, rows: np.ndarray
) -> set[frozenset[str]]:
    """Convert boolean basic-event rows to named risk groups in one
    ``tolist`` pass over the matrix."""
    names = compiled.basic_names
    return {frozenset(compress(names, row)) for row in rows.tolist()}


def run_block(
    compiled: CompiledGraph,
    rounds: int,
    rng: np.random.Generator,
    *,
    default_probability: float = 0.5,
    minimise: bool = True,
) -> BlockOutcome:
    """Sample and post-process one block of rounds.

    This is the shared unit of work: the inline loop
    (:func:`~repro.engine.parallel.run_plan_serial`) and the pool's
    worker processes both call exactly this function with per-block
    generators spawned from the run seed.

    The graph is evaluated over uint64 round bitsets — 64 rounds per
    bitwise gate op — and only the failing rounds are unpacked for
    witness extraction.  The draw is the one the boolean evaluator
    (``sample_failures`` + ``evaluate_batch``) would make, so outcomes
    are bit-identical to it; ``tests/engine/test_packed_kernel.py``
    keeps that evaluator as the oracle.
    """
    words = compiled.sample_failures_packed(
        rounds, None, rng, default_probability=default_probability
    )
    node_words = compiled.evaluate_batch_packed(words)
    top_row = node_words[compiled.top_index:compiled.top_index + 1]
    failing = np.flatnonzero(unpack_rounds(top_row, rounds)[:, 0])
    outcome = BlockOutcome(rounds=rounds, top_failures=int(failing.size))
    if failing.size == 0:
        return outcome
    values_failing = compiled.unpack_node_major(node_words, failing)
    return _finish_block(compiled, outcome, values_failing, rng, minimise)


def _finish_block(
    compiled: CompiledGraph,
    outcome: BlockOutcome,
    values_failing: np.ndarray,
    rng: np.random.Generator,
    minimise: bool,
) -> BlockOutcome:
    """Fill ``outcome`` from the ``(n_nodes, m)`` node values of a block's
    failing rounds, node-major from witness to groups."""
    if not minimise:
        outcome.groups = _distinct_groups(
            compiled, values_failing[compiled.basic_index]
        )
        return outcome
    witnesses = _witnesses_node_major(compiled, values_failing, rng)
    # Duplicate witnesses are minimised too, and the one dedupe comes
    # last: each cut is minimised on its own, and the one draw (the
    # candidate order) depends only on which events occur, so duplicates
    # change neither the distinct minimal cuts nor the generator's state.
    minimal = _minimise_node_major(compiled, witnesses, rng)
    outcome.groups = _distinct_groups(
        compiled, _bits_to_rows(minimal, values_failing.shape[1])
    )
    return outcome
