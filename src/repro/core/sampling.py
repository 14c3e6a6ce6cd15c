"""Failure sampling algorithm (§4.1.2).

The exact minimal-RG algorithm is NP-hard, so INDaaS offers a linear-time
randomised alternative: in each round, fail every basic event independently
at random, propagate values bottom-up, and — whenever the top event fails —
record the failing set as a risk group.  Aggregating many rounds yields a
(non-deterministic, possibly non-minimal) RG collection.

This implementation adds three engineering refinements over the paper's
sketch, all documented in DESIGN.md:

* **Vectorised blocks** — rounds are sampled, evaluated *and
  post-processed* in NumPy blocks (see :mod:`repro.engine.batch`); no
  per-round Python loop survives on the hot path.
* **Witness extraction + greedy minimisation** (on by default) — a raw
  failing set under fair coin flips contains ~half of all basic events and
  is useless as a risk group.  We first extract a small sufficient failing
  set top-down ("witness") and then greedily shrink it to a true minimal
  RG, which makes the Figure-7 metric ("% minimal RGs detected") well
  defined.  Disable with ``minimise=False`` to get the literal algorithm.
* **Deterministic block seeding** — every block draws its generator from a
  ``SeedSequence.spawn`` child, so the result of a run is a pure function
  of ``(graph, parameters, seed, run_index)`` and is bit-identical whether
  the blocks execute inline or across the worker processes of
  :class:`~repro.engine.AuditEngine`, whose ``sample`` is the one plan →
  run → merge this module's sampler fronts.  The run index counts ``run()``
  calls on one sampler instance (recorded in
  ``SamplingResult.metadata["run_index"]``): repeated calls draw fresh,
  disjoint streams by design, and the k-th call on a fresh sampler with
  the same seed always reproduces the same result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from repro.core.faultgraph import FaultGraph
from repro.core.minimal_rg import minimise_family
from repro.errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - typing only, core stays below engine
    from repro.engine.adaptive import AdaptiveConfig
    from repro.engine.batch import BlockOutcome

__all__ = ["FailureSampler", "SamplingResult", "merge_block_outcomes"]

# Namespaces the spawn keys of repeat runs away from run 0's plain
# ``spawn`` children, which keeps run 0 bit-identical to samplers that
# predate per-run keying (golden figure pins rely on that).
_RUN_TAG = 0x17DAA5


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
            sampling distribution* (only meaningful as a probability when
            sampling with the true per-event weights).
    """

    rounds: int
    top_failures: int
    risk_groups: list[frozenset[str]]
    top_probability_estimate: float
    minimised: bool = True
    sample_probability: Optional[float] = None
    unique_failure_sets: int = 0
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
    sample_probability: Optional[float],
    metadata: Optional[dict] = None,
) -> SamplingResult:
    """Fold per-block outcomes into one :class:`SamplingResult`.

    Counts add, group/raw-fingerprint sets union, and the family is
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
    raw_keys: set[bytes] = set()
    for outcome in outcomes:
        collected |= outcome.groups
        raw_keys |= outcome.raw_keys
    family = collected if minimised else minimise_family(collected)
    return SamplingResult(
        rounds=rounds,
        top_failures=top_failures,
        risk_groups=sorted(family, key=lambda s: (len(s), sorted(s))),
        top_probability_estimate=top_failures / rounds,
        minimised=minimised,
        sample_probability=sample_probability,
        unique_failure_sets=len(raw_keys),
        metadata=metadata or {},
    )


class FailureSampler:
    """Monte-Carlo risk-group detector over a fault graph.

    Args:
        graph: Dependency graph to sample (any level of detail).
        sample_probability: Per-round failure chance of each basic event.
            The paper's "coin flipping" corresponds to 0.5; smaller values
            bias rounds towards small failing sets, which finds small
            (high-impact) RGs with fewer rounds.
        use_weights: Sample each event with its own failure probability
            from the graph instead of the uniform ``sample_probability``
            (requires a weighted graph).
        minimise: Extract+minimise a true minimal RG from each failing
            round (see module docstring).
        seed: RNG seed; runs are reproducible for a fixed seed.
        batch_size: Rounds evaluated per NumPy block.  Part of the seeded
            stream definition: changing it changes which random numbers
            each round sees (the worker *count* of a parallel run, by
            contrast, never does).
        adaptive: Stop early once the top-event estimate and the
            risk-group discovery curve stabilise (see
            :mod:`repro.engine.adaptive`).  ``rounds`` becomes a budget
            ceiling; the result reports the rounds actually executed.
        adaptive_config: Stopping-rule parameters; implies a default
            :class:`~repro.engine.adaptive.AdaptiveConfig` when
            ``adaptive=True`` and left ``None``.
    """

    def __init__(
        self,
        graph: FaultGraph,
        sample_probability: float = 0.5,
        use_weights: bool = False,
        minimise: bool = True,
        seed: Optional[int] = None,
        batch_size: int = 4096,
        adaptive: bool = False,
        adaptive_config: Optional[AdaptiveConfig] = None,
    ) -> None:
        from repro.engine.facade import AuditEngine

        if not 0.0 < sample_probability < 1.0:
            raise AnalysisError(
                f"sample_probability must be in (0,1), got {sample_probability}"
            )
        if batch_size < 1:
            raise AnalysisError(f"batch_size must be >= 1, got {batch_size}")
        self.graph = graph
        self.sample_probability = sample_probability
        self.use_weights = use_weights
        self.minimise = minimise
        self.batch_size = batch_size
        self.adaptive = adaptive
        self.adaptive_config = adaptive_config
        self._entropy = np.random.SeedSequence(seed).entropy
        self._run_count = 0
        # An inline engine of this sampler's own: its cache holds the
        # compiled graph across runs.  Compiling (and reading the
        # weights) now keeps a malformed or unweighted graph failing at
        # construction rather than on the first run.
        self._engine = AuditEngine(n_workers=1, block_size=batch_size)
        self._engine.compile(graph)
        if use_weights:
            graph.probabilities()

    def _next_run_root(self) -> tuple[np.random.SeedSequence, int]:
        """Fresh per-run seed root, keyed by an explicit run counter.

        Run 0 uses the plain seed sequence — bit-identical to samplers
        without per-run keying, so existing golden pins hold.  Run k >= 1
        namespaces its spawn keys under ``(_RUN_TAG, k)``, giving each
        repeat call a fresh, disjoint, *reproducible* stream: the k-th
        run of any sampler with this seed is always the same.
        """
        run_index = self._run_count
        self._run_count += 1
        if run_index == 0:
            return np.random.SeedSequence(self._entropy), run_index
        return (
            np.random.SeedSequence(
                self._entropy, spawn_key=(_RUN_TAG, run_index)
            ),
            run_index,
        )

    def run(self, rounds: int) -> SamplingResult:
        """Execute up to ``rounds`` sampling rounds and aggregate risk groups.

        Exact mode (the default) executes every round.  With
        ``adaptive=True``, ``rounds`` is a ceiling and the run halts at
        the first block boundary where the stopping rule is satisfied.
        """
        if rounds < 1:
            raise AnalysisError(f"rounds must be >= 1, got {rounds}")
        root, run_index = self._next_run_root()
        result = self._engine.sample(
            self.graph,
            rounds,
            sample_probability=self.sample_probability,
            use_weights=self.use_weights,
            minimise=self.minimise,
            seed=root,
            adaptive=self.adaptive,
            adaptive_config=self.adaptive_config,
        )
        result.metadata["run_index"] = run_index
        return result
