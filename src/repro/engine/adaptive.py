"""Sequential early stopping for Monte-Carlo sampling runs.

The exact-rounds mode executes every planned block; this module adds the
opt-in ``adaptive=True`` mode that halts a run once the detection
decision is statistically settled.  Two signals must stabilise, both
evaluated at block boundaries in *plan order*:

* the top-event failure estimate ``p̂`` — stop only when its normal
  confidence interval (``CONFIDENCE_Z`` standard errors, plus a 1/(2n)
  continuity correction so a run of all-zero blocks is not declared
  "settled" instantly) is narrower than ``max(ABS_TOL, REL_TOL * p̂)``;
* the risk-group discovery curve — stop only after ``PATIENCE_BLOCKS``
  consecutive blocks contributed no new risk group, i.e. the discovery
  curve has plateaued;

and never before ``MIN_BLOCKS`` blocks have run.

Determinism: the stopper consumes block outcomes strictly in plan order,
so the number of executed blocks is a pure function of
``(graph, parameters, seed)`` — never of the worker count or of
scheduling.  A parallel adaptive run may *compute* a few blocks beyond
the stopping point (they are discarded, not merged), but the merged
result is bit-identical to the serial adaptive run.

Adaptive results are **not** comparable to exact-rounds results round
for round: an early-stopped run reports the rounds it actually executed
(honest ``SamplingResult.rounds``), which is why exact mode stays the
default and the golden figure pins never run adaptive.
"""

from __future__ import annotations

import math

from repro.engine.batch import BlockOutcome

__all__ = ["AdaptiveStopper"]

#: Stop once the CI halfwidth falls below this fraction of the current
#: top-failure estimate ...
REL_TOL = 0.05
#: ... or below this absolute floor, which keeps near-zero estimates
#: stoppable where ``REL_TOL`` alone would demand ever more rounds.
ABS_TOL = 1e-3
#: Normal quantile of the interval (2.576 ≈ 99%).
CONFIDENCE_Z = 2.576
#: Never stop before this many blocks, however tight the interval looks.
MIN_BLOCKS = 4
#: Consecutive blocks without a new risk group required before stopping.
PATIENCE_BLOCKS = 4


class AdaptiveStopper:
    """Plan-order sequential test over block outcomes.

    Feed every merged-in :class:`BlockOutcome` to :meth:`observe` in
    plan order; it returns ``True`` once the run may stop.  The stopper
    only reads outcomes — it never draws randomness — so it cannot
    perturb the sampled streams.
    """

    def __init__(self) -> None:
        self.blocks = 0
        self.rounds = 0
        self.top_failures = 0
        self.blocks_since_new_group = 0
        self._seen_groups: set[frozenset[str]] = set()
        self.stopped = False

    def observe(self, outcome: BlockOutcome) -> bool:
        """Account for one block; return ``True`` when the run may stop."""
        self.blocks += 1
        self.rounds += outcome.rounds
        self.top_failures += outcome.top_failures
        if outcome.groups - self._seen_groups:
            self._seen_groups |= outcome.groups
            self.blocks_since_new_group = 0
        else:
            self.blocks_since_new_group += 1
        self.stopped = self._should_stop()
        return self.stopped

    def _estimate(self) -> tuple[float, float]:
        """``(p̂, CI halfwidth)`` over the blocks observed so far."""
        n = self.rounds
        if not n:
            return 0.0, float("inf")
        p = self.top_failures / n
        return p, CONFIDENCE_Z * math.sqrt(p * (1.0 - p) / n) + 0.5 / n

    def _should_stop(self) -> bool:
        if self.blocks < MIN_BLOCKS:
            return False
        if self.blocks_since_new_group < PATIENCE_BLOCKS:
            return False
        p, halfwidth = self._estimate()
        return halfwidth <= max(ABS_TOL, REL_TOL * p)

    def summary(self) -> dict:
        """Metadata describing the stopping decision (for results/reports)."""
        return {
            "adaptive": True,
            "stopped_early": self.stopped,
            "blocks_observed": self.blocks,
            "ci_halfwidth": self._estimate()[1],
            "blocks_since_new_group": self.blocks_since_new_group,
        }
