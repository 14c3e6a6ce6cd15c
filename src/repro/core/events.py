"""Event and gate primitives for INDaaS dependency graphs.

The paper (§4.1.1) adapts classic fault-tree models [Vesely et al. 1981] to a
directed acyclic graph of *failure events* connected by *logic gates*:

* **basic events** — leaves, e.g. "ToR1 fails" or "libc6 is compromised";
* **intermediate events** — internal nodes whose failure is a logical
  function of their children (via an input gate);
* the **top event** — failure of the whole redundancy deployment.

Gates express how child failures propagate upwards:

* ``OR`` — any child failure fails the parent (a chain of single points);
* ``AND`` — all children must fail (redundancy);
* ``K_OF_N`` — at least *k* of the *n* children must fail.  An *n-of-m*
  redundant deployment (the service survives as long as *n* of *m* replicas
  are up) corresponds to a ``K_OF_N`` gate with ``k = m - n + 1``.

``AND`` and ``OR`` are special cases of ``K_OF_N`` (``k = n`` and ``k = 1``),
but are kept as distinct gate types because the paper's algorithms and the
reader both benefit from the explicit distinction.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import AnalysisError, FaultGraphError

__all__ = [
    "GateType",
    "Event",
    "redundancy_threshold",
    "validate_probability",
    "check_integer",
    "check_seed",
    "check_real",
    "check_count",
]


class GateType(enum.Enum):
    """Logic gate connecting an event to its child events."""

    AND = "and"
    OR = "or"
    K_OF_N = "k-of-n"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def redundancy_threshold(required: int, total: int) -> int:
    """Return the failure threshold *k* for an *n-of-m* redundancy.

    A deployment that needs ``required`` live replicas out of ``total``
    fails as soon as ``total - required + 1`` replicas have failed.

    >>> redundancy_threshold(2, 3)   # 2-of-3: tolerate one failure
    2
    >>> redundancy_threshold(3, 3)   # no slack: any failure is fatal
    1
    """
    if not 1 <= required <= total:
        raise FaultGraphError(
            f"invalid redundancy: need {required} of {total} replicas"
        )
    return total - required + 1


def validate_probability(value: float, *, what: str = "probability") -> float:
    """Validate that ``value`` is a probability in ``[0, 1]`` and return it."""
    try:
        prob = float(value)
    except (TypeError, ValueError) as exc:
        raise FaultGraphError(f"{what} must be a number, got {value!r}") from exc
    if math.isnan(prob) or not 0.0 <= prob <= 1.0:
        raise FaultGraphError(f"{what} must be in [0, 1], got {value!r}")
    return prob


def check_integer(name: str, value) -> None:
    """Raise :class:`AnalysisError` unless ``value`` is a Python or NumPy
    integer.  A ``bool`` is an ``int`` but never a count."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise AnalysisError(
            f"{name} must be an integer, got {type(value).__name__}"
        )


def check_seed(value) -> None:
    """Raise :class:`AnalysisError` unless ``value`` is ``None`` (fresh OS
    entropy) or an integer (:func:`check_integer`) of at least 0."""
    if value is None:
        return
    check_integer("seed", value)
    if value < 0:
        raise AnalysisError(f"seed must be >= 0, got {value}")


def check_real(name: str, value) -> None:
    """Raise :class:`AnalysisError` unless ``value`` is a Python or NumPy
    real number.  A ``bool`` is a number but never a probability."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise AnalysisError(
            f"{name} must be a number, got {type(value).__name__}"
        )


def check_count(name: str, value) -> None:
    """Raise :class:`AnalysisError` unless ``value`` is an integer
    (:func:`check_integer`) of at least 1."""
    check_integer(name, value)
    if value < 1:
        raise AnalysisError(f"{name} must be >= 1, got {value}")


@dataclass
class Event:
    """A failure event node in a dependency graph.

    Attributes:
        name: Unique identifier within its graph (e.g. ``"device:ToR1"``).
        gate: Input gate type for intermediate events; ``None`` marks a
            basic event.
        k: Failure threshold, only meaningful for ``GateType.K_OF_N``.
        probability: Failure probability over the auditing period, used at
            the fault-set and weighted fault-graph levels of detail.  May be
            ``None`` at the component-set level (§4.1.1).
        description: Optional free-form human-readable annotation.
        kind: Optional component category (``"network"``, ``"hardware"``,
            ``"software"``, ``"server"``, ...) used by reports to group RGs.
    """

    name: str
    gate: Optional[GateType] = None
    k: Optional[int] = None
    probability: Optional[float] = None
    description: str = ""
    kind: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise FaultGraphError("event name must be non-empty")
        if self.gate is not None and not isinstance(self.gate, GateType):
            raise FaultGraphError(f"invalid gate {self.gate!r} on {self.name!r}")
        if self.gate is GateType.K_OF_N:
            if self.k is None or self.k < 1:
                raise FaultGraphError(
                    f"K_OF_N event {self.name!r} needs a threshold k >= 1"
                )
        elif self.k is not None:
            raise FaultGraphError(
                f"threshold k is only valid for K_OF_N gates ({self.name!r})"
            )
        if self.probability is not None:
            self.probability = validate_probability(
                self.probability, what=f"probability of {self.name!r}"
            )

    @property
    def is_basic(self) -> bool:
        """Whether this event is a leaf (no input gate)."""
        return self.gate is None

    def threshold(self, fan_in: int) -> int:
        """Number of failed children required to fail this event.

        Args:
            fan_in: The number of children this event has in its graph.
        """
        if self.gate is GateType.OR:
            return 1
        if self.gate is GateType.AND:
            return fan_in
        if self.gate is GateType.K_OF_N:
            assert self.k is not None
            if self.k > fan_in:
                raise FaultGraphError(
                    f"{self.name!r}: threshold {self.k} exceeds fan-in {fan_in}"
                )
            return self.k
        raise FaultGraphError(f"basic event {self.name!r} has no threshold")
