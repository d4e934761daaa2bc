"""Admission control for the query service.

Two gates, both cost-controlled:

* **budget** — a request whose *estimated* cost (from the optimizer or
  the plan cache) exceeds ``cost_budget`` is rejected before touching
  the store.  The estimate comes from the same Figure 5 model the
  optimizer searched with, so the budget is denominated in the paper's
  cost units (page reads + weighted predicate evaluations).
* **slots** — at most ``max_concurrent`` units of execution run at
  once; excess requests queue for ``queue_timeout`` seconds and are
  then rejected, bounding tail latency instead of letting the queue
  grow without limit.  A request running the fixpoint across ``N``
  shards reserves ``N`` slots (capped at ``max_concurrent``) — wide
  queries consume proportionally more of the concurrency budget, and a
  timeout or cancellation releases every slot the request held.

Per-query *timeouts* are handled downstream by the engine's
cancellation token (:mod:`repro.engine.cancel`); the controller only
picks the effective timeout (request override capped by the policy's
``max_timeout``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from repro.errors import AdmissionError

__all__ = ["AdmissionPolicy", "AdmissionController"]


@dataclass
class AdmissionPolicy:
    """Knobs for admission control.

    ``cost_budget=None`` disables the budget gate;
    ``default_timeout=None`` means no timeout unless the request asks
    for one; ``max_timeout`` caps request-supplied timeouts.
    """

    cost_budget: Optional[float] = None
    max_concurrent: int = 4
    queue_timeout: float = 5.0
    default_timeout: Optional[float] = None
    max_timeout: Optional[float] = None


class AdmissionController:
    """Applies an :class:`AdmissionPolicy` to incoming requests."""

    def __init__(self, policy: Optional[AdmissionPolicy] = None) -> None:
        self.policy = policy or AdmissionPolicy()
        if self.policy.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self._lock = threading.Lock()
        self._slots_free = self.policy.max_concurrent
        self._slots_changed = threading.Condition(self._lock)
        self.admitted = 0
        self.rejected_budget = 0
        self.rejected_queue = 0

    def admit(self, estimated_cost: float) -> None:
        """Apply the budget gate; raises :class:`AdmissionError` with
        ``reason="over_budget"`` when the estimate exceeds it."""
        budget = self.policy.cost_budget
        if budget is not None and estimated_cost > budget:
            with self._lock:
                self.rejected_budget += 1
            raise AdmissionError(
                f"estimated cost {estimated_cost:.1f} exceeds the admission "
                f"budget {budget:.1f}",
                reason="over_budget",
            )
        with self._lock:
            self.admitted += 1

    def slot_weight(self, width: int = 1) -> int:
        """Execution slots a request ``width`` shards wide reserves: one
        per shard, capped at ``max_concurrent`` (a wider ask could
        never be granted)."""
        return max(1, min(width, self.policy.max_concurrent))

    @contextmanager
    def slot(self, weight: int = 1):
        """Hold ``weight`` execution slots, atomically; raises
        :class:`AdmissionError` with ``reason="queue_full"`` if they do
        not all free up within the queue timeout.  All ``weight``
        slots are released together on exit — including on timeout or
        cancellation of the guarded execution."""
        weight = self.slot_weight(weight)
        deadline = time.monotonic() + self.policy.queue_timeout
        with self._slots_changed:
            while self._slots_free < weight:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._slots_changed.wait(remaining):
                    self.rejected_queue += 1
                    raise AdmissionError(
                        f"{weight} execution slot(s) did not free up within "
                        f"{self.policy.queue_timeout:.1f}s "
                        f"({self.policy.max_concurrent} concurrent max)",
                        reason="queue_full",
                    )
            self._slots_free -= weight
        try:
            yield weight
        finally:
            with self._slots_changed:
                self._slots_free += weight
                self._slots_changed.notify_all()

    def effective_timeout(self, requested: Optional[float]) -> Optional[float]:
        """The timeout to enforce for a request: the request's own ask,
        else the policy default; capped by ``max_timeout``."""
        timeout = requested if requested is not None else self.policy.default_timeout
        cap = self.policy.max_timeout
        if cap is not None:
            timeout = cap if timeout is None else min(timeout, cap)
        return timeout

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "admitted": self.admitted,
                "rejected_budget": self.rejected_budget,
                "rejected_queue": self.rejected_queue,
                "cost_budget": self.policy.cost_budget,
                "max_concurrent": self.policy.max_concurrent,
                "slots_in_use": self.policy.max_concurrent - self._slots_free,
            }
