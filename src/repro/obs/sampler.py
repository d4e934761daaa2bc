"""Sampling decisions for the overhead governor.

The overhead governor (:mod:`repro.obs.governor`) answers *whether* a
request gets detailed observability; this module holds the vocabulary it
answers in:

:class:`SamplingDecision`
    The per-request verdict — ``full`` (trace + profile buffered),
    ``head`` (this request was the deterministic 1-in-*stride* winner
    for a degraded class; artifacts buffered and the resulting telemetry
    sample carries ``weight = stride`` so calibration stays unbiased),
    or ``skip`` (cheap counters only).

:class:`StrideSampler` / :func:`stride_for`
    Deterministic head sampling.  Every ``round(1/p)``-th call per key
    is admitted — no RNG, so replays and tests are exactly reproducible
    and the admitted fraction converges to ``p`` without variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

__all__ = [
    "SamplingDecision",
    "StrideSampler",
    "stride_for",
    "FULL_DETAIL",
]


@dataclass(frozen=True)
class SamplingDecision:
    """The governor's per-request observability verdict."""

    #: ``full`` | ``head`` | ``skip``.
    mode: str
    #: True when trace + profile are buffered for this run.
    sampled: bool
    #: Inverse sampling probability.  ``full`` runs carry 1.0; a
    #: ``head`` run admitted at 1-in-*stride* carries *stride*, so the
    #: calibration fit can weight it back to an unbiased estimate.
    weight: float
    #: Why the governor decided this way (``under-budget``,
    #: ``anomaly-pinned``, ``head-sample``, ``degraded``, ...).
    reason: str
    #: The query class the decision was made for.
    query_class: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "sampled": self.sampled,
            "weight": round(self.weight, 4),
            "reason": self.reason,
        }


#: The decision handed out when no governor is configured: everything
#: observable, weight 1 — the pre-governor behavior.
FULL_DETAIL = SamplingDecision(
    mode="full", sampled=True, weight=1.0, reason="governor-off"
)


def stride_for(probability: float) -> int:
    """The deterministic stride implementing probability *p*: admit
    every ``round(1/p)``-th item."""

    if probability >= 1.0:
        return 1
    return max(1, int(round(1.0 / max(probability, 1e-6))))


class StrideSampler:
    """Deterministic per-key head sampler.

    ``admit(key, p)`` returns ``(admitted, stride)`` where exactly one
    call in every ``stride`` consecutive calls for the same key is
    admitted.  Deterministic by construction: the n-th call for a key
    is admitted iff ``n % stride == 0``.
    """

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def admit(self, key: str, probability: float) -> Tuple[bool, int]:
        stride = stride_for(probability)
        count = self._counters.get(key, 0) + 1
        self._counters[key] = count
        return count % stride == 0, stride

    def forget(self, key: str) -> None:
        self._counters.pop(key, None)
