"""Fault supervision: retry policy with capped exponential backoff.

Classification (the engine applies it per :class:`JobOutcome`):

- **fault** (a :class:`~repro.core.runner.RunFailure` whose cause is not a
  timeout) — transient until proven otherwise: retried up to the cap,
  each attempt under a reseeded RNG stream and after an exponentially
  growing, capped backoff delay;
- **timeout** — deterministic runs that crossed the deadline once will
  cross it again, so timeouts are terminal (raise ``--timeout`` instead);
- **quality_miss** — a completed run below target is a *result*, not a
  fault (§3.2.2 scores it as a failed run); never retried;
- **reached** — done.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How many times one invocation re-runs a faulted cell and how long it waits.

    ``delay_s(retry)`` is the pause before the invocation's retry ``retry``
    (its first is 1): ``base * 2**(retry-1)``, capped.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff delays cannot be negative")

    def delay_s(self, retry: int) -> float:
        if retry < 1:
            raise ValueError("retry attempts start at 1")
        return min(self.backoff_base_s * (2 ** (retry - 1)), self.backoff_cap_s)
