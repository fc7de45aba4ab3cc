"""A per-key circuit breaker: stop hammering a corpus that keeps failing.

The service keys breakers by corpus fingerprint: a request whose pipeline
run fails repeatedly (poisoned corpus, permanent injected fault) trips its
breaker, and further identical requests fail fast with a ``retry_after``
hint instead of burning a worker for the full pipeline + retry budget.
Unrelated corpora are unaffected — their breakers are independent.

States follow the classic pattern: CLOSED (normal) → OPEN after
``failure_threshold`` consecutive failures (all calls rejected) →
HALF_OPEN after ``reset_after_s`` (one probe admitted) → CLOSED on probe
success, OPEN again on probe failure.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..perf import Counters

__all__ = ["BreakerPolicy", "CircuitBreaker", "CircuitOpenError"]


class CircuitOpenError(RuntimeError):
    """Fail-fast rejection: the fingerprint's breaker is open."""

    def __init__(self, key: str, retry_after: float) -> None:
        super().__init__(
            f"circuit open for {key[:16]}…: failing fast, retry in {retry_after:.2f}s"
        )
        self.key = key
        self.retry_after = retry_after


@dataclass(frozen=True)
class BreakerPolicy:
    """Configuration shared by every breaker an engine creates."""

    failure_threshold: int = 5
    reset_after_s: float = 30.0

    def build(self, clock=time.monotonic) -> "CircuitBreaker":
        return CircuitBreaker(
            failure_threshold=self.failure_threshold,
            reset_after_s=self.reset_after_s,
            clock=clock,
        )


class CircuitBreaker:
    """One key's breaker; thread-safe; ``clock`` injectable for tests."""

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after_s: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        self.failure_threshold = max(1, int(failure_threshold))
        self.reset_after_s = float(reset_after_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.counters = Counters("rejections", "trips")

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a call proceed right now?  (Counts a rejection when not.)"""
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if self._clock() - self._opened_at >= self.reset_after_s:
                    self._state = self.HALF_OPEN
                    self._probing = False
                else:
                    self.counters.add("rejections")
                    return False
            # HALF_OPEN: admit exactly one probe at a time.
            if self._probing:
                self.counters.add("rejections")
                return False
            self._probing = True
            return True

    def retry_after(self) -> float:
        """Seconds until the breaker would admit a probe (0 when closed)."""
        with self._lock:
            if self._state != self.OPEN:
                return 0.0
            return max(0.0, self.reset_after_s - (self._clock() - self._opened_at))

    def record_success(self) -> None:
        with self._lock:
            self._state = self.CLOSED
            self._consecutive_failures = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            probe_failed = self._state == self.HALF_OPEN
            if probe_failed or self._consecutive_failures >= self.failure_threshold:
                if self._state != self.OPEN:
                    self.counters.add("trips")
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._probing = False

    def stats(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                **self.counters.snapshot(),
            }
