"""Load shedding: a bounded admission queue in front of the HTTP handlers.

``ThreadingHTTPServer`` happily spawns a thread per connection; under a
traffic spike that means unbounded concurrent pipeline runs, memory growth
and collapsing latency for *everyone*.  The admission controller caps
concurrent work at ``max_concurrent`` and queues at most ``max_queue``
further requests; anything beyond is shed immediately with a
``retry_after`` hint (HTTP 429), which keeps the served requests fast —
graceful degradation instead of congestion collapse.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from ..perf import Counters

__all__ = ["AdmissionController", "OverloadedError"]


class OverloadedError(RuntimeError):
    """The admission queue is full; the caller should retry later."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(
            f"service overloaded: admission queue full, retry in {retry_after:.2f}s"
        )
        self.retry_after = retry_after


class AdmissionController:
    """Bounded concurrency + bounded queue + shed counter, lock-based."""

    def __init__(
        self,
        max_concurrent: int = 8,
        max_queue: int = 32,
        retry_after_s: float = 0.5,
    ) -> None:
        self.max_concurrent = max(1, int(max_concurrent))
        self.max_queue = max(0, int(max_queue))
        self.retry_after_s = float(retry_after_s)
        self._cond = threading.Condition()
        self._active = 0
        self._queued = 0
        self.counters = Counters("admitted", "shed")

    def acquire(self) -> bool:
        """Take a slot, queueing if needed; ``False`` means shed (no slot)."""
        with self._cond:
            if self._active >= self.max_concurrent:
                if self._queued >= self.max_queue:
                    self.counters.add("shed")
                    return False
                self._queued += 1
                try:
                    while self._active >= self.max_concurrent:
                        self._cond.wait()
                finally:
                    self._queued -= 1
            self._active += 1
            self.counters.add("admitted")
            return True

    def release(self) -> None:
        with self._cond:
            self._active -= 1
            self._cond.notify()

    @contextmanager
    def admit(self):
        """Context-managed slot; raises :class:`OverloadedError` when shed."""
        if not self.acquire():
            raise OverloadedError(self.retry_after_s)
        try:
            yield
        finally:
            self.release()

    def stats(self) -> dict:
        with self._cond:
            return {
                "max_concurrent": self.max_concurrent,
                "max_queue": self.max_queue,
                "active": self._active,
                "queued": self._queued,
                **self.counters.snapshot(),
            }
