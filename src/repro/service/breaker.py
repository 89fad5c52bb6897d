"""Per-compatibility-group circuit breaker.

A failing compatibility group — a circuit whose kernels crash, a config
that reliably overflows — must not keep burning engine workers while
healthy groups queue behind it.  Each group gets the classic
three-state breaker:

* **closed** — traffic flows; ``failure_threshold`` *consecutive*
  failures trip it open (any success resets the streak);
* **open** — submissions are refused with
  :class:`~repro.errors.CircuitOpenError` (carrying a retry-after hint)
  until ``reset_seconds`` elapse;
* **half-open** — exactly one probe job is admitted; its success closes
  the breaker, its failure re-opens it for another ``reset_seconds``.

Cache hits are served even while open (they touch no engine), and the
breaker only observes *dispatch* outcomes — admission rejections and
deadline expiries of still-queued jobs say nothing about the group's
health.
"""

from __future__ import annotations

import threading
import time as _time
from typing import Tuple

__all__ = ["CircuitBreaker"]

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Thread-safe consecutive-failure breaker for one compatibility group."""

    def __init__(self, failure_threshold: int = 5,
                 reset_seconds: float = 1.0) -> None:
        self.failure_threshold = failure_threshold
        self.reset_seconds = reset_seconds
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        self.times_opened = 0
        self.rejections = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._peek_state(_time.monotonic())

    def _peek_state(self, now: float) -> str:
        if (self._state == STATE_OPEN
                and now - self._opened_at >= self.reset_seconds):
            return STATE_HALF_OPEN
        return self._state

    def allow(self, now: float = None) -> Tuple[bool, float]:
        """May a job enter?  Returns ``(allowed, retry_after_seconds)``.

        In half-open state the first caller wins the single probe slot;
        everyone else keeps being refused until the probe settles.
        """
        if self._state == STATE_CLOSED:
            return True, 0.0  # the common case needs no clock or lock
        now = _time.monotonic() if now is None else now
        with self._lock:
            state = self._peek_state(now)
            if state == STATE_CLOSED:
                return True, 0.0
            if state == STATE_HALF_OPEN:
                if self._state == STATE_OPEN:
                    self._state = STATE_HALF_OPEN
                    self._probe_inflight = False
                if not self._probe_inflight:
                    self._probe_inflight = True
                    return True, 0.0
                self.rejections += 1
                return False, self.reset_seconds
            self.rejections += 1
            retry = max(self.reset_seconds - (now - self._opened_at), 0.001)
            return False, retry

    def record_success(self) -> None:
        with self._lock:
            self._state = STATE_CLOSED
            self._consecutive_failures = 0
            self._probe_inflight = False

    def record_failure(self, now: float = None) -> None:
        now = _time.monotonic() if now is None else now
        with self._lock:
            if self._state == STATE_HALF_OPEN:
                # The probe failed: straight back to open.
                self._state = STATE_OPEN
                self._opened_at = now
                self._probe_inflight = False
                self.times_opened += 1
                return
            self._consecutive_failures += 1
            if (self._state == STATE_CLOSED
                    and self._consecutive_failures >= self.failure_threshold):
                self._state = STATE_OPEN
                self._opened_at = now
                self.times_opened += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "state": self._peek_state(_time.monotonic()),
                "consecutive_failures": self._consecutive_failures,
                "times_opened": self.times_opened,
                "rejections": self.rejections,
            }
