"""Request deadlines, bounded admission, and a circuit breaker.

Three small primitives the HTTP layer composes to stay predictable
under overload and partial failure:

* :class:`Deadline` — a monotonic-clock expiry carried through the
  request in a :mod:`contextvars` variable, so deep engine code can
  call :func:`check_deadline` without any parameter plumbing.  The
  server answers **504** when a request's budget runs out; the work
  already done is abandoned at the next check, not interrupted.
* :class:`AdmissionController` — a bounded two-stage gate: up to
  ``max_inflight`` requests execute, up to ``max_queue`` more wait for
  a slot, everything beyond that is *shed immediately* with
  :class:`ShedError` (the server maps it to **503** + ``Retry-After``).
  Shedding at the door keeps queue time bounded — an unbounded backlog
  converts overload into timeouts for everyone.
* :class:`CircuitBreaker` — closed → open after ``failure_threshold``
  consecutive failures, half-open (one probe) after ``cooldown_s``.
  Guards the onboarding write path: once writes are known-broken,
  failing fast beats grinding every request through the same error.

All three are clock-injectable for deterministic tests and none of
them import the HTTP layer; they are plain synchronization objects.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional


class DeadlineExceeded(RuntimeError):
    """The request's time budget ran out (HTTP 504 at the edge)."""


class ShedError(RuntimeError):
    """The request was refused admission (HTTP 503 at the edge)."""

    def __init__(self, reason: str, retry_after_s: float = 1.0) -> None:
        super().__init__(f"request shed: {reason}")
        self.reason = reason
        self.retry_after_s = retry_after_s


class CircuitOpenError(ShedError):
    """The guarded dependency is failing; calls are refused for now."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__("circuit-open", retry_after_s=retry_after_s)


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Deadline:
    """An absolute expiry on the monotonic clock."""

    expires_at: float
    clock: Callable[[], float] = time.monotonic

    @classmethod
    def after_ms(cls, budget_ms: float,
                 clock: Callable[[], float] = time.monotonic) -> "Deadline":
        return cls(expires_at=clock() + budget_ms / 1e3, clock=clock)

    def remaining_s(self) -> float:
        return self.expires_at - self.clock()

    def expired(self) -> bool:
        return self.remaining_s() <= 0.0


#: the ambient deadline for the current request, if any — set by the
#: HTTP handler, read by :func:`check_deadline` deep in the engine
current_deadline: contextvars.ContextVar[Optional[Deadline]] = \
    contextvars.ContextVar("repro_serving_deadline", default=None)


@contextlib.contextmanager
def deadline_scope(deadline: Optional[Deadline]) -> Iterator[None]:
    """Install ``deadline`` as the ambient deadline for the block."""
    token = current_deadline.set(deadline)
    try:
        yield
    finally:
        current_deadline.reset(token)


def check_deadline(stage: str = "") -> None:
    """Raise :class:`DeadlineExceeded` if the ambient deadline passed.

    Cheap enough to sprinkle at natural yield points (batch entry, per
    forward); a no-op when no deadline is installed, so library callers
    outside the server never pay or fail.
    """
    deadline = current_deadline.get()
    if deadline is not None and deadline.expired():
        raise DeadlineExceeded(
            "request deadline exceeded"
            + (f" (at {stage})" if stage else ""))


# ---------------------------------------------------------------------------
# Bounded admission
# ---------------------------------------------------------------------------
class AdmissionController:
    """Two-stage bounded gate: ``max_inflight`` running, ``max_queue``
    waiting, the rest shed.

    :meth:`admit` is a context manager wrapping the whole request body;
    it blocks (bounded by the queue and the caller's timeout) until a
    slot frees, and releases the slot on exit however the body ends.
    :meth:`drain` flips the gate shut: new arrivals are shed with
    ``reason="draining"`` while in-flight requests finish —
    :meth:`wait_idle` is the graceful-shutdown barrier.
    """

    def __init__(self, max_inflight: int = 8, max_queue: int = 16) -> None:
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self._inflight = 0
        self._queued = 0
        self._draining = False
        self._condition = threading.Condition()

    # -- introspection (for /stats and tests) ---------------------------
    @property
    def inflight(self) -> int:
        with self._condition:
            return self._inflight

    # -- the gate -------------------------------------------------------
    @contextlib.contextmanager
    def admit(self, timeout_s: Optional[float] = None) -> Iterator[None]:
        """Hold one execution slot for the body, or shed.

        ``timeout_s`` bounds the queue wait (callers pass the request's
        remaining deadline budget); expiry sheds with
        ``reason="queue-timeout"`` rather than raising
        :class:`DeadlineExceeded` — the work never started, so 503
        retry-later is the honest answer.
        """
        self._acquire(timeout_s)
        try:
            yield
        finally:
            self._release()

    def _acquire(self, timeout_s: Optional[float]) -> None:
        with self._condition:
            if self._draining:
                raise ShedError("draining")
            if self._inflight < self.max_inflight:
                self._inflight += 1
                return
            if self._queued >= self.max_queue:
                raise ShedError("queue-full")
            self._queued += 1
            try:
                deadline = (None if timeout_s is None
                            else time.monotonic() + timeout_s)
                while True:
                    if self._draining:
                        raise ShedError("draining")
                    if self._inflight < self.max_inflight:
                        self._inflight += 1
                        return
                    remaining = (None if deadline is None
                                 else deadline - time.monotonic())
                    if remaining is not None and remaining <= 0:
                        raise ShedError("queue-timeout")
                    self._condition.wait(timeout=remaining)
            finally:
                self._queued -= 1

    def _release(self) -> None:
        with self._condition:
            self._inflight -= 1
            self._condition.notify_all()

    # -- shutdown -------------------------------------------------------
    def drain(self) -> None:
        """Refuse new work; wakes queued waiters so they shed promptly."""
        with self._condition:
            self._draining = True
            self._condition.notify_all()

    def wait_idle(self, timeout_s: Optional[float] = None) -> bool:
        """Block until nothing is in flight; True if idle was reached."""
        deadline = (None if timeout_s is None
                    else time.monotonic() + timeout_s)
        with self._condition:
            while self._inflight > 0:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._condition.wait(timeout=remaining)
            return True


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------
class CircuitBreaker:
    """Consecutive-failure breaker: closed → open → half-open → closed.

    ``failure_threshold`` consecutive failures open the circuit; after
    ``cooldown_s`` one probe call is let through (half-open) — success
    closes the circuit, failure re-opens it for another cooldown.
    :meth:`guard` wraps the protected call; while open it raises
    :class:`CircuitOpenError` carrying the time until the next probe.
    """

    def __init__(self, failure_threshold: int = 3, cooldown_s: float = 5.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold <= 0:
            raise ValueError("failure_threshold must be positive")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if self._clock() - self._opened_at >= self.cooldown_s:
                return "half-open"
            return "open"

    def _admit(self) -> None:
        with self._lock:
            if self._opened_at is None:
                return
            elapsed = self._clock() - self._opened_at
            if elapsed < self.cooldown_s:
                raise CircuitOpenError(
                    retry_after_s=max(self.cooldown_s - elapsed, 0.0))
            if self._probing:
                # one probe at a time in half-open: concurrent callers
                # are refused until the probe settles the verdict
                raise CircuitOpenError(retry_after_s=self.cooldown_s)
            self._probing = True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            self._probing = False
            if self._failures >= self.failure_threshold:
                self._opened_at = self._clock()

    @contextlib.contextmanager
    def guard(self) -> Iterator[None]:
        """Run the protected call, feeding the breaker its outcome.

        :class:`DeadlineExceeded` and :class:`ShedError` pass through
        without counting as failures — they say nothing about the
        health of the guarded dependency.
        """
        self._admit()
        try:
            yield
        except (DeadlineExceeded, ShedError):
            with self._lock:
                self._probing = False
            raise
        except Exception:
            self.record_failure()
            raise
        else:
            self.record_success()


__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DeadlineExceeded",
    "ShedError",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
]
