"""The kernel timer: timerfd, each task's ITIMER_REAL, io_uring's TIMEOUT
op and device hold, and the WAN delay line each arm a :class:`KTimer`."""

import threading
import time as _time
from typing import Callable, Optional, Tuple

from .errno import EINVAL, KernelError


class KTimer:
    """A one-shot or periodic timer on the host's monotonic clock.

    Each expiry adds to ``expirations``, then runs ``callback`` on the
    timer's thread.  A periodic timer re-arms at ``deadline + interval``,
    counting every period a late expiry missed.  Arming, cancelling, the
    count and an expiry's staleness check run under ``lock``; the callback
    runs outside it, so a caller may cancel while holding a lock the
    callback takes, and a callback that lost that race checks its owner."""

    def __init__(self, callback: Callable[[], None]):
        self.callback = callback
        self.lock = threading.Lock()
        self.deadline_ns: Optional[int] = None  # None while disarmed
        self.interval_ns = 0
        self.expirations = 0  # since the last settime
        self._thread: Optional[threading.Timer] = None

    def settime(self, value_ns: int, interval_ns: int = 0,
                absolute: bool = False) -> Tuple[int, int]:
        """Arm ``value_ns`` from now (a monotonic deadline if ``absolute``)
        or disarm with 0; returns the old ``(remaining, interval)``.  A
        negative value or interval fails with EINVAL."""
        if value_ns < 0 or interval_ns < 0:
            raise KernelError(EINVAL, "negative timer")
        now = _time.monotonic_ns()
        with self.lock:
            old = self._get(now)
            self._stop()
            self.interval_ns = interval_ns
            self.expirations = 0
            if value_ns > 0:
                self._start(value_ns if absolute else now + value_ns, now)
        return old

    def gettime(self) -> Tuple[int, int]:
        with self.lock:
            return self._get(_time.monotonic_ns())

    def cancel(self) -> None:
        if self.deadline_ns is not None:   # else already disarmed
            with self.lock:
                self._stop()

    def _get(self, now: int) -> Tuple[int, int]:
        left = 0 if self.deadline_ns is None else self.deadline_ns - now
        return max(0, left), self.interval_ns

    def _stop(self) -> None:
        if self._thread is not None:
            self._thread.cancel()
        self._thread = self.deadline_ns = None

    def _start(self, deadline_ns: int, now: int) -> None:
        self.deadline_ns = deadline_ns
        delay = min(max(0, deadline_ns - now) / 1e9, threading.TIMEOUT_MAX)
        self._thread = threading.Timer(delay, self._expire)
        self._thread.daemon = True
        self._thread.start()

    def _expire(self) -> None:
        with self.lock:
            if self._thread is not threading.current_thread():
                return  # cancelled or re-armed as the wait ended
            n = 1
            if self.interval_ns:
                now = _time.monotonic_ns()
                n += max(0, now - self.deadline_ns) // self.interval_ns
                self._start(self.deadline_ns + n * self.interval_ns, now)
            else:
                self._thread = self.deadline_ns = None
            self.expirations += n
        self.callback()
