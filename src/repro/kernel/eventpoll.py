"""Event notification: waitqueues, eventfd, timerfd, and Linux-semantics epoll.

This is the kernel's readiness layer.  Every waitable object (socket buffer,
pipe, eventfd counter, timerfd tick) owns a :class:`WaitQueue`; state
transitions *publish* readiness by calling :meth:`WaitQueue.wake`, and
consumers *subscribe* callbacks:

* blocking syscalls (``ppoll``/``pselect6``/``read``/``accept``...) subscribe
  the blocked task's ``Process.kick`` (through ``Kernel.wait_event``), so
  they wake promptly instead of timeout-slicing,
* :class:`EventPoll` instances subscribe per-interest callbacks that move the
  fd onto a **ready list** — ``epoll_pwait`` then dispatches from that list
  in O(ready) instead of rescanning all N watched fds like ``poll``.

Mutation of waiter/ready structures relies on CPython's GIL for atomicity
(single dict/list operations), matching the locking discipline of the rest
of the kernel model; condition variables are only used for blocking.
"""

from __future__ import annotations

import threading
import time as _time
from typing import Callable, Dict, List, Optional, Tuple

from .errno import (
    EAGAIN, EBADF, EEXIST, EINVAL, ENOENT, EPERM, KernelError,
)

# epoll event bits (identical to the poll bits for the low ones, like Linux)
EPOLLIN = 0x001
EPOLLPRI = 0x002
EPOLLOUT = 0x004
EPOLLERR = 0x008
EPOLLHUP = 0x010
EPOLLRDHUP = 0x2000
EPOLLEXCLUSIVE = 1 << 28
EPOLLONESHOT = 1 << 30
EPOLLET = 1 << 31

# always delivered, whether requested or not (Linux semantics)
_ALWAYS_EVENTS = EPOLLERR | EPOLLHUP

EPOLL_CTL_ADD = 1
EPOLL_CTL_DEL = 2
EPOLL_CTL_MOD = 3

EPOLL_CLOEXEC = 0o2000000

# eventfd flags
EFD_SEMAPHORE = 0o0000001
EFD_CLOEXEC = 0o2000000
EFD_NONBLOCK = 0o0004000
EVENTFD_MAX = 0xFFFFFFFFFFFFFFFE

# timerfd flags
TFD_CLOEXEC = 0o2000000
TFD_NONBLOCK = 0o0004000
TFD_TIMER_ABSTIME = 1

_WAKE_ALL = EPOLLIN | EPOLLOUT | EPOLLERR | EPOLLHUP

# Process-global wake observers (the wq_wake tracepoint).  Empty unless a
# KernelTrace with wq_wake unmasked is enabled, so the common-case cost
# in WaitQueue.wake is a single falsy check.
_wake_hooks: List[Callable[[int], None]] = []


def add_wake_hook(hook: Callable[[int], None]) -> None:
    _wake_hooks.append(hook)


def remove_wake_hook(hook: Callable[[int], None]) -> None:
    try:
        _wake_hooks.remove(hook)
    except ValueError:
        pass


class WaitQueue:
    """A set of wakeup callbacks invoked on readiness transitions.

    Callbacks receive the event mask that *may* have become true; they must
    be cheap and non-blocking (they run on the waker's thread, possibly
    under the waker's buffer lock).
    """

    __slots__ = ("_waiters",)

    def __init__(self):
        self._waiters: List[Callable[[int], None]] = []

    def subscribe(self, callback: Callable[[int], None]) -> None:
        self._waiters.append(callback)

    def unsubscribe(self, callback: Callable[[int], None]) -> None:
        try:
            self._waiters.remove(callback)
        except ValueError:
            pass

    def wake(self, events: int = _WAKE_ALL) -> None:
        if _wake_hooks:
            for hook in list(_wake_hooks):
                hook(events)
        for cb in list(self._waiters):
            cb(events)

    def __len__(self) -> int:
        return len(self._waiters)


class EventFD:
    """The eventfd object: a 64-bit kernel counter with readiness."""

    def __init__(self, initval: int = 0, semaphore: bool = False):
        self.count = initval
        self.semaphore = semaphore
        self.wq = WaitQueue()

    def read_step(self) -> int:
        """Consume the counter (or one, in semaphore mode); EAGAIN if zero."""
        if self.count == 0:
            raise KernelError(EAGAIN, "eventfd counter is zero")
        val = 1 if self.semaphore else self.count
        self.count -= val
        self.wq.wake(EPOLLOUT)
        return val

    def write_step(self, value: int) -> None:
        if value >= EVENTFD_MAX + 1:
            raise KernelError(EINVAL, "eventfd value too large")
        if self.count + value > EVENTFD_MAX:
            raise KernelError(EAGAIN, "eventfd counter would overflow")
        self.count += value
        if value:
            self.wq.wake(EPOLLIN)

    def poll_events(self) -> int:
        mask = 0
        if self.count > 0:
            mask |= EPOLLIN
        if self.count < EVENTFD_MAX:
            mask |= EPOLLOUT
        return mask

    def close(self) -> None:
        self.wq.wake(EPOLLHUP)


class TimerFD:
    """The timerfd object: expirations accumulate; reads drain them."""

    def __init__(self, clock_id: int = 0):
        self.clock_id = clock_id
        self.expirations = 0
        self.interval_ns = 0
        self.deadline_ns: Optional[int] = None  # monotonic target
        self.wq = WaitQueue()
        self._timer: Optional[threading.Timer] = None
        self._gen = 0  # invalidates in-flight timers after settime/close

    def settime(self, value_ns: int, interval_ns: int = 0,
                absolute: bool = False) -> Tuple[int, int]:
        """Arm (or disarm with value 0); returns the previous setting."""
        old = self.gettime()
        self._gen += 1
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.expirations = 0
        self.interval_ns = interval_ns
        now = _time.monotonic_ns()
        if value_ns <= 0:
            # it_value of zero disarms (even with TFD_TIMER_ABSTIME)
            self.deadline_ns = None
            return old
        if absolute:
            value_ns -= now
            if value_ns <= 0:
                # an already-past absolute deadline expires immediately
                self.expirations = 1
                if interval_ns > 0:
                    self.deadline_ns = now + interval_ns
                    self._arm(interval_ns, self._gen)
                else:
                    self.deadline_ns = None
                self.wq.wake(EPOLLIN)
                return old
        self.deadline_ns = now + value_ns
        self._arm(value_ns, self._gen)
        return old

    def _arm(self, delay_ns: int, gen: int) -> None:
        t = threading.Timer(delay_ns / 1e9, self._fire, args=(gen,))
        t.daemon = True
        self._timer = t
        t.start()

    def _fire(self, gen: int) -> None:
        if gen != self._gen:
            return  # superseded by a later settime/close
        self.expirations += 1
        if self.interval_ns > 0:
            self.deadline_ns = _time.monotonic_ns() + self.interval_ns
            self._arm(self.interval_ns, gen)
        else:
            self.deadline_ns = None
        self.wq.wake(EPOLLIN)

    def gettime(self) -> Tuple[int, int]:
        """(remaining_value_ns, interval_ns) like timerfd_gettime."""
        if self.deadline_ns is None:
            return 0, self.interval_ns
        return max(0, self.deadline_ns - _time.monotonic_ns()), \
            self.interval_ns

    def read_step(self) -> int:
        """Return and reset the expiration count; EAGAIN when zero."""
        if self.expirations == 0:
            raise KernelError(EAGAIN, "timer has not expired")
        n = self.expirations
        self.expirations = 0
        return n

    def poll_events(self) -> int:
        return EPOLLIN if self.expirations > 0 else 0

    def close(self) -> None:
        self._gen += 1
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.wq.wake(EPOLLHUP)


class _Interest:
    """One entry on an epoll interest list."""

    __slots__ = ("fd", "file", "events", "data", "disabled", "callback",
                 "marks")

    def __init__(self, fd: int, file, events: int, data: int):
        self.fd = fd
        self.file = file
        self.events = events
        self.data = data
        self.disabled = False  # set after delivery under EPOLLONESHOT
        self.callback: Optional[Callable[[int], None]] = None
        self.marks = 0         # readiness marks so far (EventPoll._unready)


class EventPoll:
    """A Linux-semantics epoll instance.

    The interest list maps fd -> :class:`_Interest`.  Readiness arrives via
    waitqueue callbacks, which place the fd on the ready list; polling all
    N watched files only ever happens at registration time, never per wait.
    """

    def __init__(self, counters=None):
        self.items: Dict[int, _Interest] = {}
        self._ready: Dict[int, int] = {}  # fd -> hinted events
        self.wq = WaitQueue()  # epoll fds are themselves pollable
        # wakeup coalescing: once waiters have been kicked for a non-empty
        # ready list, further readiness transitions are recorded on the
        # ready list but don't re-invoke every subscriber — a storm of
        # wakes on a hot fd costs one notification per ready-list drain,
        # not one per transition (matters at 1000+ watched fds)
        self._dirty = False
        # shared kernel CounterRegistry (epoll.wake_coalesced lives there)
        self.counters = counters
        # orders a readiness mark against a scan dropping the same entry
        self._mark_lock = threading.Lock()

    # ---- interest-list maintenance (epoll_ctl) ----

    def add(self, fd: int, file, events: int, data: int) -> None:
        stale = self.items.get(fd)
        if stale is not None:
            # a closed (or replaced-by-dup) description leaves a stale
            # entry behind; Linux auto-detaches on close, so purge it
            if stale.file.closed or stale.file is not file:
                self._purge(fd, stale)
            else:
                raise KernelError(EEXIST, f"fd {fd} already watched")
        wq = file.wait_queue()
        if wq is None:
            raise KernelError(EPERM, "file does not support epoll")
        item = _Interest(fd, file, events, data)

        def on_wake(ev: int, _item=item) -> None:
            self._mark_ready(_item, ev)

        item.callback = on_wake
        self.items[fd] = item
        wq.subscribe(on_wake)
        # initial level check: deliver events that are already true, and
        # kick waiters already blocked in epoll_pwait on this instance
        self._ready[fd] = _WAKE_ALL
        self._kick()

    def modify(self, fd: int, events: int, data: int) -> None:
        item = self.items.get(fd)
        if item is None:
            raise KernelError(ENOENT, f"fd {fd} not watched")
        item.events = events
        item.data = data
        item.disabled = False  # EPOLL_CTL_MOD re-arms a ONESHOT entry
        self._ready[fd] = _WAKE_ALL
        self._kick()

    def remove(self, fd: int) -> None:
        item = self.items.pop(fd, None)
        if item is None:
            raise KernelError(ENOENT, f"fd {fd} not watched")
        wq = item.file.wait_queue()
        if wq is not None and item.callback is not None:
            wq.unsubscribe(item.callback)
        self._ready.pop(fd, None)

    def _purge(self, fd: int, item: _Interest) -> None:
        """Silently drop a stale interest entry (its description closed)."""
        if self.items.get(fd) is item:
            del self.items[fd]
        wq = item.file.wait_queue()
        if wq is not None and item.callback is not None:
            wq.unsubscribe(item.callback)
        self._ready.pop(fd, None)

    # ---- readiness ----

    def _kick(self) -> None:
        """Notify waiters, coalescing repeats until the next drain.

        The first transition after a drain invokes every ``self.wq``
        subscriber; while the dirty flag is up, later transitions only
        accumulate on the ready list.  Any waiter that rechecks readiness
        (``wait_step``/``poll_events``) lowers the flag, so wakeups are
        never lost — at worst a recheck is already scheduled.
        """
        if self._dirty:
            if self.counters is not None:
                self.counters.inc("epoll.wake_coalesced")
            return
        self._dirty = True
        self.wq.wake(EPOLLIN)

    def _mark_ready(self, item: _Interest, events: int) -> None:
        if item.disabled:
            return
        with self._mark_lock:
            item.marks += 1
            self._ready[item.fd] = self._ready.get(item.fd, 0) | events
        self._kick()

    def _unready(self, item: _Interest, marks: int) -> None:
        """Drop ``item`` from the ready list, unless it was marked after
        its level was read (``marks`` is the count read before): that
        mark is a transition the level read may have missed."""
        with self._mark_lock:
            if item.marks == marks:
                self._ready.pop(item.fd, None)

    def wait_step(self, maxevents: int) -> Optional[List[Tuple[int, int]]]:
        """One dispatch pass over the ready list.

        Returns ``[(data, revents)]`` or None when nothing is deliverable
        (the caller blocks on ``self.wq``).  Cost is proportional to the
        ready-list length, not the interest-list length.
        """
        self._dirty = False  # this recheck observes all prior transitions
        out: List[Tuple[int, int]] = []
        for fd in list(self._ready):
            item = self.items.get(fd)
            if item is None:
                self._ready.pop(fd, None)
                continue
            if item.file.closed:
                self._purge(fd, item)  # Linux auto-detaches on close
                continue
            if item.disabled:
                self._ready.pop(fd, None)
                continue
            marks = item.marks
            mask = item.file.poll_events()
            revents = mask & (item.events | _ALWAYS_EVENTS)
            if not revents:
                self._unready(item, marks)  # spurious or consumed: drop
                continue
            out.append((item.data, revents))
            if item.events & EPOLLONESHOT:
                item.disabled = True
                self._ready.pop(fd, None)
            elif item.events & EPOLLET:
                # edge-triggered: silent until the next wakeup edge
                self._unready(item, marks)
            # level-triggered entries stay on the ready list; the next
            # wait re-checks the level and drops them once drained.
            if len(out) >= maxevents:
                break
        return out or None

    def poll_events(self) -> int:
        # non-consuming readiness probe (for ppoll/epoll over an epoll fd);
        # it too lowers the dirty flag: the prober has observed the current
        # ready list, so the next transition must kick it again
        self._dirty = False
        for fd in list(self._ready):
            item = self.items.get(fd)
            if item is None or item.disabled or item.file.closed:
                continue
            if item.file.poll_events() & (item.events | _ALWAYS_EVENTS):
                return EPOLLIN
        return 0

    def close(self) -> None:
        for fd, item in list(self.items.items()):
            self._purge(fd, item)
        self.wq.wake(EPOLLHUP)


def poll_event_names(mask: int) -> str:
    """Debug helper: render an event mask symbolically."""
    names = [("IN", EPOLLIN), ("PRI", EPOLLPRI), ("OUT", EPOLLOUT),
             ("ERR", EPOLLERR), ("HUP", EPOLLHUP), ("RDHUP", EPOLLRDHUP)]
    out = [n for n, bit in names if mask & bit]
    return "|".join(out) or "0"
