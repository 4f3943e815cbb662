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
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from .errno import EAGAIN, EEXIST, EINVAL, ENOENT, EPERM, KernelError
from .timer import KTimer

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


class FileOps:
    """The object behind every fd but a regular file's or a directory's
    (``OpenFile.obj``): it reads, writes and polls itself, as a Linux
    file does through its ``f_op``.  ``read_step(length)`` returns bytes
    and ``write_step(buf)`` the bytes taken; a step that would block
    raises EAGAIN and the caller waits on ``wq``.  ``close()`` runs when
    the last description goes.  The defaults are a Linux file's without
    the op: read and write fail with EINVAL, the file is always ready
    and has no waitqueue (epoll refuses it), close does nothing, and
    lseek fails with ESPIPE unless ``seekable`` (then it returns 0)."""

    wq: Optional[WaitQueue] = None
    seekable = False

    def read_step(self, length: int) -> bytes:
        raise KernelError(EINVAL, f"{type(self).__name__} has no read")

    def write_step(self, buf: bytes) -> int:
        raise KernelError(EINVAL, f"{type(self).__name__} has no write")

    def poll_events(self) -> int:
        return EPOLLIN | EPOLLOUT

    def close(self) -> None:
        pass


class BoundedRing(FileOps):
    """A bounded record stream behind an epollable fd: the one overflow
    discipline of ``/proc/trace_pipe``, perf sample fds and inotify fds.

    The ring holds at most ``capacity`` records plus **one** overflow
    marker.  A push into a full ring is dropped: the first drop queues the
    marker and later drops grow its count in place, wherever a partial
    drain left it, so a late reader still learns how much it missed.
    Reading the marker clears it.  ``dropped`` counts drops and ``total``
    pushes.  ``read_step`` drains whole records (EAGAIN when empty, EINVAL
    when the next record does not fit).  ``wq`` wakes once per kept record
    and once per new marker, never for a drop that joins the marker, and
    always outside the ring's lock.

    Subclasses supply the record format: ``encode`` (default
    ``record.encode()``) and ``marker(first, count)``, the marker as a
    record.  The optional hooks ``merges`` (a push identical to the tail
    is swallowed), ``on_keep`` and ``on_drop`` run under the lock.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise KernelError(EINVAL, "ring capacity must be > 0")
        self.capacity = capacity
        self._q: deque = deque()
        self._overflow: Optional[list] = None   # [first drop, drops]
        self._lock = threading.Lock()
        self.dropped = 0
        self.total = 0
        self.wq = WaitQueue()

    def encode(self, record) -> bytes:
        return record.encode()

    def marker(self, first, count: int):
        raise NotImplementedError

    def merges(self, tail, record) -> bool:
        return False

    def on_keep(self, record) -> None:
        pass

    def on_drop(self, record) -> None:
        pass

    def push(self, record) -> None:
        """Queue ``record``, or count it on the marker when full."""
        with self._lock:
            q = self._q
            if q and q[-1] is not self._overflow and \
                    self.merges(q[-1], record):
                return
            self.total += 1
            if len(q) - (self._overflow is not None) < self.capacity:
                q.append(record)
                self.on_keep(record)
            else:
                self.dropped += 1
                self.on_drop(record)
                if self._overflow is not None:
                    self._overflow[1] += 1
                    return
                self._overflow = [record, 1]
                q.append(self._overflow)
        self.wq.wake(EPOLLIN)

    def read_step(self, length: int) -> bytes:
        """Drain whole records into ``length`` bytes."""
        with self._lock:
            q = self._q
            if not q:
                raise KernelError(EAGAIN, "ring empty")
            out = bytearray()
            while q:
                data = self.encode(self._render(q[0]))
                if len(out) + len(data) > length:
                    break
                if q.popleft() is self._overflow:
                    self._overflow = None
                out += data
            if not out:
                raise KernelError(EINVAL, "buffer too small for a record")
            return bytes(out)

    def poll_events(self) -> int:
        return EPOLLIN if self._q else 0

    def _render(self, entry):
        return self.marker(*entry) if entry is self._overflow else entry

    def records(self) -> list:
        """A snapshot of the queue, the marker rendered as a record."""
        with self._lock:
            return [self._render(e) for e in self._q]

    def __iter__(self):
        return iter(self.records())

    def __len__(self) -> int:
        return len(self._q)

    def clear(self) -> None:
        with self._lock:
            self._q.clear()
            self._overflow = None


class EventFD(FileOps):
    """The eventfd object: a 64-bit kernel counter with readiness, read
    and written as 8 little-endian bytes."""

    seekable = True

    def __init__(self, initval: int = 0, semaphore: bool = False):
        self.count = initval
        self.semaphore = semaphore
        self.wq = WaitQueue()

    def read_step(self, length: int) -> bytes:
        """Consume the counter (or one, in semaphore mode); EAGAIN if zero."""
        if length < 8:
            raise KernelError(EINVAL, "buffer smaller than 8 bytes")
        if self.count == 0:
            raise KernelError(EAGAIN, "eventfd counter is zero")
        val = 1 if self.semaphore else self.count
        self.count -= val
        self.wq.wake(EPOLLOUT)
        return val.to_bytes(8, "little")

    def write_step(self, buf: bytes) -> int:
        if len(buf) < 8:
            raise KernelError(EINVAL, "eventfd write needs 8 bytes")
        value = int.from_bytes(buf[:8], "little")
        if value >= EVENTFD_MAX + 1:
            raise KernelError(EINVAL, "eventfd value too large")
        if self.count + value > EVENTFD_MAX:
            raise KernelError(EAGAIN, "eventfd counter would overflow")
        self.count += value
        if value:
            self.wq.wake(EPOLLIN)
        return 8

    def poll_events(self) -> int:
        mask = 0
        if self.count > 0:
            mask |= EPOLLIN
        if self.count < EVENTFD_MAX:
            mask |= EPOLLOUT
        return mask

    def close(self) -> None:
        self.wq.wake(EPOLLHUP)


class TimerFD(KTimer, FileOps):
    """The timerfd object: a :class:`KTimer` whose expiry wakes its
    waitqueue and whose expirations a read drains as 8 bytes.  Its
    deadline is on the host's clock; ``timerfd_settime`` turns an
    absolute deadline on ``clock_id`` into a delay."""

    seekable = True

    def __init__(self, clock_id: int = 0):
        self.wq = WaitQueue()
        super().__init__(lambda: self.wq.wake(EPOLLIN))
        self.clock_id = clock_id

    def read_step(self, length: int) -> bytes:
        """Return and reset the expiration count; EAGAIN when zero."""
        if length < 8:
            raise KernelError(EINVAL, "buffer smaller than 8 bytes")
        with self.lock:
            n, self.expirations = self.expirations, 0
        if n == 0:
            raise KernelError(EAGAIN, "timer has not expired")
        return n.to_bytes(8, "little")

    def poll_events(self) -> int:
        return EPOLLIN if self.expirations > 0 else 0

    def close(self) -> None:
        self.cancel()
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


class EventPoll(FileOps):
    """A Linux-semantics epoll instance.

    The interest list maps fd -> :class:`_Interest`.  Readiness arrives via
    waitqueue callbacks, which place the fd on the ready list; polling all
    N watched files only ever happens at registration time, never per wait.
    """

    seekable = True

    def __init__(self, counters):
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
        # a regular file, a directory or a char device has no waitqueue
        wq = file.obj.wq if file.obj is not None else None
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
        item.file.obj.wq.unsubscribe(item.callback)
        self._ready.pop(fd, None)

    def _purge(self, fd: int, item: _Interest) -> None:
        """Silently drop a stale interest entry (its description closed)."""
        if self.items.get(fd) is item:
            del self.items[fd]
        item.file.obj.wq.unsubscribe(item.callback)
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
            mask = item.file.obj.poll_events()
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
            if item.file.obj.poll_events() & (item.events | _ALWAYS_EVENTS):
                return EPOLLIN
        return 0

    def close(self) -> None:
        for fd, item in list(self.items.items()):
            self._purge(fd, item)
        self.wq.wake(EPOLLHUP)
