"""Blocking and wakeups: every waker kicks the task, one wait loop.

``Kernel.wait_event`` is the only blocking loop and ``Process.kick`` the
only waker.  These tests pin the guarantee that makes the 50 ms safety
slice a pure backstop: a wake is never lost, wherever it lands relative
to the waiter's scan, so no blocked task waits out a slice to see it.
"""

import sys
import threading
import time

import pytest

from repro.kernel import (
    EPOLL_CTL_ADD, EPOLLIN, FUTEX_LOCK_PI, FUTEX_UNLOCK_PI, FUTEX_WAIT,
    FUTEX_WAKE, SIG_BLOCK, SIGUSR1, Kernel, KernelError, decode_records,
    sig_bit,
)
from repro.kernel.errno import EINTR

UADDR = 0x1000
POLLIN = 1


@pytest.fixture
def k():
    return Kernel()


def _record_sleeps(monkeypatch, k):
    """Wrap ``k.sched.sleep``; returns the list of ``(wait_s, elapsed_s)``
    of every sleep the kernel's tasks take."""
    sleeps = []
    sleep = k.sched.sleep

    def recording(proc, wait_s):
        t0 = time.monotonic()
        try:
            return sleep(proc, wait_s)
        finally:
            sleeps.append((wait_s, time.monotonic() - t0))

    monkeypatch.setattr(k.sched, "sleep", recording)
    return sleeps


def _wake_inside_scan(monkeypatch, k, waker, at):
    """Make the ``at``-th failing scan of the next wait run ``waker`` to
    completion on another thread before the scan returns."""
    wait_event = k.wait_event

    def hooked(proc, scan, *args, **kwargs):
        failures = [0]

        def scan_then_wake():
            result = scan()
            if result is None:
                failures[0] += 1
                if failures[0] == at:
                    t = threading.Thread(target=waker)
                    t.start()
                    t.join(5)
            return result

        return wait_event(proc, scan_then_wake, *args, **kwargs)

    monkeypatch.setattr(k, "wait_event", hooked)


def _wait4(k):
    parent = k.create_process(["parent"], stdio=False)
    child = k.call(parent, "fork")
    return (lambda: k.call(parent, "wait4", child.pid, 0)[0],
            lambda: k.call(child, "exit_group", 0),
            child.pid)


def _futex_wake(k):
    waiter = k.create_process(["waiter"], stdio=False)
    waker = k.create_process(["waker"], stdio=False)
    waker.tgid = waiter.tgid
    return (lambda: k.call(waiter, "futex", UADDR, FUTEX_WAIT, 0, 0,
                           timeout_ns=5_000_000_000),
            lambda: k.call(waker, "futex", UADDR, FUTEX_WAKE, 1, 0),
            0)


def _futex_unlock_pi(k):
    holder = k.create_process(["holder"], stdio=False)
    waiter = k.create_process(["waiter"], stdio=False)
    waiter.tgid = holder.tgid
    k.call(holder, "futex", UADDR, FUTEX_LOCK_PI, 0, 0)
    return (lambda: k.call(waiter, "futex", UADDR, FUTEX_LOCK_PI, 0, 0,
                           timeout_ns=5_000_000_000),
            lambda: k.call(holder, "futex", UADDR, FUTEX_UNLOCK_PI, 0, 0),
            0)


def _sigsuspend(k):
    proc = k.create_process(["waiter"], stdio=False)

    def wait():
        with pytest.raises(KernelError) as ei:
            k.call(proc, "rt_sigsuspend", 0)
        return ei.value.errno

    return wait, lambda: proc.generate_signal(SIGUSR1), EINTR


def _sigtimedwait(k):
    proc = k.create_process(["waiter"], stdio=False)
    k.call(proc, "rt_sigprocmask", SIG_BLOCK, sig_bit(SIGUSR1))
    return (lambda: k.call(proc, "rt_sigtimedwait", sig_bit(SIGUSR1),
                           timeout_ns=5_000_000_000),
            lambda: proc.generate_signal(SIGUSR1),
            SIGUSR1)


def _epoll(k):
    proc = k.create_process(["waiter"], stdio=False)
    efd = k.call(proc, "eventfd2", 0, 0)
    epfd = k.call(proc, "epoll_create1", 0)
    k.call(proc, "epoll_ctl", epfd, EPOLL_CTL_ADD, efd, EPOLLIN)
    return (lambda: k.call(proc, "epoll_pwait", epfd, 8,
                           timeout_ns=5_000_000_000),
            lambda: k.call(proc, "write", efd, (1).to_bytes(8, "little")),
            [(efd, EPOLLIN)])


WAKERS = {
    "child_exit-wait4": _wait4,
    "futex_wake-futex_wait": _futex_wake,
    "futex_unlock_pi-futex_lock_pi": _futex_unlock_pi,
    "signal-rt_sigsuspend": _sigsuspend,
    "signal-rt_sigtimedwait": _sigtimedwait,
    "waitqueue-epoll_pwait": _epoll,
}


@pytest.mark.parametrize("at", [1, 2], ids=["first_scan", "second_scan"])
@pytest.mark.parametrize("case", sorted(WAKERS))
def test_wake_inside_scan_is_not_lost(monkeypatch, k, case, at):
    """A wake that lands while the waiter scans (before it subscribes,
    or after it subscribed but before it sleeps) is delivered at once:
    no sleep runs out its slice."""
    wait, wake, expected = WAKERS[case](k)
    _wake_inside_scan(monkeypatch, k, wake, at)
    sleeps = _record_sleeps(monkeypatch, k)
    assert wait() == expected
    ran_out = [(w, e) for w, e in sleeps if e >= w]
    assert ran_out == []
    assert k.trace.counters.get("sched.safety_net_wakeups") == 0


def test_wait4_sleeps_are_not_polling(monkeypatch, k):
    """A parent in wait4 sleeps once per safety slice plus the kicked
    sleep, not once per 2 ms: a child exiting at 75 ms (midway between
    two 50 ms slice boundaries) costs at most 2 sleeps."""
    wait, wake, child_pid = _wait4(k)
    sleeps = _record_sleeps(monkeypatch, k)
    timer = threading.Timer(0.075, wake)
    timer.start()
    try:
        assert wait() == child_pid
    finally:
        timer.join(5)
    assert 1 <= len(sleeps) <= 2, sleeps


@pytest.mark.parametrize("call", ["read", "ppoll"])
def test_pipe_write_wakes_blocked_reader(k, call):
    """A blocking read or ppoll on an empty pipe returns when the writer
    writes, not when the 50 ms safety slice runs out."""
    proc = k.create_process(["reader"], stdio=False)
    writer = k.create_process(["writer"], stdio=False)
    r, w = k.call(proc, "pipe2", 0)
    wfd = writer.fdtable.install(proc.fdtable.get(w))
    timer = threading.Timer(
        0.005, lambda: k.call(writer, "write", wfd, b"x"))
    t0 = time.monotonic()
    timer.start()
    try:
        if call == "read":
            assert k.call(proc, "read", r, 16) == b"x"
        else:
            assert k.call(proc, "ppoll", [(r, POLLIN)], None) == \
                [(r, POLLIN)]
    finally:
        timer.join(5)
    assert time.monotonic() - t0 < 0.025


@pytest.mark.parametrize("nonblocking", [False, True])
def test_blocking_io_runs_its_first_step_once(monkeypatch, k, nonblocking):
    """A read that would block makes its first attempt once: the wait
    loop starts from that attempt, not from a scan of its own.  A pending
    signal ends a blocking wait at once (EINTR); O_NONBLOCK ends it before
    any wait (EAGAIN)."""
    from repro.kernel.errno import EAGAIN
    from repro.kernel.fdtable import OpenFile
    from repro.kernel.vfs import O_NONBLOCK

    proc = k.create_process(["reader"], stdio=False)
    r, w = k.call(proc, "pipe2", O_NONBLOCK if nonblocking else 0)
    steps = []
    read = OpenFile.read

    def counted(self, length):
        steps.append(length)
        return read(self, length)

    monkeypatch.setattr(OpenFile, "read", counted)
    proc.generate_signal(SIGUSR1)
    with pytest.raises(KernelError) as ei:
        k.call(proc, "read", r, 16)
    assert ei.value.errno == (EAGAIN if nonblocking else EINTR)
    assert steps == [16]


def test_pipe_read_wakes_blocked_writer(k):
    """Draining a full pipe wakes a writer blocked on it."""
    proc = k.create_process(["writer"], stdio=False)
    reader = k.create_process(["reader"], stdio=False)
    r, w = k.call(proc, "pipe2", 0)
    rfd = reader.fdtable.install(proc.fdtable.get(r))
    cap = proc.fdtable.get(w).obj.pipe.capacity
    assert k.call(proc, "write", w, b"a" * cap) == cap
    timer = threading.Timer(
        0.005, lambda: k.call(reader, "read", rfd, 16))
    t0 = time.monotonic()
    timer.start()
    try:
        assert k.call(proc, "write", w, b"b") == 1
    finally:
        timer.join(5)
    assert time.monotonic() - t0 < 0.025


def test_pipe_ping_pong_stress_loses_no_wakeup(k):
    """Eight threads (more than the cores) bounce a byte through pipe
    pairs with a tiny switch interval; every blocked read is woken by a
    kick, so no wait is recovered by the safety slice."""
    pairs, rounds = 4, 100
    threads, done = [], []
    for _ in range(pairs):
        ping = k.create_process(["ping"], stdio=False)
        pong = k.create_process(["pong"], stdio=False)
        a_r, a_w = k.call(ping, "pipe2", 0)   # ping -> pong
        b_r, b_w = k.call(ping, "pipe2", 0)   # pong -> ping
        pong_r = pong.fdtable.install(ping.fdtable.get(a_r))
        pong_w = pong.fdtable.install(ping.fdtable.get(b_w))

        def ping_loop(p=ping, w=a_w, r=b_r):
            for _ in range(rounds):
                k.call(p, "write", w, b"x")
                assert k.call(p, "read", r, 1) == b"x"
            done.append(p.pid)

        def pong_loop(p=pong, r=pong_r, w=pong_w):
            for _ in range(rounds):
                assert k.call(p, "read", r, 1) == b"x"
                k.call(p, "write", w, b"x")

        threads += [threading.Thread(target=ping_loop, daemon=True),
                    threading.Thread(target=pong_loop, daemon=True)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(done) == pairs
    assert k.trace.counters.get("sched.safety_net_wakeups") == 0


@pytest.mark.parametrize("edge", [False, True], ids=["level", "edge"])
def test_epoll_keeps_a_mark_that_lands_inside_the_level_read(
        monkeypatch, k, edge):
    """A readiness mark that arrives while ``wait_step`` reads an entry's
    level (which it reads as not ready) keeps the entry on the ready
    list: the next wait reports the fd instead of losing it."""
    from repro.kernel.eventpoll import EPOLLET, EventFD

    proc = k.create_process(["waiter"], stdio=False)
    efd = k.call(proc, "eventfd2", 0, 0)
    epfd = k.call(proc, "epoll_create1", 0)
    k.call(proc, "epoll_ctl", epfd, EPOLL_CTL_ADD, efd,
           EPOLLIN | (EPOLLET if edge else 0))
    target = proc.fdtable.get(efd).obj
    poll_events = EventFD.poll_events
    injected = []

    def level_then_write(self):
        level = poll_events(self)
        if self is target and not injected:
            injected.append(level)
            t = threading.Thread(target=lambda: k.call(
                proc, "write", efd, (1).to_bytes(8, "little")))
            t.start()
            t.join(5)
        return level

    monkeypatch.setattr(EventFD, "poll_events", level_then_write)
    assert k.call(proc, "epoll_pwait", epfd, 8, timeout_ns=0) == []
    assert len(injected) == 1 and not injected[0] & EPOLLIN
    assert k.call(proc, "epoll_pwait", epfd, 8, timeout_ns=0) == \
        [(efd, EPOLLIN)]


def test_lost_wakeups_count_with_tracing_disabled(monkeypatch):
    """``sched.safety_net_wakeups`` counts while tracing is disabled (the
    default), so the root conftest guard covers every kernel."""
    k = Kernel()
    assert not k.trace.enabled
    proc = k.create_process(["waiter"], stdio=False)
    monkeypatch.setattr("repro.kernel.kernel._SAFETY_SLICE_S", 0.001)
    scans = []

    def ready_on_third_scan():
        scans.append(1)
        return True if len(scans) == 3 else None

    assert k.wait_event(proc, ready_on_third_scan) is True
    assert k.counters.get("sched.safety_net_wakeups") == 1
    k.counters.clear()   # the guard would fail this test otherwise


def test_lost_wakeup_emits_a_tracepoint(monkeypatch):
    """A lost wakeup is also a ``safety_net_wakeup`` record on the trace
    ring, carrying the waiter's pid."""
    k = Kernel(trace="on")
    k.trace.set_mask(["safety_net_wakeup"])
    proc = k.create_process(["waiter"], stdio=False)
    monkeypatch.setattr("repro.kernel.kernel._SAFETY_SLICE_S", 0.001)
    scans = []

    def ready_on_third_scan():
        scans.append(1)
        return True if len(scans) == 3 else None

    assert k.wait_event(proc, ready_on_third_scan) is True
    recs = decode_records(k.trace.buffer.read_step(1 << 16))
    assert [(r.point, r.pid) for r in recs] == \
        [("safety_net_wakeup", proc.pid)]
    k.counters.clear()   # the guard would fail this test otherwise
