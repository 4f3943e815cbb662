"""Event subsystem tests: readiness waitqueues, nonblocking socket
semantics, epoll (level/edge/oneshot), eventfd, timerfd, signalfd, and
the waitqueue-driven ppoll/pselect6 rewrite (POLLHUP/POLLERR for closed
peers, prompt wakeups without timeout-sliced rescans)."""

import threading
import time

import pytest

from repro.kernel import (
    AF_INET, EPOLL_CTL_ADD, EPOLL_CTL_DEL, EPOLL_CTL_MOD, EPOLLERR,
    EPOLLET, EPOLLHUP, EPOLLIN, EPOLLONESHOT, EPOLLOUT, Kernel,
    KernelError, O_CREAT, O_NONBLOCK, O_RDWR, SFD_NONBLOCK,
    SIGNALFD_SIGINFO_SIZE, SIGKILL, SIGTERM, SIGUSR1, SIGUSR2, SOCK_STREAM,
    decode_siginfo, sig_bit,
)
from repro.kernel.errno import (
    EAGAIN, EBADF, EEXIST, EINVAL, ELOOP, ENOENT, EPERM,
)
from repro.kernel.net import SOCK_BUF_CAPACITY, SOCK_NONBLOCK

POLLIN, POLLOUT, POLLERR, POLLHUP, POLLNVAL = 1, 4, 8, 0x10, 0x20


@pytest.fixture
def kern():
    return Kernel()


@pytest.fixture
def proc(kern):
    return kern.create_process(["test"])


def _stream_pair(kern, proc):
    return kern.call(proc, "socketpair", AF_INET, SOCK_STREAM)


def _listener(kern, proc, port=9001):
    fd = kern.call(proc, "socket", AF_INET, SOCK_STREAM)
    kern.call(proc, "bind", fd, ("127.0.0.1", port))
    kern.call(proc, "listen", fd, 16)
    return fd


class TestNonblockingSockets:
    def test_eagain_on_empty_recv(self, kern, proc):
        a, b = _stream_pair(kern, proc)
        kern.call(proc, "fcntl", a, 4, O_NONBLOCK)  # F_SETFL
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "recvfrom", a, 64)
        assert exc.value.errno == EAGAIN

    def test_eagain_on_full_send(self, kern, proc):
        a, b = _stream_pair(kern, proc)
        kern.call(proc, "fcntl", a, 4, O_NONBLOCK)
        # fill b's receive buffer to capacity
        sent = 0
        chunk = b"x" * 65536
        while sent < SOCK_BUF_CAPACITY:
            sent += kern.call(proc, "sendto", a, chunk[:SOCK_BUF_CAPACITY - sent])
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "sendto", a, b"overflow")
        assert exc.value.errno == EAGAIN

    def test_accept4_nonblock_flag_and_empty_backlog(self, kern, proc):
        lfd = _listener(kern, proc)
        lfile = proc.fdtable.get(lfd)
        lfile.flags |= O_NONBLOCK
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "accept4", lfd, SOCK_NONBLOCK)
        assert exc.value.errno == EAGAIN
        cfd = kern.call(proc, "socket", AF_INET, SOCK_STREAM)
        kern.call(proc, "connect", cfd, ("127.0.0.1", 9001))
        conn = kern.call(proc, "accept4", lfd, SOCK_NONBLOCK)
        assert proc.fdtable.get(conn).nonblocking
        # and the accepted socket really is nonblocking for reads
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "recvfrom", conn, 16)
        assert exc.value.errno == EAGAIN


class TestEpollBasics:
    def test_level_triggered_reports_until_drained(self, kern, proc):
        a, b = _stream_pair(kern, proc)
        ep = kern.call(proc, "epoll_create1", 0)
        kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, a, EPOLLIN)
        assert kern.call(proc, "epoll_pwait", ep, 8,
                         timeout_ns=5_000_000) == []
        kern.call(proc, "sendto", b, b"data")
        ready = kern.call(proc, "epoll_pwait", ep, 8,
                          timeout_ns=1_000_000_000)
        assert ready == [(a, EPOLLIN)]
        # level-triggered: unread data keeps reporting
        ready = kern.call(proc, "epoll_pwait", ep, 8,
                          timeout_ns=1_000_000_000)
        assert ready == [(a, EPOLLIN)]
        kern.call(proc, "recvfrom", a, 64)
        assert kern.call(proc, "epoll_pwait", ep, 8,
                         timeout_ns=5_000_000) == []

    def test_edge_triggered_reports_once_per_edge(self, kern, proc):
        a, b = _stream_pair(kern, proc)
        ep = kern.call(proc, "epoll_create1", 0)
        kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, a,
                  EPOLLIN | EPOLLET)
        kern.call(proc, "sendto", b, b"edge1")
        assert kern.call(proc, "epoll_pwait", ep, 8,
                         timeout_ns=1_000_000_000) == [(a, EPOLLIN)]
        # data still buffered, but no new edge: silent
        assert kern.call(proc, "epoll_pwait", ep, 8,
                         timeout_ns=5_000_000) == []
        # a new write is a new edge
        kern.call(proc, "sendto", b, b"edge2")
        assert kern.call(proc, "epoll_pwait", ep, 8,
                         timeout_ns=1_000_000_000) == [(a, EPOLLIN)]

    def test_oneshot_disables_until_rearmed(self, kern, proc):
        a, b = _stream_pair(kern, proc)
        ep = kern.call(proc, "epoll_create1", 0)
        kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, a,
                  EPOLLIN | EPOLLONESHOT)
        kern.call(proc, "sendto", b, b"one")
        assert kern.call(proc, "epoll_pwait", ep, 8,
                         timeout_ns=1_000_000_000) == \
            [(a, EPOLLIN)]
        # disabled after delivery: even new data stays silent
        kern.call(proc, "sendto", b, b"two")
        assert kern.call(proc, "epoll_pwait", ep, 8,
                         timeout_ns=5_000_000) == []
        # EPOLL_CTL_MOD re-arms
        kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_MOD, a,
                  EPOLLIN | EPOLLONESHOT)
        assert kern.call(proc, "epoll_pwait", ep, 8,
                         timeout_ns=1_000_000_000) == [(a, EPOLLIN)]

    def test_epoll_event_data_passthrough(self, kern, proc):
        a, b = _stream_pair(kern, proc)
        ep = kern.call(proc, "epoll_create1", 0)
        kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, a, EPOLLIN,
                  data=0xDEADBEEF)
        kern.call(proc, "sendto", b, b"x")
        assert kern.call(proc, "epoll_pwait", ep, 8,
                         timeout_ns=1_000_000_000) == \
            [(0xDEADBEEF, EPOLLIN)]

    def test_hup_delivered_even_if_unrequested(self, kern, proc):
        a, b = _stream_pair(kern, proc)
        ep = kern.call(proc, "epoll_create1", 0)
        kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, a, EPOLLOUT)
        # writable immediately
        assert kern.call(proc, "epoll_pwait", ep, 8,
                         timeout_ns=1_000_000_000) == [(a, EPOLLOUT)]
        kern.call(proc, "close", b)
        ready = dict(kern.call(proc, "epoll_pwait", ep, 8,
                               timeout_ns=1_000_000_000))
        assert ready[a] & EPOLLHUP

    def test_ctl_error_cases(self, kern, proc):
        a, b = _stream_pair(kern, proc)
        ep = kern.call(proc, "epoll_create1", 0)
        kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, a, EPOLLIN)
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, a, EPOLLIN)
        assert exc.value.errno == EEXIST
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_MOD, b, EPOLLIN)
        assert exc.value.errno == ENOENT
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, ep, EPOLLIN)
        assert exc.value.errno == ELOOP
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, 999, EPOLLIN)
        assert exc.value.errno == EBADF
        reg = kern.call(proc, "open", "/tmp/reg", O_CREAT | O_RDWR)
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, reg, EPOLLIN)
        assert exc.value.errno == EPERM
        kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_DEL, a)
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_DEL, a)
        assert exc.value.errno == ENOENT

    def test_close_auto_detaches_from_interest_list(self, kern, proc):
        """Linux auto-removes closed fds from epoll: no phantom events,
        and the reused fd number can be registered again."""
        a, b = _stream_pair(kern, proc)
        ep = kern.call(proc, "epoll_create1", 0)
        kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, a, EPOLLIN)
        kern.call(proc, "sendto", b, b"x")
        assert kern.call(proc, "epoll_pwait", ep, 8,
                         timeout_ns=1_000_000_000) == [(a, EPOLLIN)]
        kern.call(proc, "close", a)
        # no phantom events for the dead socket
        assert kern.call(proc, "epoll_pwait", ep, 8,
                         timeout_ns=5_000_000) == []
        # the reused fd number registers cleanly (no EEXIST from staleness)
        c, d = _stream_pair(kern, proc)
        assert c == a  # lowest-free allocation reuses the slot
        kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, c, EPOLLIN)
        kern.call(proc, "sendto", d, b"fresh")
        assert kern.call(proc, "epoll_pwait", ep, 8,
                         timeout_ns=1_000_000_000) == [(c, EPOLLIN)]

    def test_concurrent_add_wakes_blocked_waiter(self, kern, proc):
        """A ready fd added while another thread waits must wake it
        promptly, not after the safety slice."""
        a, b = _stream_pair(kern, proc)
        kern.call(proc, "sendto", b, b"already-ready")
        ep = kern.call(proc, "epoll_create1", 0)

        def adder():
            time.sleep(0.05)
            kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, a, EPOLLIN)

        t = threading.Thread(target=adder)
        t.start()
        t0 = time.monotonic()
        ready = kern.call(proc, "epoll_pwait", ep, 8,
                          timeout_ns=5_000_000_000)
        elapsed = time.monotonic() - t0
        t.join()
        assert ready == [(a, EPOLLIN)]
        assert elapsed < 0.1  # ~0.05s adder delay, not slice-quantized

    def test_prompt_cross_thread_wakeup(self, kern, proc):
        """epoll_pwait must wake on the event, not on a timeout slice."""
        a, b = _stream_pair(kern, proc)
        ep = kern.call(proc, "epoll_create1", 0)
        kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, a, EPOLLIN)

        def writer():
            time.sleep(0.05)
            kern.call(proc, "sendto", b, b"wake")

        t = threading.Thread(target=writer)
        t.start()
        t0 = time.monotonic()
        ready = kern.call(proc, "epoll_pwait", ep, 8,
                          timeout_ns=5_000_000_000)
        elapsed = time.monotonic() - t0
        t.join()
        assert ready == [(a, EPOLLIN)]
        assert elapsed < 1.0  # woke on the event, not the 5 s timeout


class TestEventFD:
    def test_counter_semantics(self, kern, proc):
        fd = kern.call(proc, "eventfd2", 3, 0)
        assert kern.call(proc, "read", fd, 8) == (3).to_bytes(8, "little")
        kern.call(proc, "write", fd, (7).to_bytes(8, "little"))
        kern.call(proc, "write", fd, (1).to_bytes(8, "little"))
        assert kern.call(proc, "read", fd, 8) == (8).to_bytes(8, "little")

    def test_nonblock_read_on_zero(self, kern, proc):
        fd = kern.call(proc, "eventfd2", 0, 0o4000)  # EFD_NONBLOCK
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "read", fd, 8)
        assert exc.value.errno == EAGAIN

    def test_semaphore_mode(self, kern, proc):
        fd = kern.call(proc, "eventfd2", 2, 1)  # EFD_SEMAPHORE
        assert kern.call(proc, "read", fd, 8) == (1).to_bytes(8, "little")
        assert kern.call(proc, "read", fd, 8) == (1).to_bytes(8, "little")

    def test_short_writes_fail_with_einval(self, kern, proc):
        """As on Linux, a write of fewer than 8 bytes, none included."""
        fd = kern.call(proc, "eventfd2", 0, 0)
        for data in (b"", b"\x01" * 7):
            with pytest.raises(KernelError) as exc:
                kern.call(proc, "write", fd, data)
            assert exc.value.errno == EINVAL

    def test_epoll_readiness(self, kern, proc):
        fd = kern.call(proc, "eventfd2", 0, 0)
        ep = kern.call(proc, "epoll_create1", 0)
        kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, fd, EPOLLIN)
        assert kern.call(proc, "epoll_pwait", ep, 8,
                         timeout_ns=5_000_000) == []
        kern.call(proc, "write", fd, (1).to_bytes(8, "little"))
        ready = kern.call(proc, "epoll_pwait", ep, 8,
                          timeout_ns=1_000_000_000)
        assert ready == [(fd, EPOLLIN)]


class TestTimerFD:
    def test_oneshot_fires_and_reads(self, kern, proc):
        fd = kern.call(proc, "timerfd_create", 1, 0)
        kern.call(proc, "timerfd_settime", fd, 0, 20_000_000)
        ep = kern.call(proc, "epoll_create1", 0)
        kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, fd, EPOLLIN)
        ready = kern.call(proc, "epoll_pwait", ep, 8,
                          timeout_ns=2_000_000_000)
        assert ready == [(fd, EPOLLIN)]
        assert kern.call(proc, "read", fd, 8) == (1).to_bytes(8, "little")
        # drained: not readable again (one-shot timer)
        assert kern.call(proc, "epoll_pwait", ep, 8,
                         timeout_ns=5_000_000) == []

    def test_interval_accumulates_expirations(self, kern, proc):
        fd = kern.call(proc, "timerfd_create", 1, 0)
        kern.call(proc, "timerfd_settime", fd, 0, 10_000_000, 10_000_000)
        time.sleep(0.12)
        n = int.from_bytes(kern.call(proc, "read", fd, 8), "little")
        assert n >= 2  # several ticks elapsed unread
        kern.call(proc, "timerfd_settime", fd, 0, 0)  # disarm

    def test_gettime_and_disarm(self, kern, proc):
        fd = kern.call(proc, "timerfd_create", 1, 0)
        kern.call(proc, "timerfd_settime", fd, 0, 1_000_000_000)
        value, interval = kern.call(proc, "timerfd_gettime", fd)
        assert 0 < value <= 1_000_000_000
        old = kern.call(proc, "timerfd_settime", fd, 0, 0)
        assert old[0] > 0
        assert kern.call(proc, "timerfd_gettime", fd) == (0, 0)

    def test_abstime_in_the_past_expires_immediately(self, kern, proc):
        fd = kern.call(proc, "timerfd_create", 1, 0)
        now = time.monotonic_ns()
        # TFD_TIMER_ABSTIME with an already-elapsed deadline
        kern.call(proc, "timerfd_settime", fd, 1, now - 1_000_000)
        assert kern.call(proc, "read", fd, 8) == (1).to_bytes(8, "little")

    def test_nonblock_read_before_expiry(self, kern, proc):
        fd = kern.call(proc, "timerfd_create", 1, 0o4000)  # TFD_NONBLOCK
        kern.call(proc, "timerfd_settime", fd, 0, 10_000_000_000)
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "read", fd, 8)
        assert exc.value.errno == EAGAIN

    def test_bad_clock_rejected(self, kern, proc):
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "timerfd_create", 99, 0)
        assert exc.value.errno == EINVAL


class TestSignalFD:
    """signalfd4: pending signals drain as siginfo records, and arrival
    is a readiness edge like any other waitqueue source."""

    def _sfd(self, kern, proc, *sigs, flags=SFD_NONBLOCK):
        mask = 0
        for sig in sigs:
            mask |= sig_bit(sig)
        proc.blocked_mask |= mask  # standard usage: block what the fd owns
        return kern.call(proc, "signalfd4", -1, mask, flags)

    def test_drains_siginfo_with_sender_identity(self, kern, proc):
        sfd = self._sfd(kern, proc, SIGUSR1)
        sender = kern.create_process(["sender"])
        kern.call(sender, "kill", proc.pid, SIGUSR1)
        data = kern.call(proc, "read", sfd, SIGNALFD_SIGINFO_SIZE)
        assert len(data) == SIGNALFD_SIGINFO_SIZE
        signo, code, pid, uid = decode_siginfo(data)
        assert (signo, pid, uid) == (SIGUSR1, sender.pid, sender.euid)

    def test_read_empty_is_eagain(self, kern, proc):
        sfd = self._sfd(kern, proc, SIGUSR1)
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "read", sfd, SIGNALFD_SIGINFO_SIZE)
        assert exc.value.errno == EAGAIN

    def test_short_buffer_is_einval(self, kern, proc):
        sfd = self._sfd(kern, proc, SIGUSR1)
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "read", sfd, 64)
        assert exc.value.errno == EINVAL

    def test_mask_filters_out_of_mask_signals(self, kern, proc):
        sfd = self._sfd(kern, proc, SIGUSR1)
        proc.blocked_mask |= sig_bit(SIGUSR2)
        proc.generate_signal(SIGUSR2)
        # USR2 pends but is outside the fd's mask
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "read", sfd, SIGNALFD_SIGINFO_SIZE)
        assert exc.value.errno == EAGAIN
        assert proc.pending.bits & sig_bit(SIGUSR2)

    def test_batch_read_drains_multiple_records(self, kern, proc):
        sfd = self._sfd(kern, proc, SIGUSR1, SIGTERM)
        proc.generate_signal(SIGUSR1)
        proc.generate_signal(SIGTERM)
        data = kern.call(proc, "read", sfd, 4 * SIGNALFD_SIGINFO_SIZE)
        assert len(data) == 2 * SIGNALFD_SIGINFO_SIZE
        signos = [decode_siginfo(data[i:i + SIGNALFD_SIGINFO_SIZE])[0]
                  for i in (0, SIGNALFD_SIGINFO_SIZE)]
        assert signos == [SIGUSR1, SIGTERM]

    def test_sigkill_silently_dropped_from_mask(self, kern, proc):
        sfd = kern.call(proc, "signalfd4", -1,
                        sig_bit(SIGKILL) | sig_bit(SIGUSR1), SFD_NONBLOCK)
        assert proc.fdtable.get(sfd).obj.mask == sig_bit(SIGUSR1)

    def test_update_mask_in_place(self, kern, proc):
        sfd = self._sfd(kern, proc, SIGUSR1)
        proc.blocked_mask |= sig_bit(SIGUSR2)
        assert kern.call(proc, "signalfd4", sfd, sig_bit(SIGUSR2)) == sfd
        proc.generate_signal(SIGUSR2)
        signo = decode_siginfo(
            kern.call(proc, "read", sfd, SIGNALFD_SIGINFO_SIZE))[0]
        assert signo == SIGUSR2
        # updating a non-signalfd fd is EINVAL
        efd = kern.call(proc, "eventfd2", 0, 0)
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "signalfd4", efd, sig_bit(SIGUSR1))
        assert exc.value.errno == EINVAL

    def test_epoll_readiness_on_signal_arrival(self, kern, proc):
        sfd = self._sfd(kern, proc, SIGUSR1)
        ep = kern.call(proc, "epoll_create1", 0)
        kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, sfd, EPOLLIN)
        assert kern.call(proc, "epoll_pwait", ep, 8,
                         timeout_ns=5_000_000) == []

        def sender():
            time.sleep(0.05)
            proc.generate_signal(SIGUSR1, sender_pid=42)

        t = threading.Thread(target=sender)
        t.start()
        t0 = time.monotonic()
        ready = kern.call(proc, "epoll_pwait", ep, 8,
                          timeout_ns=5_000_000_000)
        elapsed = time.monotonic() - t0
        t.join()
        assert ready == [(sfd, EPOLLIN)]
        assert elapsed < 1.0  # woke on the signal edge, not the timeout
        assert decode_siginfo(
            kern.call(proc, "read", sfd, SIGNALFD_SIGINFO_SIZE))[:3] == \
            (SIGUSR1, 0, 42)
        # drained: level goes low again
        assert kern.call(proc, "epoll_pwait", ep, 8,
                         timeout_ns=5_000_000) == []

    def test_default_ignored_signal_still_reaches_signalfd(self, kern, proc):
        """SIGCHLD's default disposition is ignore, but a signalfd whose
        mask holds it is a consumer: generation must queue it."""
        from repro.kernel import SIGCHLD

        sfd = self._sfd(kern, proc, SIGCHLD)
        proc.generate_signal(SIGCHLD, sender_pid=7)
        signo, _, pid, _ = decode_siginfo(
            kern.call(proc, "read", sfd, SIGNALFD_SIGINFO_SIZE))
        assert (signo, pid) == (SIGCHLD, 7)

    def test_close_removes_consumer(self, kern, proc):
        sfd = self._sfd(kern, proc, SIGUSR1)
        assert len(proc.signalfds) == 1
        kern.call(proc, "close", sfd)
        assert proc.signalfds == []


class TestPpollSemantics:
    def test_pollhup_on_closed_peer(self, kern, proc):
        a, b = _stream_pair(kern, proc)
        kern.call(proc, "close", b)
        ready = dict(kern.call(proc, "ppoll", [(a, POLLIN)], 100_000_000))
        assert ready[a] & POLLHUP
        assert ready[a] & POLLIN  # EOF is readable

    def test_pollerr_on_widowed_pipe_write_end(self, kern, proc):
        r, w = kern.call(proc, "pipe2", 0)
        kern.call(proc, "close", r)
        # POLLERR must arrive even though only POLLOUT was requested
        ready = dict(kern.call(proc, "ppoll", [(w, POLLOUT)], 100_000_000))
        assert ready[w] & POLLERR

    def test_pollhup_on_widowed_pipe_read_end(self, kern, proc):
        r, w = kern.call(proc, "pipe2", 0)
        kern.call(proc, "close", w)
        ready = dict(kern.call(proc, "ppoll", [(r, POLLIN)], 100_000_000))
        assert ready[r] & POLLHUP

    def test_pollnval_for_bad_fd(self, kern, proc):
        ready = dict(kern.call(proc, "ppoll", [(742, POLLIN)], 1_000_000))
        assert ready[742] == POLLNVAL

    def test_prompt_wakeup_not_slice_rescan(self, kern, proc):
        a, b = _stream_pair(kern, proc)

        def writer():
            time.sleep(0.05)
            kern.call(proc, "sendto", b, b"now")

        t = threading.Thread(target=writer)
        t.start()
        t0 = time.monotonic()
        ready = kern.call(proc, "ppoll", [(a, POLLIN)], 5_000_000_000)
        elapsed = time.monotonic() - t0
        t.join()
        assert dict(ready)[a] & POLLIN
        assert elapsed < 1.0

    def test_pselect6_wakes_on_close(self, kern, proc):
        a, b = _stream_pair(kern, proc)

        def closer():
            time.sleep(0.05)
            kern.call(proc, "close", b)

        t = threading.Thread(target=closer)
        t.start()
        r_ready, w_ready = kern.call(proc, "pselect6", [a], [],
                                     5_000_000_000)
        t.join()
        assert a in r_ready

    def test_ppoll_over_epoll_fd(self, kern, proc):
        """epoll fds are themselves pollable (nesting)."""
        a, b = _stream_pair(kern, proc)
        ep = kern.call(proc, "epoll_create1", 0)
        kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, a, EPOLLIN)
        assert kern.call(proc, "ppoll", [(ep, POLLIN)], 5_000_000) == []
        kern.call(proc, "sendto", b, b"deep")
        ready = dict(kern.call(proc, "ppoll", [(ep, POLLIN)],
                               1_000_000_000))
        assert ready[ep] & POLLIN


class TestEpollThroughWali:
    def test_guest_event_loop_server(self):
        """The event-loop memcached serves ≥ 50 concurrent clients from a
        single thread, driven end-to-end through WALI epoll syscalls."""
        from repro.apps import build
        from repro.wali import WaliRuntime

        rt = WaliRuntime()
        server = rt.load(build("mini_memcached"),
                         argv=["memcached", "11211", "-e"])
        server.start_in_thread()
        for _ in range(500):
            if b"ready" in rt.kernel.console_output():
                break
            time.sleep(0.01)
        else:
            pytest.fail("server did not come up")

        k = rt.kernel
        cp = k.create_process(["pyclient"])
        fds = []
        for i in range(50):
            fd = k.call(cp, "socket", AF_INET, SOCK_STREAM)
            k.call(cp, "connect", fd, ("127.0.0.1", 11211))
            fds.append(fd)

        def recvline(fd):
            out = b""
            while not out.endswith(b"\n"):
                data, _ = k.call(cp, "recvfrom", fd, 256)
                if not data:
                    break
                out += data
            return out.decode().strip()

        # all 50 requests outstanding before any reply is read
        for i, fd in enumerate(fds):
            k.call(cp, "sendto", fd, f"set k{i} v{i}\n".encode())
        for i, fd in enumerate(fds):
            assert recvline(fd) == "STORED"
        for i, fd in enumerate(fds):
            k.call(cp, "sendto", fd, f"get k{i}\n".encode())
        for i, fd in enumerate(fds):
            assert recvline(fd) == f"VALUE v{i}"
        # single-threaded: no worker LWPs were cloned for the 50 clients
        assert k.syscall_counts.get("clone", 0) == 0
        k.call(cp, "sendto", fds[0], b"shutdown\n")
        assert recvline(fds[0]) == "BYE"
        server.join(5)

    def test_guest_epoll_eventfd_timerfd(self):
        from repro.apps import with_libc
        from repro.cc import compile_source
        from repro.wali import WaliRuntime

        src = r"""
buffer evs[96];
buffer rd[8];
export func _start() {
    var ep: i32 = cret(SYS_epoll_create1(0));
    var efd: i32 = cret(SYS_eventfd2(2, 0));
    epoll_add(ep, efd, EPOLLIN);
    if (epoll_wait(ep, evs, 8, 1000) != 1) { exit(1); }
    if (ev_fd(evs, 0) != efd) { exit(2); }
    read(efd, rd, 8);
    if (load32(rd) != 2) { exit(3); }
    if (epoll_wait(ep, evs, 8, 10) != 0) { exit(4); }
    var tfd: i32 = cret(SYS_timerfd_create(1, 0));
    var its: i32 = malloc(32);
    store64(its, i64(0)); store64(its + 8, i64(0));
    store64(its + 16, i64(0)); store64(its + 24, i64(20000000));
    SYS_timerfd_settime(tfd, 0, its, 0);
    epoll_add(ep, tfd, EPOLLIN);
    if (epoll_wait(ep, evs, 8, 2000) != 1) { exit(5); }
    if (ev_fd(evs, 0) != tfd) { exit(6); }
    exit(0);
}
"""
        rt = WaliRuntime()
        wp = rt.load(compile_source(with_libc(src), name="ev"),
                     argv=["ev"])
        assert wp.run() == 0

    def test_event_echo_workload_app(self):
        from repro.apps import build
        from repro.wali import WaliRuntime

        rt = WaliRuntime()
        wp = rt.load(build("event_echo"), argv=["event_echo", "50", "4"])
        assert wp.run() == 0
        assert b"echo ok echoes=200" in rt.kernel.console_output()


class TestWakeCoalescing:
    """The per-epoll dirty flag: a burst of readiness transitions on a
    hot fd costs one waiter notification per ready-list drain, not one
    per transition (the ROADMAP's edge-triggered wakeup coalescing)."""

    def test_one_wake_per_ready_list_drain_under_burst(self, kern, proc):
        a, b = _stream_pair(kern, proc)
        ep = kern.call(proc, "epoll_create1", 0)
        kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, a, EPOLLIN)
        kern.call(proc, "epoll_pwait", ep, 8, timeout_ns=0)  # level drain
        wakes = []
        proc.fdtable.get(ep).obj.wq.subscribe(wakes.append)

        for _ in range(100):  # 100 transitions on the same hot fd
            kern.call(proc, "sendto", b, b"x")
        assert len(wakes) == 1, wakes

        # a drain re-arms the notification...
        assert kern.call(proc, "epoll_pwait", ep, 8,
                         timeout_ns=0) == [(a, EPOLLIN)]
        for _ in range(100):
            kern.call(proc, "sendto", b, b"y")
        # ...so the next burst costs exactly one more wake
        assert len(wakes) == 2, wakes

    def test_coalescing_does_not_lose_wakeups_across_waits(self, kern, proc):
        """A blocked epoll_pwait still wakes promptly for a transition
        that arrives after the previous drain lowered the dirty flag."""
        a, b = _stream_pair(kern, proc)
        ep = kern.call(proc, "epoll_create1", 0)
        kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, a, EPOLLIN)
        kern.call(proc, "epoll_pwait", ep, 8, timeout_ns=0)

        t = threading.Timer(0.05, lambda: kern.call(proc, "sendto", b, b"z"))
        t.start()
        t0 = time.perf_counter()
        ready = kern.call(proc, "epoll_pwait", ep, 8,
                          timeout_ns=2_000_000_000)
        elapsed = time.perf_counter() - t0
        assert ready == [(a, EPOLLIN)]
        assert elapsed < 1.0  # woken by the event, not the timeout
