"""io_uring subsystem tests: ring lifecycle, batched submission, deferred
completion on waitqueues, SQ-full and CQ-overflow semantics, link chains
with failure short-circuiting, ET-style single completion per arrival,
POLL_ADD/TIMEOUT ops, and the WALI guest-facing ring (shared ring memory,
one crossing per batch)."""

import time

import pytest

from repro.kernel import (
    AF_INET, EPOLL_CTL_ADD, EPOLLHUP, EPOLLIN, EPOLLOUT,
    IORING_ACCEPT_MULTISHOT, IORING_CQE_BUFFER_SHIFT, IORING_CQE_F_BUFFER,
    IORING_CQE_F_MORE, IORING_ENTER_SQ_WAKEUP, IORING_OP_ACCEPT,
    IORING_OP_NOP, IORING_OP_POLL_ADD, IORING_OP_READ, IORING_OP_READ_FIXED,
    IORING_OP_RECV, IORING_OP_SEND, IORING_OP_TIMEOUT, IORING_OP_WRITE,
    IORING_RECV_MULTISHOT, IORING_REGISTER_BUFFERS, IORING_SETUP_SQPOLL,
    IOSQE_CQE_SKIP_SUCCESS, IOSQE_FIXED_BUFFER, IOSQE_IO_LINK, Kernel,
    KernelError, SOCK_STREAM, SQE,
)
from repro.kernel.errno import (
    EBADF, ECANCELED, EINVAL, EPIPE, ETIME,
)

POLLIN = 1


# every ring-serving test runs twice: on an idle kernel, and preempted
# every 50 us by two CPU-bound spinner guests on a 2-slot scheduler —
# deferred completions and readiness parking must survive arbitrary
# preemption between submit, wakeup, and reap
@pytest.fixture(params=[
    pytest.param(False, id="idle"),
    pytest.param(True, id="contended"),
])
def kern(request):
    if not request.param:
        return Kernel()
    from repro.kernel import BackgroundSpinners

    k = Kernel(sched="cpus=2,slice_us=50")
    spinners = BackgroundSpinners(k, n=2).start()
    request.addfinalizer(spinners.stop)
    return k


@pytest.fixture
def proc(kern):
    return kern.create_process(["uring"])


def _pair(kern, proc):
    return kern.call(proc, "socketpair", AF_INET, SOCK_STREAM)


def _enter(kern, proc, fd, sqes=(), min_complete=0, timeout_ns=None,
           max_cqes=None, flags=0):
    return kern.call(proc, "io_uring_enter", fd, sqes, min_complete,
                     timeout_ns, max_cqes, flags)


class TestRingBasics:
    def test_setup_rounds_to_power_of_two(self, kern, proc):
        fd = kern.call(proc, "io_uring_setup", 5)
        ring = proc.fdtable.get(fd).obj
        assert ring.sq_entries == 8
        assert ring.cq_entries == 16

    def test_setup_rejects_bad_entries(self, kern, proc):
        for bad in (0, -1, 1 << 20):
            with pytest.raises(KernelError) as exc:
                kern.call(proc, "io_uring_setup", bad)
            assert exc.value.errno == EINVAL

    def test_enter_on_non_ring_fd_is_einval(self, kern, proc):
        a, _b = _pair(kern, proc)
        with pytest.raises(KernelError) as exc:
            _enter(kern, proc, a, [SQE(IORING_OP_NOP)])
        assert exc.value.errno == EINVAL

    def test_nop_batch_one_cqe_per_sqe(self, kern, proc):
        fd = kern.call(proc, "io_uring_setup", 8)
        sub, cqes = _enter(kern, proc, fd,
                           [SQE(IORING_OP_NOP, user_data=i)
                            for i in range(5)], 5)
        assert sub == 5
        assert [(c.user_data, c.res) for c in cqes] == \
            [(i, 0) for i in range(5)]

    def test_unknown_opcode_completes_with_einval(self, kern, proc):
        fd = kern.call(proc, "io_uring_setup", 8)
        _sub, cqes = _enter(kern, proc, fd, [SQE(99, user_data=1)], 1)
        assert cqes[0].res == -EINVAL

    def test_bad_fd_completes_with_ebadf(self, kern, proc):
        fd = kern.call(proc, "io_uring_setup", 8)
        _sub, cqes = _enter(kern, proc, fd,
                            [SQE(IORING_OP_READ, fd=999, length=4,
                                 user_data=1)], 1)
        assert cqes[0].res == -EBADF

    def test_register_ring_region_and_unknown_opcode(self, kern, proc):
        from repro.kernel import IORING_REGISTER_RING

        fd = kern.call(proc, "io_uring_setup", 8)
        kern.call(proc, "io_uring_register", fd, IORING_REGISTER_RING,
                  0xABC)
        assert proc.fdtable.get(fd).obj.registrations[
            IORING_REGISTER_RING] == 0xABC
        # unsupported registrations fail loudly (guests must fall back)
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "io_uring_register", fd, 7, 0xABC)
        assert exc.value.errno == EINVAL


class TestRingIO:
    def test_inline_recv_send(self, kern, proc):
        fd = kern.call(proc, "io_uring_setup", 8)
        a, b = _pair(kern, proc)
        kern.call(proc, "sendto", b, b"already here")
        _sub, cqes = _enter(kern, proc, fd,
                            [SQE(IORING_OP_RECV, fd=a, length=64,
                                 user_data=1)], 1)
        assert cqes[0].res == 12 and cqes[0].data == b"already here"

    def test_deferred_recv_completes_on_readiness(self, kern, proc):
        """An op that would block parks on the waitqueue and completes
        when the data arrives — the deferred-completion core."""
        fd = kern.call(proc, "io_uring_setup", 8)
        a, b = _pair(kern, proc)
        sub, cqes = _enter(kern, proc, fd,
                           [SQE(IORING_OP_RECV, fd=a, length=64,
                                user_data=7)])
        assert sub == 1 and cqes == []  # parked, nothing to reap
        kern.call(proc, "sendto", b, b"later")
        _sub, cqes = _enter(kern, proc, fd, [], 1,
                            timeout_ns=2_000_000_000)
        assert [(c.user_data, c.res, c.data) for c in cqes] == \
            [(7, 5, b"later")]

    def test_et_style_single_completion_per_arrival(self, kern, proc):
        """One data arrival produces exactly one CQE, however many
        enters happen afterwards (no level-triggered duplicates)."""
        fd = kern.call(proc, "io_uring_setup", 8)
        a, b = _pair(kern, proc)
        _enter(kern, proc, fd, [SQE(IORING_OP_RECV, fd=a, length=4,
                                    user_data=1)])
        kern.call(proc, "sendto", b, b"xxxxyyyy")  # more than one read's worth
        _sub, cqes = _enter(kern, proc, fd, [], 1, 2_000_000_000)
        assert len(cqes) == 1 and cqes[0].res == 4
        # buffered bytes remain, but no RECV is armed: no spurious CQE
        for _ in range(3):
            _sub, cqes = _enter(kern, proc, fd, [], 0)
            assert cqes == []

    def test_accept_installs_fd_and_parks_until_connect(self, kern, proc):
        fd = kern.call(proc, "io_uring_setup", 8)
        lfd = kern.call(proc, "socket", AF_INET, SOCK_STREAM)
        kern.call(proc, "bind", lfd, ("127.0.0.1", 9301))
        kern.call(proc, "listen", lfd, 8)
        _enter(kern, proc, fd, [SQE(IORING_OP_ACCEPT, fd=lfd,
                                    user_data=5)])
        cfd = kern.call(proc, "socket", AF_INET, SOCK_STREAM)
        kern.call(proc, "connect", cfd, ("127.0.0.1", 9301))
        _sub, cqes = _enter(kern, proc, fd, [], 1, 2_000_000_000)
        assert cqes[0].user_data == 5 and cqes[0].res > 0
        sfd = cqes[0].res
        kern.call(proc, "sendto", cfd, b"through accepted fd")
        data, _ = kern.call(proc, "recvfrom", sfd, 64)
        assert data == b"through accepted fd"

    def test_write_epipe_has_no_sigpipe(self, kern, proc):
        """Ring sends fail with -EPIPE but never raise SIGPIPE (the
        MSG_NOSIGNAL-style discipline io_uring uses)."""
        fd = kern.call(proc, "io_uring_setup", 8)
        a, b = _pair(kern, proc)
        kern.call(proc, "shutdown", a, 1)  # SHUT_WR
        _sub, cqes = _enter(kern, proc, fd,
                            [SQE(IORING_OP_SEND, fd=a, data=b"nope",
                                 user_data=1)], 1)
        assert cqes[0].res == -EPIPE
        assert not proc.pending.bits  # no pending SIGPIPE

    def test_pinned_file_survives_fd_close(self, kern, proc):
        """A parked op holds the open-file description: closing the fd
        completes the op with EOF semantics instead of redirecting it
        to whatever reuses the number."""
        fd = kern.call(proc, "io_uring_setup", 8)
        a, b = _pair(kern, proc)
        _enter(kern, proc, fd, [SQE(IORING_OP_RECV, fd=a, length=16,
                                    user_data=3)])
        kern.call(proc, "close", b)  # peer gone -> EOF on a
        _sub, cqes = _enter(kern, proc, fd, [], 1, 2_000_000_000)
        assert [(c.user_data, c.res) for c in cqes] == [(3, 0)]

    def test_skip_success_suppresses_only_successes(self, kern, proc):
        fd = kern.call(proc, "io_uring_setup", 8)
        a, b = _pair(kern, proc)
        _sub, cqes = _enter(kern, proc, fd,
                            [SQE(IORING_OP_SEND, fd=a, data=b"ok",
                                 user_data=1,
                                 flags=IOSQE_CQE_SKIP_SUCCESS)], 0)
        assert cqes == []  # success: no CQE
        kern.call(proc, "shutdown", a, 1)
        _sub, cqes = _enter(kern, proc, fd,
                            [SQE(IORING_OP_SEND, fd=a, data=b"no",
                                 user_data=2,
                                 flags=IOSQE_CQE_SKIP_SUCCESS)], 1)
        assert [(c.user_data, c.res) for c in cqes] == [(2, -EPIPE)]


class TestRingLimits:
    def test_sq_full_rejects_oversized_batch(self, kern, proc):
        fd = kern.call(proc, "io_uring_setup", 4)  # SQ holds 4
        with pytest.raises(KernelError) as exc:
            _enter(kern, proc, fd,
                   [SQE(IORING_OP_NOP, user_data=i) for i in range(5)])
        assert exc.value.errno == EINVAL
        # a ring-sized batch is fine
        sub, _ = _enter(kern, proc, fd,
                        [SQE(IORING_OP_NOP, user_data=i) for i in range(4)])
        assert sub == 4

    def test_cq_overflow_backlogs_without_loss(self, kern, proc):
        fd = kern.call(proc, "io_uring_setup", 4)  # CQ holds 8
        ring = proc.fdtable.get(fd).obj
        for batch in range(3):  # 12 completions into an 8-slot CQ
            _enter(kern, proc, fd,
                   [SQE(IORING_OP_NOP, user_data=batch * 4 + i)
                    for i in range(4)], 0, None, 0)  # reap nothing
        assert ring.overflow == 4
        assert ring.overflow_pending
        # nothing is dropped: a ring-sized reap takes the oldest eight
        # and flushes the backlog into the freed slots...
        _sub, cqes = _enter(kern, proc, fd, [], 0, None, 8)
        assert [c.user_data for c in cqes] == list(range(8))
        assert not ring.overflow_pending  # backlog flushed into the ring
        # ...and the next reap hands over the rest, still in order
        _sub, cqes = _enter(kern, proc, fd, [], 0, None, 8)
        assert [c.user_data for c in cqes] == [8, 9, 10, 11]
        assert ring.overflow == 4  # the counter keeps the history

    def test_enter_timeout_returns_partial(self, kern, proc):
        fd = kern.call(proc, "io_uring_setup", 8)
        a, _b = _pair(kern, proc)
        t0 = time.monotonic()
        _sub, cqes = _enter(kern, proc, fd,
                            [SQE(IORING_OP_RECV, fd=a, length=4,
                                 user_data=1)], 1,
                            timeout_ns=30_000_000)
        assert cqes == []  # nothing arrived inside the timeout
        assert 0.02 < time.monotonic() - t0 < 1.0


class TestRingLinks:
    def test_linked_ops_run_in_order(self, kern, proc):
        fd = kern.call(proc, "io_uring_setup", 8)
        a, b = _pair(kern, proc)
        sqes = [SQE(IORING_OP_SEND, fd=a, data=b"pong", user_data=1,
                    flags=IOSQE_IO_LINK),
                SQE(IORING_OP_RECV, fd=b, length=16, user_data=2)]
        _sub, cqes = _enter(kern, proc, fd, sqes, 2, 2_000_000_000)
        assert [(c.user_data, c.res) for c in cqes] == [(1, 4), (2, 4)]
        assert cqes[1].data == b"pong"

    def test_failed_link_cancels_the_rest(self, kern, proc):
        """A failing op short-circuits its chain: followers complete
        with -ECANCELED and never run."""
        fd = kern.call(proc, "io_uring_setup", 8)
        a, b = _pair(kern, proc)
        sqes = [SQE(IORING_OP_READ, fd=999, length=4, user_data=1,
                    flags=IOSQE_IO_LINK),
                SQE(IORING_OP_SEND, fd=a, data=b"never", user_data=2,
                    flags=IOSQE_IO_LINK),
                SQE(IORING_OP_SEND, fd=a, data=b"ever", user_data=3)]
        _sub, cqes = _enter(kern, proc, fd, sqes, 3)
        assert [(c.user_data, c.res) for c in cqes] == \
            [(1, -EBADF), (2, -ECANCELED), (3, -ECANCELED)]
        # the cancelled sends really were skipped: peer got nothing
        with pytest.raises(KernelError):
            kern.call(proc, "fcntl", b, 4, 0o4000)  # F_SETFL O_NONBLOCK
            kern.call(proc, "recvfrom", b, 16)

    def test_failure_only_breaks_its_own_chain(self, kern, proc):
        fd = kern.call(proc, "io_uring_setup", 8)
        sqes = [SQE(IORING_OP_READ, fd=999, length=4, user_data=1,
                    flags=IOSQE_IO_LINK),
                SQE(IORING_OP_NOP, user_data=2),
                SQE(IORING_OP_NOP, user_data=3)]  # separate chain
        _sub, cqes = _enter(kern, proc, fd, sqes, 3)
        results = {c.user_data: c.res for c in cqes}
        assert results == {1: -EBADF, 2: -ECANCELED, 3: 0}

    def test_deferred_link_continues_after_park(self, kern, proc):
        """A chain whose head parks resumes where it left off: the
        linked follower runs only after the head completes."""
        fd = kern.call(proc, "io_uring_setup", 8)
        a, b = _pair(kern, proc)
        sqes = [SQE(IORING_OP_RECV, fd=a, length=16, user_data=1,
                    flags=IOSQE_IO_LINK),
                SQE(IORING_OP_SEND, fd=a, data=b"reply", user_data=2)]
        _sub, cqes = _enter(kern, proc, fd, sqes)
        assert cqes == []  # head parked; follower must not have run
        kern.call(proc, "sendto", b, b"request")
        _sub, cqes = _enter(kern, proc, fd, [], 2, 2_000_000_000)
        assert [(c.user_data, c.res) for c in cqes] == [(1, 7), (2, 5)]
        data, _ = kern.call(proc, "recvfrom", b, 16)
        assert data == b"reply"


class TestRingPollTimeout:
    def test_poll_add_single_shot(self, kern, proc):
        fd = kern.call(proc, "io_uring_setup", 8)
        a, b = _pair(kern, proc)
        _enter(kern, proc, fd, [SQE(IORING_OP_POLL_ADD, fd=a,
                                    off=EPOLLIN, user_data=1)])
        kern.call(proc, "sendto", b, b"ready")
        _sub, cqes = _enter(kern, proc, fd, [], 1, 2_000_000_000)
        assert cqes[0].user_data == 1 and cqes[0].res & EPOLLIN
        # single shot: readiness persists but no second CQE appears
        _sub, cqes = _enter(kern, proc, fd, [], 0)
        assert cqes == []

    def test_timeout_op_fires_with_etime(self, kern, proc):
        fd = kern.call(proc, "io_uring_setup", 8)
        t0 = time.monotonic()
        _sub, cqes = _enter(kern, proc, fd,
                            [SQE(IORING_OP_TIMEOUT, off=30_000_000,
                                 user_data=9)], 1, 2_000_000_000)
        assert [(c.user_data, c.res) for c in cqes] == [(9, -ETIME)]
        assert time.monotonic() - t0 >= 0.025

    def test_ring_fd_is_epollable(self, kern, proc):
        """A ring fd publishes EPOLLIN when CQEs are waiting, so it can
        nest inside an epoll set like any readiness source."""
        fd = kern.call(proc, "io_uring_setup", 8)
        a, b = _pair(kern, proc)
        ep = kern.call(proc, "epoll_create1", 0)
        kern.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, fd, EPOLLIN)
        kern.call(proc, "epoll_pwait", ep, 8, timeout_ns=0)  # level drain
        _enter(kern, proc, fd, [SQE(IORING_OP_RECV, fd=a, length=8,
                                    user_data=1)])
        kern.call(proc, "sendto", b, b"wake")
        ready = kern.call(proc, "epoll_pwait", ep, 8,
                          timeout_ns=2_000_000_000)
        assert ready and ready[0][0] == fd and ready[0][1] & EPOLLIN
        _sub, cqes = _enter(kern, proc, fd, [], 1)
        assert cqes[0].res == 4

    def test_close_cancels_parked_ops(self, kern, proc):
        fd = kern.call(proc, "io_uring_setup", 8)
        a, b = _pair(kern, proc)
        sock_wq = proc.fdtable.get(a).sock.wq
        before = len(sock_wq)
        _enter(kern, proc, fd, [SQE(IORING_OP_RECV, fd=a, length=8,
                                    user_data=1)])
        assert len(sock_wq) == before + 1  # parked subscriber
        kern.call(proc, "close", fd)
        assert len(sock_wq) == before  # unsubscribed on ring close


class TestRingThroughWali:
    """The ring end-to-end through the guest: WALI imports, shared ring
    memory in the guest address space, one enter crossing per batch."""

    def _echo(self, net, nclients=20, rounds=5):
        from repro.apps import build
        from repro.wali import WaliRuntime

        rt = WaliRuntime(kernel=Kernel(net_backend=net))
        wp = rt.load(build("event_echo"),
                     argv=["event_echo", str(nclients), str(rounds), "-u"])
        assert wp.run() == 0
        want = f"echoes={nclients * rounds}".encode()
        assert want in rt.kernel.console_output(), \
            rt.kernel.console_output()
        return wp

    def test_event_echo_ring_mode_loopback(self):
        wp = self._echo("loopback")
        counts = wp.call_counts
        assert counts["io_uring_setup"] == 1
        assert counts["io_uring_enter"] >= 1
        # the point of the ring: no per-op read/write/accept crossings
        # (the few writes left are the final console prints)
        assert counts.get("read", 0) == 0
        assert counts.get("accept4", 0) == 0
        assert counts.get("epoll_pwait", 0) == 0
        assert counts.get("write", 0) <= 3

    def test_event_echo_ring_mode_wan(self):
        """Identical guest binary over an impaired link: parked ops
        complete on delayed readiness, the echo count is unchanged."""
        self._echo("wan:latency_ms=1,jitter_ms=0.3,seed=13",
                   nclients=8, rounds=3)

    def test_event_echo_ring_batches_crossings(self):
        """The crossing economics at 100 connections: the ring serves
        each echo in far fewer guest<->host crossings than the epoll
        mode spends on epoll_pwait + read + write alone."""
        from repro.apps import build
        from repro.wali import WaliRuntime

        totals = {}
        for label, argv in (
                ("epoll", ["event_echo", "100", "3"]),
                ("ring", ["event_echo", "100", "3", "-u"])):
            rt = WaliRuntime()
            wp = rt.load(build("event_echo"), argv=argv)
            assert wp.run() == 0
            assert b"echoes=300" in rt.kernel.console_output()
            totals[label] = sum(wp.call_counts.values())
        assert totals["ring"] * 3 <= totals["epoll"], totals

    def test_memcached_ring_serving_mode(self):
        """mini-memcached -u serves concurrent clients through the ring
        with zero clones and coalesced replies."""
        import time as _t

        from repro.apps import build
        from repro.wali import WaliRuntime

        rt = WaliRuntime()
        server = rt.load(build("mini_memcached"),
                         argv=["memcached", "11213", "-u"])
        server.start_in_thread()
        for _ in range(500):
            if b"ready" in rt.kernel.console_output():
                break
            _t.sleep(0.01)
        else:
            pytest.fail("server did not come up")

        k = rt.kernel
        cp = k.create_process(["pyclient"])
        fds = []
        for i in range(30):
            fd = k.call(cp, "socket", AF_INET, SOCK_STREAM)
            k.call(cp, "connect", fd, ("127.0.0.1", 11213))
            fds.append(fd)

        def recvline(fd):
            out = b""
            while not out.endswith(b"\n"):
                data, _ = k.call(cp, "recvfrom", fd, 256)
                if not data:
                    break
                out += data
            return out.decode().strip()

        # all requests outstanding before any reply is read
        for i, fd in enumerate(fds):
            k.call(cp, "sendto", fd, f"set k{i} v{i}\n".encode())
        for fd in fds:
            assert recvline(fd) == "STORED"
        for i, fd in enumerate(fds):
            k.call(cp, "sendto", fd, f"get k{i}\n".encode())
        for i, fd in enumerate(fds):
            assert recvline(fd) == f"VALUE v{i}"
        # single-threaded ring dispatch: no worker LWPs, no epoll
        assert k.syscall_counts.get("clone", 0) == 0
        assert k.syscall_counts.get("epoll_pwait", 0) == 0
        assert k.syscall_counts.get("io_uring_enter", 0) >= 1
        k.call(cp, "sendto", fds[0], b"shutdown\n")
        assert recvline(fds[0]) == "BYE"
        server.join(5)

    def test_memcached_ring_reply_overflow_keeps_wire_order(self):
        """A pipelined burst whose replies overflow the per-connection
        coalescing slot must still arrive in protocol order (buffered
        fragments flush before any direct-write fallback)."""
        import time as _t

        from repro.apps import build
        from repro.wali import WaliRuntime

        rt = WaliRuntime()
        server = rt.load(build("mini_memcached"),
                         argv=["memcached", "11214", "-u"])
        server.start_in_thread()
        for _ in range(500):
            if b"ready" in rt.kernel.console_output():
                break
            _t.sleep(0.01)
        k = rt.kernel
        cp = k.create_process(["pyclient"])
        fd = k.call(cp, "socket", AF_INET, SOCK_STREAM)
        k.call(cp, "connect", fd, ("127.0.0.1", 11214))
        k.call(cp, "sendto", fd, b"set big 0123456789012345678901234\n")
        out = b""
        while not out.endswith(b"STORED\n"):
            data, _ = k.call(cp, "recvfrom", fd, 256)
            out += data
        # 12 pipelined gets -> ~12 x 32B of replies > the 256B slot
        k.call(cp, "sendto", fd, b"get big\n" * 12)
        want = b"VALUE 0123456789012345678901234\n" * 12
        out = b""
        while len(out) < len(want):
            data, _ = k.call(cp, "recvfrom", fd, 1024)
            if not data:
                break
            out += data
        assert out == want
        k.call(cp, "sendto", fd, b"shutdown\n")
        server.join(5)

    def test_guest_sq_cq_counters_visible_in_ring_memory(self):
        """The guest reads its own progress from the shared ring header
        (sq/cq heads and tails) without extra crossings."""
        from repro.apps import with_libc
        from repro.cc import compile_source
        from repro.wali import WaliRuntime

        src = r"""
export func _start() {
    if (uring_init(4) < 0) { exit(1); }
    if (uring_sq_pending() != 0) { exit(2); }
    uring_sqe(IORING_OP_NOP, -1, 0, 0, 11, 0);
    uring_sqe(IORING_OP_NOP, -1, 0, 0, 12, 0);
    if (uring_sq_pending() != 2) { exit(3); }
    if (uring_reap_batch(2, 1000) != 2) { exit(4); }
    if (uring_sq_pending() != 0) { exit(5); }
    if (uring_cqe_data(0) != 11) { exit(6); }
    if (uring_cqe_data(1) != 12) { exit(7); }
    uring_cq_advance(2);
    if (uring_cq_ready() != 0) { exit(8); }
    // SQ-full is visible guest-side without a crossing
    uring_sqe(IORING_OP_NOP, -1, 0, 0, 1, 0);
    uring_sqe(IORING_OP_NOP, -1, 0, 0, 2, 0);
    uring_sqe(IORING_OP_NOP, -1, 0, 0, 3, 0);
    uring_sqe(IORING_OP_NOP, -1, 0, 0, 4, 0);
    if (uring_sqe(IORING_OP_NOP, -1, 0, 0, 5, 0) != -1) { exit(9); }
    exit(0);
}
"""
        rt = WaliRuntime()
        wp = rt.load(compile_source(with_libc(src), name="ringmem"),
                     argv=["ringmem"])
        assert wp.run() == 0

    def test_guest_overflow_flag_lifecycle(self):
        """IORING_SQ_CQ_OVERFLOW in the shared header: raised while the
        kernel holds backlogged completions, still raised after a partial
        drain refills the ring from the backlog, cleared only once a reap
        fully drains the backlog — all observed guest-side with loads."""
        from repro.apps import with_libc
        from repro.cc import compile_source
        from repro.wali import WaliRuntime

        src = r"""
export func _start() {
    if (uring_init(4) < 0) { exit(1); }       // sq 4, cq 8
    // 5 batches of 4 NOPs, never advancing the CQ head: 8 land in the
    // guest ring, 8 fill the kernel-side ring, 4 overflow into backlog
    var b: i32 = 0;
    while (b < 5) {
        var i: i32 = 0;
        while (i < 4) {
            uring_sqe(IORING_OP_NOP, -1, 0, 0, b * 4 + i, 0);
            i = i + 1;
        }
        uring_submit();
        b = b + 1;
    }
    if (uring_cq_ready() != 8) { exit(2); }
    if ((uring_ring_flags() & IORING_SQ_CQ_OVERFLOW) == 0) { exit(3); }
    // partial drain: the 2 freed slots refill from the kernel side but
    // a backlog remains, so the flag must stay up
    uring_cq_advance(2);
    uring_submit();
    if (uring_cq_ready() != 8) { exit(4); }
    if ((uring_ring_flags() & IORING_SQ_CQ_OVERFLOW) == 0) { exit(5); }
    // full drain: the backlog empties into the kernel ring, flag clears
    uring_cq_advance(8);
    uring_submit();
    if (uring_cq_ready() != 8) { exit(6); }
    if ((uring_ring_flags() & IORING_SQ_CQ_OVERFLOW) != 0) { exit(7); }
    // the stragglers arrive; the overflow counter records all 4
    uring_cq_advance(8);
    uring_submit();
    if (uring_cq_ready() != 2) { exit(8); }
    if (load32(__uring_base + 24) != 4) { exit(9); }
    exit(0);
}
"""
        rt = WaliRuntime()
        wp = rt.load(compile_source(with_libc(src), name="ringovf"),
                     argv=["ringovf"])
        assert wp.run() == 0


class TestMultishot:
    """Multishot accept/recv: one armed SQE, a CQE per event, each
    flagged IORING_CQE_F_MORE until the terminal completion."""

    def test_accept_posts_cqe_per_arrival(self, kern, proc):
        rfd = kern.call(proc, "io_uring_setup", 8)
        lfd = kern.call(proc, "socket", AF_INET, SOCK_STREAM)
        kern.call(proc, "bind", lfd, ("127.0.0.1", 9321))
        kern.call(proc, "listen", lfd, 16)
        sub, cqes = _enter(kern, proc, rfd,
                           [SQE(IORING_OP_ACCEPT, fd=lfd,
                                off=IORING_ACCEPT_MULTISHOT, user_data=5)])
        assert (sub, cqes) == (1, [])
        seen = []
        for wave in (3, 2):  # the SQE stays armed between waves
            for _ in range(wave):
                c = kern.call(proc, "socket", AF_INET, SOCK_STREAM)
                kern.call(proc, "connect", c, ("127.0.0.1", 9321))
            got = []
            deadline = time.monotonic() + 10
            while len(got) < wave and time.monotonic() < deadline:
                _s, batch = _enter(kern, proc, rfd, (), 1, 500_000_000)
                got.extend(batch)
            assert len(got) == wave, got
            for c in got:
                assert c.user_data == 5
                assert c.res > 0
                assert c.flags & IORING_CQE_F_MORE
            seen.extend(c.res for c in got)
        assert len(set(seen)) == 5  # five distinct connection fds

    def test_recv_posts_cqe_per_message_then_terminal_eof(self, kern, proc):
        rfd = kern.call(proc, "io_uring_setup", 8)
        a, b = _pair(kern, proc)
        sub, cqes = _enter(kern, proc, rfd,
                           [SQE(IORING_OP_RECV, fd=a, length=64,
                                off=IORING_RECV_MULTISHOT, user_data=7)])
        assert (sub, cqes) == (1, [])
        for i in range(3):
            kern.call(proc, "sendto", b, b"msg%d" % i)
            _s, got = _enter(kern, proc, rfd, (), 1, 2_000_000_000)
            assert len(got) == 1
            assert (got[0].user_data, got[0].res) == (7, 4)
            assert got[0].data == b"msg%d" % i
            assert got[0].flags & IORING_CQE_F_MORE
        kern.call(proc, "close", b)  # EOF terminates the armed op
        _s, got = _enter(kern, proc, rfd, (), 1, 2_000_000_000)
        assert [(c.user_data, c.res) for c in got] == [(7, 0)]
        assert not (got[0].flags & IORING_CQE_F_MORE)

    def test_recv_gates_one_unreaped_completion(self, kern, proc):
        """At most one unreaped data CQE per armed multishot recv: the
        next message is held until the guest reaps the previous one."""
        rfd = kern.call(proc, "io_uring_setup", 8)
        a, b = _pair(kern, proc)
        _enter(kern, proc, rfd,
               [SQE(IORING_OP_RECV, fd=a, length=64,
                    off=IORING_RECV_MULTISHOT, user_data=3)])
        kern.call(proc, "sendto", b, b"aa")
        _enter(kern, proc, rfd, (), 1, 2_000_000_000, 0)  # wait, reap none
        kern.call(proc, "sendto", b, b"bb")
        ring = proc.fdtable.get(rfd).obj
        # the second message must not produce a second CQE while the
        # first sits unreaped — the armed op holds a single slot
        _enter(kern, proc, rfd, (), 1, 2_000_000_000, 0)
        assert ring.cq_ready() == 1
        _s, got = _enter(kern, proc, rfd, (), 1)
        assert [c.data for c in got] == [b"aa"]
        # reaping released the gate: the held message now completes
        _s, got = _enter(kern, proc, rfd, (), 1, 2_000_000_000)
        assert [c.data for c in got] == [b"bb"]
        assert got[0].flags & IORING_CQE_F_MORE

    def test_multishot_refuses_link(self, kern, proc):
        rfd = kern.call(proc, "io_uring_setup", 8)
        a, _b = _pair(kern, proc)
        _s, cqes = _enter(kern, proc, rfd, [
            SQE(IORING_OP_RECV, fd=a, length=64, off=IORING_RECV_MULTISHOT,
                flags=IOSQE_IO_LINK, user_data=1),
            SQE(IORING_OP_NOP, user_data=2),
        ], 2)
        assert [(c.user_data, c.res) for c in cqes] == \
            [(1, -EINVAL), (2, -ECANCELED)]


class TestRegisteredBuffers:
    """IORING_REGISTER_BUFFERS: the table is installed once; fixed-buffer
    SQEs name a slot index and complete with IORING_CQE_F_BUFFER."""

    def _ring_with_table(self, kern, proc):
        rfd = kern.call(proc, "io_uring_setup", 8)
        kern.call(proc, "io_uring_register", rfd, IORING_REGISTER_BUFFERS,
                  [(0x1000, 64), (0x2000, 16)], 2)
        return rfd

    def test_read_fixed_completes_into_slot(self, kern, proc):
        rfd = self._ring_with_table(kern, proc)
        a, b = _pair(kern, proc)
        kern.call(proc, "sendto", b, b"fixed!")
        _s, cqes = _enter(kern, proc, rfd,
                          [SQE(IORING_OP_READ_FIXED, fd=a, addr=1,
                               user_data=9)], 1, 2_000_000_000)
        c = cqes[0]
        assert (c.res, c.data) == (6, b"fixed!")
        assert c.addr == 0x2000  # the slot base, resolved from the table
        assert c.flags == IORING_CQE_F_BUFFER | (1 << IORING_CQE_BUFFER_SHIFT)

    def test_fixed_read_truncates_to_slot_length(self, kern, proc):
        rfd = self._ring_with_table(kern, proc)
        a, b = _pair(kern, proc)
        kern.call(proc, "sendto", b, b"x" * 32)
        _s, cqes = _enter(kern, proc, rfd,
                          [SQE(IORING_OP_READ_FIXED, fd=a, addr=1,
                               user_data=1)], 1, 2_000_000_000)
        assert cqes[0].res == 16  # slot 1 holds 16 bytes, never more

    def test_recv_with_fixed_buffer_flag(self, kern, proc):
        rfd = self._ring_with_table(kern, proc)
        a, b = _pair(kern, proc)
        kern.call(proc, "sendto", b, b"hi")
        _s, cqes = _enter(kern, proc, rfd,
                          [SQE(IORING_OP_RECV, fd=a, addr=0, length=64,
                               flags=IOSQE_FIXED_BUFFER, user_data=2)],
                          1, 2_000_000_000)
        c = cqes[0]
        assert (c.res, c.data, c.addr) == (2, b"hi", 0x1000)
        assert c.flags & IORING_CQE_F_BUFFER

    def test_bad_slot_index_completes_einval(self, kern, proc):
        rfd = self._ring_with_table(kern, proc)
        a, b = _pair(kern, proc)
        kern.call(proc, "sendto", b, b"zz")
        _s, cqes = _enter(kern, proc, rfd, [
            SQE(IORING_OP_READ_FIXED, fd=a, addr=7, user_data=1),
            SQE(IORING_OP_SEND, fd=a, addr=7, flags=IOSQE_FIXED_BUFFER,
                user_data=2, data=b"zz"),
        ], 2, 2_000_000_000)
        by_ud = {c.user_data: c.res for c in cqes}
        assert by_ud == {1: -EINVAL, 2: -EINVAL}

    def test_register_validates_table(self, kern, proc):
        rfd = kern.call(proc, "io_uring_setup", 8)
        for bad in ([], [(0x1000, 0)]):
            with pytest.raises(KernelError) as exc:
                kern.call(proc, "io_uring_register", rfd,
                          IORING_REGISTER_BUFFERS, bad, len(bad))
            assert exc.value.errno == EINVAL
        kern.call(proc, "io_uring_register", rfd, IORING_REGISTER_BUFFERS,
                  [(0x3000, 8)], 1)
        assert proc.fdtable.get(rfd).obj.buf_table == [(0x3000, 8)]


class TestSQPoll:
    """IORING_SETUP_SQPOLL: a kernel-side poller task drains the shared
    SQ queue, so a loaded submitter pays zero enter crossings."""

    def _setup(self, kern, proc, idle_ms=200.0):
        fd = kern.call(proc, "io_uring_setup", 8, IORING_SETUP_SQPOLL,
                       idle_ms)
        return fd, proc.fdtable.get(fd).obj

    def test_zero_crossing_submission(self, kern, proc):
        fd, ring = self._setup(kern, proc)
        base = kern.syscall_counts.get("io_uring_enter", 0)
        # the shared-memory analog: the submitter appends SQEs without
        # any syscall, the poller picks them up
        for i in range(10):
            ring.sq_queue.append(SQE(IORING_OP_NOP, user_data=i))
        got = []
        deadline = time.monotonic() + 10
        while len(got) < 10 and time.monotonic() < deadline:
            got.extend(ring.reap(16))
            time.sleep(0.002)
        assert sorted(c.user_data for c in got) == list(range(10))
        assert kern.syscall_counts.get("io_uring_enter", 0) == base
        kern.call(proc, "close", fd)

    def test_poller_is_a_scheduled_kernel_task(self, kern, proc):
        fd, ring = self._setup(kern, proc)
        poller = ring.sqpoll
        assert poller.alive
        assert poller.proc.pid in kern.processes
        assert poller.proc.argv == ["iou-sqp"]
        for _ in range(200):
            ring.sq_queue.append(
                SQE(IORING_OP_NOP, flags=IOSQE_CQE_SKIP_SUCCESS))
        deadline = time.monotonic() + 10
        while ring.sq_pending() and time.monotonic() < deadline:
            time.sleep(0.002)
        assert ring.sq_pending() == 0
        # CPU time accrued through the scheduler, like any guest task
        assert poller.proc.se.cpu_time_ns > 0
        kern.call(proc, "close", fd)

    def test_need_wakeup_and_kick_cycle(self, kern, proc):
        fd, ring = self._setup(kern, proc, idle_ms=1.0)
        # with a 1 ms idle window the poller parks almost immediately
        # and publishes IORING_SQ_NEED_WAKEUP
        deadline = time.monotonic() + 5
        while not ring.sq_need_wakeup and time.monotonic() < deadline:
            time.sleep(0.002)
        assert ring.sq_need_wakeup
        ring.sq_queue.append(SQE(IORING_OP_NOP, user_data=77))
        # one crossing revives the parked poller
        _enter(kern, proc, fd, flags=IORING_ENTER_SQ_WAKEUP)
        got = []
        deadline = time.monotonic() + 10
        while not got and time.monotonic() < deadline:
            got.extend(ring.reap(4))
            time.sleep(0.002)
        assert got[0].user_data == 77
        kern.call(proc, "close", fd)

    def test_close_stops_the_poller(self, kern, proc):
        fd, ring = self._setup(kern, proc)
        poller = ring.sqpoll
        kern.call(proc, "close", fd)
        deadline = time.monotonic() + 5
        while poller.alive and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not poller.alive
        assert ring.closed  # fd drop closed the ring, ring stopped the task


class TestEnterValidation:
    def test_min_complete_beyond_cq_ring_is_einval(self, kern, proc):
        """Regression: a wait for more CQEs than the ring can ever hold
        used to hang forever; Linux rejects it up front."""
        fd = kern.call(proc, "io_uring_setup", 8)  # cq 16
        with pytest.raises(KernelError) as exc:
            _enter(kern, proc, fd, (), 17, 1_000_000_000)
        assert exc.value.errno == EINVAL


class TestTimeoutDeterminism:
    def test_timeout_completion_posts_on_the_syscall_thread(self, kern,
                                                            proc):
        """Regression: TIMEOUT used to complete on the wall-clock timer
        thread, racing _advance.  The timer now only marks the chain;
        the -ETIME CQE and the link cancellation are posted during the
        blocked enter — one deterministic ordering."""
        fd = kern.call(proc, "io_uring_setup", 8)
        _s, cqes = _enter(kern, proc, fd, [
            SQE(IORING_OP_TIMEOUT, off=10_000_000, flags=IOSQE_IO_LINK,
                user_data=1),
            SQE(IORING_OP_NOP, user_data=2),
        ], 2, 5_000_000_000)
        assert [(c.user_data, c.res) for c in cqes] == \
            [(1, -ETIME), (2, -ECANCELED)]
        ring = proc.fdtable.get(fd).obj
        # nothing left armed: every chain retired, no wall-clock timer
        assert all(c.done and c.timer is None for c in ring._chains)


class TestUringRaceRegression:
    """Regression for the off-thread waker race: _Parked wakeups and
    timer fires used to mutate ring._ready / chain.queued without
    ring._lock, so concurrent writers racing the reaping thread could
    lose or double-queue a chain.  Byte-exact accounting across many
    connections hammered from parallel writer threads catches both."""

    def test_threaded_waker_stress(self):
        import threading

        k = Kernel()
        p = k.create_process(["stress-server"])
        rfd = k.call(p, "io_uring_setup", 64)
        lfd = k.call(p, "socket", AF_INET, SOCK_STREAM)
        k.call(p, "bind", lfd, ("127.0.0.1", 9777))
        k.call(p, "listen", lfd, 64)

        nwriters, per_writer, nmsgs, msg = 4, 4, 25, b"01234567"
        nconns = nwriters * per_writer
        writers = [k.create_process([f"stress-w{i}"])
                   for i in range(nwriters)]
        wfds, afds = [], []
        for w in writers:
            fds = []
            for _ in range(per_writer):
                c = k.call(w, "socket", AF_INET, SOCK_STREAM)
                k.call(w, "connect", c, ("127.0.0.1", 9777))
                fds.append(c)
                afds.append(k.call(p, "accept", lfd))
            wfds.append(fds)
        for i, a in enumerate(afds):
            _enter(k, p, rfd, [SQE(IORING_OP_RECV, fd=a, length=4096,
                                   user_data=i)])

        def run_writer(w, fds):
            for _ in range(nmsgs):
                for c in fds:
                    k.call(w, "sendto", c, msg)

        threads = [threading.Thread(target=run_writer, args=pair,
                                    daemon=True)
                   for pair in zip(writers, wfds)]
        for t in threads:
            t.start()

        want = nmsgs * len(msg)
        got = [0] * nconns
        deadline = time.monotonic() + 30
        while any(g < want for g in got):
            assert time.monotonic() < deadline, got
            _s, cqes = _enter(k, p, rfd, (), 1, 2_000_000_000)
            rearm = []
            for c in cqes:
                assert c.res > 0, (c.user_data, c.res)
                got[c.user_data] += c.res
                if got[c.user_data] < want:
                    rearm.append(SQE(IORING_OP_RECV, fd=afds[c.user_data],
                                     length=4096, user_data=c.user_data))
            if rearm:
                _enter(k, p, rfd, rearm)
        for t in threads:
            t.join(10)
        # exact byte totals: no lost wakeups, no duplicated completions
        assert got == [want] * nconns
