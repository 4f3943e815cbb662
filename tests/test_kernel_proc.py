"""Kernel tests: processes, clone flags, wait4, signals, futex, mm, sockets."""

import threading

import pytest

from repro.kernel import (
    AF_INET, AT_FDCWD, CLONE_FILES, CLONE_SIGHAND, CLONE_THREAD, CLONE_VM,
    Kernel, KernelError, MAP_ANONYMOUS, MAP_FIXED, MAP_PRIVATE, MAP_SHARED,
    O_CREAT, O_RDWR, PROT_READ, PROT_WRITE, SIG_BLOCK, SIG_SETMASK,
    SIG_UNBLOCK, SIGCHLD, SIGINT, SIGKILL, SIGTERM, SIGUSR1, SOCK_STREAM,
    SigAction, WNOHANG, sig_bit,
)
from repro.kernel.errno import (
    EADDRINUSE, ECHILD, ECONNREFUSED, EINTR, EINVAL, ENOMEM, EPERM, ESRCH,
)
from repro.kernel.mm import AddressSpace, MREMAP_MAYMOVE
from repro.kernel.process import RLIMIT_NOFILE, STATE_ZOMBIE


@pytest.fixture
def k():
    return Kernel()


@pytest.fixture
def proc(k):
    return k.create_process(["test"], {})


class TestCloneSpectrum:
    """Fig. 4: what is shared depends on clone flags."""

    def test_fork_copies_fdtable(self, k, proc):
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/x", O_CREAT | O_RDWR, 0o644)
        child = k.call(proc, "fork")
        k.call(child, "close", fd)
        k.call(proc, "fstat", fd)  # parent's copy still open

    def test_clone_files_shares_fdtable(self, k, proc):
        child = k.call(proc, "clone", CLONE_FILES)
        fd = k.call(child, "openat", AT_FDCWD, "/tmp/y", O_CREAT, 0o644)
        k.call(proc, "fstat", fd)  # visible in parent

    def test_clone_thread_same_tgid(self, k, proc):
        t = k.call(proc, "clone",
                   CLONE_VM | CLONE_FILES | CLONE_SIGHAND | CLONE_THREAD)
        assert t.tgid == proc.tgid
        assert t.pid != proc.pid
        assert k.call(t, "getpid") == proc.tgid
        assert k.call(t, "gettid") == t.pid

    def test_clone_without_thread_new_tgid(self, k, proc):
        child = k.call(proc, "fork")
        assert child.tgid == child.pid != proc.tgid

    def test_clone_sighand_shares_dispositions(self, k, proc):
        t = k.call(proc, "clone", CLONE_SIGHAND)
        k.call(proc, "rt_sigaction", SIGUSR1, SigAction(handler=42))
        assert k.call(t, "rt_sigaction", SIGUSR1, None).handler == 42

    def test_fork_copies_dispositions(self, k, proc):
        k.call(proc, "rt_sigaction", SIGUSR1, SigAction(handler=42))
        child = k.call(proc, "fork")
        k.call(child, "rt_sigaction", SIGUSR1, SigAction(handler=7))
        assert k.call(proc, "rt_sigaction", SIGUSR1, None).handler == 42

    def test_signal_mask_inherited(self, k, proc):
        k.call(proc, "rt_sigprocmask", SIG_BLOCK, sig_bit(SIGUSR1))
        child = k.call(proc, "fork")
        assert child.blocked_mask & sig_bit(SIGUSR1)


class TestWait:
    def test_wait_reaps_zombie(self, k, proc):
        child = k.call(proc, "fork")
        k.call(child, "exit_group", 3)
        pid, status, _ = k.call(proc, "wait4", -1, 0)
        assert pid == child.pid
        assert status >> 8 == 3
        assert child.pid not in k.processes

    def test_wait_specific_pid(self, k, proc):
        c1 = k.call(proc, "fork")
        c2 = k.call(proc, "fork")
        k.call(proc, "kill", c2.pid, SIGKILL)  # pending, but not dead yet
        k.call(c1, "exit_group", 1)
        pid, status, _ = k.call(proc, "wait4", c1.pid, 0)
        assert pid == c1.pid

    def test_wait_nohang_returns_zero(self, k, proc):
        k.call(proc, "fork")
        pid, _, _ = k.call(proc, "wait4", -1, WNOHANG)
        assert pid == 0

    def test_wait_no_children_echild(self, k, proc):
        with pytest.raises(KernelError) as ei:
            k.call(proc, "wait4", -1, 0)
        assert ei.value.errno == ECHILD

    def test_sigchld_generated_on_exit_when_handled(self, k, proc):
        k.call(proc, "rt_sigaction", SIGCHLD, SigAction(handler=5))
        child = k.call(proc, "fork")
        k.call(child, "exit_group", 0)
        assert proc.pending.bits & sig_bit(SIGCHLD)

    def test_default_sigchld_discarded_at_generation(self, k, proc):
        # Linux semantics: ignored-by-default signals never become pending,
        # so a child's exit cannot EINTR the parent's blocking wait4.
        child = k.call(proc, "fork")
        k.call(child, "exit_group", 0)
        assert not proc.pending.bits & sig_bit(SIGCHLD)
        assert not proc.has_deliverable_signal()

    def test_orphans_reparented_to_init(self, k, proc):
        child = k.call(proc, "fork")
        grandchild = k.call(child, "fork")
        k.call(child, "exit_group", 0)
        assert grandchild.ppid == 1

    def test_wait_blocks_until_exit(self, k, proc):
        child = k.call(proc, "fork")
        done = []

        def waiter():
            done.append(k.call(proc, "wait4", -1, 0))

        t = threading.Thread(target=waiter)
        t.start()
        k.call(child, "exit_group", 9)
        t.join(timeout=5)
        assert done and done[0][0] == child.pid


class TestSignals:
    def test_kill_esrch(self, k, proc):
        with pytest.raises(KernelError) as ei:
            k.call(proc, "kill", 9999, SIGTERM)
        assert ei.value.errno == ESRCH

    def test_kill_sets_pending(self, k, proc):
        other = k.create_process(["o"], {})
        k.call(proc, "kill", other.pid, SIGINT)
        assert other.pending.bits & sig_bit(SIGINT)

    def test_kill_zero_probes(self, k, proc):
        other = k.create_process(["o"], {})
        assert k.call(proc, "kill", other.pid, 0) == 0

    def test_kill_process_group(self, k, proc):
        a = k.call(proc, "fork")
        b = k.call(proc, "fork")
        k.call(proc, "setpgid", a.pid, proc.pgid)
        k.call(proc, "setpgid", b.pid, proc.pgid)
        k.call(proc, "kill", 0, SIGTERM)  # own process group
        assert a.pending.bits & sig_bit(SIGTERM)
        assert b.pending.bits & sig_bit(SIGTERM)

    def test_sigprocmask_algebra(self, k, proc):
        old = k.call(proc, "rt_sigprocmask", SIG_BLOCK,
                     sig_bit(SIGINT) | sig_bit(SIGTERM))
        assert old == 0
        old = k.call(proc, "rt_sigprocmask", SIG_UNBLOCK, sig_bit(SIGINT))
        assert old == sig_bit(SIGINT) | sig_bit(SIGTERM)
        assert proc.blocked_mask == sig_bit(SIGTERM)
        k.call(proc, "rt_sigprocmask", SIG_SETMASK, 0)
        assert proc.blocked_mask == 0

    def test_sigkill_not_blockable(self, k, proc):
        k.call(proc, "rt_sigprocmask", SIG_BLOCK, sig_bit(SIGKILL))
        assert not proc.blocked_mask & sig_bit(SIGKILL)

    def test_sigaction_on_kill_einval(self, k, proc):
        with pytest.raises(KernelError) as ei:
            k.call(proc, "rt_sigaction", SIGKILL, SigAction(handler=5))
        assert ei.value.errno == EINVAL

    def test_blocked_signal_not_deliverable(self, k, proc):
        k.call(proc, "rt_sigprocmask", SIG_BLOCK, sig_bit(SIGUSR1))
        proc.generate_signal(SIGUSR1)
        assert not proc.has_deliverable_signal()
        k.call(proc, "rt_sigprocmask", SIG_SETMASK, 0)
        assert proc.has_deliverable_signal()

    def test_signal_interrupts_blocking_read_eintr(self, k, proc):
        r, w = k.call(proc, "pipe2", 0)
        result = []

        def reader():
            try:
                k.call(proc, "read", r, 1)
            except KernelError as exc:
                result.append(exc.errno)

        t = threading.Thread(target=reader)
        t.start()
        import time
        time.sleep(0.02)
        proc.generate_signal(SIGINT)
        t.join(timeout=5)
        assert result == [EINTR]

    def test_sigreturn_denied(self, k, proc):
        with pytest.raises(KernelError) as ei:
            k.call(proc, "rt_sigreturn")
        assert ei.value.errno == EPERM

    def test_pending_signal_take_order(self, k, proc):
        proc.generate_signal(SIGTERM)
        proc.generate_signal(SIGINT)
        assert proc.pending.take(0) == SIGTERM
        assert proc.pending.take(0) == SIGINT
        assert proc.pending.take(0) is None

    def test_take_skips_blocked(self, k, proc):
        proc.generate_signal(SIGTERM)
        proc.generate_signal(SIGINT)
        assert proc.pending.take(sig_bit(SIGTERM)) == SIGINT


class TestIdentityAndLimits:
    def test_ids(self, k, proc):
        assert k.call(proc, "getuid") == 1000
        assert k.call(proc, "getpid") == proc.pid
        assert k.call(proc, "getppid") == 1

    def test_setsid(self, k, proc):
        sid = k.call(proc, "setsid")
        assert sid == proc.pid == proc.pgid

    def test_prlimit_get_set(self, k, proc):
        cur, maxv = k.call(proc, "prlimit64", 0, RLIMIT_NOFILE, None)
        assert cur == 1024
        k.call(proc, "prlimit64", 0, RLIMIT_NOFILE, (256, 4096))
        assert k.call(proc, "getrlimit", RLIMIT_NOFILE) == (256, 4096)

    def test_prlimit_cur_above_max_einval(self, k, proc):
        with pytest.raises(KernelError) as ei:
            k.call(proc, "prlimit64", 0, RLIMIT_NOFILE, (9999, 10))
        assert ei.value.errno == EINVAL

    def test_uname(self, k, proc):
        uts = k.call(proc, "uname")
        assert uts.sysname == "Linux"

    def test_getrandom_deterministic_per_seed(self):
        k1, k2 = Kernel(rng_seed=1), Kernel(rng_seed=1)
        p1, p2 = k1.create_process(), k2.create_process()
        assert k1.call(p1, "getrandom", 16) == k2.call(p2, "getrandom", 16)


class TestFutex:
    def test_wait_value_mismatch_eagain(self, k, proc):
        with pytest.raises(KernelError) as ei:
            k.call(proc, "futex", 0x1000, 0, 5, 6)  # expected 5, saw 6
        assert ei.value.errno == 11

    def test_wake_without_waiters(self, k, proc):
        assert k.call(proc, "futex", 0x1000, 1, 10, 0) == 0

    def test_wait_then_wake(self, k, proc):
        proc.mm = AddressSpace(0, 1 << 20)
        t2 = k.call(proc, "clone",
                    CLONE_VM | CLONE_FILES | CLONE_SIGHAND | CLONE_THREAD)
        woken = []

        def waiter():
            woken.append(k.call(proc, "futex", 0x2000, 0, 1, 1))

        th = threading.Thread(target=waiter)
        th.start()
        import time
        time.sleep(0.02)
        assert k.call(t2, "futex", 0x2000, 1, 1, 0) == 1
        th.join(timeout=5)
        assert woken == [0]


class TestAddressSpace:
    def _mm(self):
        return AddressSpace(0x10000, 0x100000)

    def test_anon_mmap_allocates(self):
        mm = self._mm()
        res = mm.mmap(0, 8192, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS)
        assert res.addr == 0x10000
        assert res.populate is None

    def test_fixed_mmap_replaces(self):
        mm = self._mm()
        mm.mmap(0x20000, 4096, PROT_READ,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED)
        mm.mmap(0x20000, 4096, PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED)
        assert mm.find(0x20000).prot == PROT_WRITE
        assert len(mm.vmas) == 1

    def test_hint_without_fixed_is_ignored(self):
        mm = self._mm()
        res = mm.mmap(0x20000, 4096, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS)
        assert res.addr == mm.base  # first-fit from the arena base

    def test_munmap_splits(self):
        mm = self._mm()
        mm.mmap(0x20000, 3 * 4096, PROT_READ,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED, None, 0)
        mm.munmap(0x21000, 4096)
        assert mm.find(0x20000) is not None
        assert mm.find(0x21000) is None
        assert mm.find(0x22000) is not None

    def test_exhaustion_enomem(self):
        mm = AddressSpace(0, 0x4000)
        mm.mmap(0, 0x4000, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS)
        with pytest.raises(KernelError) as ei:
            mm.mmap(0, 4096, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS)
        assert ei.value.errno == ENOMEM

    def test_mremap_grow_in_place(self):
        mm = self._mm()
        r = mm.mmap(0, 4096, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS)
        addr, moved = mm.mremap(r.addr, 4096, 8192, MREMAP_MAYMOVE)
        assert addr == r.addr and not moved

    def test_mremap_moves_on_conflict(self):
        mm = self._mm()
        a = mm.mmap(0, 4096, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS)
        mm.mmap(a.addr + 4096, 4096, PROT_READ,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED)
        addr, moved = mm.mremap(a.addr, 4096, 8192, MREMAP_MAYMOVE)
        assert moved and addr != a.addr

    def test_mremap_shrink(self):
        mm = self._mm()
        r = mm.mmap(0, 8192, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS)
        addr, moved = mm.mremap(r.addr, 8192, 4096, 0)
        assert addr == r.addr and not moved
        assert mm.find(r.addr + 4096) is None

    def test_mprotect_splits_vma(self):
        mm = self._mm()
        r = mm.mmap(0, 3 * 4096, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS)
        mm.mprotect(r.addr + 4096, 4096, PROT_READ)
        assert mm.find(r.addr).prot == PROT_READ | PROT_WRITE
        assert mm.find(r.addr + 4096).prot == PROT_READ
        assert len(mm.vmas) == 3

    def test_mprotect_hole_enomem(self):
        mm = self._mm()
        mm.mmap(0x20000, 4096, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS)
        with pytest.raises(KernelError) as ei:
            mm.mprotect(0x20000, 3 * 4096, PROT_READ)
        assert ei.value.errno == ENOMEM

    def test_file_mapping_populates(self, k, proc):
        proc.mm = self._mm()
        k.vfs.write_file("/tmp/m", b"filedata" + b"\x00" * 100)
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/m", O_RDWR, 0)
        res = k.call(proc, "mmap", 0, 4096, PROT_READ, MAP_PRIVATE, fd, 0)
        assert res.populate.startswith(b"filedata")
        assert len(res.populate) == 4096

    def test_shared_writeback_on_munmap(self, k, proc):
        proc.mm = self._mm()
        k.vfs.write_file("/tmp/wb", b"original")
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/wb", O_RDWR, 0)
        res = k.call(proc, "mmap", 0, 4096, PROT_READ | PROT_WRITE,
                     MAP_SHARED, fd, 0)
        k.call(proc, "munmap", res.addr, 4096,
               mem_reader=lambda a, n: b"modified" + b"\x00" * (n - 8))
        assert k.vfs.read_file("/tmp/wb") == b"modified"


class TestSockets:
    def test_stream_roundtrip(self, k, proc):
        srv = k.call(proc, "socket", AF_INET, SOCK_STREAM)
        k.call(proc, "bind", srv, ("127.0.0.1", 7000))
        k.call(proc, "listen", srv, 8)
        cli = k.call(proc, "socket", AF_INET, SOCK_STREAM)
        k.call(proc, "connect", cli, ("127.0.0.1", 7000))
        conn = k.call(proc, "accept", srv)
        k.call(proc, "sendto", cli, b"hello")
        data, _ = k.call(proc, "recvfrom", conn, 100)
        assert data == b"hello"
        k.call(proc, "sendto", conn, b"world")
        data, _ = k.call(proc, "recvfrom", cli, 100)
        assert data == b"world"

    def test_connect_refused(self, k, proc):
        cli = k.call(proc, "socket", AF_INET, SOCK_STREAM)
        with pytest.raises(KernelError) as ei:
            k.call(proc, "connect", cli, ("127.0.0.1", 9))
        assert ei.value.errno == ECONNREFUSED

    def test_addr_in_use(self, k, proc):
        a = k.call(proc, "socket", AF_INET, SOCK_STREAM)
        b = k.call(proc, "socket", AF_INET, SOCK_STREAM)
        k.call(proc, "bind", a, ("0.0.0.0", 80))
        with pytest.raises(KernelError) as ei:
            k.call(proc, "bind", b, ("0.0.0.0", 80))
        assert ei.value.errno == EADDRINUSE

    def test_reuseaddr(self, k, proc):
        a = k.call(proc, "socket", AF_INET, SOCK_STREAM)
        k.call(proc, "bind", a, ("0.0.0.0", 81))
        k.call(proc, "close", a)
        b = k.call(proc, "socket", AF_INET, SOCK_STREAM)
        k.call(proc, "setsockopt", b, 1, 2, 1)  # SOL_SOCKET, SO_REUSEADDR
        k.call(proc, "bind", b, ("0.0.0.0", 81))

    def test_socketpair(self, k, proc):
        a, b = k.call(proc, "socketpair", 1, SOCK_STREAM)
        k.call(proc, "write", a, b"x")
        assert k.call(proc, "read", b, 10) == b"x"

    def test_peer_close_eof(self, k, proc):
        a, b = k.call(proc, "socketpair", 1, SOCK_STREAM)
        k.call(proc, "close", a)
        assert k.call(proc, "read", b, 10) == b""

    def test_getsockname(self, k, proc):
        s = k.call(proc, "socket", AF_INET, SOCK_STREAM)
        k.call(proc, "bind", s, ("10.0.0.1", 1234))
        assert k.call(proc, "getsockname", s) == ("10.0.0.1", 1234)

    def test_dgram_sendto_recvfrom(self, k, proc):
        from repro.kernel import SOCK_DGRAM
        a = k.call(proc, "socket", AF_INET, SOCK_DGRAM)
        b = k.call(proc, "socket", AF_INET, SOCK_DGRAM)
        k.call(proc, "bind", a, ("0.0.0.0", 500))
        k.call(proc, "bind", b, ("0.0.0.0", 501))
        k.call(proc, "sendto", a, b"dgram", ("0.0.0.0", 501))
        data, src = k.call(proc, "recvfrom", b, 100)
        assert data == b"dgram"
        assert src == ("0.0.0.0", 500)


class TestExitGroup:
    def test_exit_group_kills_threads(self, k, proc):
        t = k.call(proc, "clone",
                   CLONE_VM | CLONE_FILES | CLONE_SIGHAND | CLONE_THREAD)
        k.call(proc, "exit_group", 0)
        assert t.pending.bits & sig_bit(SIGKILL)

    def test_thread_exit_autoreaped(self, k, proc):
        t = k.call(proc, "clone",
                   CLONE_VM | CLONE_FILES | CLONE_SIGHAND | CLONE_THREAD)
        k.call(t, "exit", 0)
        assert t.pid not in k.processes

    def test_exit_group_races_fork_and_reap(self, k, proc):
        # exit_group scans the process table for other users of the dying
        # task's fd table; a fork or reap on another thread must not break
        # that scan (it used to raise "dictionary changed size during
        # iteration" and leave the task short of a zombie)
        import sys

        for _ in range(200):
            k.call(proc, "fork")      # a long table makes the scan slow
        errors = []
        stop = threading.Event()

        def churn(parent):
            try:
                while not stop.is_set():
                    child = k.call(parent, "fork")
                    k.call(child, "exit_group", 0)
                    k.call(parent, "wait4", child.pid, 0)
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        # one task per host thread, as the runtime runs them
        churners = [threading.Thread(target=churn,
                                     args=(k.create_process(["churn"]),))
                    for _ in range(2)]
        for t in churners:
            t.start()
        try:
            for _ in range(300):
                victim = k.call(proc, "fork")
                k.call(victim, "exit_group", 0)
                assert victim.state == STATE_ZOMBIE
        finally:
            stop.set()
            for t in churners:
                t.join(timeout=10)
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in churners)
        assert not errors
