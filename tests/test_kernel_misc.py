"""Kernel edge cases: time, uname, getdents paging, tracing, procfs
lifecycle, and cross-layer stress (signals under load, deep pipelines)."""

import struct
import threading
import time

import pytest

from repro.apps import build, install_all, with_libc
from repro.cc import compile_source
from repro.kernel import (
    AT_FDCWD, Kernel, KernelError, O_RDONLY, SIGALRM, SIGUSR1, sig_bit,
)
from repro.kernel.calls.misc import ITIMER_REAL
from repro.kernel.errno import EINVAL
from repro.wali import WaliHost, WaliProcess, WaliRuntime
from repro.wasm import ModuleBuilder, instantiate


@pytest.fixture
def k():
    return Kernel()


@pytest.fixture
def proc(k):
    return k.create_process(["t"], {})


class TestTimeAndInfo:
    def test_clock_monotonic_increases(self, k, proc):
        a = k.call(proc, "clock_gettime", 1)
        b = k.call(proc, "clock_gettime", 1)
        assert b >= a > 0

    def test_clock_realtime_reasonable(self, k, proc):
        ns = k.call(proc, "clock_gettime", 0)
        assert ns > 1_600_000_000 * 10**9  # after 2020

    def test_bad_clock_einval(self, k, proc):
        with pytest.raises(KernelError):
            k.call(proc, "clock_gettime", 99)

    def test_nanosleep_sleeps(self, k, proc):
        t0 = time.monotonic()
        k.call(proc, "nanosleep", 30_000_000)  # 30 ms
        assert time.monotonic() - t0 >= 0.025

    def test_nanosleep_negative_einval(self, k, proc):
        with pytest.raises(KernelError):
            k.call(proc, "nanosleep", -5)

    def test_clock_nanosleep_abstime_sleeps_until_the_time(self, k, proc):
        """TIMER_ABSTIME sleeps until a time on the given clock, not for
        that long: on a kernel booted 10 s ago, a deadline 20 ms ahead
        on CLOCK_MONOTONIC (and on CLOCK_REALTIME) ends in 20 ms."""
        k.boot_monotonic_ns -= 10 * 10**9
        for clock in (1, 0):   # CLOCK_MONOTONIC, CLOCK_REALTIME
            deadline = k.call(proc, "clock_gettime", clock) + 20_000_000
            t0 = time.monotonic()
            assert k.call(proc, "clock_nanosleep", clock, 1, deadline) == 0
            assert 0.015 <= time.monotonic() - t0 < 2
            t0 = time.monotonic()   # a time already past returns at once
            assert k.call(proc, "clock_nanosleep", clock, 1,
                          deadline - 10**9) == 0
            assert time.monotonic() - t0 < 0.5
        with pytest.raises(KernelError) as exc:
            k.call(proc, "clock_nanosleep", 99, 0, 1000)
        assert exc.value.errno == EINVAL

    def test_sysinfo_counts_processes(self, k, proc):
        si = k.call(proc, "sysinfo")
        assert si.procs >= 2  # init + proc

    def test_times_accumulates_stime(self, k, proc):
        for _ in range(5):
            k.call(proc, "getpid")
        u, s, _, _ = k.call(proc, "times")
        assert s >= 0

    def test_storage_latency_model(self):
        k = Kernel(storage_latency_ns_per_4k=2_000_000)  # 2 ms / 4K
        p = k.create_process(["t"], {})
        k.vfs.write_file("/tmp/f", b"x" * 4096)
        fd = k.call(p, "openat", AT_FDCWD, "/tmp/f", O_RDONLY, 0)
        t0 = time.perf_counter()
        k.call(p, "read", fd, 4096)
        assert time.perf_counter() - t0 >= 0.0015


class TestAlarm:
    def test_alarm_returns_the_rounded_seconds_left(self, k, proc):
        assert k.call(proc, "alarm", 5) == 0
        # Linux rounds to the nearest second, not down
        assert k.call(proc, "alarm", 0) == 5
        assert k.call(proc, "alarm", 0) == 0

    def test_rearm_and_cancel_leave_no_timer(self, k, proc):
        before = set(threading.enumerate())
        for _ in range(5):
            k.call(proc, "alarm", 5)
        k.call(proc, "alarm", 0)
        assert k.call(proc, "getitimer", ITIMER_REAL) == (0, 0)
        started = set(threading.enumerate()) - before
        for t in started:
            t.join(1)
        assert not [t for t in started if t.is_alive()]

    def test_alarm_delivers_sigalrm(self, k, proc):
        k.call(proc, "alarm", 1)
        assert _pending_within(proc, SIGALRM, 5)

    def test_exit_cancels_the_alarm(self, k, proc):
        before = set(threading.enumerate())
        k.call(proc, "alarm", 5)
        started = set(threading.enumerate()) - before
        assert started   # the armed timer's thread
        k.call(proc, "exit_group", 0)
        for t in started:
            t.join(1)
        assert not [t for t in started if t.is_alive()]


def _pending_within(proc, sig, seconds):
    deadline = time.monotonic() + seconds
    while not proc.pending.bits & sig_bit(sig):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


class TestIntervalTimer:
    """ITIMER_REAL: one timer per task behind alarm, setitimer and
    getitimer, honouring sub-second values and the interval."""

    def test_periodic_timer_raises_sigalrm_again(self, k, proc):
        old = k.call(proc, "setitimer", ITIMER_REAL, 10_000_000, 10_000_000)
        assert old == (0, 0)
        assert _pending_within(proc, SIGALRM, 0.1)
        proc.pending.bits &= ~sig_bit(SIGALRM)
        assert _pending_within(proc, SIGALRM, 0.1)
        k.call(proc, "setitimer", ITIMER_REAL, 0, 0)

    def test_getitimer_reads_remaining_and_interval(self, k, proc):
        k.call(proc, "setitimer", ITIMER_REAL, 250_000_000, 1_000_000_000)
        value, interval = k.call(proc, "getitimer", ITIMER_REAL)
        assert 0 < value <= 1_000_000_000
        assert interval == 250_000_000
        old = k.call(proc, "setitimer", ITIMER_REAL, 0, 0)
        assert 0 < old[0] <= value and old[1] == 250_000_000
        assert k.call(proc, "getitimer", ITIMER_REAL) == (0, 0)

    def test_alarm_and_setitimer_share_the_timer(self, k, proc):
        k.call(proc, "alarm", 3)
        value, interval = k.call(proc, "getitimer", ITIMER_REAL)
        assert 2_000_000_000 < value <= 3_000_000_000 and interval == 0
        k.call(proc, "setitimer", ITIMER_REAL, 0, 1_400_000_000)
        assert k.call(proc, "alarm", 0) == 1

    def test_other_timers_are_einval(self, k, proc):
        for which in (1, 2):   # ITIMER_VIRTUAL, ITIMER_PROF
            with pytest.raises(KernelError) as exc:
                k.call(proc, "setitimer", which, 0, 10_000_000)
            assert exc.value.errno == EINVAL
            with pytest.raises(KernelError) as exc:
                k.call(proc, "getitimer", which)
            assert exc.value.errno == EINVAL
        assert not proc.pending.bits & sig_bit(SIGALRM)

    def test_guest_setitimer_old_value_and_getitimer(self):
        rt = WaliRuntime()
        wp = WaliProcess(rt, rt.kernel.create_process(["t"], {}))
        wp.attach(instantiate(_memory_module()))
        ns = WaliHost(rt, wp).imports()["wali"]
        mem = wp.instance.memory
        new, old, cur = 64, 128, 192
        # {interval 0 s 250000 µs, value 2 s 500000 µs}
        mem.write(new, struct.pack("<qqqq", 0, 250_000, 2, 500_000))
        assert ns["SYS_setitimer"].fn(ITIMER_REAL, new, old) == 0
        assert struct.unpack("<qqqq", mem.read_bytes(old, 32)) == (0,) * 4
        assert ns["SYS_getitimer"].fn(ITIMER_REAL, cur) == 0
        isec, iusec, sec, usec = struct.unpack("<qqqq",
                                               mem.read_bytes(cur, 32))
        assert (isec, iusec) == (0, 250_000)
        assert 0 < sec * 10**6 + usec <= 2_500_000
        mem.write(new, bytes(32))   # disarm, reading the old setting
        assert ns["SYS_setitimer"].fn(ITIMER_REAL, new, old) == 0
        isec, iusec, sec, usec = struct.unpack("<qqqq",
                                               mem.read_bytes(old, 32))
        assert (isec, iusec) == (0, 250_000)
        assert 0 < sec * 10**6 + usec <= 2_500_000
        assert ns["SYS_getitimer"].fn(5, cur) == -EINVAL


def _memory_module():
    mb = ModuleBuilder("itimer")
    mb.add_memory(1, 1)
    return mb.build()


class TestDirentPaging:
    def test_getdents_buffer_paging_via_wali(self):
        """A small guest buffer forces multiple getdents64 calls that
        together enumerate everything exactly once."""
        rt = WaliRuntime()
        rt.kernel.vfs.mkdirs("/tmp/many")
        for i in range(40):
            rt.kernel.vfs.write_file(f"/tmp/many/file{i:02d}", b"")
        mod = compile_source(with_libc(r"""
buffer dents[256];
global seen: i32 = 0;
export func _start() {
    var fd: i32 = open("/tmp/many", O_RDONLY, 0);
    while (1) {
        var n: i32 = i32(SYS_getdents64(fd, dents, 256));
        if (n <= 0) { break; }
        var off: i32 = 0;
        while (off < n) {
            seen = seen + 1;
            off = off + load16u(dents + off + 16);
        }
    }
    exit(seen);
}
"""), name="pager")
        status = rt.run(mod)
        assert status == 42  # 40 files + "." + ".."


class TestProcfsLifecycle:
    def test_proc_dir_removed_after_reap(self, k, proc):
        child = k.call(proc, "fork")
        path = f"/proc/{child.pid}/stat"
        assert k.vfs.exists(path)
        k.call(child, "exit_group", 0)
        k.call(proc, "wait4", child.pid, 0)
        assert not k.vfs.exists(path)

    def test_proc_maps_shows_vmas(self, k, proc):
        from repro.kernel.mm import (
            AddressSpace, MAP_ANONYMOUS, MAP_PRIVATE, PROT_READ,
        )

        proc.mm = AddressSpace(0x10000, 0x100000)
        proc.mm.mmap(0, 8192, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS)
        fd = k.call(proc, "openat", AT_FDCWD, "/proc/self/maps", O_RDONLY, 0)
        content = k.call(proc, "read", fd, 4096).decode()
        assert "r--p" in content


class TestStress:
    def test_signal_storm_under_compute(self):
        """Many async signals land at loop safepoints without corrupting
        guest state — §3.3's consistency requirement."""
        rt = WaliRuntime()
        mod = compile_source(with_libc(r"""
global hits: i32 = 0;
func on_usr1(sig: i32) { hits = hits + 1; }
export func _start() {
    signal(SIGUSR1, funcref(on_usr1));
    var acc: i32 = 0;
    var i: i32 = 0;
    while (i < 400000) { acc = acc + i; i = i + 1; }
    if (acc != 0xa05c12c0) { exit(99); }  // wrapped sum must be intact
    if (hits == 0) { exit(98); }           // at least one delivery landed
    exit(1);
}
"""), name="storm")
        wp = rt.load(mod)
        stop = threading.Event()

        def bombard():
            while not stop.is_set():
                try:
                    rt.kernel.call(rt.kernel.process(1), "kill",
                                   wp.proc.pid, SIGUSR1)
                except KernelError:
                    return
                time.sleep(0.002)

        t = threading.Thread(target=bombard, daemon=True)
        t.start()
        status = wp.run()
        stop.set()
        t.join(1)
        assert status == 1  # handlers ran, accumulator uncorrupted

    def test_deep_pipeline_chain(self):
        rt = WaliRuntime()
        install_all(rt, ["cat", "wc", "echo"])
        rt.kernel.vfs.write_file("/tmp/d", b"abc\n" * 10)
        rt.kernel.vfs.write_file(
            "/tmp/s.sh",
            b"cat /tmp/d | cat\ncat /tmp/d | wc\nexit 0\n")
        assert rt.run(build("mini_sh"), argv=["sh", "/tmp/s.sh"]) == 0
        out = rt.kernel.console_output()
        assert out.count(b"abc") == 10
        assert b"10 40" in out

    def test_many_sequential_forks(self):
        rt = WaliRuntime()
        mod = compile_source(with_libc(r"""
export func _start() {
    var i: i32 = 0;
    var sum: i32 = 0;
    while (i < 6) {
        var pid: i32 = fork();
        if (pid == 0) { exit(i); }
        waitpid(pid, __io_buf);
        sum = sum + ((load32(__io_buf) >> 8) & 255);
        i = i + 1;
    }
    exit(sum);
}
"""), name="forker")
        assert rt.run(mod) == 0 + 1 + 2 + 3 + 4 + 5

    def test_concurrent_guests_share_kernel(self):
        rt = WaliRuntime()
        from repro.apps.lua import fib_script

        rt.kernel.vfs.write_file("/tmp/a.lua", fib_script(15))
        rt.kernel.vfs.write_file("/tmp/b.lua", fib_script(16))
        wa = rt.load(build("mini_lua"), argv=["lua", "/tmp/a.lua"])
        wb = rt.load(build("mini_lua"), argv=["lua", "/tmp/b.lua"])
        wa.start_in_thread()
        wb.start_in_thread()
        wa.join(20)
        wb.join(20)
        assert wa.exit_status == 0 and wb.exit_status == 0
        out = rt.kernel.console_output()
        assert b"610" in out and b"987" in out
