"""One run, one set of numbers: every per-syscall view agrees.

The kernel counts each syscall once, in its ``syscall.<name>`` counter
cell; ``Kernel.syscall_counts``, perf counting events and the Fig. 2
profile all read that cell.  The WALI layer keeps one ``[calls, wali_ns]``
cell per syscall name.  These tests pin that the views of one run give the
same numbers, that the syscall trace stream of a fixed guest run is
byte-stable, and that WALI time is charged against the calling thread's
own kernel time, all of ``Kernel.call`` included.
"""

import threading
import time
from pathlib import Path

from repro.apps import build
from repro.apps.sqlite import workload_script
from repro.kernel import (
    AT_FDCWD, CLONE_FILES, CLONE_SIGHAND, CLONE_THREAD, CLONE_VM, O_RDONLY,
    PERF_TYPE_COUNTER, Kernel, KernelTrace, PerfAttr, hist_bucket,
)
from repro.kernel.sched import SCHED_BLOCKED
from repro.metrics import profile_app
from repro.wali import WaliHost, WaliRuntime

GOLDEN_TRACE = Path(__file__).parent / "data" / "sqlite_syscall_trace.bin"
SCRIPT = workload_script(6, 12)


def traced_sqlite_run(setup=None):
    """mini_sqlite on /tmp with only syscall_enter/exit traced.

    Returns ``(runtime, profile, trace stream bytes)``.  ``setup(rt)`` runs
    after tracing is switched on and before the guest is loaded.
    """
    trace = KernelTrace(capacity=1 << 14)
    rt = WaliRuntime(kernel=Kernel(trace=trace))

    def start(rt):
        trace.control("mask=syscall_enter,syscall_exit\npayload=off\non")
        if setup is not None:
            setup(rt)

    profile = profile_app("sqlite3", build("mini_sqlite"),
                          argv=["db", "/tmp/t.db", "/tmp/s"],
                          files={"/tmp/s": SCRIPT}, runtime=rt, setup=start)
    trace.disable()
    stream = b"".join(ev.encode() for ev in trace.buffer.events())
    assert trace.buffer.dropped == 0
    trace.close()
    return rt, profile, stream


def test_trace_stream_matches_golden():
    _, _, stream = traced_sqlite_run()
    assert stream == GOLDEN_TRACE.read_bytes()


def test_every_view_of_one_run_agrees():
    events = {}
    observer = []

    def open_counters(rt):
        admin = rt.kernel.create_process(["perf"])
        observer.append(admin)
        for name in rt.kernel.implemented_syscalls():
            events[name] = rt.kernel.perf.open_event(
                admin, PerfAttr(type=PERF_TYPE_COUNTER,
                                config=f"syscall.{name}"), -1, -1, -1, 0)

    rt, profile, _ = traced_sqlite_run(open_counters)
    k = rt.kernel
    counts = k.syscall_counts
    assert counts == profile.counts and sum(counts.values()) > 100
    for name in k.implemented_syscalls():
        assert counts[name] == k.trace.counters[f"syscall.{name}"] \
            == events[name].value(), name

    # /proc/<pid>/status reads the same kernel-time total Fig. 7 uses
    wp = rt.processes[0]
    tgid = wp.proc.tgid
    service = k.kernel_time_ns[tgid]
    assert service > 0
    admin = observer[0]
    fd = k.call(admin, "openat", AT_FDCWD, f"/proc/{wp.proc.pid}/status",
                O_RDONLY, 0)
    status = k.call(admin, "read", fd, 4096).decode()
    assert f"ServiceNs:\t{service}\n" in status

    # the WALI cell counts one crossing per kernel-bound guest call
    assert wp.call_counts["pread64"] == counts["pread64"]
    assert wp.host.stats()["calls"] == sum(wp.call_counts.values())


def test_wali_time_ignores_sibling_thread_kernel_time():
    """A sibling sleeping in the kernel does not shrink this thread's
    WALI-side handler time."""
    rt = WaliRuntime()
    wp = rt.load(build("true"), argv=["true"])
    k = rt.kernel
    sibling = k.call(wp.proc, "clone",
                     CLONE_VM | CLONE_FILES | CLONE_SIGHAND | CLONE_THREAD)
    assert sibling.tgid == wp.proc.tgid
    entered = threading.Event()

    def sleeper():
        entered.set()
        k.call(sibling, "nanosleep", 20_000_000)

    t = threading.Thread(target=sleeper)
    t.start()
    entered.wait()
    handler = wp.host._instrument("getpid", lambda: time.sleep(0.04))
    handler()
    t.join()
    # the sibling's 20 ms landed in the group's kernel time meanwhile
    assert k.kernel_time_ns[wp.proc.tgid] >= 20_000_000
    assert wp.call_wali_ns["getpid"] >= 39_000_000
    k.call(sibling, "exit", 0)


def test_runnable_wait_is_the_calling_tasks_own(monkeypatch):
    """A sibling thread's wait for a CPU slot during this task's call is
    the sibling's runnable wait, not this call's: the latency histograms
    split each call with the task's own ``se.wait_ns``, while the group's
    ``sched_wait_ns`` (the Fig. 7 view) still sees every thread's."""
    inside = threading.Event()

    def slow_getppid(self, proc):
        inside.set()
        time.sleep(0.03)            # holds the one CPU slot meanwhile
        return 1

    monkeypatch.setattr(Kernel, "sys_getppid", slow_getppid)
    k = Kernel(sched="cpus=1")
    leader = k.create_process(["leader"])
    sibling = k.call(leader, "clone",
                     CLONE_VM | CLONE_FILES | CLONE_SIGHAND | CLONE_THREAD)
    other = k.create_process(["other"])

    def run(proc, name, *args):
        t = threading.Thread(target=k.call, args=(proc, name, *args))
        t.start()
        return t

    # the leader sleeps 80 ms; meanwhile another process holds the slot
    # in a 30 ms call, and the sibling queues for it behind that call
    sleeper = run(leader, "nanosleep", 80_000_000)
    deadline = time.monotonic() + 5
    while leader.se.state != SCHED_BLOCKED:
        assert time.monotonic() < deadline
        time.sleep(0.001)
    holder = run(other, "getppid")
    assert inside.wait(5)
    queued = run(sibling, "getpid")
    for t in (holder, queued, sleeper):
        t.join(5)
    tgid = leader.tgid
    assert sibling.se.wait_ns >= 10_000_000
    assert k.sched_wait_ns[tgid] >= sibling.se.wait_ns
    # the sibling's wait is booked on its own getpid...
    assert sum(k.trace.wait_hist["getpid"][hist_bucket(10_000_000):]) == 1
    # ...and none of it on the leader's nanosleep
    naps = k.trace.wait_hist.get("nanosleep", [])
    assert sum(naps[hist_bucket(10_000_000):]) == 0
    assert sum(k.trace.service_hist["nanosleep"]
               [hist_bucket(60_000_000):]) == 1
    k.call(sibling, "exit", 0)


def test_kernel_exit_bookkeeping_is_kernel_time():
    """The bookkeeping ``Kernel.call`` does after the handler (histogram,
    counter, tracepoint, perf sample) is kernel time: it lands in
    ``stime_ns``, not in the calling WALI cell."""
    rt = WaliRuntime()
    wp = rt.load(build("true"), argv=["true"])
    getpid = WaliHost(rt, wp).imports()["wali"]["SYS_getpid"].fn
    # a slow probe on the exit tracepoint: the last of the bookkeeping
    rt.kernel.trace.add_probe("syscall_exit",
                              lambda pid, arg, info: time.sleep(0.002))
    stime = wp.proc.rusage.stime_ns
    assert getpid() == wp.proc.pid
    assert wp.call_counts["getpid"] == 1
    assert wp.call_wali_ns["getpid"] < 1_000_000
    assert wp.proc.rusage.stime_ns - stime >= 2_000_000
