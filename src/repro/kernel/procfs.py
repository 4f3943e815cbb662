"""The synthetic /proc filesystem: the guest-visible observability surface.

Everything here is read-only and generated **lazily at open** — a
``/proc`` file's inode carries a generator, and ``sys_openat`` snapshots
its output into the open-file description (reads then page through the
snapshot, like reading /proc on Linux observes one consistent pass).

Layout::

    /proc/version /proc/meminfo /proc/cpuinfo /proc/uptime   (boot-era)
    /proc/self -> /proc/<tgid>                               (dynamic)
    /proc/<pid>/comm|cmdline|stat|status|maps|mem            (per task)
    /proc/sched_debug     run queue, per-task vruntime/nice/wait
    /proc/uring           ring crossings, CQ overflows, link cancels
    /proc/inotify         fsnotify queue traffic and drops
    /proc/net/sockstat    backend + deliveries and impairment drops
    /proc/trace           tracer state, mask, and every counter
    /proc/trace_ctl       write-side controls (on/off/clear/mask=...)
    /proc/trace_pipe      the epollable trace-record stream
    /proc/trace_format    self-describing wire layout + payload schemas
    /proc/perf            perf-event subsystem status
    /proc/sys/kernel/perf_event_max_sample_rate   (writable knob)
    /proc/sys/net/wan/*   live WAN impairment knobs (wan backend only)

The stats files report from the shared
:class:`~repro.kernel.trace.CounterRegistry` — the same numbers
:mod:`repro.metrics.breakdown` reads — so a guest agent (``ktop``) and
the host metrics layer can never disagree.

``/proc/trace_pipe`` is a *live object* endpoint, not a snapshot: its
inode carries an ``opener`` that hands out an fd over the kernel's
:class:`~repro.kernel.trace.TraceBuffer`, readable and epollable through
the standard readiness machinery.  Reads are consuming and the cursor is
shared between all open descriptions, exactly like ftrace's trace_pipe.
"""

from __future__ import annotations

import time as _time

from .errno import KernelError
from .fdtable import OpenFile
from .process import STATE_RUNNING
from .vfs import CharDevice


class TraceControlDevice(CharDevice):
    """The /proc/trace_ctl device: written commands drive the tracer."""

    def __init__(self, kernel):
        self.kernel = kernel

    def write_step(self, data: bytes) -> int:
        self.kernel.trace.control(data.decode(errors="replace"))
        return len(data)

    def read_step(self, length: int) -> bytes:
        return b""


def register_base(kernel) -> None:
    """Mount the non-per-process /proc surface (called from boot)."""
    v = kernel.vfs
    v.add_proc_file("/proc/version",
                    lambda p: b"Linux version 6.1.0-repro (wali)\n")
    v.add_proc_file("/proc/meminfo",
                    lambda p: b"MemTotal: 1048576 kB\n"
                              b"MemFree: 524288 kB\n")
    v.add_proc_file(
        "/proc/cpuinfo",
        lambda p: b"".join(
            f"processor\t: {i}\nmodel name\t: repro-cpu\n\n".encode()
            for i in range(kernel.sched.ncpus)))
    v.add_proc_file(
        "/proc/uptime",
        lambda p: f"{(_time.monotonic_ns() - kernel.boot_monotonic_ns) / 1e9:.2f} 0.00\n".encode())
    v.add_dynamic_symlink(
        "/proc/self",
        lambda p: f"/proc/{p.tgid}" if p is not None else "/proc/1")

    v.add_proc_file("/proc/sched_debug",
                    lambda p: _sched_debug(kernel))
    v.add_proc_file("/proc/uring", lambda p: _uring_stats(kernel))
    v.add_proc_file("/proc/inotify", lambda p: _inotify_stats(kernel))
    v.mkdirs("/proc/net")
    v.add_proc_file("/proc/net/sockstat", lambda p: _sockstat(kernel))
    trace = kernel.trace
    v.add_proc_file("/proc/trace", lambda p: trace.status_text().encode())
    v.add_proc_file("/proc/trace_format",
                    lambda p: trace.format_text().encode())
    v.mknod_device("/proc/trace_ctl", TraceControlDevice(kernel))
    v.add_special_file(
        "/proc/trace_pipe",
        lambda proc, flags: OpenFile(flags, obj=trace.buffer,
                                     path="/proc/trace_pipe"))
    from .perf import PerfMaxRateDevice
    perf = kernel.perf
    v.add_proc_file("/proc/perf", lambda p: perf.status_text().encode())
    v.mkdirs("/proc/sys/kernel")
    v.mknod_device("/proc/sys/kernel/perf_event_max_sample_rate",
                   PerfMaxRateDevice(perf))
    from .net.wan import WanBackend, WanKnobDevice, _WAN_KNOBS
    if isinstance(kernel.net, WanBackend):
        v.mkdirs("/proc/sys/net/wan")
        for knob in _WAN_KNOBS:
            v.mknod_device(f"/proc/sys/net/wan/{knob}",
                           WanKnobDevice(kernel.net, knob))
    from .block import DropCachesDevice, VMKnobDevice
    bd = kernel.blockdev
    v.add_proc_file("/proc/block", lambda p: bd.stats_text().encode())
    v.mkdirs("/proc/sys/vm")
    for knob in ("dirty_ratio", "dirty_background_ratio",
                 "dirty_expire_centisecs", "dirty_writeback_centisecs"):
        v.mknod_device(f"/proc/sys/vm/{knob}", VMKnobDevice(bd, knob))
    v.mknod_device("/proc/sys/vm/drop_caches", DropCachesDevice(bd))


# ----------------------------------------------------------------------
# generators (each runs once per open; keep them allocation-light)
# ----------------------------------------------------------------------

def _sched_debug(kernel) -> bytes:
    sched = kernel.sched
    c = kernel.counters
    lines = [
        sched.describe(),
        f"running: {sched.running_pids()} "
        f"runnable: {sched.runnable_pids()} "
        f"blocked: {sched.blocked_pids()}",
        f"switches: {c.get('sched.switch')} "
        f"wakeups: {c.get('sched.wakeup')} "
        f"preemptions: {c.get('sched.preempt')} "
        f"migrations: {c.get('sched.migrate')} "
        f"steals: {c.get('sched.steal')}",
    ]
    for rq in sched.cpu_snapshot():
        cur = rq["current"] if rq["current"] is not None else "-"
        lines.append(
            f"cpu#{rq['cpu']}: curr={cur} nr_runnable={rq['nr_runnable']} "
            f"min_vruntime={rq['min_vruntime']} queued={rq['queued']}")
    lines.append(
        f"{'pid':>5} {'comm':<15} {'st':<2} {'nice':>4} {'cpu':>3} "
        f"{'aff':>4} {'vruntime_ns':>14} {'wait_ns':>12} {'cpu_ns':>12}")
    for pid in sorted(kernel.processes):
        pr = kernel.processes[pid]
        se = pr.se
        lines.append(
            f"{pid:>5} {pr.comm or '-':<15} {se.state[:2]:<2} "
            f"{se.nice:>4} {se.cpu:>3} {se.affinity or '*':>4} "
            f"{se.vruntime_ns:>14} {se.wait_ns:>12} "
            f"{se.cpu_time_ns:>12}")
    return ("\n".join(lines) + "\n").encode()


def _uring_stats(kernel) -> bytes:
    c = kernel.counters
    return (
        f"crossings: {kernel.syscall_counts.get('io_uring_enter', 0)}\n"
        f"sqes_submitted: {c.get('uring.submitted')}\n"
        f"cqes_completed: {c.get('uring.completed')}\n"
        f"cq_overflows: {c.get('uring.cq_overflow')}\n"
        f"link_cancels: {c.get('uring.link_cancel')}\n"
        f"multishot_cqes: {c.get('uring.multishot_cqes')}\n"
        f"buffers_registered: {c.get('uring.buffers_registered')}\n"
        f"fixed_completions: {c.get('uring.fixed_completions')}\n"
        f"sqpoll_submitted: {c.get('uring.sqpoll_submitted')}\n"
        f"sqpoll_polls: {c.get('uring.sqpoll_polls')}\n"
        f"sqpoll_idles: {c.get('uring.sqpoll_idles')}\n"
        f"sqpoll_wakeups: {c.get('uring.sqpoll_wakeups')}\n"
    ).encode()


def _inotify_stats(kernel) -> bytes:
    c = kernel.counters
    return (
        f"enqueued: {c.get('inotify.enqueued')}\n"
        f"dropped: {c.get('inotify.dropped')}\n"
    ).encode()


def _sockstat(kernel) -> bytes:
    c = kernel.counters
    return (
        f"backend: {kernel.net.describe()}\n"
        f"delivered: {c.get('net.deliver')}\n"
        f"delivered_bytes: {c.get('net.deliver_bytes')}\n"
        f"dropped: {c.get('net.drop')}\n"
        f"reordered: {c.get('net.reorder')}\n"
        f"duplicated: {c.get('net.dup')}\n"
        f"epoll_wakes_coalesced: {c.get('epoll.wake_coalesced')}\n"
    ).encode()


# ----------------------------------------------------------------------
# per-process entries
# ----------------------------------------------------------------------

def register_process(kernel, proc) -> None:
    base = f"/proc/{proc.pid}"
    try:
        kernel.vfs.mkdirs(base)
    except KernelError:
        return
    add = kernel.vfs.add_proc_file
    add(f"{base}/comm", lambda p, pr=proc: (pr.comm + "\n").encode())
    add(f"{base}/cmdline",
        lambda p, pr=proc: b"\x00".join(a.encode() for a in pr.argv))
    # classic stat columns, then scheduler fields: nice, vruntime,
    # cumulative runnable-wait and CPU time (all ns)
    add(f"{base}/stat",
        lambda p, pr=proc: (
            f"{pr.pid} ({pr.comm}) "
            f"{'R' if pr.state == STATE_RUNNING else 'Z'} "
            f"{pr.ppid} {pr.pgid} {pr.sid} "
            f"{pr.se.nice} {pr.se.vruntime_ns} {pr.se.wait_ns} "
            f"{pr.se.cpu_time_ns}\n").encode())
    add(f"{base}/status",
        lambda p, pr=proc, k=kernel: (
            f"Name:\t{pr.comm}\nPid:\t{pr.pid}\nTgid:\t{pr.tgid}\n"
            f"PPid:\t{pr.ppid}\nUid:\t{pr.uid}\t{pr.euid}\n"
            f"SigBlk:\t{pr.blocked_mask:016x}\n"
            f"SigPnd:\t{pr.pending.bits:016x}\n"
            f"Nice:\t{pr.se.nice}\n"
            f"VRuntime:\t{pr.se.vruntime_ns}\n"
            f"WaitNs:\t{pr.se.wait_ns}\n"
            f"ServiceNs:\t{k.kernel_time_ns.get(pr.tgid, 0)}\n"
            f"FDSize:\t{len(pr.fdtable.fds())}\n").encode())
    add(f"{base}/maps",
        lambda p, pr=proc: (pr.mm.maps_text() if pr.mm else "").encode())
    # the dangerous endpoint WALI must interpose on (§3.6 pitfall 1):
    add(f"{base}/mem", lambda p, pr=proc: b"<process memory image>")


def unregister_process(kernel, proc) -> None:
    try:
        kernel.vfs.unlink(f"/proc/{proc.pid}/comm")
    except KernelError:
        return
    for name in ("cmdline", "stat", "status", "maps", "mem"):
        try:
            kernel.vfs.unlink(f"/proc/{proc.pid}/{name}")
        except KernelError:
            pass
    try:
        kernel.vfs.unlink(f"/proc/{proc.pid}", rmdir=True)
    except KernelError:
        pass
