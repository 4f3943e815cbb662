"""The kernel object: boot, process table, syscall dispatch, blocking.

One :class:`Kernel` instance is a self-contained Linux-like OS.  Syscalls are
methods named ``sys_<name>`` (provided by the mixins in
:mod:`repro.kernel.calls`).  Each kernel builds its syscall table, a
``name -> bound handler`` dict, once at boot, and :meth:`Kernel.call`
dispatches through it.

``Kernel.call`` is the kernel layer's one accounting writer.  Per syscall it
adds the elapsed time to ``kernel_time_ns[tgid]`` (Fig. 7, ``/proc/<pid>/
status`` ``ServiceNs``) and to the calling thread's ``rusage.stime_ns``,
bumps the ``syscall.<name>`` counter cell and records the service/wait
latency histograms, all in its own frame.  Every other per-syscall view is
read from those:
``syscall_counts``, the Fig. 2 profile, perf counting events and guest
``perf stat`` all read the counter cells.

Every blocking syscall waits in one loop, :meth:`Kernel.wait_event`, and
:meth:`repro.kernel.process.Process.kick` is the only way to wake it
(signals, child exit, futex wake and PI hand-off, and waitqueue readiness
all kick).  A wait is a schedule point: the task leaves the run queue
through :meth:`repro.kernel.sched.Scheduler.sleep`, releasing its CPU
slot, and rechecks for deliverable signals on every wakeup, so signal
generation interrupts syscalls with ``EINTR`` exactly like Linux.  No
waker relies on the loop's 50 ms safety slice: a sleep that runs the
slice out and then finds its scan satisfied is a lost wakeup, counted in
``sched.safety_net_wakeups`` (``docs/sched.md``, "Blocking and
wakeups").  ``Kernel.call`` itself acquires a CPU slot on entry and
honors preemption on exit, so syscall latency under load includes
*runnable-wait* (contention), accounted per task in ``proc.se.wait_ns``
(the histograms' wait) and per thread group in ``sched_wait_ns``.

The scheduler is the kernel's CPU model and its one CPU count
(``sched.ncpus``: 4 unless ``sched="cpus=N"``), which ``/proc/cpuinfo``
and the affinity syscalls read.  It also owns the per-thread-group
tallies the kernel exposes as ``sched_wait_ns`` and ``blocked_time_ns``.
"""

from __future__ import annotations

import random
import threading
import time as _time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

from .arch import X86_64
from .calls import (
    EventCalls, FSCalls, MemCalls, MiscCalls, NetCalls, NotifyCalls,
    PerfCalls, ProcCalls, SigCalls, URingCalls,
)
from . import procfs
from .errno import EAGAIN, EINTR, ENOSYS, EPIPE, KernelError
from .fdtable import OpenFile
from .process import Process, STATE_RUNNING
from .signals import SIGPIPE
from .trace import HIST_BUCKETS
from .vfs import NullDevice, O_RDWR, RandomDevice, TTYDevice, VFS, ZeroDevice

# wakeups are kick-driven; a blocked task still rescans once per slice,
# so a lost kick costs latency, and shows up in sched.safety_net_wakeups
_SAFETY_SLICE_S = 0.05


class Kernel(FSCalls, ProcCalls, SigCalls, NetCalls, MemCalls, MiscCalls,
             EventCalls, URingCalls, NotifyCalls, PerfCalls):
    """A self-contained virtual Linux kernel."""

    def __init__(self, machine: str = X86_64,
                 rng_seed: int = 0xC0FFEE,
                 storage_latency_ns_per_4k: int = 0,
                 net_backend=None, sched=None, trace=None, block=None):
        from .block import create_blockfs
        from .net import create_backend
        from .perf import PerfSubsystem
        from .sched import create_scheduler
        from .trace import create_trace

        self.machine = machine
        # storage device model: simulated latency per 4 KiB of regular-file
        # I/O (0 = infinitely fast in-memory storage).  Used by benchmarks
        # so I/O-heavy workloads show realistic kernel-time shares (the
        # paper's testbed has real disks).  The block layer mounted at
        # /data models a disk in more detail (docs/block.md).
        self.storage_latency_ns_per_4k = storage_latency_ns_per_4k
        self.vfs = VFS()
        # kernel observability (kernel/trace.py): tracepoints, the one
        # counter registry every layer writes, and per-syscall latency
        # histograms.  Specs: None = compiled in but disabled, "on" =
        # enabled from boot.  Created before the scheduler and the net
        # backend so both can pick up their trace/counter sinks.
        self.trace = create_trace(trace)
        self.counters = self.trace.counters
        # network device model: a backend spec string ("loopback",
        # "wan:latency_ms=5,loss=0.01", "host:optin=1"), a NetBackend
        # instance, or None for the default loopback stack (kernel/net/).
        self.net = create_backend(net_backend)
        self.net.trace = self.trace
        self.net.counters = self.counters
        self.processes: Dict[int, Process] = {}
        self.table_lock = threading.RLock()
        self._next_pid = 1
        self.futex_waiters: Dict[tuple, list] = {}
        # PI futexes: key -> {"owner": Process|None, "waiters": [Process]}
        self.futex_pi: Dict[tuple, dict] = {}
        # guards futex owner/waiter transitions: with per-CPU slots two
        # handlers can genuinely race on the same futex word (never held
        # while blocking or while holding the scheduler's condition)
        self.futex_lock = threading.Lock()
        self.syslog_buffer: List[str] = []
        self.rng = random.Random(rng_seed)
        self.boot_monotonic_ns = _time.monotonic_ns()

        # the syscall table, built per instance so that handlers patched
        # onto the class before boot are the ones dispatched: name ->
        # (bound handler, its ``syscall.<name>`` counter key)
        self._syscalls: Dict[str, tuple] = {
            n[4:]: (getattr(self, n), "syscall." + n[4:])
            for n in dir(type(self)) if n.startswith("sys_")}

        # accounting
        self.kernel_time_ns: Dict[int, int] = defaultdict(int)

        # CPU model: per-CPU run queues and time slices, and the kernel's
        # one CPU count.  Specs: None = 4 CPUs, "cpus=1,slice_us=50", or
        # a Scheduler instance
        self.sched = create_scheduler(sched, kernel=self)
        # the scheduler's per-tgid tallies: event sleeps, and
        # runnable-but-waiting-for-a-CPU time (pure contention; ~0 idle)
        self.blocked_time_ns = self.sched.blocked_ns_by_tgid
        self.sched_wait_ns = self.sched.wait_ns_by_tgid

        # perf events (kernel/perf.py): sampling profiler + counting
        # events behind perf_event_open.  `perf.active` gates the
        # per-syscall and per-tick hooks, keeping the disabled cost to
        # one attribute load.
        self.perf = PerfSubsystem(self)

        # block layer (kernel/block.py): a disk + page cache + writeback
        # under the VFS's regular files at its mountpoint (default
        # /data).  Specs: None = default 8 MiB disk,
        # "block:blocks=...,seek_us=...", a Disk (remount an image), or
        # a BlockFS instance.
        self.blockdev = create_blockfs(block, trace=self.trace)

        self.console = TTYDevice()
        self._boot_fs()
        self._init_proc = self._make_init()

    # ------------------------------------------------------------------
    # boot
    # ------------------------------------------------------------------

    def _boot_fs(self) -> None:
        v = self.vfs
        for d in ("/tmp", "/home", "/etc", "/dev", "/proc", "/bin",
                  "/usr/bin", "/usr/lib", "/var/log", "/root"):
            v.mkdirs(d)
        v.write_file("/etc/hostname", b"wali-repro\n")
        v.write_file("/etc/passwd",
                     b"root:x:0:0:root:/root:/bin/sh\n"
                     b"user:x:1000:1000:user:/home/user:/bin/sh\n")
        v.write_file("/etc/group", b"root:x:0:\nuser:x:1000:\n")
        v.write_file("/etc/hosts", b"127.0.0.1 localhost\n")
        v.mknod_device("/dev/null", NullDevice())
        v.mknod_device("/dev/zero", ZeroDevice())
        v.mknod_device("/dev/random", RandomDevice())
        v.mknod_device("/dev/urandom", RandomDevice())
        v.mknod_device("/dev/tty", self.console)
        v.mknod_device("/dev/console", self.console)
        self.blockdev.mount(v)
        procfs.register_base(self)

    def _make_init(self) -> Process:
        init = Process(self.alloc_pid(), 0)
        init.comm = "init"
        init.cwd = self.vfs.root
        init.uid = init.euid = 0
        init.gid = init.egid = 0
        self.processes[init.pid] = init
        self.register_procfs(init)
        return init

    # ------------------------------------------------------------------
    # process table
    # ------------------------------------------------------------------

    def alloc_pid(self) -> int:
        with self.table_lock:
            pid = self._next_pid
            self._next_pid += 1
            return pid

    def create_process(self, argv: Optional[List[str]] = None,
                       environ: Optional[Dict[str, str]] = None,
                       cwd: str = "/", ppid: Optional[int] = None,
                       stdio: bool = True) -> Process:
        """Spawn a fresh userspace process (what the runtime does per app)."""
        proc = Process(self.alloc_pid(),
                       ppid if ppid is not None else self._init_proc.pid)
        proc.argv = list(argv or [])
        proc.environ = dict(environ or {})
        proc.comm = (proc.argv[0].rsplit("/", 1)[-1] if proc.argv else "")[:15]
        proc.cwd = self.vfs.lookup(cwd)
        if stdio:
            # one open of the terminal on fds 0, 1 and 2, as a login does
            tty = self.vfs.lookup("/dev/tty")
            file = OpenFile(O_RDWR, inode=tty, obj=tty.device,
                            path="/dev/tty")
            for _ in range(3):
                proc.fdtable.install(file)
        with self.table_lock:
            self.processes[proc.pid] = proc
        self._init_proc.children.append(proc.pid)
        self.register_procfs(proc)
        return proc

    def process(self, pid: int) -> Process:
        proc = self.processes.get(pid)
        if proc is None:
            raise KeyError(f"no process {pid}")
        return proc

    # ---- procfs per-process entries (kernel/procfs.py) ----

    def register_procfs(self, proc: Process) -> None:
        procfs.register_process(self, proc)

    def unregister_procfs(self, proc: Process) -> None:
        procfs.unregister_process(self, proc)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def call(self, proc: Process, name: str, *args, **kwargs):
        """Invoke syscall ``name`` for ``proc`` through the syscall table.

        The call holds a CPU slot from ``Scheduler.syscall_enter`` to
        ``syscall_exit``; block-layer cost accrued by the handler settles
        before the exit when it returns, and is dropped when it raises.
        It emits the ``syscall_enter``/``syscall_exit`` tracepoints (exit
        carries ``-errno`` in ``arg``, 0 on success) and makes the
        kernel's four accounting writes, all in this frame:
        ``kernel_time_ns[tgid]``, ``proc.rusage.stime_ns``, the
        ``syscall.<name>`` counter cell and the latency histograms.  The
        first two charge the whole call, from entry to after the last of
        the exit bookkeeping (histograms, counter, tracepoint, perf
        sample), so none of it lands in the caller's WALI time.  The
        histograms split the elapsed time into *service* (inside the
        handler) and *runnable-wait* (this task queued for a CPU slot,
        read from its own ``proc.se.wait_ns``: a sibling thread's wait is
        not this call's), so tail-latency reports can separate kernel
        cost from contention.
        """
        entry = self._syscalls.get(name)
        if entry is None:
            raise KernelError(ENOSYS, name)
        method, counter = entry
        trace = self.trace
        se = proc.se
        t0 = _time.perf_counter_ns()
        w0 = se.wait_ns
        self.sched.syscall_enter(proc)
        err = 0
        if trace.enabled or trace.probes is not None:
            trace.emit("syscall_enter", pid=proc.pid, info=name)
        try:
            result = method(proc, *args, **kwargs) if kwargs \
                else method(proc, *args)
        except BaseException as exc:
            if isinstance(exc, KernelError):
                err = exc.errno
            if self.blockdev.tls.pending:
                self.blockdev.drop_pending()  # errors forfeit unsettled cost
            raise
        else:
            if self.blockdev.tls.pending:
                # accrued disk time is settled here, at syscall exit,
                # parking the task on the scheduler like any blocking
                # primitive (the I/O wait is a schedule point)
                self.blockdev.settle(self, proc)
            return result
        finally:
            self.sched.syscall_exit(proc)
            # the histograms' span ends at the scheduler's exit
            dt = _time.perf_counter_ns() - t0
            wait = se.wait_ns - w0
            service = dt - wait
            trace.cells[counter] += 1
            hist = trace.service_hist.get(name)
            if hist is None:
                hist = trace.service_hist[name] = [0] * HIST_BUCKETS
            hist[min(service.bit_length(), HIST_BUCKETS - 1)
                 if service > 0 else 0] += 1
            if wait > 0:
                hist = trace.wait_hist.get(name)
                if hist is None:
                    hist = trace.wait_hist[name] = [0] * HIST_BUCKETS
                hist[min(wait.bit_length(), HIST_BUCKETS - 1)] += 1
            # re-read: the handler may have switched tracing on
            if trace.enabled or trace.probes is not None:
                trace.emit("syscall_exit", pid=proc.pid, arg=-err,
                           info=name, args=(-err, service, wait))
            perf = self.perf
            if perf.active:
                perf.on_syscall(proc)
            # the kernel's time is the whole call, its bookkeeping included
            dt = _time.perf_counter_ns() - t0
            self.kernel_time_ns[proc.tgid] += dt
            proc.rusage.stime_ns += dt

    @property
    def syscall_counts(self) -> Counter:
        """Per-syscall invocation counts, read from the ``syscall.<name>``
        counter cells (a copy)."""
        return Counter({
            name[8:]: value
            for name, value in self.counters.snapshot().items()
            if name.startswith("syscall.")})

    def implemented_syscalls(self) -> List[str]:
        return sorted(self._syscalls)

    # ------------------------------------------------------------------
    # blocking machinery
    # ------------------------------------------------------------------

    def wait_event(self, proc: Process, scan: Callable, waitqueues=(),
                   timeout_ns: Optional[int] = None, scanned: bool = False):
        """Block until ``scan()`` returns non-None, and return that.

        The one blocking loop.  The first ``scan`` runs before anything
        is subscribed, so a call that is already satisfied (or polls
        with a zero timeout) allocates nothing; ``scanned`` says the
        caller made that first scan itself, and it failed.  Otherwise
        ``proc.kick`` is subscribed to every queue in ``waitqueues`` and
        the task rescans, then sleeps on the scheduler
        (:meth:`~repro.kernel.sched.Scheduler.sleep`, a schedule point)
        until a kick or the safety slice, and rescans again.  A
        deliverable signal, or the task leaving the running state, raises
        ``EINTR``; reaching the deadline returns None.

        A sleep that runs its whole safety slice with no kick, followed
        by a successful scan, is a lost wakeup: it bumps the
        ``sched.safety_net_wakeups`` counter and emits the
        ``safety_net_wakeup`` tracepoint.
        """
        deadline = None
        if timeout_ns is not None:
            deadline = _time.monotonic_ns() + timeout_ns
        wqs = None  # subscribed waitqueues, once the first scan failed
        slept_out = False
        try:
            result = None if scanned else scan()
            while True:
                if result is not None:
                    # a kick that landed during the scan was a real wake
                    if slept_out and not proc.kicked:
                        self.counters.inc("sched.safety_net_wakeups")
                        self.trace.emit("safety_net_wakeup", pid=proc.pid)
                    return result
                if proc.has_deliverable_signal() or \
                        proc.state != STATE_RUNNING:
                    raise KernelError(EINTR, "interrupted by signal")
                wait_s = _SAFETY_SLICE_S
                if deadline is not None:
                    remaining = deadline - _time.monotonic_ns()
                    if remaining <= 0:
                        return None
                    wait_s = min(wait_s, remaining / 1e9)
                if wqs is None:
                    # kicks older than this point are covered by the rescan
                    proc.kicked = False
                    proc.waiting_thread = threading.get_ident()
                    wqs = [wq for wq in waitqueues if wq is not None]
                    for wq in wqs:
                        wq.subscribe(proc.kick)
                else:
                    slept_out = not self.sched.sleep(proc, wait_s) \
                        and wait_s == _SAFETY_SLICE_S
                result = scan()
        finally:
            if wqs is not None:
                proc.waiting_thread = None
                for wq in wqs:
                    wq.unsubscribe(proc.kick)

    def _blocking_io(self, proc: Process, file: OpenFile, step: Callable):
        """Run a non-blocking I/O step on a file that can block, waiting
        while it would block.

        ``EAGAIN`` means "would block": re-raise for O_NONBLOCK files,
        else wait on the file's readiness waitqueue and retry.  ``EPIPE``
        generates SIGPIPE, like Linux.  The first attempt is the first
        scan :meth:`wait_event` would make, so a step that completes
        never enters the wait loop, and no step runs twice.
        """
        def attempt():
            try:
                return step()
            except KernelError as exc:
                if exc.errno == EPIPE:
                    proc.generate_signal(SIGPIPE)
                elif exc.errno == EAGAIN and not file.nonblocking:
                    return None
                raise

        result = attempt()
        if result is None:
            result = self.wait_event(proc, attempt, (file.obj.wq,),
                                     scanned=True)
        return result

    def storage_charge(self, nbytes: int) -> None:
        """Burn the storage device's simulated service time (kernel time);
        callers skip it when ``storage_latency_ns_per_4k`` is 0."""
        cost = self.storage_latency_ns_per_4k
        if nbytes <= 0:
            return
        total = cost * ((nbytes + 4095) // 4096)
        deadline = _time.perf_counter_ns() + total
        while _time.perf_counter_ns() < deadline:
            pass

    def notify_all_blocked(self) -> None:
        for p in list(self.processes.values()):
            p.kick()

    # ------------------------------------------------------------------
    # console helpers (tests & examples)
    # ------------------------------------------------------------------

    def console_output(self) -> bytes:
        return bytes(self.console.output)

    def console_feed(self, data: bytes) -> None:
        self.console.feed(data)

    def clear_console(self) -> None:
        self.console.output.clear()
