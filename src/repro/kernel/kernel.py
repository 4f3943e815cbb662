"""The kernel object: boot, process table, syscall dispatch, blocking.

One :class:`Kernel` instance is a self-contained Linux-like OS.  Syscalls are
methods named ``sys_<name>`` (provided by the mixins in
:mod:`repro.kernel.calls`); :meth:`Kernel.call` dispatches by name, counts
invocations (Fig. 2), and accounts kernel time per thread group (Fig. 7).

Blocking syscalls are schedule points: they park the task off the run
queue through :meth:`repro.kernel.sched.Scheduler.sleep` (releasing its
CPU slot for the duration), and every blocking loop re-checks for
deliverable signals on wakeup, so signal generation interrupts syscalls
with ``EINTR`` exactly like Linux.  ``Kernel.call`` itself acquires a
CPU slot on entry and honors preemption on exit, so syscall latency
under load includes *runnable-wait* (contention), accounted separately
in ``sched_wait_ns``.
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
from .errno import EAGAIN, EINTR, ENOSYS, EPIPE, ETIMEDOUT, KernelError
from .eventpoll import ProcNotifier
from .fdtable import FDTable, OpenFile
from .process import Process, STATE_RUNNING
from .signals import SIGPIPE
from .vfs import (
    Inode, NullDevice, O_RDWR, RandomDevice, S_IFCHR, TTYDevice, VFS,
    ZeroDevice,
)

_BLOCK_SLICE_S = 0.002  # blocking syscalls re-check readiness every 2 ms
# with waitqueue notifiers subscribed, wakeups are event-driven; the slice
# is only a lost-wakeup safety net and can be much coarser
_WQ_SLICE_S = 0.05


class _TimedOut(Exception):
    pass


class Kernel(FSCalls, ProcCalls, SigCalls, NetCalls, MemCalls, MiscCalls,
             EventCalls, URingCalls, NotifyCalls, PerfCalls):
    """A self-contained virtual Linux kernel."""

    def __init__(self, machine: str = X86_64, ncpus: int = 4,
                 rng_seed: int = 0xC0FFEE,
                 storage_latency_ns_per_4k: int = 0,
                 net_backend=None, sched=None, trace=None, block=None):
        from .block import create_blockfs
        from .net import create_backend
        from .perf import PerfSubsystem
        from .sched import create_scheduler
        from .trace import create_trace

        self.machine = machine
        self.ncpus = ncpus
        # storage device model: simulated latency per 4 KiB of regular-file
        # I/O (0 = infinitely fast in-memory storage).  Used by benchmarks
        # so I/O-heavy workloads show realistic kernel-time shares (the
        # paper's testbed has real disks).  The block layer mounted at
        # /data models a disk in more detail (docs/block.md).
        self.storage_latency_ns_per_4k = storage_latency_ns_per_4k
        self.vfs = VFS()
        # kernel observability (kernel/trace.py): tracepoints, the shared
        # counter registry, and per-syscall latency histograms.  Specs:
        # None = compiled in but disabled, "on" = enabled from boot,
        # "off"/"none" = ablated entirely (no /proc/trace* files either).
        # Created before the scheduler and the net backend so both can
        # pick up their trace/counter sinks at construction time.
        self.trace = create_trace(trace)
        # network device model: a backend spec string ("loopback",
        # "wan:latency_ms=5,loss=0.01", "host:optin=1"), a NetBackend
        # instance, or None for the default loopback stack (kernel/net/).
        self.net = create_backend(net_backend)
        self.net.trace = self.trace
        self.net.counters = \
            self.trace.counters if self.trace is not None else None
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

        # tracing / accounting
        self.syscall_counts: Counter = Counter()
        self.proc_syscall_counts: Dict[int, Counter] = defaultdict(Counter)
        self.kernel_time_ns: Dict[int, int] = defaultdict(int)
        self.blocked_time_ns: Dict[int, int] = defaultdict(int)
        # runnable-but-waiting-for-a-CPU time (pure contention; ~0 idle)
        self.sched_wait_ns: Dict[int, int] = defaultdict(int)
        self.trace_hooks: List[Callable] = []
        self.trace_log: Optional[list] = None  # set to [] to record calls

        # CPU model: a run queue with `ncpus` slots and time slices; spec
        # strings ("cpus=1,slice_us=50", "off") or a Scheduler instance
        self.sched = create_scheduler(sched, ncpus_default=ncpus,
                                      kernel=self)

        # perf events (kernel/perf.py): sampling profiler + counting
        # events behind perf_event_open.  `perf.active` gates the
        # per-syscall and per-tick hooks, keeping the disabled cost to
        # one attribute load.
        self.perf = PerfSubsystem(self)

        # block layer (kernel/block.py): a disk + page cache + writeback
        # under the VFS's regular files at its mountpoint (default
        # /data).  Specs: None = default 8 MiB disk, "off"/"none" =
        # purely memory-backed VFS, "block:blocks=...,seek_us=...",
        # a Disk (remount an image), or a BlockFS instance.
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
        if self.blockdev is not None:
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
            tty = self.vfs.lookup("/dev/tty")
            for _ in range(3):
                proc.fdtable.install(
                    OpenFile(OpenFile.KIND_CHR, O_RDWR, inode=tty,
                             path="/dev/tty"))
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
        """Invoke syscall ``name`` with tracing and time accounting.

        Besides the pre-existing counters, every call feeds the
        observability layer: ``syscall_enter``/``syscall_exit``
        tracepoints (exit carries ``-errno`` in ``arg``, 0 on success)
        and the always-on per-syscall log2 latency histograms.  The
        elapsed wall time is split into *service* (time actually inside
        the handler) and *runnable-wait* (time spent queued for a CPU
        slot, read back from ``sched_wait_ns``) so tail-latency reports
        can separate kernel cost from contention.
        """
        method = getattr(self, f"sys_{name}", None)
        if method is None:
            raise KernelError(ENOSYS, name)
        trace = self.trace
        tgid = proc.tgid
        t0 = _time.perf_counter_ns()
        w0 = self.sched_wait_ns.get(tgid, 0) if trace is not None else 0
        self.sched.syscall_enter(proc)
        err = 0
        if trace is not None:
            trace.emit("syscall_enter", pid=proc.pid, info=name)
        try:
            result = method(proc, *args, **kwargs)
            bd = self.blockdev
            if bd is not None and bd.has_pending():
                # accrued disk time is settled here, at syscall exit,
                # parking the task on the scheduler like any blocking
                # primitive (the I/O wait is a schedule point)
                bd.settle(self, proc)
            return result
        except KernelError as exc:
            err = exc.errno
            raise
        finally:
            bd = self.blockdev
            if bd is not None:
                bd.drop_pending()  # error paths forfeit unsettled cost
            self.sched.syscall_exit(proc)
            dt = _time.perf_counter_ns() - t0
            self.syscall_counts[name] += 1
            self.proc_syscall_counts[tgid][name] += 1
            self.kernel_time_ns[tgid] += dt
            proc.rusage.stime_ns += dt
            if trace is not None:
                wait = self.sched_wait_ns.get(tgid, 0) - w0
                trace.record_syscall(name, dt - wait, wait)
                trace.counters.inc("syscall." + name)
                trace.emit("syscall_exit", pid=proc.pid, arg=-err,
                           info=name, args=(-err, dt - wait, wait))
            perf = self.perf
            if perf.active:
                perf.on_syscall(proc)
            if self.trace_log is not None:
                self.trace_log.append((proc.pid, name))
            for hook in self.trace_hooks:
                hook(proc, name, dt)

    def has_syscall(self, name: str) -> bool:
        return hasattr(self, f"sys_{name}")

    def implemented_syscalls(self) -> List[str]:
        return sorted(n[4:] for n in dir(self) if n.startswith("sys_"))

    # ------------------------------------------------------------------
    # blocking machinery
    # ------------------------------------------------------------------

    def block_until(self, proc: Process, scan: Callable,
                    timeout_ns: Optional[int] = None,
                    empty: Optional[Callable] = None):
        """Run ``scan`` until it returns non-None.

        Between scans, the task leaves the run queue and sleeps briefly
        on the process wake condition (a schedule point: its CPU slot is
        released while it sleeps).  A deliverable signal interrupts the
        wait with ``EINTR``; a timeout returns ``empty()`` when
        provided, else raises ``ETIMEDOUT``.
        """
        deadline = None
        if timeout_ns is not None:
            deadline = _time.monotonic_ns() + timeout_ns
        while True:
            result = scan()
            if result is not None:
                return result
            if proc.has_deliverable_signal() or proc.state != STATE_RUNNING:
                raise KernelError(EINTR, "interrupted by signal")
            wait_s = _BLOCK_SLICE_S
            if deadline is not None:
                remaining = deadline - _time.monotonic_ns()
                if remaining <= 0:
                    if empty is not None:
                        return empty()
                    raise KernelError(ETIMEDOUT)
                wait_s = min(wait_s, remaining / 1e9)
            self.sched.sleep(proc, wait_s)

    def block_on_waitqueues(self, proc: Process, waitqueues, scan: Callable,
                            timeout_ns: Optional[int] = None,
                            empty: Optional[Callable] = None):
        """Like :meth:`block_until`, but woken by readiness waitqueues.

        A :class:`ProcNotifier` is subscribed to every queue in
        ``waitqueues``; readiness transitions then notify the process wake
        condition immediately, so there is no per-slice rescan — ``scan``
        runs once per wakeup (event, signal, or the coarse safety slice).
        """
        notifier = ProcNotifier(proc)
        wqs = [wq for wq in waitqueues if wq is not None]
        for wq in wqs:
            wq.subscribe(notifier)
        deadline = None
        if timeout_ns is not None:
            deadline = _time.monotonic_ns() + timeout_ns
        try:
            while True:
                result = scan()
                if result is not None:
                    return result
                if proc.has_deliverable_signal() or \
                        proc.state != STATE_RUNNING:
                    raise KernelError(EINTR, "interrupted by signal")
                wait_s = _WQ_SLICE_S
                if deadline is not None:
                    remaining = deadline - _time.monotonic_ns()
                    if remaining <= 0:
                        if empty is not None:
                            return empty()
                        raise KernelError(ETIMEDOUT)
                    wait_s = min(wait_s, remaining / 1e9)
                self.sched.sleep(proc, wait_s, notifier)
        finally:
            for wq in wqs:
                wq.unsubscribe(notifier)

    def _blocking_io(self, proc: Process, file: OpenFile, step: Callable,
                     on_pipe_full: bool = False):
        """Retry a non-blocking I/O step until it succeeds.

        ``EAGAIN`` means "would block": re-raise for O_NONBLOCK files, else
        wait and retry.  ``EPIPE`` generates SIGPIPE, like Linux.  When the
        file publishes readiness (sockets, pipes, event fds), a waitqueue
        notifier wakes the retry loop as soon as the peer makes progress.
        """
        notifier = None
        wq = None
        try:
            while True:
                try:
                    return step()
                except KernelError as exc:
                    if exc.errno == EPIPE:
                        proc.generate_signal(SIGPIPE)
                        raise
                    if exc.errno != EAGAIN:
                        raise
                    if file.nonblocking:
                        raise
                if proc.has_deliverable_signal() or \
                        proc.state != STATE_RUNNING:
                    raise KernelError(EINTR, "interrupted by signal")
                if notifier is None:
                    wq = file.wait_queue()
                    if wq is not None:
                        notifier = ProcNotifier(proc)
                        wq.subscribe(notifier)
                        continue  # readiness may have changed while subscribing
                self.sched.sleep(
                    proc,
                    _WQ_SLICE_S if notifier is not None else _BLOCK_SLICE_S,
                    notifier)
        finally:
            if notifier is not None and wq is not None:
                wq.unsubscribe(notifier)

    def storage_charge(self, nbytes: int) -> None:
        """Burn the storage device's simulated service time (kernel time)."""
        cost = self.storage_latency_ns_per_4k
        if not cost or nbytes <= 0:
            return
        total = cost * ((nbytes + 4095) // 4096)
        deadline = _time.perf_counter_ns() + total
        while _time.perf_counter_ns() < deadline:
            pass

    def notify_all_blocked(self) -> None:
        for p in list(self.processes.values()):
            with p.wake:
                p.wake.notify_all()

    # ------------------------------------------------------------------
    # console helpers (tests & examples)
    # ------------------------------------------------------------------

    def console_output(self) -> bytes:
        return bytes(self.console.output)

    def console_feed(self, data: bytes) -> None:
        self.console.feed(data)

    def clear_console(self) -> None:
        self.console.output.clear()
