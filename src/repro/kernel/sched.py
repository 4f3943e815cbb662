"""CFS-lite SMP scheduler: per-CPU run queues, work stealing, PI boosts.

Before this module existed, a blocked syscall was a condvar sleep on the
calling process and *every* runnable task ran whenever its host thread
was scheduled by the OS — the kernel model had no notion of CPU
contention, so kernel-time accounting (Fig. 7) measured service time on
an effectively idle machine.  This scheduler makes CPU time a real,
contended resource:

* the kernel owns ``ncpus`` **CPU slots**, each with its **own run
  queue**; a task must hold a slot to execute (guest code or syscall
  service),
* runnable tasks that don't hold a slot sit on a per-CPU queue ordered
  by *weighted virtual runtime* (CFS semantics: each task's clock
  advances at ``NICE_0_WEIGHT / weight(nice)`` of wall time, the task
  with the smallest vruntime runs next, FIFO among equals),
* **placement honors affinity**: a waking or newly attached task is
  placed on the least-loaded CPU its ``se.affinity`` mask allows
  (``0`` = all CPUs), preferring its previous CPU on ties,
* **idle CPUs steal**: a CPU whose own queue is empty pulls the
  lowest-vruntime runnable task from the busiest other queue, subject
  to the task's affinity — the scheduler is work-conserving across
  queues, not just within one,
* **migrations keep vruntime comparable**: each queue tracks its own
  ``min_vruntime``; a task moving between queues carries its *lag*
  (``vruntime - old_min``) rather than its absolute clock, so a task
  stolen from a long-running queue is neither starved nor handed the
  CPU forever on arrival,
* **preemption happens at syscall boundaries and timer ticks** exactly
  as before, and **blocking is scheduler-aware**: parked tasks release
  their slot and consume zero slice and zero vruntime.

Priority inheritance
--------------------
:meth:`Scheduler.set_boost` lets the futex layer lend a waiter's load
weight to a lock holder: the holder's effective weight becomes
``max(own weight, boost)`` until the boost is cleared at unlock.  A
nice+19 holder boosted by a nice−20 waiter accrues vruntime ~5900×
slower, so it wins the CPU back from mid-priority hogs and releases the
lock in bounded time — the classic priority-inversion fix
(``FUTEX_LOCK_PI``/``FUTEX_UNLOCK_PI`` in ``calls/proc.py``).

Service vs. runnable-wait accounting is unchanged from the single-queue
scheduler: ``kernel_time_ns`` (service), ``blocked_time_ns`` (event
sleeps) and ``sched_wait_ns`` (runnable-but-waiting) split every
syscall's latency into kernel cost vs contention.

Every way a task loses its CPU slot (block, yield, exit, preemption at
a schedule point or tick, an affinity move, a same-thread hand-off)
goes through :meth:`Scheduler._switch_out`, which charges the task,
frees the slot and counts the switch once: ``nvcsw`` for a block or
yield, ``nivcsw`` and the ``sched.preempt`` counter for everything
involuntary, so ``sched.preempt`` equals the sum of every task's
``nivcsw``.

Observability: ``sched.migrate`` / ``sched.steal`` counters and
``sched_migrate`` / ``sched_steal`` tracepoints fire on every cross-CPU
move; ``/proc/sched_debug`` renders one section per CPU (current task,
queue depth, ``min_vruntime``) above the per-task table.
"""

from __future__ import annotations

import heapq
import threading
import time as _time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from .errno import EINVAL, KernelError
from .trace import KernelTrace

# ---- nice levels and load weights (Linux sched_prio_to_weight) -----------

NICE_0_WEIGHT = 1024

# weight[nice + 20]: each nice level is ~1.25x the next (10% cpu per level)
_PRIO_TO_WEIGHT = (
    88761, 71755, 56483, 46273, 36291,          # -20 .. -16
    29154, 23254, 18705, 14949, 11916,          # -15 .. -11
    9548, 7620, 6100, 4904, 3906,               # -10 .. -6
    3121, 2501, 1991, 1586, 1277,               # -5 .. -1
    1024, 820, 655, 526, 423,                   # 0 .. 4
    335, 272, 215, 172, 137,                    # 5 .. 9
    110, 87, 70, 56, 45,                        # 10 .. 14
    36, 29, 23, 18, 15,                         # 15 .. 19
)

NICE_MIN, NICE_MAX = -20, 19


def nice_to_weight(nice: int) -> int:
    nice = max(NICE_MIN, min(NICE_MAX, nice))
    return _PRIO_TO_WEIGHT[nice + 20]


# ---- task scheduling states ----------------------------------------------

SCHED_NEW = "new"            # never ran; not yet on any queue
SCHED_RUNNABLE = "runnable"  # on a run queue, waiting for a CPU slot
SCHED_RUNNING = "running"    # holds a CPU slot
SCHED_BLOCKED = "blocked"    # off the run queue, parked on a waitqueue
SCHED_DEAD = "dead"          # exited; owns nothing

DEFAULT_SLICE_US = 2000.0    # 2 ms, between CFS min-granularity and latency
DEFAULT_NCPUS = 4            # the kernel's CPU count unless a spec says cpus=N


class SchedEntity:
    """Per-task scheduling state (``proc.se``)."""

    __slots__ = (
        "state", "vruntime_ns", "nice", "weight", "base_weight",
        "pi_weight", "cpu_time_ns", "wait_ns", "last_wait_ns",
        "blocked_ns", "wait_since_ns", "granted_at_ns", "last_charge_ns",
        "need_resched", "depth", "host_thread", "rq_entry", "affinity",
        "cpu", "migrations",
    )

    def __init__(self):
        self.state = SCHED_NEW
        self.vruntime_ns = 0
        self.nice = 0
        self.weight = NICE_0_WEIGHT       # effective: max(base, pi boost)
        self.base_weight = NICE_0_WEIGHT  # from the nice level alone
        self.pi_weight = 0                # PI ceiling lent by lock waiters
        self.cpu_time_ns = 0       # wall time spent holding a CPU slot
        self.wait_ns = 0           # cumulative runnable-but-not-running
        self.last_wait_ns = 0      # wait of the most recent grant
        self.blocked_ns = 0        # cumulative sleep (event wait) time
        self.wait_since_ns = 0
        self.granted_at_ns = 0     # slice start
        self.last_charge_ns = 0
        self.need_resched = False
        self.depth = 0             # syscall nesting (>0 = inside kernel)
        self.host_thread = 0       # ident of the thread that last ran us
        self.rq_entry = None       # our run-queue heap entry, if queued
        self.affinity = 0          # 0 = default mask (all cpus)
        self.cpu = -1              # run queue we live on (-1: unplaced)
        self.migrations = 0        # cross-CPU moves (placement + steals)

    def set_nice(self, nice: int) -> int:
        self.nice = max(NICE_MIN, min(NICE_MAX, nice))
        self.base_weight = nice_to_weight(self.nice)
        self.weight = max(self.base_weight, self.pi_weight)
        return self.nice

    def set_boost(self, weight: int) -> None:
        """Lend this task a priority-inheritance weight ceiling (0 clears
        the boost and restores the nice-derived weight)."""
        self.pi_weight = max(0, weight)
        self.weight = max(self.base_weight, self.pi_weight)


class CPURunQueue:
    """One CPU slot: its current task and its private vruntime queue."""

    __slots__ = ("index", "queue", "min_vruntime", "current")

    def __init__(self, index: int):
        self.index = index
        self.queue: List[tuple] = []   # heap of (vruntime, seq, proc)
        self.min_vruntime = 0          # this queue's own normalization base
        self.current = None            # the proc holding this slot


class Scheduler:
    """Per-CPU run queues with ``ncpus`` slots and CFS-lite pick order.

    ``ncpus`` must be at least 1, like ``slice_us`` must be positive;
    it is the kernel's one CPU count (``/proc/cpuinfo`` and the affinity
    syscalls read it).  A scheduler built without a kernel (tests drive
    one directly) keeps its own :class:`~repro.kernel.trace.KernelTrace`
    until a kernel adopts it.  The scheduler owns the per-thread-group
    runnable-wait and blocked-time tallies, which the kernel exposes as
    ``sched_wait_ns`` and ``blocked_time_ns``.

    The scheduler never runs its own thread.  Grants happen inline when
    a slot frees (block / yield / exit / preemption), and the *waiters*
    drive the timer tick: a task waiting for a slot wakes at the next
    slice expiry and preempts any user-mode holder whose slice is over.
    Tasks inside a syscall are non-preemptible (like a non-preempt
    kernel) — they get marked ``need_resched`` and yield at the next
    schedule point (syscall entry or exit).

    Dispatch runs two deterministic passes over the CPUs in index
    order: each free slot first picks from its own queue, then any slot
    still idle steals the lowest-vruntime eligible task from the
    busiest other queue — so no slot ever idles while affinity permits
    it to run someone.
    """

    def __init__(self, ncpus: int = DEFAULT_NCPUS,
                 slice_us: float = DEFAULT_SLICE_US,
                 kernel=None, clock: Optional[Callable[[], int]] = None):
        if slice_us <= 0:
            raise KernelError(EINVAL, "slice_us must be > 0")
        self.ncpus = int(ncpus)
        if self.ncpus < 1:
            raise KernelError(EINVAL, "ncpus must be >= 1")
        self.slice_ns = int(slice_us * 1000)
        self.kernel = kernel
        # kernel observability (kernel/trace.py); the kernel creates its
        # KernelTrace before the scheduler, so this is safe at attach
        self.trace = kernel.trace if kernel is not None else KernelTrace()
        self._now: Callable[[], int] = clock or _time.monotonic_ns
        self._cv = threading.Condition()
        self._procs: Dict[int, object] = {}    # live attached tasks
        self._running: Dict[int, object] = {}  # pid -> proc holding a slot
        self._rqs = [CPURunQueue(i) for i in range(self.ncpus)]
        self._seq = 0
        self._nr_runnable = 0                  # across all queues
        self._nr_waiting = 0                   # threads blocked in acquire
        self._contended = False                # lock-free fast-path hint
        # per-tgid runnable-wait and blocked ns (Kernel.sched_wait_ns and
        # Kernel.blocked_time_ns)
        self.wait_ns_by_tgid: Dict[int, int] = defaultdict(int)
        self.blocked_ns_by_tgid: Dict[int, int] = defaultdict(int)

    # ------------------------------------------------------------------
    # introspection (tests, /proc-style reporting)
    # ------------------------------------------------------------------

    def describe(self) -> str:
        return f"sched:cpus={self.ncpus},slice_us={self.slice_ns / 1000:g}"

    @property
    def min_vruntime(self) -> int:
        """The most-advanced queue's normalization base (on a 1-CPU
        scheduler: *the* min_vruntime, as before the SMP split)."""
        return max(rq.min_vruntime for rq in self._rqs)

    def live_pids(self) -> List[int]:
        with self._cv:
            return sorted(self._procs)

    def running_pids(self) -> List[int]:
        with self._cv:
            return sorted(self._running)

    def runnable_pids(self) -> List[int]:
        with self._cv:
            return sorted(p.pid for p in self._procs.values()
                          if p.se.state == SCHED_RUNNABLE)

    def blocked_pids(self) -> List[int]:
        with self._cv:
            return sorted(p.pid for p in self._procs.values()
                          if p.se.state == SCHED_BLOCKED)

    def cpu_snapshot(self) -> List[dict]:
        """Per-CPU state for ``/proc/sched_debug`` and the SMP tests."""
        with self._cv:
            out = []
            for rq in self._rqs:
                queued = sorted(entry[2].pid for entry in rq.queue)
                out.append({
                    "cpu": rq.index,
                    "current": rq.current.pid if rq.current is not None
                    else None,
                    "nr_runnable": len(rq.queue),
                    "min_vruntime": rq.min_vruntime,
                    "queued": queued,
                })
            return out

    # ------------------------------------------------------------------
    # core transitions (non-blocking; safe to drive directly in tests)
    # ------------------------------------------------------------------

    def task_attach(self, proc) -> None:
        """A new task becomes runnable (first schedule of its life)."""
        with self._cv:
            if proc.pid in self._procs or proc.se.state == SCHED_DEAD:
                return
            now = self._now()
            self._place(proc, now, was_blocked=False)
            self._dispatch(now)

    def task_block(self, proc) -> None:
        """Voluntarily leave the CPU (or the run queue) to wait for an
        event.  The task keeps its vruntime; it consumes no slice while
        blocked."""
        with self._cv:
            se = proc.se
            now = self._now()
            if se.state == SCHED_RUNNING:
                self._switch_out(proc, now, True)
            elif se.state == SCHED_RUNNABLE:
                self._dequeue(proc)
            elif se.state == SCHED_NEW:
                self._procs[proc.pid] = proc  # first contact: attach
            else:
                return
            se.state = SCHED_BLOCKED
            self._dispatch(now)

    def task_wake(self, proc) -> None:
        """Make a blocked task runnable again (idempotent: waking a task
        that is already runnable, running, or dead is a no-op — a task
        can never be enqueued twice)."""
        with self._cv:
            se = proc.se
            if se.state not in (SCHED_BLOCKED, SCHED_NEW):
                return
            now = self._now()
            self._place(proc, now,
                        was_blocked=(se.state == SCHED_BLOCKED))
            self._dispatch(now)

    def task_yield(self, proc) -> None:
        """``sched_yield``: put ourselves behind every task of equal or
        lower vruntime on our queue, then re-contend.  A lone task keeps
        running."""
        with self._cv:
            se = proc.se
            if se.state != SCHED_RUNNING or not self._has_runnable():
                return
            now = self._now()
            self._switch_out(proc, now, True)
            # CFS yield: jump past the leftmost entity so equals go first
            head = self._peek(self._rqs[se.cpu])
            if head is not None:
                se.vruntime_ns = max(se.vruntime_ns, head)
            self._enqueue(proc, now)
            self._dispatch(now)

    def task_exit(self, proc) -> None:
        """The task is gone: free its slot, purge every queue."""
        with self._cv:
            se = proc.se
            now = self._now()
            if se.state == SCHED_RUNNING:
                self._switch_out(proc, now, None)
            elif se.state == SCHED_RUNNABLE:
                self._dequeue(proc)
            se.state = SCHED_DEAD
            self._procs.pop(proc.pid, None)
            self._dispatch(now)

    def tick(self) -> None:
        """One timer tick: preempt user-mode slot holders whose slice is
        over.  Contending waiters call this on their own (see
        :meth:`_acquire`); it is public for tests and simulations."""
        with self._cv:
            self._steal_expired(self._now())

    def check_preempt(self, proc) -> bool:
        """Schedule point: give up the slot if our slice expired or a
        wakeup marked us for preemption (and someone is waiting).
        Returns True when the CPU was lost."""
        with self._cv:
            return self._preempt_locked(proc)

    def set_nice(self, proc, nice: int) -> int:
        with self._cv:
            # close out the old weight before the exchange rate changes
            self._charge(proc, self._now())
            return proc.se.set_nice(nice)

    def set_boost(self, proc, weight: int) -> None:
        """Apply (or clear, with 0) a priority-inheritance boost: the
        task's effective weight becomes ``max(own, weight)``.  Time run
        before the change is charged at the old weight."""
        with self._cv:
            self._charge(proc, self._now())
            proc.se.set_boost(weight)

    def set_affinity(self, proc, mask: int) -> None:
        """Update a task's CPU mask and migrate it off any CPU the new
        mask forbids.  Runnable tasks are re-placed immediately; a task
        running *user* code is moved in absentia; a task inside a
        syscall is marked for preemption and re-places itself at its
        next schedule point."""
        with self._cv:
            se = proc.se
            se.affinity = mask
            if se.cpu < 0 or self._cpu_allowed(se, se.cpu):
                return
            now = self._now()
            if se.state == SCHED_RUNNABLE:
                self._dequeue(proc)
                self._enqueue(proc, now, repick=True)
                self._dispatch(now)
            elif se.state == SCHED_RUNNING:
                if se.depth > 0:
                    se.need_resched = True  # moves at syscall exit
                else:
                    self._switch_out(proc, now, False, repick=True)
                    self._dispatch(now)
            # blocked/new tasks re-place themselves on wakeup

    # ------------------------------------------------------------------
    # kernel-facing blocking API
    # ------------------------------------------------------------------

    def syscall_enter(self, proc) -> None:
        """Acquire a CPU slot (schedule point at the syscall boundary)."""
        se = proc.se
        se.depth += 1
        if se.depth > 1:
            return  # nested kernel entry: the slot is already ours
        # Lock-free fast path.  Safe against concurrent slot-steals:
        # stealing only ever happens from a waiter's _acquire loop,
        # which sets _contended = True (under _cv) before its first
        # steal and keeps it True until it exits — so whenever a steal
        # can be in flight, this check fails and we take the locked
        # slow path.  The depth bump above additionally makes us
        # non-stealable from here on.
        if se.state == SCHED_RUNNING and not se.need_resched \
                and not self._contended:
            return  # idle kernel, we already hold a slot
        self._acquire(proc)

    def syscall_exit(self, proc) -> None:
        """Syscall-boundary preemption on the way back to user code."""
        se = proc.se
        if se.depth > 0:
            se.depth -= 1
        if se.depth == 0 and se.need_resched and se.state == SCHED_RUNNING:
            # release without waiting: the task returns to user code
            # unscheduled and re-contends at its next kernel entry
            with self._cv:
                if se.need_resched and se.state == SCHED_RUNNING \
                        and (self._has_runnable()
                             or not self._cpu_allowed(se, se.cpu)):
                    now = self._now()
                    self._switch_out(proc, now, False)
                    self._dispatch(now)

    def sleep(self, proc, wait_s: float) -> bool:
        """Scheduler-aware blocking: release the CPU slot, sleep on the
        process wake condition for at most ``wait_s`` seconds unless a
        :meth:`~repro.kernel.process.Process.kick` is already pending,
        then re-contend for a slot.  Consumes the kick and returns
        whether there was one (False: the sleep ran out).  Sleep time
        lands in ``blocked_time_ns``; re-contention in ``sched_wait_ns``."""
        self.task_block(proc)
        se = proc.se
        w0 = self._now()
        with proc.wake:
            if not proc.kicked:
                proc.wake.wait(wait_s)
            kicked, proc.kicked = proc.kicked, False
        dt = self._now() - w0
        se.blocked_ns += dt
        self.blocked_ns_by_tgid[proc.tgid] += dt
        self._acquire(proc)
        return kicked

    def yield_now(self, proc) -> None:
        """Blocking ``sched_yield``: requeue and wait to be picked again."""
        self.task_yield(proc)
        if proc.se.state != SCHED_RUNNING:
            self._acquire(proc)

    # ------------------------------------------------------------------
    # internals (call with self._cv held)
    # ------------------------------------------------------------------

    def _charge(self, proc, now: int) -> None:
        """Accrue wall time held on a CPU into cpu_time and vruntime."""
        se = proc.se
        if se.state != SCHED_RUNNING:
            return
        dt = now - se.last_charge_ns
        if dt > 0:
            se.cpu_time_ns += dt
            se.vruntime_ns += dt * NICE_0_WEIGHT // se.weight
            se.last_charge_ns = now

    def _cpu_allowed(self, se, cpu: int) -> bool:
        return not se.affinity or bool(se.affinity >> cpu & 1)

    def _eligible_cpus(self, se) -> List[int]:
        if not se.affinity:
            return list(range(self.ncpus))
        cpus = [c for c in range(self.ncpus) if se.affinity >> c & 1]
        return cpus or list(range(self.ncpus))

    def _select_cpu(self, se) -> int:
        """Least-loaded eligible CPU; previous CPU wins ties, then the
        lowest index (deterministic under the seeded logical clock)."""
        best, best_key = 0, None
        for c in self._eligible_cpus(se):
            rq = self._rqs[c]
            load = len(rq.queue) + (0 if rq.current is None else 1)
            key = (load, 0 if c == se.cpu else 1, c)
            if best_key is None or key < best_key:
                best_key, best = key, c
        return best

    def _migrate(self, proc, cpu: int, steal: bool = False) -> None:
        """Move a task to ``cpu``, renormalizing vruntime: the task
        carries its lag relative to the old queue's min_vruntime, not
        its absolute clock, so cross-queue picks stay comparable."""
        se = proc.se
        old = se.cpu
        if old == cpu:
            return
        if old >= 0:
            shift = self._rqs[cpu].min_vruntime \
                - self._rqs[old].min_vruntime
            se.vruntime_ns = max(0, se.vruntime_ns + shift)
            se.migrations += 1
            self.trace.counters.inc(
                "sched.steal" if steal else "sched.migrate")
            self.trace.emit("sched_steal" if steal else "sched_migrate",
                            pid=proc.pid, arg=cpu)
        se.cpu = cpu

    def _switch_out(self, proc, now: int, voluntary: Optional[bool],
                    absent: bool = True, repick: bool = False) -> None:
        """The one place a running task loses its CPU slot: charge its
        run time, free the slot and count the context switch.

        ``voluntary=True`` (block, yield) counts ``nvcsw``.
        ``voluntary=False`` (preemption at a schedule point or tick, an
        affinity move, a same-thread hand-off) counts ``nivcsw`` and the
        ``sched.preempt`` counter, fires ``sched_preempt`` and requeues
        the task (``absent`` and ``repick`` as for :meth:`_enqueue`).
        ``None`` (exit) counts nothing.  The caller sets any other new
        state and dispatches the freed slot.
        """
        se = proc.se
        self._charge(proc, now)
        self._running.pop(proc.pid, None)
        rq = self._rqs[se.cpu]
        if rq.current is proc:
            rq.current = None
        se.need_resched = False
        if voluntary:
            proc.rusage.nvcsw += 1
        elif voluntary is not None:
            proc.rusage.nivcsw += 1
            trace = self.trace
            trace.cells["sched.preempt"] += 1
            if trace.enabled or trace.probes is not None:
                ran = now - se.granted_at_ns
                trace.emit("sched_preempt", pid=proc.pid, arg=ran,
                           args=(ran, se.vruntime_ns))
            self._enqueue(proc, now, absent=absent, repick=repick)

    def _enqueue(self, proc, now: int, wakeup: bool = False,
                 absent: bool = False, repick: bool = False) -> None:
        """``absent`` marks a task preempted *in absentia* (its host
        thread is still executing user code elsewhere): it is runnable
        but not stalled, so its runnable-wait clock only starts when it
        actually arrives at a schedule point (see :meth:`_acquire`).
        ``repick`` forces a fresh placement decision (wakeups); plain
        requeues stay on their CPU unless affinity forbids it."""
        se = proc.se
        if se.rq_entry is not None:
            return  # already queued; never twice
        if repick or se.cpu < 0 or not self._cpu_allowed(se, se.cpu):
            self._migrate(proc, self._select_cpu(se))
        rq = self._rqs[se.cpu]
        se.state = SCHED_RUNNABLE
        se.wait_since_ns = -1 if absent else now
        self._seq += 1
        se.rq_entry = (se.vruntime_ns, self._seq, proc)
        heapq.heappush(rq.queue, se.rq_entry)
        self._nr_runnable += 1
        self._contended = True
        if wakeup:
            self._maybe_mark_preempt(se)

    def _dequeue(self, proc) -> None:
        """Take a queued task off its run queue (queues hold no stale
        entries: a task leaves its queue the moment it stops waiting)."""
        se = proc.se
        if se.rq_entry is not None:
            queue = self._rqs[se.cpu].queue
            queue.remove(se.rq_entry)
            heapq.heapify(queue)
            se.rq_entry = None
            self._nr_runnable -= 1

    def _place(self, proc, now: int, was_blocked: bool) -> None:
        """Admit a new or woken task onto a run queue (one place for
        the placement policy, used by attach, wake, and acquire).

        Placement picks the least-loaded CPU the task's affinity mask
        allows.  Sleeper placement, both directions: cap the lag (an
        ancient vruntime must not starve everyone) but grant woken
        sleepers one slice of bonus below the target queue's
        min_vruntime, so an I/O-bound task that just woke preempts
        CPU-bound tasks promptly (CFS's sleeper fairness).  New tasks
        start exactly at min_vruntime: no credit for being born late,
        no penalty versus long-running peers.
        """
        se = proc.se
        if proc.pid not in self._procs:
            self._procs[proc.pid] = proc
        self._refresh(now)
        self._migrate(proc, self._select_cpu(se))
        rq = self._rqs[se.cpu]
        floor = rq.min_vruntime - self.slice_ns if was_blocked \
            else rq.min_vruntime
        se.vruntime_ns = max(se.vruntime_ns, floor)
        self._enqueue(proc, now, wakeup=was_blocked)
        if was_blocked:
            self.trace.counters.inc("sched.wakeup")
            self.trace.emit("sched_wakeup", pid=proc.pid,
                            arg=se.vruntime_ns,
                            args=(se.vruntime_ns, se.cpu))

    def _maybe_mark_preempt(self, woken_se) -> None:
        """Wakeup preemption: if the woken task out-prioritizes a task
        running on one of its eligible CPUs by more than the wakeup
        granularity, mark that task for preemption at its next schedule
        point (or tick)."""
        cpus = self._eligible_cpus(woken_se)
        if any(self._rqs[c].current is None for c in cpus):
            return  # a free eligible slot will serve the wakeup directly
        gran = self.slice_ns // 2
        victim = None
        worst = woken_se.vruntime_ns + gran
        for c in cpus:
            p = self._rqs[c].current
            if p.se.vruntime_ns > worst and not p.se.need_resched:
                worst = p.se.vruntime_ns
                victim = p
        if victim is not None:
            victim.se.need_resched = True

    def _has_runnable(self) -> bool:
        return self._nr_runnable > 0

    def _peek(self, rq: CPURunQueue) -> Optional[int]:
        """The queue head's vruntime."""
        return rq.queue[0][0] if rq.queue else None

    def _pick(self, rq: CPURunQueue):
        """Pop this queue's lowest-vruntime task, or None."""
        if not rq.queue:
            return None
        proc = heapq.heappop(rq.queue)[2]
        proc.se.rq_entry = None
        self._nr_runnable -= 1
        return proc

    def _steal_for(self, rq: CPURunQueue):
        """Idle balance: pull the lowest-vruntime task this CPU may run
        from the busiest other queue.  Deterministic victim order:
        most-runnable first, then lowest index."""
        victims = sorted((v for v in self._rqs if v is not rq and v.queue),
                         key=lambda v: (-len(v.queue), v.index))
        for v in victims:
            best = None
            for entry in v.queue:  # (vruntime, seq) order; seq is unique
                if self._cpu_allowed(entry[2].se, rq.index) \
                        and (best is None or entry < best):
                    best = entry
            if best is None:
                continue
            proc = best[2]
            self._dequeue(proc)
            self._migrate(proc, rq.index, steal=True)
            return proc
        return None

    def _grant(self, proc, rq: CPURunQueue, now: int) -> None:
        se = proc.se
        se.state = SCHED_RUNNING
        rq.current = proc
        self._running[proc.pid] = proc
        # absent tasks (wait_since < 0) were executing user code the
        # whole time: no wall-clock stall to account
        waited = max(now - se.wait_since_ns, 0) \
            if se.wait_since_ns >= 0 else 0
        se.wait_ns += waited
        se.last_wait_ns = waited
        self.wait_ns_by_tgid[proc.tgid] += waited
        se.granted_at_ns = now
        se.last_charge_ns = now
        self.trace.counters.inc("sched.switch")
        self.trace.emit("sched_switch", pid=proc.pid, arg=waited,
                        args=(waited, se.vruntime_ns, se.nice, se.cpu))

    def _dispatch(self, now: int) -> None:
        """Fill free CPU slots: each from its own queue first, then
        idle slots steal — no slot idles while affinity permits work."""
        granted = False
        for rq in self._rqs:
            if rq.current is None:
                proc = self._pick(rq)
                if proc is not None:
                    self._grant(proc, rq, now)
                    granted = True
        for rq in self._rqs:
            if rq.current is None and self._nr_runnable > 0:
                proc = self._steal_for(rq)
                if proc is not None:
                    self._grant(proc, rq, now)
                    granted = True
        self._update_min_vruntime()
        self._contended = self._nr_runnable > 0 or self._nr_waiting > 0
        if granted:
            self._cv.notify_all()

    def _refresh(self, now: int) -> None:
        """Settle every running task's clock so placement decisions (new
        arrivals, wakeups) see current vruntimes, not stale ones."""
        for p in self._running.values():
            self._charge(p, now)
        self._update_min_vruntime()

    def _update_min_vruntime(self) -> None:
        for rq in self._rqs:
            cands = []
            if rq.current is not None:
                cands.append(rq.current.se.vruntime_ns)
            head = self._peek(rq)
            if head is not None:
                cands.append(head)
            if cands:
                rq.min_vruntime = max(rq.min_vruntime, min(cands))

    def _preempt_locked(self, proc) -> bool:
        se = proc.se
        now = self._now()
        # always settle the clock: vruntime and min_vruntime stay fresh
        # even when no preemption happens (a lone task's runtime must be
        # on the books by the time a competitor shows up)
        self._charge(proc, now)
        self._update_min_vruntime()
        if se.state != SCHED_RUNNING or not self._has_runnable():
            se.need_resched = False
            return False
        if not se.need_resched and now - se.granted_at_ns < self.slice_ns:
            return False
        self._switch_out(proc, now, False, absent=False)
        self._dispatch(now)
        return se.state != SCHED_RUNNING

    def _steal_expired(self, now: int) -> None:
        """The timer tick, run by waiters: preempt user-mode slot holders
        whose slice expired (or who are marked for preemption).  Tasks
        inside a syscall (depth > 0) are never stolen from — they yield
        at their next schedule point."""
        if not self._has_runnable() and self._nr_waiting == 0:
            return
        gran = max(self.slice_ns // 4, 1)
        for proc in list(self._running.values()):
            se = proc.se
            if se.depth > 0:
                continue
            ran = now - se.granted_at_ns
            if ran >= self.slice_ns or (se.need_resched and ran >= gran):
                self._switch_out(proc, now, False)
        if self.kernel is not None and self.kernel.perf.active:
            self.kernel.perf.on_tick(self._running.values())
        self._dispatch(now)

    def _steal_timeout_s(self, now: int) -> float:
        """How long a slot waiter sleeps before running the tick: until
        the earliest user-mode holder's slice expires."""
        best = None
        for proc in self._running.values():
            se = proc.se
            if se.depth > 0:
                continue
            remaining = se.granted_at_ns + self.slice_ns - now
            if best is None or remaining < best:
                best = remaining
        if best is None:
            best = self.slice_ns  # heartbeat; in-kernel holders notify
        return min(max(best / 1e9, 50e-6), 0.05)

    def _acquire(self, proc) -> None:
        """Block until the task holds a CPU slot (runnable-wait)."""
        se = proc.se
        me = threading.get_ident()
        with self._cv:
            if se.state == SCHED_DEAD:
                return  # exited tasks run free (exit-path bookkeeping)
            now = self._now()
            if se.state == SCHED_RUNNING:
                if not self._preempt_locked(proc):
                    se.host_thread = me
                    return
            # one host thread drives one task at a time: any slot still
            # held by a task this thread ran earlier is provably idle —
            # context-switch it out rather than waiting for its slice
            for other in list(self._running.values()):
                ose = other.se
                if other is not proc and ose.host_thread == me \
                        and ose.depth == 0:
                    self._switch_out(other, now, False)
            if se.state in (SCHED_NEW, SCHED_BLOCKED):
                self._place(proc, now,
                            was_blocked=(se.state == SCHED_BLOCKED))
            self._dispatch(now)
            if se.state == SCHED_RUNNING:
                se.host_thread = me
                return
            if se.state == SCHED_RUNNABLE and se.wait_since_ns < 0:
                # preempted in absentia earlier; we just arrived at a
                # schedule point, so the genuine stall starts now
                se.wait_since_ns = now
            self._nr_waiting += 1
            self._contended = True
            try:
                while se.state not in (SCHED_RUNNING, SCHED_DEAD):
                    self._cv.wait(self._steal_timeout_s(now))
                    now = self._now()
                    self._steal_expired(now)
            finally:
                self._nr_waiting -= 1
                self._contended = \
                    self._nr_runnable > 0 or self._nr_waiting > 0
            se.host_thread = me


def create_scheduler(spec=None, kernel=None):
    """Resolve a scheduler spec: None (:data:`DEFAULT_NCPUS` CPUs), an
    instance, or ``"[sched:]cpus=N,slice_us=X"``."""
    if spec is None:
        return Scheduler(kernel=kernel)
    if isinstance(spec, Scheduler):
        if kernel is not None and spec.kernel is None:
            spec.kernel = kernel
            spec.trace = kernel.trace
        return spec
    text = str(spec)
    if text.startswith("sched:"):
        text = text[len("sched:"):]
    opts = {}
    for item in text.split(","):
        if not item:
            continue
        key, sep, value = item.partition("=")
        opts[key.strip()] = value.strip() if sep else "1"
    try:
        cpus = int(opts.pop("cpus", DEFAULT_NCPUS))
        slice_us = float(opts.pop("slice_us", DEFAULT_SLICE_US))
    except ValueError as exc:
        raise KernelError(EINVAL, f"bad sched spec {spec!r}: {exc}")
    if opts:
        raise KernelError(EINVAL,
                          f"unknown sched options: {sorted(opts)}")
    return Scheduler(ncpus=cpus, slice_us=slice_us, kernel=kernel)


class BackgroundSpinners:
    """CPU-bound guest load for contention tests and benchmarks.

    Each spinner is a kernel process driven by a host thread in a tight
    syscall loop (``getpid`` by default: cheap, non-blocking, so the
    spinner holds its CPU slot for whole slices and is preempted at
    syscall boundaries like any CPU-bound guest).  Use as a context
    manager or call :meth:`start` / :meth:`stop`.
    """

    def __init__(self, kernel, n: int = 2, syscall: str = "getpid",
                 nice: int = 0, affinity: int = 0):
        self.kernel = kernel
        self.n = n
        self.syscall = syscall
        self.nice = nice
        self.affinity = affinity
        self.procs = []
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()

    def start(self) -> "BackgroundSpinners":
        for i in range(self.n):
            proc = self.kernel.create_process([f"spinner{i}"], stdio=False)
            if self.nice:
                proc.se.set_nice(self.nice)
            if self.affinity:
                proc.se.affinity = self.affinity
            self.procs.append(proc)
            t = threading.Thread(target=self._spin, args=(proc,),
                                 daemon=True, name=f"spinner-{proc.pid}")
            self._threads.append(t)
            t.start()
        return self

    def _spin(self, proc) -> None:
        call = self.kernel.call
        name = self.syscall
        try:
            while not self._stop.is_set():
                call(proc, name)
        except KernelError:
            pass
        finally:
            try:
                if proc.state == "running":
                    call(proc, "exit", 0)
            except KernelError:
                pass

    def stop(self) -> None:
        self._stop.set()
        for t in self._threads:
            t.join(timeout=10)
        self._threads.clear()

    def cpu_times_ns(self) -> List[int]:
        return [p.se.cpu_time_ns for p in self.procs]

    def __enter__(self) -> "BackgroundSpinners":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
