"""SMP scheduler + PI futex tests: affinity-honored placement, work
stealing, migration normalization, futex wake count/ordering, priority
inheritance across lock handoff, and the starvation regression.

The scheduler tests drive the state machine with a fake clock (no
threads, fully deterministic — these run in the CI determinism job);
the futex tests go through ``Kernel.call`` with real waiter threads.
"""

import threading
import time

import pytest

from repro.kernel import (
    FUTEX_LOCK_PI, FUTEX_UNLOCK_PI, FUTEX_WAIT, FUTEX_WAKE, Kernel,
    KernelError, Process, Scheduler, TRACEPOINTS, nice_to_weight,
)
from repro.kernel.errno import (
    EDEADLK, EINVAL, EPERM, ETIMEDOUT,
)
from repro.kernel.sched import SCHED_RUNNABLE, SCHED_RUNNING

SLICE_US = 100


class FakeClock:
    def __init__(self):
        self.ns = 0

    def __call__(self):
        return self.ns

    def advance_us(self, us):
        self.ns += int(us * 1000)


def make_sched(ncpus, slice_us=SLICE_US):
    clock = FakeClock()
    return Scheduler(ncpus=ncpus, slice_us=slice_us, clock=clock), clock


def make_tasks(n):
    return [Process(i + 1, 0) for i in range(n)]


def spin_until(pred, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not pred():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.002)


# --------------------------------------------------------------------------
# placement honors affinity
# --------------------------------------------------------------------------

class TestAffinityPlacement:
    def test_pinned_task_lands_on_its_cpu(self):
        sched, _ = make_sched(ncpus=4)
        (t1,) = make_tasks(1)
        t1.se.affinity = 0b0100  # cpu 2 only
        sched.task_attach(t1)
        assert t1.se.state == SCHED_RUNNING
        assert t1.se.cpu == 2
        snap = sched.cpu_snapshot()
        assert snap[2]["current"] == t1.pid
        assert all(s["current"] is None for s in snap if s["cpu"] != 2)

    def test_unpinned_tasks_spread_one_per_cpu(self):
        sched, _ = make_sched(ncpus=4)
        tasks = make_tasks(4)
        for t in tasks:
            sched.task_attach(t)
        assert sorted(t.se.cpu for t in tasks) == [0, 1, 2, 3]
        assert all(t.se.state == SCHED_RUNNING for t in tasks)

    def test_least_loaded_eligible_cpu_wins(self):
        sched, _ = make_sched(ncpus=4)
        tasks = make_tasks(6)
        for t in tasks[:4]:
            sched.task_attach(t)     # one per CPU
        # extra unpinned task queues on cpu 0 (all tied, lowest index)
        sched.task_attach(tasks[4])
        assert tasks[4].se.cpu == 0
        # a task allowed only {2, 3} must go there even though cpu 1
        # has the same load — and not to cpu 0, which is now busier
        tasks[5].se.affinity = 0b1100
        sched.task_attach(tasks[5])
        assert tasks[5].se.cpu in (2, 3)

    def test_queued_task_waits_for_its_cpu_even_if_others_idle(self):
        sched, _ = make_sched(ncpus=2)
        t1, t2 = make_tasks(2)
        sched.task_attach(t1)        # cpu 0
        t2.se.affinity = 0b01        # pinned to the busy cpu 0
        sched.task_attach(t2)
        assert t2.se.state == SCHED_RUNNABLE
        assert t2.se.cpu == 0
        assert sched.cpu_snapshot()[1]["current"] is None  # stays idle

    def test_setaffinity_migrates_queued_task(self):
        sched, _ = make_sched(ncpus=2)
        t1, t2, t3 = make_tasks(3)
        sched.task_attach(t1)        # cpu 0
        sched.task_attach(t2)        # cpu 1
        sched.task_attach(t3)        # queued on cpu 0
        assert (t3.se.state, t3.se.cpu) == (SCHED_RUNNABLE, 0)
        sched.set_affinity(t3, 0b10)
        assert t3.se.cpu == 1
        assert t3.pid in sched.cpu_snapshot()[1]["queued"]
        assert t3.se.migrations == 1

    def test_setaffinity_moves_running_user_task(self):
        sched, _ = make_sched(ncpus=2)
        t1, t2 = make_tasks(2)
        sched.task_attach(t1)        # cpu 0, depth 0 (user mode)
        sched.task_attach(t2)        # cpu 1
        sched.set_affinity(t1, 0b10)
        # evicted from cpu 0 in absentia, queued on cpu 1 behind t2
        assert t1.se.state == SCHED_RUNNABLE
        assert t1.se.cpu == 1


# --------------------------------------------------------------------------
# work stealing
# --------------------------------------------------------------------------

class TestWorkStealing:
    def test_idle_cpu_steals_from_busiest_queue(self):
        sched, _ = make_sched(ncpus=2)
        t1, t2, t3 = make_tasks(3)
        sched.task_attach(t1)        # cpu 0
        sched.task_attach(t2)        # cpu 1
        sched.task_attach(t3)        # queued on cpu 0
        sched.task_block(t2)         # cpu 1 idles, its queue empty
        assert t3.se.state == SCHED_RUNNING
        assert t3.se.cpu == 1        # stolen across
        assert sched.trace.counters.get("sched.steal") == 1
        assert t3.se.migrations == 1

    def test_steal_respects_affinity(self):
        sched, _ = make_sched(ncpus=4)
        tasks = make_tasks(5)
        for t in tasks[:4]:
            sched.task_attach(t)     # fill all four CPUs
        pinned = tasks[4]
        pinned.se.affinity = 0b0001  # cpu 0 only
        sched.task_attach(pinned)    # queues on cpu 0
        sched.task_block(tasks[3])   # cpu 3 goes idle
        # cpu 3 may not steal the pinned task: it stays queued on cpu 0
        assert pinned.se.state == SCHED_RUNNABLE
        assert pinned.se.cpu == 0
        assert sched.trace.counters.get("sched.steal") == 0
        assert sched.cpu_snapshot()[3]["current"] is None

    def test_steal_takes_lowest_vruntime_eligible(self):
        sched, clock = make_sched(ncpus=2)
        t1, t2, a, b = make_tasks(4)
        sched.task_attach(t1)        # cpu 0
        sched.task_attach(t2)        # cpu 1
        sched.task_attach(a)         # queued cpu 0
        sched.task_attach(b)         # queued cpu 1 (load tie resolved 0,1)
        assert {a.se.cpu, b.se.cpu} == {0, 1}
        # give the queued tasks distinct vruntimes, then open one slot
        a.se.vruntime_ns = 500
        b.se.vruntime_ns = 200
        sched.task_block(t1)         # cpu 0 frees; picks locally first
        assert a.se.state == SCHED_RUNNING  # its own queue wins

    def test_migration_renormalizes_vruntime(self):
        sched, clock = make_sched(ncpus=2)
        t1, t2, t3 = make_tasks(3)
        sched.task_attach(t1)        # cpu 0
        sched.task_attach(t2)        # cpu 1
        clock.advance_us(1000)
        sched.check_preempt(t1)      # charge: cpu 0 min_vruntime -> 1ms
        sched.check_preempt(t2)
        sched.task_attach(t3)        # queued (both cpus busy)
        vrt0 = t3.se.vruntime_ns
        victim = t1 if t3.se.cpu == 0 else t2
        other = t2 if victim is t1 else t1
        sched.task_block(other)      # other cpu idles -> steals t3
        assert t3.se.state == SCHED_RUNNING
        assert t3.se.cpu == other.se.cpu
        # lag against the source queue carried over, never negative
        assert t3.se.vruntime_ns >= 0
        shift = abs(t3.se.vruntime_ns - vrt0)
        assert shift <= max(sched._rqs[0].min_vruntime,
                            sched._rqs[1].min_vruntime)

    def test_steal_emits_counter_and_tracepoint(self):
        assert "sched_migrate" in TRACEPOINTS
        assert "sched_steal" in TRACEPOINTS
        k = Kernel(trace="on")
        clock = FakeClock()
        sched = Scheduler(ncpus=2, slice_us=SLICE_US, kernel=k,
                          clock=clock)
        t1, t2, t3 = make_tasks(3)
        for t in (t1, t2, t3):
            sched.task_attach(t)
        base = k.trace.counters.get("sched.steal")
        sched.task_block(t2)
        assert k.trace.counters.get("sched.steal") == base + 1
        steal_id = TRACEPOINTS.index("sched_steal")
        assert any(ev.id == steal_id for ev in k.trace.buffer._q)
        k.trace.close()


# --------------------------------------------------------------------------
# affinity syscalls (kernel level)
# --------------------------------------------------------------------------

class TestAffinitySyscalls:
    def test_empty_effective_mask_rejected(self):
        k = Kernel(sched="cpus=1")
        p = k.create_process(["t"], stdio=False)
        with pytest.raises(KernelError) as ei:
            k.call(p, "sched_setaffinity", 0, 1 << 8)
        assert ei.value.errno == EINVAL

    def test_mask_validated_against_sched_cpus(self):
        # the scheduler's CPU count is the kernel's only one
        k = Kernel(sched="cpus=1,slice_us=100")
        p = k.create_process(["t"], stdio=False)
        with pytest.raises(KernelError):
            k.call(p, "sched_setaffinity", 0, 0b10)  # only cpu 1: invalid
        assert k.call(p, "sched_setaffinity", 0, 0b11) == 0
        assert k.call(p, "sched_getaffinity", 0) == 0b01  # truncated

    def test_set_get_roundtrip_and_placement(self):
        k = Kernel(sched="cpus=4")
        p = k.create_process(["t"], stdio=False)
        assert k.call(p, "sched_getaffinity", 0) == 0b1111
        k.call(p, "sched_setaffinity", 0, 0b0100)
        assert k.call(p, "sched_getaffinity", 0) == 0b0100
        # the calling task itself re-places at the next schedule point
        k.call(p, "getpid")
        assert p.se.cpu == 2


# --------------------------------------------------------------------------
# futex wake count and ordering
# --------------------------------------------------------------------------

UADDR = 0x2000


class TestFutexWake:
    @pytest.fixture
    def k(self):
        return Kernel()

    def _start_waiter(self, k, proc, out, uaddr=UADDR):
        def run():
            k.call(proc, "futex", uaddr, FUTEX_WAIT, 1, 1,
                   timeout_ns=10_000_000_000)
            out.append(proc.pid)
        th = threading.Thread(target=run, daemon=True)
        th.start()
        key = (proc.tgid, uaddr)
        spin_until(lambda: any(e[1] is proc
                               for e in k.futex_waiters.get(key, [])))
        return th

    def test_wake_n_of_m_wakes_exactly_n(self, k):
        procs = [k.create_process([f"w{i}"], stdio=False)
                 for i in range(3)]
        for p in procs[1:]:
            p.tgid = procs[0].tgid  # share the futex key
        woken = []
        threads = [self._start_waiter(k, p, woken) for p in procs]
        waker = k.create_process(["waker"], stdio=False)
        waker.tgid = procs[0].tgid
        assert k.call(waker, "futex", UADDR, FUTEX_WAKE, 2, 0) == 2
        spin_until(lambda: len(woken) == 2)
        time.sleep(0.05)
        assert len(woken) == 2  # the third waiter stays parked
        assert k.call(waker, "futex", UADDR, FUTEX_WAKE, 10, 0) == 1
        for th in threads:
            th.join(timeout=10)
        assert sorted(woken) == sorted(p.pid for p in procs)

    def test_wake_order_priority_then_fifo(self, k):
        lo1 = k.create_process(["lo1"], stdio=False)
        hi = k.create_process(["hi"], stdio=False)
        lo2 = k.create_process(["lo2"], stdio=False)
        for p in (hi, lo2):
            p.tgid = lo1.tgid
        k.sched.set_nice(hi, -10)
        woken = []
        threads = [self._start_waiter(k, p, woken)
                   for p in (lo1, hi, lo2)]  # arrival: lo1, hi, lo2
        waker = k.create_process(["waker"], stdio=False)
        waker.tgid = lo1.tgid
        # highest weight first
        assert k.call(waker, "futex", UADDR, FUTEX_WAKE, 1, 0) == 1
        spin_until(lambda: len(woken) == 1)
        assert woken == [hi.pid]
        # FIFO among the equal-weight rest
        assert k.call(waker, "futex", UADDR, FUTEX_WAKE, 1, 0) == 1
        spin_until(lambda: len(woken) == 2)
        assert woken[1] == lo1.pid
        k.call(waker, "futex", UADDR, FUTEX_WAKE, 1, 0)
        for th in threads:
            th.join(timeout=10)

    def test_wait_timeout_is_named_etimedout(self, k):
        p = k.create_process(["t"], stdio=False)
        with pytest.raises(KernelError) as ei:
            k.call(p, "futex", UADDR, FUTEX_WAIT, 1, 1,
                   timeout_ns=1_000_000)
        assert ei.value.errno == ETIMEDOUT

    def test_negative_wake_count_rejected(self, k):
        p = k.create_process(["t"], stdio=False)
        with pytest.raises(KernelError) as ei:
            k.call(p, "futex", UADDR, FUTEX_WAKE, -1, 0)
        assert ei.value.errno == EINVAL


# --------------------------------------------------------------------------
# PI futexes: boost, handoff, robust release
# --------------------------------------------------------------------------

class TestFutexPI:
    @pytest.fixture
    def k(self):
        return Kernel()

    def test_uncontended_lock_unlock(self, k):
        p = k.create_process(["t"], stdio=False)
        assert k.call(p, "futex", UADDR, FUTEX_LOCK_PI, 0, 0) == 0
        assert k.call(p, "futex", UADDR, FUTEX_UNLOCK_PI, 0, 0) == 0

    def test_relock_deadlock_and_foreign_unlock(self, k):
        p = k.create_process(["t"], stdio=False)
        q = k.create_process(["u"], stdio=False)
        q.tgid = p.tgid
        k.call(p, "futex", UADDR, FUTEX_LOCK_PI, 0, 0)
        with pytest.raises(KernelError) as ei:
            k.call(p, "futex", UADDR, FUTEX_LOCK_PI, 0, 0)
        assert ei.value.errno == EDEADLK
        with pytest.raises(KernelError) as ei:
            k.call(q, "futex", UADDR, FUTEX_UNLOCK_PI, 0, 0)
        assert ei.value.errno == EPERM
        k.call(p, "futex", UADDR, FUTEX_UNLOCK_PI, 0, 0)

    def test_boost_and_restore_across_handoff(self, k):
        holder = k.create_process(["holder"], stdio=False)
        waiter = k.create_process(["waiter"], stdio=False)
        waiter.tgid = holder.tgid
        k.sched.set_nice(holder, 19)
        k.sched.set_nice(waiter, -20)
        k.call(holder, "futex", UADDR, FUTEX_LOCK_PI, 0, 0)
        got = []

        def contend():
            got.append(k.call(waiter, "futex", UADDR, FUTEX_LOCK_PI,
                              0, 0, timeout_ns=10_000_000_000))
        th = threading.Thread(target=contend, daemon=True)
        th.start()
        # contention boosts the holder to the waiter's weight
        spin_until(lambda: holder.se.weight == nice_to_weight(-20))
        assert holder.se.pi_weight == nice_to_weight(-20)
        assert holder.se.nice == 19  # nice itself is untouched
        k.call(holder, "futex", UADDR, FUTEX_UNLOCK_PI, 0, 0)
        th.join(timeout=10)
        assert got == [0]            # handoff: the waiter now owns it
        # boost dropped with the lock; the waiter runs on its own weight
        assert holder.se.weight == nice_to_weight(19)
        assert holder.se.pi_weight == 0
        assert waiter.se.pi_weight == 0
        k.call(waiter, "futex", UADDR, FUTEX_UNLOCK_PI, 0, 0)

    def test_exit_releases_owned_pi_futex(self, k):
        holder = k.create_process(["holder"], stdio=False)
        waiter = k.create_process(["waiter"], stdio=False)
        waiter.tgid = holder.tgid
        k.call(holder, "futex", UADDR, FUTEX_LOCK_PI, 0, 0)
        got = []

        def contend():
            got.append(k.call(waiter, "futex", UADDR, FUTEX_LOCK_PI,
                              0, 0, timeout_ns=10_000_000_000))
        th = threading.Thread(target=contend, daemon=True)
        th.start()
        key = (holder.tgid, UADDR)
        spin_until(lambda: waiter in k.futex_pi[key]["waiters"])
        k.call(holder, "exit", 0)    # robust release: hands off the lock
        th.join(timeout=10)
        assert got == [0]
        assert k.futex_pi[key]["owner"] is waiter
        assert holder.se.pi_weight == 0


# --------------------------------------------------------------------------
# the starvation regression (the bug PI exists to fix)
# --------------------------------------------------------------------------

class TestStarvationRegression:
    def _progress_share(self, boost_weight):
        """Deterministic inversion scenario on one CPU: a nice+19
        holder shares the CPU with a nice-0 hog; returns the holder's
        CPU share over a bounded number of ticks, with the given PI
        boost applied (0 = no PI)."""
        sched, clock = make_sched(ncpus=1, slice_us=SLICE_US)
        holder, hog = make_tasks(2)
        holder.se.set_nice(19)
        sched.task_attach(holder)
        sched.task_attach(hog)
        if boost_weight:
            sched.set_boost(holder, boost_weight)
        for _ in range(200):         # 200 ticks x 100 us = 20 ms logical
            clock.advance_us(SLICE_US)
            sched.tick()
        for t in (holder, hog):
            sched.check_preempt(t)   # settle the final slice
        total = holder.se.cpu_time_ns + hog.se.cpu_time_ns
        return holder.se.cpu_time_ns / total

    def test_boosted_holder_progresses_within_bounded_ticks(self):
        # without PI the +19 holder gets its weight share, ~1.4% — the
        # high-priority waiter would wait ~70 slices for each slice of
        # lock-holder progress (the inversion)
        assert self._progress_share(0) < 0.10
        # boosted to the nice-20 waiter's weight it dominates: the
        # holder reaches the release point within a bounded tick budget
        share = self._progress_share(nice_to_weight(-20))
        assert share > 0.60

    def test_end_to_end_inversion_bounded(self):
        """Integration: nice-20 waiter acquires a PI lock from a nice+19
        holder while a nice-0 hog spins, within a wall-clock bound that
        the unboosted weight share (~1.4% of one CPU) could not meet."""
        k = Kernel(sched="cpus=1,slice_us=200")
        holder = k.create_process(["holder"], stdio=False)
        waiter = k.create_process(["waiter"], stdio=False)
        hog = k.create_process(["hog"], stdio=False)
        waiter.tgid = holder.tgid
        k.sched.set_nice(holder, 19)
        k.sched.set_nice(waiter, -20)
        k.call(holder, "futex", UADDR, FUTEX_LOCK_PI, 0, 0)
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                k.call(hog, "getpid")

        def hold_then_release():
            for _ in range(50):      # bounded critical section
                k.call(holder, "getpid")
            k.call(holder, "futex", UADDR, FUTEX_UNLOCK_PI, 0, 0)

        got = []

        def contend():
            got.append(k.call(waiter, "futex", UADDR, FUTEX_LOCK_PI,
                              0, 0, timeout_ns=30_000_000_000))

        threads = [threading.Thread(target=f, daemon=True)
                   for f in (spin, contend, hold_then_release)]
        try:
            threads[0].start()
            threads[1].start()
            spin_until(lambda: holder.se.pi_weight > 0, timeout_s=10)
            threads[2].start()
            threads[1].join(timeout=30)
            assert not threads[1].is_alive(), "waiter starved"
            assert got == [0]
        finally:
            stop.set()
            for th in threads:
                th.join(timeout=10)
        k.call(waiter, "futex", UADDR, FUTEX_UNLOCK_PI, 0, 0)


# --------------------------------------------------------------------------
# /proc/sched_debug per-CPU sections
# --------------------------------------------------------------------------

class TestSchedDebugSMP:
    def test_per_cpu_sections_and_counters(self):
        k = Kernel(sched="cpus=2,slice_us=100")
        p = k.create_process(["t"], stdio=False)
        fd = k.call(p, "open", "/proc/sched_debug", 0)
        text = k.call(p, "read", fd, 8192).decode()
        assert text.startswith("sched:cpus=2")
        assert "cpu#0:" in text and "cpu#1:" in text
        assert "migrations:" in text and "steals:" in text
        assert "aff" in text
