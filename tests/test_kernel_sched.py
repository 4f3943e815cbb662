"""Scheduler tests: run-queue semantics, time slices, nice-weight
fairness, yield/preempt ordering, and kernel integration.

Most tests drive the :class:`Scheduler` state machine directly with a
fake clock (deterministic, no threads); the integration tests at the end
exercise the real blocking paths through ``Kernel.call``.
"""

import sys
import threading
import time

import pytest

from repro.kernel import (
    BackgroundSpinners, Kernel, KernelError, Process, Scheduler,
    create_scheduler, nice_to_weight,
)
from repro.kernel.errno import EINVAL, EPERM, ESRCH
from repro.kernel.sched import (
    DEFAULT_NCPUS, NICE_0_WEIGHT, SCHED_DEAD, SCHED_RUNNABLE, SCHED_RUNNING,
)
from repro.kernel.vfs import AT_FDCWD, O_RDONLY

SLICE_US = 100


class FakeClock:
    def __init__(self):
        self.ns = 0

    def __call__(self):
        return self.ns

    def advance_us(self, us):
        self.ns += int(us * 1000)


def make_sched(ncpus=1, slice_us=SLICE_US):
    clock = FakeClock()
    return Scheduler(ncpus=ncpus, slice_us=slice_us, clock=clock), clock


def make_tasks(n):
    return [Process(i + 1, 0) for i in range(n)]


class TestRunQueue:
    """Queue/grant semantics with a fake clock (no threads, no waiting)."""

    def test_first_attach_runs_immediately(self):
        sched, _ = make_sched()
        (t1,) = make_tasks(1)
        sched.task_attach(t1)
        assert sched.running_pids() == [t1.pid]
        assert t1.se.state == SCHED_RUNNING

    def test_fifo_within_equal_vruntime(self):
        """Tasks enqueued at the same vruntime are granted in arrival
        order, never reordered."""
        sched, _ = make_sched()
        t1, t2, t3 = make_tasks(3)
        for t in (t1, t2, t3):
            sched.task_attach(t)  # all at vruntime 0
        assert sched.running_pids() == [t1.pid]
        sched.task_block(t1)
        assert sched.running_pids() == [t2.pid]
        sched.task_block(t2)
        assert sched.running_pids() == [t3.pid]

    def test_lowest_vruntime_runs_next(self):
        """After tasks accumulate different vruntimes, every pick takes
        the smallest one — not FIFO, not the longest-waiting."""
        sched, clock = make_sched()
        t1, t2, t3 = make_tasks(3)
        for t in (t1, t2, t3):
            sched.task_attach(t)
        clock.advance_us(120)
        sched.tick()                 # t1 preempted at vrt 120
        assert sched.running_pids() == [t2.pid]
        clock.advance_us(250)
        sched.tick()                 # t2 preempted at vrt 250
        assert sched.running_pids() == [t3.pid]
        clock.advance_us(150)
        sched.tick()                 # t3 preempted at vrt 150
        # queue holds t1@120, t2@250, t3@150: smallest vruntime wins
        assert sched.running_pids() == [t1.pid]
        sched.task_block(t1)
        assert sched.running_pids() == [t3.pid]  # 150 < 250

    def test_no_duplicate_enqueue_on_repeated_wake(self):
        sched, _ = make_sched()
        t1, t2 = make_tasks(2)
        sched.task_attach(t1)
        sched.task_attach(t2)
        sched.task_block(t2)
        for _ in range(5):
            sched.task_wake(t2)  # idempotent
        assert sched.runnable_pids() == [t2.pid]
        sched.task_block(t1)
        assert sched.running_pids() == [t2.pid]
        assert sched.runnable_pids() == []  # not granted twice

    def test_blocked_task_leaves_the_run_queue(self):
        sched, _ = make_sched()
        t1, t2 = make_tasks(2)
        sched.task_attach(t1)
        sched.task_attach(t2)
        assert sched.runnable_pids() == [t2.pid]
        sched.task_block(t2)
        assert sched.runnable_pids() == []
        assert sched.blocked_pids() == [t2.pid]

    def test_woken_task_is_not_starved(self):
        """A wakeup marks the worst-placed running task for preemption;
        the next tick hands the CPU over even mid-slice."""
        sched, clock = make_sched()
        t1, t2 = make_tasks(2)
        sched.task_attach(t1)
        sched.task_attach(t2)
        sched.task_block(t2)   # t2 sleeps at vruntime 0
        clock.advance_us(500)  # t1 runs far ahead in vruntime
        sched.check_preempt(t1)  # settle t1's clock (stays running)
        sched.task_wake(t2)
        assert t1.se.need_resched  # wakeup preemption armed
        clock.advance_us(SLICE_US // 2)  # past wakeup granularity
        sched.tick()
        assert sched.running_pids() == [t2.pid]

    def test_exit_frees_the_slot(self):
        sched, _ = make_sched()
        t1, t2 = make_tasks(2)
        sched.task_attach(t1)
        sched.task_attach(t2)
        sched.task_exit(t1)
        assert t1.se.state == SCHED_DEAD
        assert sched.live_pids() == [t2.pid]
        assert sched.running_pids() == [t2.pid]

    def test_work_conserving_two_slots(self):
        """A slot never idles while the queue is non-empty."""
        sched, _ = make_sched(ncpus=2)
        t1, t2, t3 = make_tasks(3)
        for t in (t1, t2, t3):
            sched.task_attach(t)
        assert sched.running_pids() == [t1.pid, t2.pid]
        sched.task_block(t1)
        assert sched.running_pids() == [t2.pid, t3.pid]

    def test_new_task_gets_no_vruntime_credit(self):
        """Late arrivals start at min_vruntime: they neither starve the
        incumbents nor inherit a deficit."""
        sched, clock = make_sched()
        (t1,) = make_tasks(1)
        sched.task_attach(t1)
        clock.advance_us(1000)
        sched.check_preempt(t1)  # charge the elapsed slice
        t2 = Process(99, 0)
        sched.task_attach(t2)
        assert t2.se.vruntime_ns >= sched.min_vruntime > 0

    def test_long_sleeper_rejoins_at_min_vruntime(self):
        sched, clock = make_sched()
        t1, t2 = make_tasks(2)
        sched.task_attach(t1)
        sched.task_attach(t2)
        sched.task_block(t2)  # sleeps with vruntime 0
        clock.advance_us(20 * SLICE_US)  # t1 runs for 20 slices
        sched.check_preempt(t1)          # settle t1's clock
        sched.task_wake(t2)
        # the sleeper's lag is capped: it rejoins one slice of bonus
        # below min_vruntime (t1's 20-slice runtime), not at its
        # ancient vruntime of 0
        assert t2.se.vruntime_ns >= \
            sched.min_vruntime - sched.slice_ns > 0


class TestTimeSlice:
    """Slice accounting and preemption at schedule points / ticks."""

    def test_no_preempt_before_slice_expiry(self):
        sched, clock = make_sched()
        t1, t2 = make_tasks(2)
        sched.task_attach(t1)
        sched.task_attach(t2)
        clock.advance_us(SLICE_US - 10)
        assert not sched.check_preempt(t1)
        assert sched.running_pids() == [t1.pid]

    def test_preempt_at_slice_expiry_with_contention(self):
        sched, clock = make_sched()
        t1, t2 = make_tasks(2)
        sched.task_attach(t1)
        sched.task_attach(t2)
        clock.advance_us(SLICE_US + 10)
        assert sched.check_preempt(t1)
        assert sched.running_pids() == [t2.pid]
        assert t1.se.state == SCHED_RUNNABLE
        assert t1.rusage.nivcsw == 1

    def test_lone_task_is_never_preempted(self):
        sched, clock = make_sched()
        (t1,) = make_tasks(1)
        sched.task_attach(t1)
        clock.advance_us(50 * SLICE_US)
        assert not sched.check_preempt(t1)
        sched.tick()
        assert sched.running_pids() == [t1.pid]

    def test_tick_steals_expired_user_mode_holder(self):
        """The timer tick preempts a task running *user* code past its
        slice — it never entered the kernel, the slot is simply taken."""
        sched, clock = make_sched()
        t1, t2 = make_tasks(2)
        sched.task_attach(t1)
        sched.task_attach(t2)
        assert t1.se.depth == 0  # user mode
        clock.advance_us(SLICE_US + 1)
        sched.tick()
        assert sched.running_pids() == [t2.pid]

    def test_tick_never_steals_inside_a_syscall(self):
        """Tasks inside the kernel are non-preemptible; they yield at the
        next schedule point instead."""
        sched, clock = make_sched()
        t1, t2 = make_tasks(2)
        sched.task_attach(t1)
        t1.se.depth = 1  # inside a syscall
        sched.task_attach(t2)
        clock.advance_us(10 * SLICE_US)
        sched.tick()
        assert sched.running_pids() == [t1.pid]
        t1.se.depth = 0
        sched.tick()
        assert sched.running_pids() == [t2.pid]

    def test_blocked_task_consumes_zero_slice(self):
        """Blocking freezes vruntime and cpu_time: sleeping is free."""
        sched, clock = make_sched()
        t1, t2 = make_tasks(2)
        sched.task_attach(t1)
        sched.task_attach(t2)
        clock.advance_us(30)
        sched.task_block(t1)  # charged 30 us, then off-queue
        vrt0, cpu0 = t1.se.vruntime_ns, t1.se.cpu_time_ns
        clock.advance_us(100 * SLICE_US)  # t2 runs a long time
        sched.tick()
        assert t1.se.vruntime_ns == vrt0
        assert t1.se.cpu_time_ns == cpu0 == 30_000

    def test_slice_restarts_on_grant(self):
        sched, clock = make_sched()
        t1, t2 = make_tasks(2)
        sched.task_attach(t1)
        sched.task_attach(t2)
        clock.advance_us(SLICE_US + 1)
        sched.check_preempt(t1)      # t2 runs
        clock.advance_us(SLICE_US - 2)
        assert not sched.check_preempt(t2)  # fresh slice, not expired


class TestFairnessAndNice:
    def _share(self, nice_a, nice_b, rounds=400):
        """Closed-loop simulation: 1 CPU, 2 CPU-bound tasks, tick-driven
        preemption; returns (cpu_a, cpu_b)."""
        sched, clock = make_sched()
        ta, tb = make_tasks(2)
        ta.se.set_nice(nice_a)
        tb.se.set_nice(nice_b)
        sched.task_attach(ta)
        sched.task_attach(tb)
        for _ in range(rounds):
            clock.advance_us(SLICE_US)
            sched.tick()
        return ta.se.cpu_time_ns, tb.se.cpu_time_ns

    def test_equal_nice_fairness_within_10_percent(self):
        a, b = self._share(0, 0)
        assert max(a, b) / min(a, b) <= 1.1

    def test_nice_weight_fairness_within_10_percent(self):
        """nice 0 vs nice 5 must split the CPU by load weight (~3.05x)."""
        a, b = self._share(0, 5)
        expected = nice_to_weight(0) / nice_to_weight(5)
        assert a > b
        assert abs((a / b) - expected) / expected <= 0.10

    def test_weight_table_shape(self):
        assert nice_to_weight(0) == NICE_0_WEIGHT == 1024
        # each step is ~1.25x; ends are clamped
        assert nice_to_weight(-20) == nice_to_weight(-25) == 88761
        assert nice_to_weight(19) == nice_to_weight(40) == 15
        weights = [nice_to_weight(n) for n in range(-20, 20)]
        assert weights == sorted(weights, reverse=True)

    def test_set_nice_recharges_at_old_weight(self):
        """Time run before a nice change is charged at the old weight."""
        sched, clock = make_sched()
        (t1,) = make_tasks(1)
        sched.task_attach(t1)
        clock.advance_us(100)
        sched.set_nice(t1, 10)
        assert t1.se.vruntime_ns == 100_000  # charged 1:1 at nice 0
        assert t1.se.weight == nice_to_weight(10)


class TestYieldOrdering:
    def test_yield_passes_cpu_to_equal_vruntime_peer(self):
        sched, _ = make_sched()
        t1, t2 = make_tasks(2)
        sched.task_attach(t1)
        sched.task_attach(t2)
        sched.task_yield(t1)
        assert sched.running_pids() == [t2.pid]
        assert t1.se.state == SCHED_RUNNABLE

    def test_yield_alone_is_a_noop(self):
        sched, _ = make_sched()
        (t1,) = make_tasks(1)
        sched.task_attach(t1)
        vrt = t1.se.vruntime_ns
        sched.task_yield(t1)
        assert sched.running_pids() == [t1.pid]
        assert t1.se.vruntime_ns == vrt

    def test_yield_goes_behind_the_whole_queue_head(self):
        """After a yield the yielder's vruntime is bumped past the
        leftmost waiter, so it cannot immediately win the slot back."""
        sched, clock = make_sched()
        t1, t2, t3 = make_tasks(3)
        for t in (t1, t2, t3):
            sched.task_attach(t)
        sched.task_yield(t1)
        assert sched.running_pids() == [t2.pid]
        sched.task_block(t2)
        # t3 (still at vruntime 0) beats the yielder
        assert sched.running_pids() == [t3.pid]


class TestSpecParsing:
    def test_spec_strings(self):
        s = create_scheduler("cpus=1,slice_us=50")
        assert s.ncpus == 1 and s.slice_ns == 50_000
        s = create_scheduler("sched:cpus=2,slice_us=250")
        assert s.ncpus == 2 and s.slice_ns == 250_000
        for removed in ("off", "none", "coop"):
            with pytest.raises(KernelError) as exc:
                create_scheduler(removed)
            assert exc.value.errno == EINVAL, removed
        assert create_scheduler("cpus=7").ncpus == 7
        assert create_scheduler(None).ncpus == DEFAULT_NCPUS
        inst = Scheduler(ncpus=3)
        assert create_scheduler(inst) is inst

    def test_bad_specs_rejected(self):
        for bad in ("cpus=two", "slice_us=0", "warp=9", "slice_us=-5",
                    "cpus=0"):
            with pytest.raises(KernelError) as exc:
                create_scheduler(bad)
            assert exc.value.errno == EINVAL, bad
        for ncpus in (0, -1):
            with pytest.raises(KernelError) as exc:
                Scheduler(ncpus=ncpus)
            assert exc.value.errno == EINVAL, ncpus

    def test_describe(self):
        assert Scheduler(ncpus=2, slice_us=50).describe() == \
            "sched:cpus=2,slice_us=50"


class TestKernelIntegration:
    """The scheduler threaded through real syscalls and blocking paths."""

    def test_default_kernel_schedules_on_its_cpus(self):
        kern = Kernel(sched="cpus=2")
        assert kern.sched.ncpus == 2
        proc = kern.create_process(["a"])
        kern.call(proc, "getpid")
        assert proc.pid in kern.sched.running_pids()

    def test_sched_spec_knob(self):
        kern = Kernel(sched="cpus=1,slice_us=50")
        assert kern.sched.ncpus == 1 and kern.sched.slice_ns == 50_000

    def test_same_thread_tasks_share_one_slot(self):
        """Driving two procs alternately from one thread on a 1-CPU
        kernel must not deadlock: the slot follows the thread."""
        kern = Kernel(sched="cpus=1,slice_us=50")
        a = kern.create_process(["a"])
        b = kern.create_process(["b"])
        for _ in range(10):
            assert kern.call(a, "getpid") == a.pid
            assert kern.call(b, "getpid") == b.pid
        assert b.rusage.nivcsw > 0 or a.rusage.nivcsw > 0

    def test_preempt_counter_is_the_sum_of_nivcsw(self):
        """Every involuntary switch, whichever path takes the slot (here
        the same-thread hand-off), counts once in the task's ``nivcsw``
        and once in ``sched.preempt``."""
        kern = Kernel(sched="cpus=1,slice_us=50")
        a = kern.create_process(["a"])
        b = kern.create_process(["b"])
        for _ in range(10):
            kern.call(a, "getpid")
            kern.call(b, "getpid")
        nivcsw = sum(p.rusage.nivcsw for p in kern.processes.values())
        assert nivcsw > 0
        assert kern.counters.get("sched.preempt") == nivcsw

    def test_spinner_preemptions_are_each_counted_once(self):
        """Four host threads on one slot, switching the interpreter lock
        often: ticks, syscall-exit preemptions and hand-offs race, and
        each switch still counts once on each side."""
        kern = Kernel(sched="cpus=1,slice_us=50")
        probe = kern.create_process(["probe"])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with BackgroundSpinners(kern, n=3) as spinners:
                deadline = time.monotonic() + 5.0
                while kern.counters.get("sched.preempt") < 4 and \
                        time.monotonic() < deadline:
                    kern.call(probe, "getpid")
        finally:
            sys.setswitchinterval(interval)
        assert all(p.se.state == SCHED_DEAD for p in spinners.procs)
        tasks = [probe] + spinners.procs
        nivcsw = sum(p.rusage.nivcsw for p in tasks)
        assert nivcsw >= 4
        assert kern.counters.get("sched.preempt") == nivcsw

    def test_one_cpu_count(self):
        """``/proc/cpuinfo``, the default affinity mask and the scheduler
        report the same CPUs."""
        kern = Kernel(sched="cpus=1")
        proc = kern.create_process(["cpus"])
        fd = kern.call(proc, "openat", AT_FDCWD, "/proc/cpuinfo", O_RDONLY)
        cpuinfo = kern.call(proc, "read", fd, 4096)
        assert cpuinfo.count(b"processor\t:") == kern.sched.ncpus == 1
        assert kern.call(proc, "sched_getaffinity", 0) == 0b1

    def test_blocking_read_releases_the_cpu_slot(self):
        """A task blocked in-kernel must not pin its slot: another task
        gets the CPU, produces the data, and the sleeper resumes."""
        kern = Kernel(sched="cpus=1,slice_us=50")
        reader = kern.create_process(["reader"])
        writer = kern.create_process(["writer"])
        rfd, wfd = kern.call(reader, "pipe")
        wfile = reader.fdtable.get(wfd)
        got = {}

        def read_side():
            got["data"] = kern.call(reader, "read", rfd, 64)

        t = threading.Thread(target=read_side)
        t.start()
        time.sleep(0.05)  # reader is parked, slot must be free
        assert kern.call(writer, "getpid") == writer.pid
        kern.call(writer, "write", writer.fdtable.install(wfile), b"ping")
        t.join(timeout=5)
        assert not t.is_alive()
        assert got["data"] == b"ping"
        assert reader.rusage.nvcsw >= 1  # voluntary switch while blocked

    def test_contention_accrues_sched_wait_idle_does_not(self):
        idle = Kernel(sched="cpus=1,slice_us=50")
        p = idle.create_process(["probe"])
        for _ in range(20):
            idle.call(p, "getpid")
        assert idle.sched_wait_ns[p.tgid] == 0

        kern = Kernel(sched="cpus=1,slice_us=50")
        probe = kern.create_process(["probe"])
        with BackgroundSpinners(kern, n=2):
            deadline = time.monotonic() + 5.0
            while kern.sched_wait_ns[probe.tgid] == 0 and \
                    time.monotonic() < deadline:
                kern.call(probe, "nanosleep", 200_000)
                kern.call(probe, "getpid")
        assert kern.sched_wait_ns[probe.tgid] > 0

    def test_exit_detaches_from_the_scheduler(self):
        kern = Kernel()
        proc = kern.create_process(["gone"])
        kern.call(proc, "getpid")
        assert proc.pid in kern.sched.live_pids()
        kern.call(proc, "exit", 0)
        assert proc.pid not in kern.sched.live_pids()
        assert proc.se.state == SCHED_DEAD

    def test_nice_and_priority_syscalls(self):
        kern = Kernel()
        proc = kern.create_process(["nicer"])
        assert kern.call(proc, "nice", 5) == 0  # raw syscall returns 0
        assert proc.se.nice == 5
        assert proc.se.weight == nice_to_weight(5)
        assert kern.call(proc, "getpriority", 0, 0) == 15  # 20 - nice
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "nice", -1)  # unprivileged raise
        assert exc.value.errno == EPERM
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "setpriority", 0, proc.pid, 0)
        assert exc.value.errno == EPERM
        proc.euid = 0  # root may raise priority
        assert kern.call(proc, "setpriority", 0, proc.pid, -3) == 0
        assert proc.se.nice == -3
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "setpriority", 0, 9999, 0)
        assert exc.value.errno == ESRCH
        # only PRIO_PROCESS is modeled; PRIO_PGRP/PRIO_USER would
        # misread `who`, so they are rejected loudly
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "getpriority", 1, 0)
        assert exc.value.errno == EINVAL

    def test_affinity_lite_stores_and_validates(self):
        kern = Kernel(sched="cpus=4")
        proc = kern.create_process(["aff"])
        assert kern.call(proc, "sched_getaffinity", 0) == 0b1111
        assert kern.call(proc, "sched_setaffinity", 0, 0b0110) == 0
        assert kern.call(proc, "sched_getaffinity", 0) == 0b0110
        with pytest.raises(KernelError) as exc:
            kern.call(proc, "sched_setaffinity", 0, 0)
        assert exc.value.errno == EINVAL

    def test_sched_yield_under_contention_switches(self):
        kern = Kernel(sched="cpus=1,slice_us=50")
        a = kern.create_process(["a"])
        b = kern.create_process(["b"])
        kern.call(a, "getpid")
        kern.call(b, "getpid")
        n0 = a.rusage.nvcsw
        kern.call(a, "sched_yield")
        assert a.rusage.nvcsw >= n0  # voluntary switches recorded

    def test_wali_spec_exposes_nice(self):
        from repro.wali.spec import SYSCALLS

        assert "nice" in SYSCALLS
        assert SYSCALLS["nice"].import_name == "SYS_nice"

    def test_breakdown_reports_service_and_wait_columns(self):
        from repro.metrics import RuntimeBreakdown

        bd = RuntimeBreakdown("app", total_s=1.0, kernel_s=0.2,
                              wali_s=0.1, wait_s=0.3)
        assert bd.wait_pct == pytest.approx(30.0)
        assert bd.app_s == pytest.approx(0.4)
        row = bd.row()
        assert "kernel=" in row and "wait=" in row
        # percentages partition active time
        assert bd.app_pct + bd.kernel_pct + bd.wali_pct + bd.wait_pct == \
            pytest.approx(100.0)
