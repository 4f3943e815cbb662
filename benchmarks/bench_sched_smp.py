"""SMP scheduler scaling: per-CPU run queues from 1 to 8 CPUs.

Three experiments on the per-CPU scheduler (``kernel/sched.py``):

1. **Runnable-throughput scaling** — an embarrassingly parallel spinner
   load (8 always-runnable tasks) driven on a logical clock across
   1/2/4/8 CPUs.  Throughput is charged CPU time per logical second,
   i.e. utilized CPUs: with per-queue grant decisions it must scale
   near-linearly until tasks run out (the acceptance bar is >=3x at
   8 CPUs vs 1; the deterministic simulation delivers ~8x).
2. **Steal determinism** — a fixed block/wake churn pattern that forces
   idle-balance steals; two identical runs must produce bit-identical
   steal/migration counts and per-task CPU times (this is what lets the
   CI determinism job rerun the SMP suite 3x).
3. **Affinity ceiling** — the same 8-task load pinned to one CPU of
   four: throughput must collapse to ~1 CPU, proving placement and
   stealing both honor the mask (no cheating via idle slots).

A final wall-clock section runs real spinner threads through
``Kernel.call`` on 4 slots and reports the live migrate/steal counters
from the observability layer.

Quick mode (``REPRO_BENCH_QUICK=1``) shrinks iteration counts for CI.
"""

import time

from common import quick_mode, save_report

from repro.kernel import BackgroundSpinners, Kernel, Process, Scheduler
from repro.kernel.sched import SCHED_RUNNING

QUICK = quick_mode()

SLICE_US = 100
NTASKS = 8
CPU_POINTS = (1, 2, 4, 8)
SIM_ROUNDS = 100 if QUICK else 400
CHURN_ROUNDS = 60 if QUICK else 240
WALL_SECONDS = 0.15 if QUICK else 0.6


class LogicalClock:
    def __init__(self):
        self.ns = 0

    def __call__(self):
        return self.ns

    def advance_us(self, us):
        self.ns += int(us * 1000)


def _make(ncpus):
    clock = LogicalClock()
    sched = Scheduler(ncpus=ncpus, slice_us=SLICE_US, clock=clock)
    tasks = [Process(i + 1, 0) for i in range(NTASKS)]
    return sched, clock, tasks


def _settle(sched, tasks):
    """Charge every running task's open slice so cpu_time is exact."""
    for t in tasks:
        if t.se.state == SCHED_RUNNING:
            sched.check_preempt(t)


def _sim_throughput(ncpus, affinity=0):
    """Utilized CPUs under an always-runnable load on a logical clock."""
    sched, clock, tasks = _make(ncpus)
    for t in tasks:
        if affinity:
            t.se.affinity = affinity
        sched.task_attach(t)
    for _ in range(SIM_ROUNDS):
        clock.advance_us(SLICE_US)
        sched.tick()             # slice-expiry preemption + dispatch
        _settle(sched, tasks)    # rotate at the slice boundary
    _settle(sched, tasks)
    total_cpu = sum(t.se.cpu_time_ns for t in tasks)
    return total_cpu / clock.ns, sched


def _churn_run():
    """Deterministic block/wake churn that forces idle-balance steals.

    5 tasks on 2 CPUs: each round blocks one CPU's current task *and*
    its queued follower (emptying that queue while the other still has
    depth), forcing the freed slot to steal, then wakes both.
    """
    sched, clock, tasks = _make(2)
    for t in tasks[:5]:
        sched.task_attach(t)
    for r in range(CHURN_ROUNDS):
        clock.advance_us(SLICE_US)
        sched.tick()
        victim_cpu = r % 2
        ours = [t for t in tasks[:5]
                if t.se.cpu == victim_cpu and t.se.state != "blocked"]
        for t in ours:            # empty one CPU entirely
            sched.task_block(t)
        for t in ours:
            sched.task_wake(t)
    _settle(sched, tasks[:5])
    times = tuple(t.se.cpu_time_ns for t in tasks[:5])
    c = sched.trace.counters
    return c.get("sched.steal"), c.get("sched.migrate"), times


def _wall_clock_section(lines):
    kern = Kernel(sched="cpus=4,slice_us=50")
    # the window covers spawn-to-join: every ns of slot-hold time the
    # spinners accrue falls inside it, so utilization <= 4 is a hard
    # invariant (4 slots), not a statistical expectation
    t0 = time.monotonic_ns()
    spinners = BackgroundSpinners(kern, n=6).start()
    try:
        time.sleep(WALL_SECONDS)
    finally:
        spinners.stop()
    elapsed = time.monotonic_ns() - t0
    total = sum(spinners.cpu_times_ns())
    util = total / elapsed
    c = kern.trace.counters
    lines += [
        "",
        f"wall-clock: 6 spinner threads on 4 slots for {WALL_SECONDS}s",
        f"  slot utilization: {util:.2f} CPUs "
        f"(4 slots modeled; 1.0 = single-queue ceiling)",
        f"  switches={c.get('sched.switch')} "
        f"preemptions={c.get('sched.preempt')} "
        f"migrations={c.get('sched.migrate')} "
        f"steals={c.get('sched.steal')}",
    ]
    # 6 always-runnable spinners must keep >1 slot busy: the per-CPU
    # scheduler grants slots concurrently (slot-holding is the modeled
    # resource; the GIL only serializes the Python execution inside)
    assert util > 1.2, f"slots did not fill concurrently: {util:.2f}"
    assert util <= 4.05, f"more slot-time than 4 slots can hold: {util:.2f}"


def test_sched_smp_report():
    lines = [
        "SMP scheduler: per-CPU run queues, stealing, affinity",
        f"  load: {NTASKS} always-runnable tasks, slice={SLICE_US}us, "
        f"{SIM_ROUNDS} rounds (logical clock)",
        "",
        f"{'cpus':>5}  {'throughput':>11}  {'scaling':>8}  "
        f"{'steals':>7}  {'migrations':>11}",
    ]
    results = {}
    for n in CPU_POINTS:
        tp, sched = _sim_throughput(n)
        results[n] = tp
        c = sched.trace.counters
        lines.append(f"{n:>5}  {tp:>9.2f}x1  {tp / results[1]:>7.2f}x  "
                     f"{c.get('sched.steal'):>7}  "
                     f"{c.get('sched.migrate'):>11}")
    scaling = results[8] / results[1]
    lines += [
        "",
        f"8-cpu scaling vs 1 cpu: {scaling:.2f}x (acceptance: >=3x)",
    ]
    assert results[1] <= 1.01, f"1 cpu overcommitted: {results[1]}"
    assert scaling >= 3.0, f"throughput did not scale: {results}"

    # steal determinism: identical runs, identical decisions
    run1 = _churn_run()
    run2 = _churn_run()
    lines += [
        "",
        f"steal churn (5 tasks / 2 cpus, {CHURN_ROUNDS} rounds): "
        f"steals={run1[0]} migrations={run1[1]}",
        f"  rerun identical: {run1 == run2}",
    ]
    assert run1[0] > 0, "churn pattern produced no steals"
    assert run1 == run2, f"steal decisions nondeterministic: " \
        f"{run1[:2]} vs {run2[:2]}"

    # affinity ceiling: 8 tasks pinned to cpu 0 of 4 use exactly 1 CPU
    pinned, sched = _sim_throughput(4, affinity=0b0001)
    free = results[4]
    lines += [
        "",
        f"affinity ceiling (4 cpus): unpinned {free:.2f} CPUs, "
        f"all pinned to cpu0 {pinned:.2f} CPUs",
    ]
    assert pinned <= 1.01, f"pinned load leaked across CPUs: {pinned}"
    assert sched.trace.counters.get("sched.steal") == 0, \
        "stealing violated the affinity mask"

    _wall_clock_section(lines)
    save_report("sched_smp.txt", "\n".join(lines))


if __name__ == "__main__":
    test_sched_smp_report()
