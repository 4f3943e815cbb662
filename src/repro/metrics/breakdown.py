"""Runtime breakdown (Fig. 7): wasm-app vs kernel vs WALI time split.

The WALI host wrapper accounts its own translation time separately from
kernel time (see :meth:`repro.wali.host.WaliHost._instrument`); total wall
time minus both is guest (app) time.  The paper's claim: the WALI interface
itself costs <~2.5% even for syscall-heavy workloads.

With the scheduler (``kernel/sched.py``), kernel time further splits into
**service** (the kernel doing work) and **runnable-wait** (the task held
runnable on the run queue while other tasks occupied the CPU slots) —
reported as separate ``kernel`` and ``wait`` columns.  On an idle kernel
``wait`` is ~0; under contention it grows while service stays flat, which
is exactly the distinction Fig. 7-style syscall-latency numbers need.
Blocked waits (pipe/socket/futex/timer sleeps) are not CPU time of anyone
and are excluded entirely: breakdowns are over active time, like the
paper's CPU-time split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..wali import WaliRuntime
from .profile import load_app


@dataclass
class RuntimeBreakdown:
    app: str
    total_s: float
    kernel_s: float     # kernel service time (wait already carved out)
    wali_s: float
    wait_s: float = 0.0  # runnable-wait: on the run queue, not running

    @property
    def app_s(self) -> float:
        return max(self.total_s - self.kernel_s - self.wali_s - self.wait_s,
                   0.0)

    @property
    def app_pct(self) -> float:
        return 100.0 * self.app_s / self.total_s if self.total_s else 0.0

    @property
    def kernel_pct(self) -> float:
        return 100.0 * self.kernel_s / self.total_s if self.total_s else 0.0

    @property
    def wali_pct(self) -> float:
        return 100.0 * self.wali_s / self.total_s if self.total_s else 0.0

    @property
    def wait_pct(self) -> float:
        return 100.0 * self.wait_s / self.total_s if self.total_s else 0.0

    def row(self) -> str:
        return (f"{self.app:<14} app={self.app_pct:5.1f}%  "
                f"kernel={self.kernel_pct:5.1f}%  "
                f"wait={self.wait_pct:5.1f}%  wali={self.wali_pct:5.1f}%")


def counter_snapshot(kernel) -> list:
    """The kernel's shared-counter snapshot, as ``[(name, value)]``.

    One source of truth: these are the same
    :class:`~repro.kernel.trace.CounterRegistry` cells ``/proc/uring``,
    ``/proc/inotify`` and ``/proc/net/sockstat`` render, so host-side
    reports can never drift from what a guest reads out of ``/proc``.
    """
    return list(kernel.counters.snapshot().items())


def measure_breakdown(app_name: str, module, argv=None, env=None,
                      files=None, stdin: bytes = b"",
                      runtime: Optional[WaliRuntime] = None,
                      setup=None) -> RuntimeBreakdown:
    wp = load_app(app_name, module, argv, env, files, stdin, runtime, setup)
    rt = wp.rt
    tgid = wp.proc.tgid
    k0 = rt.kernel.kernel_time_ns.get(tgid, 0)
    b0 = rt.kernel.blocked_time_ns.get(tgid, 0)
    w0 = rt.kernel.sched_wait_ns.get(tgid, 0)
    t0 = time.perf_counter_ns()
    wp.run()
    total = time.perf_counter_ns() - t0
    kernel = rt.kernel.kernel_time_ns.get(tgid, 0) - k0
    # Blocked waits (pipe/socket/futex sleeps) are not CPU time anywhere:
    # breakdowns are over active time, like the paper's CPU-time split.
    blocked = rt.kernel.blocked_time_ns.get(tgid, 0) - b0
    # Runnable-wait is contention, not service: its own column.
    wait = rt.kernel.sched_wait_ns.get(tgid, 0) - w0
    total = max(total - blocked, 1)
    kernel = max(kernel - blocked - wait, 0)
    wali = wp.wali_time_ns
    return RuntimeBreakdown(app_name, total / 1e9, kernel / 1e9, wali / 1e9,
                            wait / 1e9)
