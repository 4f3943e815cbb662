"""Time, randomness, system information and other odds and ends."""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Tuple

from ..errno import EINVAL, EPERM, KernelError
from ..process import Process

CLOCK_REALTIME = 0
CLOCK_MONOTONIC = 1
CLOCK_PROCESS_CPUTIME_ID = 2
CLOCK_MONOTONIC_RAW = 4
CLOCK_BOOTTIME = 7

ITIMER_REAL = 0

TIMER_ABSTIME = 1


@dataclass
class UtsName:
    sysname: str = "Linux"
    nodename: str = "wali-repro"
    release: str = "6.1.0-repro"
    version: str = "#1 SMP repro"
    machine: str = "wasm32"
    domainname: str = "(none)"


@dataclass
class SysInfo:
    uptime_s: int = 0
    loads: Tuple[int, int, int] = (0, 0, 0)
    totalram: int = 1 << 30
    freeram: int = 1 << 29
    procs: int = 0
    mem_unit: int = 1


class MiscCalls:
    """Mixin with misc syscalls; mixed into :class:`Kernel`."""

    def sys_clock_gettime(self, proc: Process, clock_id: int) -> int:
        """Returns nanoseconds."""
        if clock_id in (CLOCK_MONOTONIC, CLOCK_MONOTONIC_RAW, CLOCK_BOOTTIME):
            return _time.monotonic_ns() - self.boot_monotonic_ns
        if clock_id == CLOCK_REALTIME:
            return _time.time_ns()
        if clock_id == CLOCK_PROCESS_CPUTIME_ID:
            return proc.rusage.utime_ns + proc.rusage.stime_ns
        raise KernelError(EINVAL, f"clock {clock_id}")

    def sys_clock_getres(self, proc: Process, clock_id: int) -> int:
        return 1  # 1 ns resolution

    def sys_clock_settime(self, proc: Process, clock_id: int,
                          time_ns: int) -> int:
        raise KernelError(EPERM, "cannot set the clock")

    def sys_gettimeofday(self, proc: Process) -> Tuple[int, int]:
        ns = _time.time_ns()
        return ns // 1_000_000_000, (ns % 1_000_000_000) // 1000

    def sys_nanosleep(self, proc: Process, duration_ns: int) -> int:
        if duration_ns < 0:
            raise KernelError(EINVAL, "negative sleep")
        self.wait_event(proc, lambda: None, timeout_ns=duration_ns)
        return 0

    def sys_clock_nanosleep(self, proc: Process, clock_id: int, flags: int,
                            duration_ns: int) -> int:
        """Sleep ``duration_ns``, or with TIMER_ABSTIME until that time on
        ``clock_id`` (a past time returns at once)."""
        now = self.sys_clock_gettime(proc, clock_id)  # EINVAL: no such clock
        if flags & TIMER_ABSTIME and duration_ns >= 0:
            duration_ns = max(0, duration_ns - now)
        return self.sys_nanosleep(proc, duration_ns)

    def sys_alarm(self, proc: Process, seconds: int) -> int:
        """Arm ITIMER_REAL for ``seconds`` (0 disarms it); returns the
        seconds left on the old setting, rounded to the nearest and at
        least 1 while it is pending, like Linux's ``alarm_setitimer``."""
        left, _ = proc.real_timer.settime(seconds * 1_000_000_000)
        return max(1, (left + 500_000_000) // 1_000_000_000) if left else 0

    def sys_setitimer(self, proc: Process, which: int, interval_ns: int,
                      value_ns: int) -> Tuple[int, int]:
        """Returns the old ``(value, interval)``.  ITIMER_VIRTUAL and
        ITIMER_PROF, which count CPU time, fail with EINVAL."""
        if which != ITIMER_REAL:
            raise KernelError(EINVAL, f"itimer {which}")
        return proc.real_timer.settime(value_ns, interval_ns)

    def sys_getitimer(self, proc: Process, which: int) -> Tuple[int, int]:
        if which != ITIMER_REAL:
            raise KernelError(EINVAL, f"itimer {which}")
        return proc.real_timer.gettime()

    def sys_getrandom(self, proc: Process, length: int,
                      flags: int = 0) -> bytes:
        return bytes(self.rng.getrandbits(8) for _ in range(length))

    def sys_uname(self, proc: Process) -> UtsName:
        return UtsName(machine=self.machine)

    def sys_sysinfo(self, proc: Process) -> SysInfo:
        running = sum(1 for p in self.processes.values()
                      if p.state == "running")
        uptime = (_time.monotonic_ns() - self.boot_monotonic_ns) \
            // 1_000_000_000
        return SysInfo(uptime_s=uptime, procs=running)

    def sys_syslog(self, proc: Process, type_: int,
                   message: str = "") -> int:
        if message:
            self.syslog_buffer.append(message)
        return 0

    def sys_arch_prctl(self, proc: Process, code: int, addr: int) -> int:
        return 0  # TLS base registers are meaningless for Wasm guests

    def sys_chroot(self, proc: Process, path: str) -> int:
        raise KernelError(EPERM, "chroot denied")  # non-root

    def sys_memfd_create(self, proc: Process, name: str, flags: int) -> int:
        from ..vfs import Inode, S_IFREG
        from ..fdtable import OpenFile
        from ..vfs import O_RDWR
        node = Inode(S_IFREG | 0o600, proc.euid, proc.egid)
        file = OpenFile(O_RDWR, inode=node, path=f"memfd:{name}")
        return proc.fdtable.install(file)

    # eventfd2 / timerfd / epoll live in the event mixin (calls/event.py),
    # backed by the readiness waitqueue layer in kernel/eventpoll.py.
