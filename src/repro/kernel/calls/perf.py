"""The ``perf_event_open`` syscall: perf events as epollable fds.

The event object (:mod:`repro.kernel.perf`) carries the whole fd
surface (``wq`` / ``poll_events`` / ``read_step`` / ``ioctl`` /
``close``); this mixin only validates the attribute block and installs
the description.  The ioctl dispatch lives in ``calls/fs.py`` (the
generic ``sys_ioctl`` routes a perf event's fd to the event object).
"""

from __future__ import annotations

from ..errno import EINVAL, KernelError
from ..fdtable import OpenFile
from ..perf import PERF_FLAG_FD_CLOEXEC, PerfAttr
from ..process import Process
from ..vfs import O_RDWR


class PerfCalls:
    """Mixin with the perf syscall; mixed into :class:`Kernel`."""

    def sys_perf_event_open(self, proc: Process, attr, pid: int = 0,
                            cpu: int = -1, group_fd: int = -1,
                            flags: int = 0) -> int:
        if not isinstance(attr, PerfAttr):
            raise KernelError(EINVAL, "perf_event_open needs a PerfAttr")
        if flags & ~PERF_FLAG_FD_CLOEXEC:
            raise KernelError(EINVAL, f"perf_event_open flags {flags:#x}")
        event = self.perf.open_event(proc, attr, pid, cpu, group_fd, flags)
        file = OpenFile(O_RDWR, obj=event,
                        path="anon_inode:[perf_event]")
        return proc.fdtable.install(
            file, cloexec=bool(flags & PERF_FLAG_FD_CLOEXEC))
