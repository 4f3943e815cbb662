"""Readiness-source syscalls for filesystem events and signals:
``inotify_init1``/``inotify_add_watch``/``inotify_rm_watch`` and
``signalfd4``.

Both front-ends sit on the waitqueue layer in
:mod:`repro.kernel.eventpoll`: mutating VFS operations (and signal
generation) publish events, and the resulting fds are first-class
epollable files — readiness flows through ``epoll_pwait``, ``ppoll``
and ``io_uring`` ``POLL_ADD``/``READ`` unchanged.
"""

from __future__ import annotations

from ..errno import EINVAL, KernelError
from ..fdtable import OpenFile
from ..inotify import (
    IN_CLOEXEC, IN_DONT_FOLLOW, IN_NONBLOCK, Inotify,
)
from ..process import Process
from ..signals import SFD_CLOEXEC, SFD_NONBLOCK, SignalFD
from ..vfs import O_NONBLOCK, O_RDONLY, O_RDWR


class NotifyCalls:
    """Mixin with inotify/signalfd syscalls; mixed into :class:`Kernel`."""

    # ---- inotify ----

    def sys_inotify_init1(self, proc: Process, flags: int = 0) -> int:
        if flags & ~(IN_CLOEXEC | IN_NONBLOCK):
            raise KernelError(EINVAL, f"inotify_init1 flags {flags:#o}")
        file = OpenFile(
            O_RDONLY | (O_NONBLOCK if flags & IN_NONBLOCK else 0),
            obj=Inotify(trace=self.trace), path="anon_inode:inotify")
        return proc.fdtable.install(file,
                                    cloexec=bool(flags & IN_CLOEXEC))

    def sys_inotify_init(self, proc: Process) -> int:
        return self.sys_inotify_init1(proc, 0)

    def sys_inotify_add_watch(self, proc: Process, fd: int, path: str,
                              mask: int) -> int:
        ino = proc.fdtable.get_obj(fd, Inotify)
        node = self.vfs.resolve(path, proc.cwd or self.vfs.root,
                                follow=not mask & IN_DONT_FOLLOW, proc=proc)
        return ino.add_watch(node, mask)

    def sys_inotify_rm_watch(self, proc: Process, fd: int, wd: int) -> int:
        proc.fdtable.get_obj(fd, Inotify).rm_watch(wd)
        return 0

    # ---- signalfd ----

    def sys_signalfd4(self, proc: Process, fd: int, mask: int,
                      flags: int = 0) -> int:
        if flags & ~(SFD_CLOEXEC | SFD_NONBLOCK):
            raise KernelError(EINVAL, f"signalfd4 flags {flags:#o}")
        if fd != -1:
            # update the mask of an existing signalfd in place
            proc.fdtable.get_obj(fd, SignalFD).set_mask(mask)
            return fd
        sfd = SignalFD(proc, mask)
        file = OpenFile(
            O_RDWR | (O_NONBLOCK if flags & SFD_NONBLOCK else 0),
            obj=sfd, path="anon_inode:[signalfd]")
        return proc.fdtable.install(file,
                                    cloexec=bool(flags & SFD_CLOEXEC))

    def sys_signalfd(self, proc: Process, fd: int, mask: int) -> int:
        return self.sys_signalfd4(proc, fd, mask, 0)
