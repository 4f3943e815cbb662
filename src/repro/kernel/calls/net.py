"""Network syscalls over the pluggable :class:`~repro.kernel.net.NetBackend`.

The mixin only ever touches the backend API (``self.net``) and the
socket-object surface, so the same syscalls run against the loopback,
simulated-WAN, and host backends unchanged.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Tuple

from ..errno import EINVAL, ENOTSOCK, KernelError
from ..fdtable import OpenFile
from ..net import (
    SOCK_CLOEXEC, SOCK_DGRAM, SOCK_NONBLOCK, HostSocket, Socket,
)
from ..process import Process
from ..vfs import O_RDWR


class NetCalls:
    """Mixin with socket syscalls; mixed into :class:`Kernel`."""

    def _sock(self, proc: Process, fd: int) -> Socket:
        file = proc.fdtable.get(fd)
        if not isinstance(file.obj, (Socket, HostSocket)):
            raise KernelError(ENOTSOCK, str(fd))
        return file.obj

    def sys_socket(self, proc: Process, family: int, type_: int,
                   protocol: int = 0) -> int:
        sock = self.net.socket(family, type_)
        file = OpenFile(O_RDWR | type_ & SOCK_NONBLOCK, obj=sock)
        return proc.fdtable.install(file,
                                    cloexec=bool(type_ & SOCK_CLOEXEC))

    def sys_bind(self, proc: Process, fd: int, addr: Tuple) -> int:
        self.net.bind(self._sock(proc, fd), addr)
        return 0

    def sys_listen(self, proc: Process, fd: int, backlog: int) -> int:
        self.net.listen(self._sock(proc, fd), backlog)
        return 0

    def sys_connect(self, proc: Process, fd: int, addr: Tuple) -> int:
        self.net.connect(self._sock(proc, fd), addr)
        return 0

    def accept_step(self, proc: Process, listener: OpenFile,
                    flags: int) -> int:
        """The one accept step (``accept4`` and the ring's ACCEPT): take
        one pending connection, EAGAIN when there is none, and install
        it with ``SOCK_NONBLOCK``/``SOCK_CLOEXEC`` from ``flags``."""
        conn = self.net.accept_step(listener.obj)
        file = OpenFile(O_RDWR | flags & SOCK_NONBLOCK, obj=conn)
        return proc.fdtable.install(file,
                                    cloexec=bool(flags & SOCK_CLOEXEC))

    def sys_accept4(self, proc: Process, fd: int, flags: int = 0) -> int:
        self._sock(proc, fd)
        listener = proc.fdtable.get(fd)
        return self._blocking_io(
            proc, listener, partial(self.accept_step, proc, listener, flags))

    def sys_accept(self, proc: Process, fd: int) -> int:
        return self.sys_accept4(proc, fd, 0)

    def sys_sendto(self, proc: Process, fd: int, data,
                   addr: Optional[Tuple] = None) -> int:
        file = proc.fdtable.get(fd)
        sock = self._sock(proc, fd)
        data = bytes(data)
        if sock.type == SOCK_DGRAM or addr is not None:
            return self.net.sendto(sock, data, addr)
        total = 0
        while total < len(data):
            n = self._blocking_io(proc, file,
                                  lambda: sock.send_step(data[total:]))
            total += n
        return total

    def sys_recvfrom(self, proc: Process, fd: int,
                     length: int) -> Tuple[bytes, Tuple]:
        file = proc.fdtable.get(fd)
        sock = self._sock(proc, fd)
        return self._blocking_io(
            proc, file, lambda: self.net.recvfrom_step(sock, length))

    def sys_sendmsg(self, proc: Process, fd: int, bufs: List[bytes],
                    addr: Optional[Tuple] = None) -> int:
        return self.sys_sendto(proc, fd, b"".join(bytes(b) for b in bufs),
                               addr)

    def sys_recvmsg(self, proc: Process, fd: int,
                    length: int) -> Tuple[bytes, Tuple]:
        return self.sys_recvfrom(proc, fd, length)

    def sys_shutdown(self, proc: Process, fd: int, how: int) -> int:
        self._sock(proc, fd).shutdown(how)
        return 0

    def sys_socketpair(self, proc: Process, family: int,
                       type_: int) -> Tuple[int, int]:
        a, b = self.net.socketpair(family, type_)
        fa = proc.fdtable.install(OpenFile(O_RDWR, obj=a))
        fb = proc.fdtable.install(OpenFile(O_RDWR, obj=b))
        return fa, fb

    def sys_setsockopt(self, proc: Process, fd: int, level: int,
                       optname: int, value: int) -> int:
        self._sock(proc, fd).opts[(level, optname)] = value
        return 0

    def sys_getsockopt(self, proc: Process, fd: int, level: int,
                       optname: int) -> int:
        return self._sock(proc, fd).opts.get((level, optname), 0)

    def sys_getsockname(self, proc: Process, fd: int) -> Tuple:
        return self._sock(proc, fd).addr or ("", 0)

    def sys_getpeername(self, proc: Process, fd: int) -> Tuple:
        sock = self._sock(proc, fd)
        if sock.peer_addr is None:
            raise KernelError(EINVAL, "not connected")
        return sock.peer_addr
