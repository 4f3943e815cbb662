"""File operations per fd type: one table row per kind of descriptor.

Each row opens one fd in a fresh kernel and runs the same sequence on
it: the poll mask (``ppoll`` for POLLIN|POLLPRI|POLLOUT, zero timeout),
a 128-byte ``read``, an empty ``write``, an 8-byte ``write``,
``lseek(fd, 0, SEEK_CUR)``, ``fsync``, the access mode from
``fcntl(F_GETFL)`` and ``close``.  Each outcome is the call's value or
the name of its errno.  Fds that could block are non-blocking, so a
would-block read reads ``EAGAIN``.

Where this host can open the same fd type (a pipe, an eventfd, an epoll
instance, a socketpair, a ``/tmp`` file, a directory, ``/dev/null``), the
same sequence runs on the host's fd too and must give the same outcomes:
Linux is the oracle.  ``CALLS`` adds single calls on some rows' fds
(``ioctl(TCGETS)``, ``pread64``, ``pwrite64``), checked the same way.
"""

import errno
import fcntl
import os
import select
import socket
import termios

import pytest

from repro.kernel import (
    AF_INET, IN_NONBLOCK, Kernel, KernelError, PERF_TYPE_COUNTER, PerfAttr,
    SFD_NONBLOCK, SOCK_STREAM,
)
from repro.kernel.fdtable import F_GETFL, F_SETFL, SEEK_CUR
from repro.kernel.vfs import (
    AT_FDCWD, O_ACCMODE, O_DIRECTORY, O_NONBLOCK, O_RDONLY, O_RDWR,
)

POLLIN, POLLPRI, POLLOUT, POLLHUP = 1, 2, 4, 16
EFD_NONBLOCK = TFD_NONBLOCK = O_NONBLOCK
WORD = (1).to_bytes(8, "little")
CONTENT = b"hello"

# (poll, read, write b"", write 8 bytes, lseek, fsync, access mode, close)
ROWS = {
    "tmp_file": (POLLIN | POLLOUT, CONTENT, 0, 8, 13, 0, O_RDWR, 0),
    "data_file": (POLLIN | POLLOUT, CONTENT, 0, 8, 13, 0, O_RDWR, 0),
    "directory": (POLLIN | POLLOUT, "EISDIR", "EBADF", "EBADF", 0, 0,
                  O_RDONLY, 0),
    "dev_null": (POLLIN | POLLOUT, b"", 0, 8, 0, "EINVAL", O_RDWR, 0),
    "tty": (POLLIN | POLLOUT, b"", 0, 8, "ESPIPE", "EINVAL", O_RDWR, 0),
    "pipe_read_end": (0, "EAGAIN", "EBADF", "EBADF", "ESPIPE", "EINVAL",
                      O_RDONLY, 0),
    # the read end of an empty pipe whose writers are gone: hung up, and
    # a read is end of file
    "pipe_read_end_hup": (POLLHUP, b"", "EBADF", "EBADF", "ESPIPE",
                          "EINVAL", O_RDONLY, 0),
    "pipe_write_end": (POLLOUT, "EBADF", 0, 8, "ESPIPE", "EINVAL",
                       os.O_WRONLY, 0),
    "socketpair_end": (POLLOUT, "EAGAIN", 0, 8, "ESPIPE", "EINVAL",
                       O_RDWR, 0),
    "eventfd": (POLLOUT, "EAGAIN", "EINVAL", 8, 0, "EINVAL",
                O_RDWR, 0),
    "timerfd": (0, "EAGAIN", "EINVAL", "EINVAL", 0, "EINVAL",
                O_RDWR, 0),
    "epoll": (0, "EINVAL", "EINVAL", "EINVAL", 0, "EINVAL",
              O_RDWR, 0),
    "io_uring": (0, "EINVAL", "EINVAL", "EINVAL", "ESPIPE", "EINVAL",
                 O_RDWR, 0),
    "inotify": (0, "EAGAIN", "EBADF", "EBADF", 0, "EINVAL",
                O_RDONLY, 0),
    "signalfd": (0, "EAGAIN", "EINVAL", "EINVAL", 0, "EINVAL",
                 O_RDWR, 0),
    "trace_pipe": (0, "EAGAIN", "EBADF", "EBADF", "ESPIPE", "EINVAL",
                   O_RDONLY, 0),
    "perf_counter": (POLLIN, bytes(8), "EINVAL", "EINVAL", "ESPIPE",
                     "EINVAL", O_RDWR, 0),
}


def _open(k, proc, row: str) -> int:
    """Open the fd of ``row`` in ``proc``."""
    call = lambda *a: k.call(proc, *a)  # noqa: E731
    if row in ("tmp_file", "data_file"):
        path = "/tmp/f" if row == "tmp_file" else "/data/f"
        k.vfs.write_file(path, CONTENT)
        return call("openat", AT_FDCWD, path, O_RDWR)
    if row == "directory":
        return call("openat", AT_FDCWD, "/tmp", O_RDONLY | O_DIRECTORY)
    if row == "dev_null":
        return call("openat", AT_FDCWD, "/dev/null", O_RDWR)
    if row == "tty":
        return 0
    if row in ("pipe_read_end", "pipe_write_end"):
        r, w = call("pipe2", O_NONBLOCK)
        return r if row == "pipe_read_end" else w
    if row == "pipe_read_end_hup":
        r, w = call("pipe2", O_NONBLOCK)
        call("close", w)
        return r
    if row == "socketpair_end":
        a, _b = call("socketpair", AF_INET, SOCK_STREAM)
        call("fcntl", a, F_SETFL, O_NONBLOCK)
        return a
    if row == "eventfd":
        return call("eventfd2", 0, EFD_NONBLOCK)
    if row == "timerfd":
        return call("timerfd_create", 1, TFD_NONBLOCK)
    if row == "epoll":
        return call("epoll_create1", 0)
    if row == "io_uring":
        return call("io_uring_setup", 8)
    if row == "inotify":
        return call("inotify_init1", IN_NONBLOCK)
    if row == "signalfd":
        return call("signalfd4", -1, 1 << 9, SFD_NONBLOCK)  # SIGUSR1
    if row == "trace_pipe":
        return call("openat", AT_FDCWD, "/proc/trace_pipe",
                    O_RDONLY | O_NONBLOCK)
    if row == "perf_counter":
        attr = PerfAttr(type=PERF_TYPE_COUNTER, config="syscall.getpid")
        return call("perf_event_open", attr, 0, -1, -1, 0)
    raise KeyError(row)


def _outcomes(ops):
    """Run each zero-argument op in order: its value or its errno name."""
    out = []
    for op in ops:
        try:
            out.append(op())
        except (KernelError, OSError) as exc:
            out.append(errno.errorcode[exc.errno])
    return tuple(out)


def _kernel_fd(row: str):
    """A fresh kernel's fd of ``row`` and a caller in its process."""
    k = Kernel()
    proc = k.create_process(["fdops"])
    return _open(k, proc, row), lambda *a: k.call(proc, *a)


def _kernel_row(row: str):
    fd, call = _kernel_fd(row)

    def poll():
        ready = call("ppoll", [(fd, POLLIN | POLLPRI | POLLOUT)], 0)
        return ready[0][1] if ready else 0

    return _outcomes((
        poll,
        lambda: call("read", fd, 128),
        lambda: call("write", fd, b""),
        lambda: call("write", fd, WORD),
        lambda: call("lseek", fd, 0, SEEK_CUR),
        lambda: call("fsync", fd),
        lambda: call("fcntl", fd, F_GETFL) & O_ACCMODE,
        lambda: call("close", fd),
    ))


def _host_row(fd: int):
    def poll():
        p = select.poll()
        p.register(fd, POLLIN | POLLPRI | POLLOUT)
        ready = p.poll(0)
        return ready[0][1] if ready else 0

    def close():
        os.close(fd)
        return 0

    return _outcomes((
        poll,
        lambda: os.read(fd, 128),
        lambda: os.write(fd, b""),
        lambda: os.write(fd, WORD),
        lambda: os.lseek(fd, 0, os.SEEK_CUR),
        lambda: os.fsync(fd) or 0,
        lambda: fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_ACCMODE,
        close,
    ))


@pytest.mark.parametrize("row", sorted(ROWS))
def test_fd_type_outcomes(row):
    assert _kernel_row(row) == ROWS[row]


def _host_fd(row, tmp_path, keep):
    """The host's fd of the same type as ``row``; ``keep`` holds what
    must stay open meanwhile (the other pipe end, the peer socket)."""
    if row == "tmp_file":
        path = tmp_path / "f"
        path.write_bytes(CONTENT)
        return os.open(path, os.O_RDWR)
    if row == "directory":
        return os.open(tmp_path, os.O_RDONLY | os.O_DIRECTORY)
    if row == "dev_null":
        return os.open("/dev/null", os.O_RDWR)
    if row == "pipe_read_end_hup":
        r, w = os.pipe2(os.O_NONBLOCK)
        os.close(w)
        return r
    if row in ("pipe_read_end", "pipe_write_end"):
        r, w = os.pipe2(os.O_NONBLOCK)
        mine, other = (r, w) if row == "pipe_read_end" else (w, r)
        keep.append(other)
        return mine
    if row == "socketpair_end":
        a, b = socket.socketpair()
        a.setblocking(False)
        keep.append(b.detach())
        return a.detach()
    if row == "eventfd":
        return os.eventfd(0, os.EFD_NONBLOCK)
    if row == "epoll":
        ep = select.epoll()
        fd = os.dup(ep.fileno())
        ep.close()
        return fd
    raise KeyError(row)


HOST_ROWS = ["dev_null", "directory", "epoll", "eventfd", "pipe_read_end",
             "pipe_read_end_hup", "pipe_write_end", "socketpair_end",
             "tmp_file"]


@pytest.mark.skipif(not hasattr(os, "eventfd"), reason="needs Linux")
@pytest.mark.parametrize("row", HOST_ROWS)
def test_fd_type_matches_linux(row, tmp_path):
    keep = []
    try:
        fd = _host_fd(row, tmp_path, keep)
        assert _host_row(fd) == ROWS[row]
    finally:
        for other in keep:
            os.close(other)


# ---- single calls on a row's fd ----

TCGETS = 0x5401

# (row, call) -> outcome: only a terminal answers TCGETS (a guest's
# isatty), and a directory is not read or written at an offset
CALLS = {
    ("tty", "TCGETS"): 0,
    ("dev_null", "TCGETS"): "ENOTTY",
    ("directory", "pread64"): "EISDIR",
    ("directory", "pwrite64"): "EBADF",
}
HOST_CALLS = [key for key in CALLS if key[0] in HOST_ROWS]


def _kernel_call(call, fd: int, name: str):
    if name == "TCGETS":
        return call("ioctl", fd, TCGETS, 0)
    if name == "pread64":
        return call("pread64", fd, 10, 0)
    return call("pwrite64", fd, b"x", 0)


def _host_call(fd: int, name: str):
    if name == "TCGETS":
        fcntl.ioctl(fd, termios.TCGETS, bytes(60))
        return 0
    if name == "pread64":
        return os.pread(fd, 10, 0)
    return os.pwrite(fd, b"x", 0)


@pytest.mark.parametrize("row,name", sorted(CALLS))
def test_fd_call_outcomes(row, name):
    fd, call = _kernel_fd(row)
    assert _outcomes([lambda: _kernel_call(call, fd, name)]) == \
        (CALLS[row, name],)


@pytest.mark.skipif(not hasattr(os, "eventfd"), reason="needs Linux")
@pytest.mark.parametrize("row,name", sorted(HOST_CALLS))
def test_fd_call_matches_linux(row, name, tmp_path):
    fd = _host_fd(row, tmp_path, [])
    try:
        assert _outcomes([lambda: _host_call(fd, name)]) == \
            (CALLS[row, name],)
    finally:
        os.close(fd)
