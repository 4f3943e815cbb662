"""File descriptors: open-file descriptions, the per-process fd table, pipes.

Follows the Linux split: an :class:`OpenFile` is the *open file description*
(shared by ``dup`` and inherited by ``fork``); the :class:`FDTable` maps
small integers to descriptions plus the per-fd ``CLOEXEC`` flag.  A
description of a regular file or a directory does its own I/O; any other
holds the object behind it in ``obj`` (a pipe end, a socket, a char
device, an eventfd...), which reads, writes and polls itself
(:class:`~.eventpoll.FileOps`).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from .errno import (
    EAGAIN, EBADF, EINVAL, EISDIR, EPIPE, ESPIPE, KernelError,
)
from .eventpoll import (
    EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, FileOps, WaitQueue,
)
from .inotify import IN_CLOSE_NOWRITE, IN_CLOSE_WRITE, fsnotify_content
from .vfs import (
    Inode, O_ACCMODE, O_APPEND, O_DIRECT, O_DSYNC, O_NONBLOCK, O_RDONLY,
    O_RDWR, O_SYNC, O_WRONLY, S_IFDIR, S_IFMT,
)

PIPE_BUF_CAPACITY = 65536

# a write through a description opened with any of these goes on to disk
_WRITE_THROUGH = O_SYNC | O_DSYNC | O_DIRECT

# lseek whence
SEEK_SET, SEEK_CUR, SEEK_END = 0, 1, 2

# fcntl commands
F_DUPFD = 0
F_GETFD = 1
F_SETFD = 2
F_GETFL = 3
F_SETFL = 4
F_DUPFD_CLOEXEC = 1030
FD_CLOEXEC = 1


class Pipe:
    """A unidirectional byte channel with bounded capacity: the state a
    :class:`PipeReader` and a :class:`PipeWriter` share."""

    def __init__(self, capacity: int = PIPE_BUF_CAPACITY):
        self.buf = bytearray()
        self.capacity = capacity
        self.readers = 0
        self.writers = 0
        self.lock = threading.RLock()
        # shared readiness queue for both ends (see kernel/eventpoll.py)
        self.wq = WaitQueue()


class PipeReader(FileOps):
    """A pipe's read end."""

    def __init__(self, pipe: Pipe):
        self.pipe = pipe
        self.wq = pipe.wq
        pipe.readers += 1

    def read_step(self, length: int) -> bytes:
        pipe = self.pipe
        with pipe.lock:
            if not pipe.buf:
                if pipe.writers == 0:
                    return b""
                raise KernelError(EAGAIN, "pipe empty")
            out = bytes(pipe.buf[:length])
            del pipe.buf[:length]
        pipe.wq.wake(EPOLLOUT)  # space freed for the writer
        return out

    def poll_events(self) -> int:
        if self.pipe.writers == 0:
            return EPOLLIN | EPOLLHUP
        return EPOLLIN if self.pipe.buf else 0

    def close(self) -> None:
        with self.pipe.lock:
            self.pipe.readers -= 1
        self.wq.wake(EPOLLOUT | EPOLLERR)


class PipeWriter(FileOps):
    """A pipe's write end."""

    def __init__(self, pipe: Pipe):
        self.pipe = pipe
        self.wq = pipe.wq
        pipe.writers += 1

    def write_step(self, buf: bytes) -> int:
        if not buf:
            return 0
        pipe = self.pipe
        with pipe.lock:
            if pipe.readers == 0:
                raise KernelError(EPIPE, "no readers")
            space = pipe.capacity - len(pipe.buf)
            if space <= 0:
                raise KernelError(EAGAIN, "pipe full")
            chunk = buf[:space]
            pipe.buf.extend(chunk)
        pipe.wq.wake(EPOLLIN)  # data for the reader
        return len(chunk)

    def poll_events(self) -> int:
        pipe = self.pipe
        mask = EPOLLOUT if len(pipe.buf) < pipe.capacity else 0
        if pipe.readers == 0:
            mask |= EPOLLERR
        return mask

    def close(self) -> None:
        with self.pipe.lock:
            self.pipe.writers -= 1
        self.wq.wake(EPOLLIN | EPOLLHUP)


class OpenFile:
    """An open file description: a regular file or a directory (``obj``
    is None) or the :class:`~.eventpoll.FileOps` object in ``obj``."""

    def __init__(self, flags: int, inode: Optional[Inode] = None,
                 obj: Optional[FileOps] = None, path: str = ""):
        self.flags = flags
        # the access mode is fixed when the description is made (F_SETFL
        # cannot change it)
        acc = flags & O_ACCMODE
        self.readable = acc == O_RDONLY or acc == O_RDWR
        self.writable = acc == O_WRONLY or acc == O_RDWR
        self.inode = inode
        self.obj = obj
        self.is_dir = inode is not None and \
            inode.mode & S_IFMT == S_IFDIR
        self.path = path
        self.offset = 0
        self.refcount = 0
        self.closed = False  # last reference released (epoll auto-detach)
        self._dir_snapshot = None
        # Snapshot procfs content at open time, like reading /proc does.
        self._proc_content: Optional[bytes] = None

    # ---- refcounting (dup/fork share descriptions) ----

    def incref(self) -> "OpenFile":
        self.refcount += 1
        return self

    def decref(self) -> None:
        self.refcount -= 1
        if self.refcount <= 0:
            self._release()

    def _release(self) -> None:
        self.closed = True
        if self.obj is not None:
            self.obj.close()
        elif not self.is_dir:
            # the fsnotify close hook: tail -F style watchers key on
            # IN_CLOSE_WRITE to know a writer finished its update
            fsnotify_content(self.inode,
                             IN_CLOSE_WRITE if self.writable
                             else IN_CLOSE_NOWRITE)

    @property
    def nonblocking(self) -> bool:
        return bool(self.flags & O_NONBLOCK)

    # ---- I/O: the one step per operation ----
    #
    # ``read``/``write``/``pread``/``pwrite`` are the whole of each
    # operation on the description: the access mode, then the object's
    # step, or for a regular file the page-cache fill, O_APPEND, O_DIRECT
    # eviction and O_SYNC/O_DSYNC/O_DIRECT write-through.  The syscalls,
    # ``readv``/``writev``, ``sendfile`` and the io_uring ops all run
    # them.  None of them blocks: a file that would block raises EAGAIN,
    # and the caller waits with the blocking machinery (or parks the
    # ring op).

    def read(self, length: int) -> bytes:
        if not self.readable:
            raise KernelError(EBADF, "fd not open for reading")
        if self.obj is not None:
            return self.obj.read_step(length)
        if self.is_dir:
            raise KernelError(EISDIR)
        node = self.inode
        if node.mapping is not None:   # never set on a procfs node
            node.mapping.ensure_resident(self.offset, length)
        data = self._reg_content()
        out = bytes(data[self.offset : self.offset + length])
        self.offset += len(out)
        if self.flags & O_DIRECT and node.mapping is not None:
            node.mapping.evict_clean()  # bypass the page cache
        return out

    def pread(self, length: int, offset: int) -> bytes:
        if self.obj is not None or self.is_dir:
            raise KernelError(ESPIPE)
        if not self.readable:
            raise KernelError(EBADF, "fd not open for reading")
        node = self.inode
        if node.mapping is not None:
            node.mapping.ensure_resident(offset, length)
        out = bytes(self._reg_content()[offset : offset + length])
        if self.flags & O_DIRECT and node.mapping is not None:
            node.mapping.evict_clean()
        return out

    def write(self, buf: bytes) -> int:
        if not self.writable:
            raise KernelError(EBADF, "fd not open for writing")
        if self.obj is not None:
            return self.obj.write_step(buf)
        if not buf:
            return 0
        if self.flags & O_APPEND:
            self.offset = self.inode.size
        n = self.inode.write_at(self.offset, buf)
        self.offset += n
        if self.flags & _WRITE_THROUGH:
            self._write_through()
        return n

    def pwrite(self, buf: bytes, offset: int) -> int:
        if self.obj is not None or self.is_dir:
            raise KernelError(ESPIPE)
        if not self.writable:
            raise KernelError(EBADF, "fd not open for writing")
        n = self.inode.write_at(offset, buf)
        if self.flags & _WRITE_THROUGH:
            self._write_through()
        return n

    def _write_through(self) -> None:
        """O_SYNC / O_DSYNC fsync after the write (flush + metadata
        commit: durable); O_DIRECT pushes the data blocks straight
        through the cache *without* a commit, so the write is not
        crash-durable until an explicit fsync (the Linux contract:
        O_DIRECT is about the cache, not durability)."""
        node = self.inode
        m = node.mapping
        if m is None:
            return
        if self.flags & (O_SYNC | O_DSYNC):
            m.fs.fsync_inode(node, datasync=(self.flags & O_SYNC) != O_SYNC)
        else:
            m.fs.flush_inode(node)
            m.evict_clean()

    def fsync(self, datasync: bool = False) -> int:
        """The one fsync step (``fsync``, ``fdatasync``, the ring's
        FSYNC).  As on Linux, regular files and directories sync and
        every other fd, a procfs file included, fails with EINVAL.  A
        directory on the block mount commits the tree, so the entries
        made under it survive a crash."""
        node = self.inode
        if self.obj is not None or node.generator is not None:
            raise KernelError(EINVAL, "fsync on a file that cannot sync")
        if self.is_dir:
            if node.sb is not None:
                node.sb.fsync_dir()
        elif node.mapping is not None:
            node.mapping.fs.fsync_inode(node, datasync=datasync)
        return 0

    def seek(self, offset: int, whence: int) -> int:
        if self.obj is not None:
            if self.obj.seekable:
                return 0   # /dev/null, an eventfd...: Linux's noop_llseek
            raise KernelError(ESPIPE)
        size = 0 if self.is_dir else len(self._reg_content())
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = self.offset + offset
        elif whence == SEEK_END:
            new = size + offset
        else:
            raise KernelError(EINVAL, f"whence {whence}")
        if new < 0:
            raise KernelError(EINVAL, "negative offset")
        self.offset = new
        self._dir_snapshot = None   # a rewound directory is read afresh
        return new

    def _reg_content(self):
        if self.inode.generator is not None:  # procfs
            if self._proc_content is None:
                self._proc_content = self.inode.generator(None)
            return self._proc_content
        return self.inode.data

    def set_proc_content(self, content: bytes) -> None:
        self._proc_content = content

    # ---- poll readiness ----

    def poll_events(self) -> int:
        """Current EPOLL*/POLL* readiness mask, including HUP/ERR; a
        regular file or a directory is always ready, as on Linux."""
        if self.obj is None:
            return EPOLLIN | EPOLLOUT
        return self.obj.poll_events()


class FDTable:
    """Per-process (or shared, with CLONE_FILES) descriptor table."""

    def __init__(self, max_fds: int = 1024):
        self.entries: Dict[int, Tuple[OpenFile, bool]] = {}
        self.max_fds = max_fds

    def _lowest_free(self, start: int = 0) -> int:
        fd = start
        while fd in self.entries:
            fd += 1
        if fd >= self.max_fds:
            raise KernelError(EBADF, "fd table full")
        return fd

    def install(self, file: OpenFile, cloexec: bool = False,
                lowest: int = 0) -> int:
        fd = self._lowest_free(lowest)
        self.entries[fd] = (file.incref(), cloexec)
        return fd

    def install_at(self, fd: int, file: OpenFile, cloexec: bool = False) -> int:
        if fd < 0 or fd >= self.max_fds:
            raise KernelError(EBADF, str(fd))
        old = self.entries.get(fd)
        self.entries[fd] = (file.incref(), cloexec)
        if old is not None:
            old[0].decref()
        return fd

    def get(self, fd: int) -> OpenFile:
        entry = self.entries.get(fd)
        if entry is None:
            raise KernelError(EBADF, str(fd))
        return entry[0]

    def get_obj(self, fd: int, cls):
        """The object behind ``fd``; EINVAL unless it is a ``cls``."""
        obj = self.get(fd).obj
        if not isinstance(obj, cls):
            raise KernelError(EINVAL, f"fd {fd} is not a {cls.__name__}")
        return obj

    def close(self, fd: int) -> None:
        entry = self.entries.pop(fd, None)
        if entry is None:
            raise KernelError(EBADF, str(fd))
        entry[0].decref()

    def dup(self, fd: int, lowest: int = 0, cloexec: bool = False) -> int:
        return self.install(self.get(fd), cloexec, lowest)

    def dup2(self, oldfd: int, newfd: int, cloexec: bool = False) -> int:
        file = self.get(oldfd)
        if oldfd == newfd:
            return newfd
        return self.install_at(newfd, file, cloexec)

    def get_cloexec(self, fd: int) -> bool:
        entry = self.entries.get(fd)
        if entry is None:
            raise KernelError(EBADF, str(fd))
        return entry[1]

    def set_cloexec(self, fd: int, value: bool) -> None:
        entry = self.entries.get(fd)
        if entry is None:
            raise KernelError(EBADF, str(fd))
        self.entries[fd] = (entry[0], value)

    def close_on_exec(self) -> None:
        for fd in [fd for fd, (_, ce) in self.entries.items() if ce]:
            self.close(fd)

    def fork_copy(self) -> "FDTable":
        t = FDTable(self.max_fds)
        for fd, (file, ce) in self.entries.items():
            t.entries[fd] = (file.incref(), ce)
        return t

    def close_all(self) -> None:
        for fd in list(self.entries):
            self.close(fd)

    def fds(self):
        return sorted(self.entries)
