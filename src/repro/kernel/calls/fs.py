"""Filesystem syscalls.

Kernel-level signatures use Python types (str paths, bytes buffers); the
WALI layer performs the pointer translation and struct encoding (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errno import (
    EACCES, EBADF, EEXIST, EINVAL, EISDIR, ELOOP, ENOENT, ENOTDIR, ENOTEMPTY,
    ENOTTY, KernelError,
)
from ..fdtable import (
    F_DUPFD, F_DUPFD_CLOEXEC, F_GETFD, F_GETFL, F_SETFD, F_SETFL, FD_CLOEXEC,
    OpenFile, Pipe, PipeReader, PipeWriter,
)
from ..inotify import (
    IN_ATTRIB, IN_CREATE, fsnotify_content, fsnotify_inode_gone,
    fsnotify_move, fsnotify_name,
)
from ..net import HostSocket, Socket
from ..perf import CountingPerfEvent, SamplingPerfEvent
from ..process import Process, RLIMIT_FSIZE, RLIM_INFINITY
from ..vfs import (
    AT_FDCWD, AT_REMOVEDIR, AT_SYMLINK_NOFOLLOW, CharDevice, DirEntry, Inode,
    O_ACCMODE, O_APPEND, O_CLOEXEC, O_CREAT, O_DIRECTORY, O_EXCL, O_NOFOLLOW,
    O_NONBLOCK, O_RDONLY, O_TRUNC, O_WRONLY, S_IFDIR, S_IFIFO, S_IFMT, S_IFREG,
)

# ioctl requests we answer
TCGETS = 0x5401
TIOCGWINSZ = 0x5413
FIONREAD = 0x541B
FIONBIO = 0x5421

# SYNC_FILE_RANGE_WAIT_BEFORE | _WRITE | _WAIT_AFTER
SYNC_FILE_RANGE_FLAGS = 0x7

# the fds a write(2) keeps writing to until it has written everything
_STREAMS = (PipeWriter, Socket, HostSocket)


@dataclass
class Stat:
    """ISA-independent stat payload; WALI encodes the per-ISA kstat layout."""

    st_dev: int = 0
    st_ino: int = 0
    st_mode: int = 0
    st_nlink: int = 0
    st_uid: int = 0
    st_gid: int = 0
    st_rdev: int = 0
    st_size: int = 0
    st_blksize: int = 4096
    st_blocks: int = 0
    st_atime_ns: int = 0
    st_mtime_ns: int = 0
    st_ctime_ns: int = 0


@dataclass
class StatFS:
    f_type: int = 0x01021994  # TMPFS_MAGIC
    f_bsize: int = 4096
    f_blocks: int = 262144
    f_bfree: int = 131072
    f_bavail: int = 131072
    f_files: int = 65536
    f_ffree: int = 32768
    f_namelen: int = 255


def _stat_of(node: Inode) -> Stat:
    return Stat(
        st_dev=1, st_ino=node.ino, st_mode=node.mode, st_nlink=node.nlink,
        st_uid=node.uid, st_gid=node.gid, st_rdev=node.rdev,
        st_size=node.size, st_blocks=(node.size + 511) // 512,
        st_atime_ns=node.atime_ns, st_mtime_ns=node.mtime_ns,
        st_ctime_ns=node.ctime_ns)


class FSCalls:
    """Mixin with filesystem syscalls; mixed into :class:`Kernel`."""

    # ---- path helpers ----

    def _at_dir(self, proc: Process, dirfd: int) -> Inode:
        if dirfd == AT_FDCWD:
            return proc.cwd or self.vfs.root
        file = proc.fdtable.get(dirfd)
        if file.inode is None or not file.inode.is_dir:
            raise KernelError(ENOTDIR, f"dirfd {dirfd}")
        return file.inode

    def _resolve_at(self, proc: Process, dirfd: int, path: str,
                    follow: bool = True) -> Inode:
        return self.vfs.resolve(path, self._at_dir(proc, dirfd), follow, proc)

    # ---- open/close ----

    def sys_openat(self, proc: Process, dirfd: int, path: str, flags: int,
                   mode: int = 0o644) -> int:
        base = self._at_dir(proc, dirfd)
        try:
            node = self.vfs.resolve(path, base,
                                    follow=not flags & O_NOFOLLOW, proc=proc)
            if flags & O_CREAT and flags & O_EXCL:
                raise KernelError(EEXIST, path)
        except KernelError as exc:
            if exc.errno != ENOENT or not flags & O_CREAT:
                raise
            parent, name = self.vfs.resolve_parent(path, base, proc)
            node = Inode(S_IFREG | (mode & ~proc.umask & 0o7777),
                         proc.euid, proc.egid)
            fsize = proc.getrlimit(RLIMIT_FSIZE)[0]
            if fsize != RLIM_INFINITY:
                node.fs_limit = fsize
            self.vfs.attach_child(parent, name, node)
            fsnotify_name(parent, node, IN_CREATE, name)
        if node.is_symlink and flags & O_NOFOLLOW:
            raise KernelError(ELOOP, path)
        if flags & O_DIRECTORY and not node.is_dir:
            raise KernelError(ENOTDIR, path)
        if node.opener is not None:
            # live-object endpoint (e.g. /proc/trace_pipe): the node
            # hands out its own open-file description
            return proc.fdtable.install(node.opener(proc, flags),
                                        cloexec=bool(flags & O_CLOEXEC))
        accmode = flags & O_ACCMODE
        if node.is_dir and accmode != O_RDONLY:
            raise KernelError(EISDIR, path)
        if flags & O_TRUNC and node.is_file and accmode != O_RDONLY:
            node.truncate(0)
        # a char device is the object of its fds; other nodes have none
        file = OpenFile(flags, inode=node, obj=node.device, path=path)
        if node.generator is not None:
            file.set_proc_content(node.generator(proc))
        return proc.fdtable.install(file, cloexec=bool(flags & O_CLOEXEC))

    def sys_open(self, proc: Process, path: str, flags: int,
                 mode: int = 0o644) -> int:
        return self.sys_openat(proc, AT_FDCWD, path, flags, mode)

    def sys_creat(self, proc: Process, path: str, mode: int) -> int:
        return self.sys_openat(proc, AT_FDCWD, path,
                               O_CREAT | O_WRONLY | O_TRUNC, mode)

    def sys_close(self, proc: Process, fd: int) -> int:
        proc.fdtable.close(fd)
        return 0

    # ---- read/write ----

    def sys_read(self, proc: Process, fd: int, length: int) -> bytes:
        if length < 0:
            raise KernelError(EINVAL, "negative length")
        file = proc.fdtable.get(fd)
        if file.obj is not None:
            return self._blocking_io(proc, file, lambda: file.read(length))
        data = file.read(length)     # a regular file never blocks
        if self.storage_latency_ns_per_4k:
            self.storage_charge(len(data))
        return data

    def sys_write(self, proc: Process, fd: int, data) -> int:
        file = proc.fdtable.get(fd)
        data = bytes(data)
        if file.obj is None or not data:
            total = file.write(data)     # it never blocks
            if self.storage_latency_ns_per_4k:
                self.storage_charge(total)
            return total
        total = 0
        while total < len(data):
            n = self._blocking_io(
                proc, file, lambda: file.write(data[total:]))
            total += n
            if not isinstance(file.obj, _STREAMS):
                break  # devices write everything in one step
        return total

    def sys_pread64(self, proc: Process, fd: int, length: int,
                    offset: int) -> bytes:
        data = proc.fdtable.get(fd).pread(length, offset)
        if self.storage_latency_ns_per_4k:
            self.storage_charge(len(data))
        return data

    def sys_pwrite64(self, proc: Process, fd: int, data, offset: int) -> int:
        n = proc.fdtable.get(fd).pwrite(bytes(data), offset)
        if self.storage_latency_ns_per_4k:
            self.storage_charge(n)
        return n

    def sys_readv(self, proc: Process, fd: int, lengths: List[int]) -> bytes:
        return self.sys_read(proc, fd, sum(lengths))

    def sys_writev(self, proc: Process, fd: int, bufs: List[bytes]) -> int:
        return self.sys_write(proc, fd, b"".join(bytes(b) for b in bufs))

    def sys_lseek(self, proc: Process, fd: int, offset: int,
                  whence: int) -> int:
        return proc.fdtable.get(fd).seek(offset, whence)

    def sys_sendfile(self, proc: Process, out_fd: int, in_fd: int,
                     offset: Optional[int], count: int) -> int:
        infile = proc.fdtable.get(in_fd)
        if offset is None:
            data = infile.read(count)
        else:
            data = infile.pread(count, offset)
        return self.sys_write(proc, out_fd, data)

    # ---- fd management ----

    def sys_dup(self, proc: Process, fd: int) -> int:
        return proc.fdtable.dup(fd)

    def sys_dup2(self, proc: Process, oldfd: int, newfd: int) -> int:
        return proc.fdtable.dup2(oldfd, newfd)

    def sys_dup3(self, proc: Process, oldfd: int, newfd: int,
                 flags: int) -> int:
        if oldfd == newfd:
            raise KernelError(EINVAL, "dup3 with equal fds")
        return proc.fdtable.dup2(oldfd, newfd,
                                 cloexec=bool(flags & O_CLOEXEC))

    def sys_fcntl(self, proc: Process, fd: int, cmd: int, arg: int = 0) -> int:
        table = proc.fdtable
        if cmd == F_DUPFD:
            return table.dup(fd, lowest=arg)
        if cmd == F_DUPFD_CLOEXEC:
            return table.dup(fd, lowest=arg, cloexec=True)
        if cmd == F_GETFD:
            return FD_CLOEXEC if table.get_cloexec(fd) else 0
        if cmd == F_SETFD:
            table.set_cloexec(fd, bool(arg & FD_CLOEXEC))
            return 0
        if cmd == F_GETFL:
            return table.get(fd).flags
        if cmd == F_SETFL:
            file = table.get(fd)
            settable = O_APPEND | O_NONBLOCK
            file.flags = (file.flags & ~settable) | (arg & settable)
            return 0
        raise KernelError(EINVAL, f"fcntl cmd {cmd}")

    def sys_pipe2(self, proc: Process, flags: int = 0) -> Tuple[int, int]:
        pipe = Pipe()
        cloexec = bool(flags & O_CLOEXEC)
        nonblock = flags & O_NONBLOCK
        r = proc.fdtable.install(
            OpenFile(O_RDONLY | nonblock, obj=PipeReader(pipe)), cloexec)
        w = proc.fdtable.install(
            OpenFile(O_WRONLY | nonblock, obj=PipeWriter(pipe)), cloexec)
        return r, w

    def sys_pipe(self, proc: Process) -> Tuple[int, int]:
        return self.sys_pipe2(proc, 0)

    # ---- metadata ----

    def sys_fstat(self, proc: Process, fd: int) -> Stat:
        file = proc.fdtable.get(fd)
        if file.inode is None:
            return Stat(st_mode=S_IFIFO | 0o600, st_ino=0)
        return _stat_of(file.inode)

    def sys_newfstatat(self, proc: Process, dirfd: int, path: str,
                       flags: int = 0) -> Stat:
        if not path and flags & 0x1000:  # AT_EMPTY_PATH
            return self.sys_fstat(proc, dirfd)
        follow = not flags & AT_SYMLINK_NOFOLLOW
        return _stat_of(self._resolve_at(proc, dirfd, path, follow))

    def sys_stat(self, proc: Process, path: str) -> Stat:
        return self.sys_newfstatat(proc, AT_FDCWD, path)

    def sys_lstat(self, proc: Process, path: str) -> Stat:
        return self.sys_newfstatat(proc, AT_FDCWD, path, AT_SYMLINK_NOFOLLOW)

    def sys_faccessat(self, proc: Process, dirfd: int, path: str,
                      mode: int = 0) -> int:
        node = self._resolve_at(proc, dirfd, path)
        if mode & 0o2 and not node.mode & 0o222 and proc.euid != 0:
            raise KernelError(EACCES, path)
        return 0

    def sys_access(self, proc: Process, path: str, mode: int) -> int:
        return self.sys_faccessat(proc, AT_FDCWD, path, mode)

    def sys_statfs(self, proc: Process, path: str) -> StatFS:
        self.vfs.resolve(path, proc.cwd or self.vfs.root, proc=proc)
        return StatFS()

    def sys_fstatfs(self, proc: Process, fd: int) -> StatFS:
        proc.fdtable.get(fd)
        return StatFS()

    def sys_statx(self, proc: Process, dirfd: int, path: str,
                  flags: int = 0) -> Stat:
        return self.sys_newfstatat(proc, dirfd, path, flags)

    # ---- directories & links ----

    def sys_getdents64(self, proc: Process, fd: int,
                       count: int) -> List[Tuple[int, DirEntry]]:
        """The entries from the fd's directory position whose
        linux_dirent64 records fit in ``count`` bytes, each paired with
        its ``d_off``: the position after it.  EINVAL when the next entry
        does not fit; an empty list at the end of the directory."""
        file = proc.fdtable.get(fd)
        if not file.is_dir:
            raise KernelError(ENOTDIR, str(fd))
        if file._dir_snapshot is None:
            file._dir_snapshot = self.vfs.readdir(file.inode)
        out = []
        for entry in file._dir_snapshot[file.offset:]:
            count -= entry.reclen
            if count < 0:
                if not out:
                    raise KernelError(EINVAL, "buffer too small")
                break
            file.offset += 1
            out.append((file.offset, entry))
        return out

    def sys_getcwd(self, proc: Process) -> str:
        return self.vfs.path_of(proc.cwd or self.vfs.root)

    def sys_chdir(self, proc: Process, path: str) -> int:
        node = self.vfs.resolve(path, proc.cwd or self.vfs.root, proc=proc)
        if not node.is_dir:
            raise KernelError(ENOTDIR, path)
        proc.cwd = node
        return 0

    def sys_fchdir(self, proc: Process, fd: int) -> int:
        file = proc.fdtable.get(fd)
        if file.inode is None or not file.inode.is_dir:
            raise KernelError(ENOTDIR, str(fd))
        proc.cwd = file.inode
        return 0

    def sys_mkdirat(self, proc: Process, dirfd: int, path: str,
                    mode: int) -> int:
        base = self._at_dir(proc, dirfd)
        parent, name = self.vfs.resolve_parent(path, base, proc)
        if name in parent.entries:
            raise KernelError(EEXIST, path)
        node = Inode(S_IFDIR | (mode & ~proc.umask & 0o7777),
                     proc.euid, proc.egid)
        self.vfs.attach_child(parent, name, node)
        parent.nlink += 1
        fsnotify_name(parent, node, IN_CREATE, name)
        return 0

    def sys_mkdir(self, proc: Process, path: str, mode: int) -> int:
        return self.sys_mkdirat(proc, AT_FDCWD, path, mode)

    def sys_unlinkat(self, proc: Process, dirfd: int, path: str,
                     flags: int = 0) -> int:
        base = self._at_dir(proc, dirfd)
        self.vfs.unlink(path, base, rmdir=bool(flags & AT_REMOVEDIR))
        return 0

    def sys_unlink(self, proc: Process, path: str) -> int:
        return self.sys_unlinkat(proc, AT_FDCWD, path, 0)

    def sys_rmdir(self, proc: Process, path: str) -> int:
        return self.sys_unlinkat(proc, AT_FDCWD, path, AT_REMOVEDIR)

    def sys_renameat(self, proc: Process, olddirfd: int, old: str,
                     newdirfd: int, new: str) -> int:
        obase = self._at_dir(proc, olddirfd)
        nbase = self._at_dir(proc, newdirfd)
        if obase is not nbase and (old.startswith("/") != new.startswith("/")):
            pass  # both resolved independently below anyway
        # VFS rename resolves both paths from their own bases:
        op, oname = self.vfs.resolve_parent(old, obase, proc)
        node = op.entries.get(oname)
        if node is None:
            raise KernelError(ENOENT, old)
        np, nname = self.vfs.resolve_parent(new, nbase, proc)
        existing = np.entries.get(nname)
        if existing is not None:
            # same clobber guards as vfs.rename
            if existing.is_dir and not node.is_dir:
                raise KernelError(EISDIR, new)
            if node.is_dir and existing.is_dir and existing.entries:
                raise KernelError(ENOTEMPTY, new)
        self.vfs._detach_child(op, oname, node)
        self.vfs.attach_child(np, nname, node)
        if existing is not None and existing is not node:
            existing.nlink -= 1
            fsnotify_inode_gone(existing)
        fsnotify_move(op, np, node, oname, nname)
        return 0

    def sys_rename(self, proc: Process, old: str, new: str) -> int:
        return self.sys_renameat(proc, AT_FDCWD, old, AT_FDCWD, new)

    def sys_renameat2(self, proc: Process, olddirfd: int, old: str,
                      newdirfd: int, new: str, flags: int = 0) -> int:
        return self.sys_renameat(proc, olddirfd, old, newdirfd, new)

    def sys_linkat(self, proc: Process, olddirfd: int, old: str,
                   newdirfd: int, new: str, flags: int = 0) -> int:
        self.vfs.link(old, new, self._at_dir(proc, olddirfd))
        return 0

    def sys_link(self, proc: Process, old: str, new: str) -> int:
        return self.sys_linkat(proc, AT_FDCWD, old, AT_FDCWD, new, 0)

    def sys_symlinkat(self, proc: Process, target: str, dirfd: int,
                      path: str) -> int:
        self.vfs.symlink(target, path, self._at_dir(proc, dirfd))
        return 0

    def sys_symlink(self, proc: Process, target: str, path: str) -> int:
        return self.sys_symlinkat(proc, target, AT_FDCWD, path)

    def sys_readlinkat(self, proc: Process, dirfd: int, path: str) -> str:
        node = self._resolve_at(proc, dirfd, path, follow=False)
        if not node.is_symlink:
            raise KernelError(EINVAL, path)
        if node.target is None and node.generator is not None:
            return node.generator(proc)
        return node.target or ""

    def sys_readlink(self, proc: Process, path: str) -> str:
        return self.sys_readlinkat(proc, AT_FDCWD, path)

    # ---- permissions / ownership / sizes ----

    def sys_fchmodat(self, proc: Process, dirfd: int, path: str,
                     mode: int) -> int:
        node = self._resolve_at(proc, dirfd, path)
        node.mode = (node.mode & S_IFMT) | (mode & 0o7777)
        fsnotify_content(node, IN_ATTRIB)
        return 0

    def sys_chmod(self, proc: Process, path: str, mode: int) -> int:
        return self.sys_fchmodat(proc, AT_FDCWD, path, mode)

    def sys_fchmod(self, proc: Process, fd: int, mode: int) -> int:
        node = proc.fdtable.get(fd).inode
        if node is None:
            raise KernelError(EBADF)
        node.mode = (node.mode & S_IFMT) | (mode & 0o7777)
        return 0

    def sys_fchownat(self, proc: Process, dirfd: int, path: str, uid: int,
                     gid: int, flags: int = 0) -> int:
        follow = not flags & AT_SYMLINK_NOFOLLOW
        node = self._resolve_at(proc, dirfd, path, follow)
        if uid != 0xFFFFFFFF:
            node.uid = uid
        if gid != 0xFFFFFFFF:
            node.gid = gid
        fsnotify_content(node, IN_ATTRIB)
        return 0

    def sys_chown(self, proc: Process, path: str, uid: int, gid: int) -> int:
        return self.sys_fchownat(proc, AT_FDCWD, path, uid, gid)

    def sys_lchown(self, proc: Process, path: str, uid: int, gid: int) -> int:
        return self.sys_fchownat(proc, AT_FDCWD, path, uid, gid,
                                 AT_SYMLINK_NOFOLLOW)

    def sys_fchown(self, proc: Process, fd: int, uid: int, gid: int) -> int:
        node = proc.fdtable.get(fd).inode
        if node is None:
            raise KernelError(EBADF)
        if uid != 0xFFFFFFFF:
            node.uid = uid
        if gid != 0xFFFFFFFF:
            node.gid = gid
        return 0

    def sys_truncate(self, proc: Process, path: str, length: int) -> int:
        if length < 0:
            raise KernelError(EINVAL, "negative length")
        node = self.vfs.resolve(path, proc.cwd or self.vfs.root, proc=proc)
        if not node.is_file:
            raise KernelError(EISDIR, path)
        node.truncate(length)
        return 0

    def sys_ftruncate(self, proc: Process, fd: int, length: int) -> int:
        if length < 0:
            raise KernelError(EINVAL, "negative length")
        file = proc.fdtable.get(fd)
        if file.obj is not None or not file.writable:
            raise KernelError(EINVAL, "not a regular file open for writing")
        file.inode.truncate(length)
        return 0

    def sys_umask(self, proc: Process, mask: int) -> int:
        old = proc.umask
        proc.umask = mask & 0o777
        return old

    def sys_utimensat(self, proc: Process, dirfd: int, path: str,
                      atime_ns: Optional[int], mtime_ns: Optional[int],
                      flags: int = 0) -> int:
        node = self._resolve_at(proc, dirfd, path or ".",
                                follow=not flags & AT_SYMLINK_NOFOLLOW)
        if atime_ns is not None:
            node.atime_ns = atime_ns
        if mtime_ns is not None:
            node.mtime_ns = mtime_ns
        fsnotify_content(node, IN_ATTRIB)
        return 0

    # ---- sync family (real durability through the block layer) ----

    def sys_sync(self, proc: Process) -> int:
        self.blockdev.sync_all()
        return 0

    def sys_syncfs(self, proc: Process, fd: int) -> int:
        proc.fdtable.get(fd)
        self.blockdev.sync_all()
        return 0

    def sys_fsync(self, proc: Process, fd: int) -> int:
        return proc.fdtable.get(fd).fsync()

    def sys_fdatasync(self, proc: Process, fd: int) -> int:
        return proc.fdtable.get(fd).fsync(datasync=True)

    def sys_sync_file_range(self, proc: Process, fd: int, offset: int = 0,
                            nbytes: int = 0, flags: int = 0) -> int:
        """Push dirty pages to disk WITHOUT a metadata commit — exactly
        the sync_file_range(2) warning: data blocks land, but nothing
        references them durably until a real fsync."""
        if offset < 0 or nbytes < 0 or flags & ~SYNC_FILE_RANGE_FLAGS:
            raise KernelError(EINVAL, "sync_file_range arguments")
        file = proc.fdtable.get(fd)
        if file.obj is not None or file.is_dir:
            raise KernelError(EINVAL, "sync_file_range on non-regular fd")
        self.blockdev.flush_inode(file.inode)
        return 0

    # ---- ioctl & advisory no-ops ----

    def sys_flock(self, proc: Process, fd: int, op: int) -> int:
        proc.fdtable.get(fd)
        return 0

    def sys_fadvise64(self, proc: Process, fd: int, offset: int, length: int,
                      advice: int) -> int:
        proc.fdtable.get(fd)
        return 0

    def sys_readahead(self, proc: Process, fd: int, offset: int,
                      count: int) -> int:
        proc.fdtable.get(fd)
        return 0

    def sys_ioctl(self, proc: Process, fd: int, request: int,
                  arg: int = 0) -> object:
        file = proc.fdtable.get(fd)
        obj = file.obj
        if request == TIOCGWINSZ:
            if not isinstance(obj, CharDevice):
                raise KernelError(ENOTTY)
            return (24, 80)  # rows, cols
        if request == TCGETS:
            if not isinstance(obj, CharDevice):
                raise KernelError(ENOTTY)
            return 0
        if request == FIONREAD:
            if isinstance(obj, PipeReader):
                return len(obj.pipe.buf)
            if isinstance(obj, (Socket, HostSocket)):
                return len(obj.rbuf)
            if obj is None:   # a directory's size is 0
                return max(file.inode.size - file.offset, 0)
            return 0
        if request == FIONBIO:
            if arg:
                file.flags |= O_NONBLOCK
            else:
                file.flags &= ~O_NONBLOCK
            return 0
        if isinstance(obj, (CountingPerfEvent, SamplingPerfEvent)):
            return obj.ioctl(request, arg)
        raise KernelError(ENOTTY, f"ioctl 0x{request:x}")

    # ---- poll ----

    def _poll_waitqueues(self, proc: Process, fds) -> list:
        """Readiness waitqueues of every valid polled fd (prompt wakeups)."""
        wqs = []
        for fd in fds:
            try:
                obj = proc.fdtable.get(fd).obj
            except KernelError:
                continue
            if obj is not None and obj.wq is not None and obj.wq not in wqs:
                wqs.append(obj.wq)
        return wqs

    def sys_ppoll(self, proc: Process, fds: List[Tuple[int, int]],
                  timeout_ns: Optional[int]) -> List[Tuple[int, int]]:
        """``fds`` is [(fd, events)]; returns [(fd, revents)] for the
        ready entries, in request order, one per entry (POLLIN=1,
        POLLOUT=4, POLLERR=8, POLLHUP=0x10, POLLNVAL=0x20).

        POLLERR and POLLHUP are delivered whether requested or not (closed
        peers, widowed pipes), exactly like Linux, and a negative fd is
        ignored; blocking is waitqueue-driven, so a peer's write/close
        wakes the poller immediately.
        """
        POLLIN, POLLOUT, POLLERR, POLLHUP, POLLNVAL = 1, 4, 8, 0x10, 0x20

        def scan():
            out = []
            for fd, events in fds:
                if fd < 0:
                    continue
                try:
                    file = proc.fdtable.get(fd)
                except KernelError:
                    out.append((fd, POLLNVAL))
                    continue
                mask = file.poll_events()
                revents = mask & (events | POLLERR | POLLHUP)
                if revents:
                    out.append((fd, revents))
            return out or None  # None = keep blocking

        return self.wait_event(
            proc, scan, self._poll_waitqueues(proc, [fd for fd, _ in fds]),
            timeout_ns) or []

    def sys_poll(self, proc: Process, fds, timeout_ms: int):
        timeout_ns = None if timeout_ms < 0 else timeout_ms * 1_000_000
        return self.sys_ppoll(proc, fds, timeout_ns)

    def sys_pselect6(self, proc: Process, rfds: List[int], wfds: List[int],
                     efds: List[int], timeout_ns: Optional[int]
                     ) -> Tuple[List[int], List[int], List[int]]:
        """The ready fds of the read, write and exception sets.  Like
        Linux's ``do_select``, it polls each fd: ready to read on
        POLLIN/HUP/ERR, to write on POLLOUT/ERR, exceptional on POLLPRI."""
        POLLIN, POLLPRI, POLLOUT, POLLERR, POLLHUP = 1, 2, 4, 8, 0x10
        fds = [*rfds, *wfds, *efds]
        for fd in fds:
            proc.fdtable.get(fd)   # a set naming a closed fd: EBADF

        def events(fd):
            try:
                return proc.fdtable.get(fd).poll_events()
            except KernelError:
                return 0   # closed during the wait: never ready

        def scan():
            ready = ([fd for fd in rfds
                      if events(fd) & (POLLIN | POLLHUP | POLLERR)],
                     [fd for fd in wfds if events(fd) & (POLLOUT | POLLERR)],
                     [fd for fd in efds if events(fd) & POLLPRI])
            return ready if any(ready) else None

        return self.wait_event(
            proc, scan, self._poll_waitqueues(proc, fds),
            timeout_ns) or ([], [], [])

    sys_select = sys_pselect6
