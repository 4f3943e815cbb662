"""The virtual filesystem: inodes, directories, symlinks, procfs, devices.

An in-memory POSIX-shaped filesystem.  Regular files hold a ``bytearray``;
directories hold ``{name: Inode}``; procfs files hold a generator callable so
``/proc/self/mem``-style endpoints exist for WALI's security interposition
tests (§3.6).  All byte-level file I/O goes through :class:`Inode` helpers so
open-file descriptions (:mod:`repro.kernel.fdtable`) stay thin.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from .errno import (
    EEXIST, EINVAL, EISDIR, ELOOP, ENAMETOOLONG, ENOENT, ENOSPC, ENOTDIR,
    ENOTEMPTY, EPERM, KernelError,
)
from .eventpoll import FileOps
from .inotify import (
    IN_ATTRIB, IN_CREATE, IN_MODIFY, fsnotify, fsnotify_content,
    fsnotify_delete, fsnotify_inode_gone, fsnotify_move, fsnotify_name,
)

# file type bits (mode & S_IFMT)
S_IFMT = 0o170000
S_IFSOCK = 0o140000
S_IFLNK = 0o120000
S_IFREG = 0o100000
S_IFBLK = 0o060000
S_IFDIR = 0o040000
S_IFCHR = 0o020000
S_IFIFO = 0o010000

# open(2) flags (x86-64 values)
O_RDONLY = 0o0
O_WRONLY = 0o1
O_RDWR = 0o2
O_ACCMODE = 0o3
O_CREAT = 0o100
O_EXCL = 0o200
O_NOCTTY = 0o400
O_TRUNC = 0o1000
O_APPEND = 0o2000
O_NONBLOCK = 0o4000
O_DSYNC = 0o10000
O_DIRECT = 0o40000
O_DIRECTORY = 0o200000
O_NOFOLLOW = 0o400000
O_CLOEXEC = 0o2000000
__O_SYNC = 0o4000000
O_SYNC = __O_SYNC | O_DSYNC

AT_FDCWD = -100
AT_SYMLINK_NOFOLLOW = 0x100
AT_REMOVEDIR = 0x200

SYMLINK_MAX_DEPTH = 40
NAME_MAX = 255

_ino_counter = itertools.count(2)

# Inode timestamps come from a *logical* clock: a fixed epoch plus one
# microsecond per mutation.  Wall-clock stamps would differ between runs
# and break the 3x determinism-rerun guarantee for anything stat-shaped;
# the logical clock is monotone (writes still order by mtime) and
# bit-reproducible for identical operation sequences.  The counter is
# process-global (Inode construction has no VFS back-pointer), so the
# guarantee is per *whole-process* run — exactly what the CI rerun
# executes — not per Kernel instance; two kernels in one process share
# the tick stream.
_EPOCH_NS = 1_704_067_200 * 10**9  # 2024-01-01T00:00:00Z, fixed
_clock_ticks = itertools.count(1)


def _now_ns() -> int:
    return _EPOCH_NS + next(_clock_ticks) * 1_000


def vfs_now_ns() -> int:
    """The VFS logical clock (for callers outside this module, e.g. the
    WALI ``utimensat`` NULL-times path)."""
    return _now_ns()


class Inode:
    """One filesystem object."""

    __slots__ = (
        "ino", "mode", "uid", "gid", "nlink", "data", "entries", "target",
        "rdev", "atime_ns", "mtime_ns", "ctime_ns", "generator", "device",
        "opener", "fs_limit", "watches", "mapping", "parent", "pname", "sb",
    )

    def __init__(self, mode: int, uid: int = 0, gid: int = 0):
        self.ino = next(_ino_counter)
        self.mode = mode
        self.uid = uid
        self.gid = gid
        self.nlink = 1
        now = _now_ns()
        self.atime_ns = self.mtime_ns = self.ctime_ns = now
        self.data: Optional[bytearray] = None
        self.entries: Optional[Dict[str, "Inode"]] = None
        self.target: Optional[str] = None       # symlink
        self.rdev = 0
        self.generator: Optional[Callable] = None  # procfs content
        self.device = None                       # chr device handler object
        # custom open hook: opener(proc, flags) -> OpenFile; lets a path
        # hand out a live object fd (e.g. /proc/trace_pipe) instead of a
        # content snapshot
        self.opener: Optional[Callable] = None
        self.fs_limit: Optional[int] = None      # per-file size cap (ENOSPC)
        self.watches = None                      # inotify marks (lazy list)
        self.mapping = None       # block-layer page-cache state (FileMapping)
        self.parent = None        # containing directory (dnotify delivery)
        self.pname = None         # name under parent
        self.sb = None            # owning BlockFS when under a mount
        kind = mode & S_IFMT
        if kind == S_IFREG:
            self.data = bytearray()
        elif kind == S_IFDIR:
            self.entries = {}
            self.nlink = 2

    # ---- type predicates ----

    @property
    def is_dir(self) -> bool:
        return (self.mode & S_IFMT) == S_IFDIR

    @property
    def is_file(self) -> bool:
        return (self.mode & S_IFMT) == S_IFREG

    @property
    def is_symlink(self) -> bool:
        return (self.mode & S_IFMT) == S_IFLNK

    @property
    def is_chr(self) -> bool:
        return (self.mode & S_IFMT) == S_IFCHR

    @property
    def size(self) -> int:
        if self.data is not None:
            return len(self.data)
        if self.is_symlink:
            return len(self.target or "")
        return 0

    # ---- regular-file I/O ----

    def write_at(self, offset: int, buf: bytes) -> int:
        assert self.data is not None
        end = offset + len(buf)
        if self.fs_limit is not None and end > self.fs_limit:
            raise KernelError(ENOSPC, "file size cap exceeded")
        wstart = offset
        if self.mapping is not None:
            # RMW edges must be cache-authoritative before the mutation;
            # the dirty span runs back to old EOF on sparse extension
            wstart = self.mapping.write_prepare(offset, len(buf))
        if offset > len(self.data):  # sparse write: zero-fill the hole
            self.data.extend(b"\x00" * (offset - len(self.data)))
        self.data[offset:end] = buf
        self.mtime_ns = _now_ns()
        if self.mapping is not None:
            self.mapping.mark_dirty(wstart, end - wstart)
        fsnotify_content(self, IN_MODIFY)
        return len(buf)

    def truncate(self, length: int) -> None:
        assert self.data is not None
        old = len(self.data)
        if self.mapping is not None:
            self.mapping.truncate_prepare(old, length)
        if length < old:
            del self.data[length:]
        else:
            self.data.extend(b"\x00" * (length - old))
        self.mtime_ns = _now_ns()
        if self.mapping is not None:
            self.mapping.truncate_apply(old, length)
        fsnotify_content(self, IN_MODIFY)


class DirEntry:
    """One getdents64 record."""

    __slots__ = ("ino", "name", "d_type")

    def __init__(self, ino: int, name: str, d_type: int):
        self.ino = ino
        self.name = name
        self.d_type = d_type

    @property
    def reclen(self) -> int:
        """Its linux_dirent64 record length: the 19-byte header, the name
        and its NUL, aligned to 8."""
        return (19 + len(self.name.encode()) + 1 + 7) & ~7


# d_type values (linux dirent)
DT_UNKNOWN, DT_FIFO, DT_CHR, DT_DIR, DT_BLK, DT_REG, DT_LNK, DT_SOCK = \
    0, 1, 2, 4, 6, 8, 10, 12

_DTYPE_OF = {S_IFIFO: DT_FIFO, S_IFCHR: DT_CHR, S_IFDIR: DT_DIR,
             S_IFBLK: DT_BLK, S_IFREG: DT_REG, S_IFLNK: DT_LNK,
             S_IFSOCK: DT_SOCK}


class VFS:
    """Filesystem tree with path resolution."""

    def __init__(self):
        self.root = Inode(S_IFDIR | 0o755)
        # dynamic path hooks, e.g. "/proc/self" -> callable(proc) -> str
        self.dynamic_symlinks: Dict[str, Callable] = {}

    # ---- path plumbing ----

    @staticmethod
    def split(path: str) -> List[str]:
        return [c for c in path.split("/") if c and c != "."]

    def resolve(self, path: str, cwd: Inode, follow: bool = True,
                proc=None, _depth: int = 0) -> Inode:
        """Resolve ``path`` to an inode; raises ENOENT/ENOTDIR/ELOOP."""
        if _depth > SYMLINK_MAX_DEPTH:
            raise KernelError(ELOOP, path)
        node = self.root if path.startswith("/") else cwd
        comps = self.split(path)
        for i, comp in enumerate(comps):
            if len(comp) > NAME_MAX:
                raise KernelError(ENAMETOOLONG, comp)
            if not node.is_dir:
                raise KernelError(ENOTDIR, comp)
            if comp == "..":
                node = self._parent_of(node)
                continue
            child = node.entries.get(comp)
            if child is None:
                raise KernelError(ENOENT, path)
            last = i == len(comps) - 1
            if child.is_symlink and (follow or not last):
                target = child.target
                if target is None and child.generator is not None:
                    target = child.generator(proc)
                rest = "/".join(comps[i + 1:])
                newpath = target + ("/" + rest if rest else "")
                return self.resolve(newpath, node, follow, proc, _depth + 1)
            node = child
        return node

    def resolve_parent(self, path: str, cwd: Inode,
                       proc=None) -> Tuple[Inode, str]:
        """Resolve all but the last component; returns (dir inode, name)."""
        comps = self.split(path)
        if not comps:
            raise KernelError(EINVAL, path)
        parent_path = "/".join(comps[:-1])
        if path.startswith("/"):
            parent_path = "/" + parent_path
        parent = self.resolve(parent_path or ".", cwd, proc=proc) \
            if parent_path not in ("", "/") else self.root
        if parent_path in ("", "/"):
            parent = self.root if path.startswith("/") else cwd
        if not parent.is_dir:
            raise KernelError(ENOTDIR, path)
        return parent, comps[-1]

    def _parent_of(self, node: Inode) -> Inode:
        # Linear search is fine at our scale; ".." from root is root.
        def walk(d: Inode) -> Optional[Inode]:
            for child in d.entries.values():
                if child is node:
                    return d
                if child.is_dir and child is not node:
                    found = walk(child)
                    if found is not None:
                        return found
            return None

        return walk(self.root) or self.root

    def path_of(self, node: Inode) -> str:
        """Best-effort absolute path of an inode (for getcwd)."""
        def walk(d: Inode, prefix: str) -> Optional[str]:
            for name, child in d.entries.items():
                p = f"{prefix}/{name}"
                if child is node:
                    return p
                if child.is_dir:
                    found = walk(child, p)
                    if found:
                        return found
            return None

        if node is self.root:
            return "/"
        return walk(self.root, "") or "/"

    # ---- tree operations ----

    def attach_child(self, parent: Inode, name: str, node: Inode) -> None:
        """Attach ``node`` under ``parent``, keeping the parent
        backpointer (dnotify-style content-event delivery) and block
        superblock ownership coherent: entering a mounted subtree adopts
        the node onto the disk, leaving one disowns it back to plain
        memory backing."""
        parent.entries[name] = node
        node.parent = parent
        node.pname = name
        sb = parent.sb
        if sb is not None:
            if node.sb is not sb:
                sb.adopt(node)
            elif node.is_file and node.mapping is not None:
                # moved within the mount: shape changed, data didn't
                node.mapping.meta_dirty = True
        elif node.sb is not None:
            node.sb.disown(node)

    @staticmethod
    def _detach_child(parent: Inode, name: str, node: Inode) -> None:
        del parent.entries[name]
        if node.parent is parent and node.pname == name:
            node.parent = None
            node.pname = None

    def lookup(self, path: str, cwd: Optional[Inode] = None, follow=True,
               proc=None) -> Inode:
        return self.resolve(path, cwd or self.root, follow, proc)

    def exists(self, path: str, cwd: Optional[Inode] = None) -> bool:
        try:
            self.lookup(path, cwd)
            return True
        except KernelError:
            return False

    def mkdir(self, path: str, mode: int = 0o755,
              cwd: Optional[Inode] = None) -> Inode:
        parent, name = self.resolve_parent(path, cwd or self.root)
        if name in parent.entries:
            raise KernelError(EEXIST, path)
        node = Inode(S_IFDIR | (mode & 0o7777))
        self.attach_child(parent, name, node)
        parent.nlink += 1
        fsnotify_name(parent, node, IN_CREATE, name)
        return node

    def mkdirs(self, path: str) -> Inode:
        node = self.root
        for comp in self.split(path):
            if not node.is_dir:
                raise KernelError(ENOTDIR, path)
            child = node.entries.get(comp)
            if child is None:
                child = Inode(S_IFDIR | 0o755)
                self.attach_child(node, comp, child)
                node.nlink += 1
            node = child
        return node

    def create(self, path: str, mode: int = 0o644,
               cwd: Optional[Inode] = None, exclusive: bool = False) -> Inode:
        parent, name = self.resolve_parent(path, cwd or self.root)
        existing = parent.entries.get(name)
        if existing is not None:
            if exclusive:
                raise KernelError(EEXIST, path)
            if existing.is_dir:
                raise KernelError(EISDIR, path)
            return existing
        node = Inode(S_IFREG | (mode & 0o7777))
        self.attach_child(parent, name, node)
        fsnotify_name(parent, node, IN_CREATE, name)
        return node

    def write_file(self, path: str, data: bytes, mode: int = 0o644) -> Inode:
        node = self.create(path, mode)
        if node.mapping is not None:
            node.truncate(0)
            if data:
                node.write_at(0, bytes(data))
            return node
        node.data[:] = data
        fsnotify(node, IN_MODIFY)
        return node

    def read_file(self, path: str) -> bytes:
        node = self.lookup(path)
        if not node.is_file:
            raise KernelError(EISDIR, path)
        if node.mapping is not None:
            node.mapping.ensure_resident(0, len(node.data), charge=False)
        return bytes(node.data)

    def symlink(self, target: str, path: str,
                cwd: Optional[Inode] = None) -> Inode:
        parent, name = self.resolve_parent(path, cwd or self.root)
        if name in parent.entries:
            raise KernelError(EEXIST, path)
        node = Inode(S_IFLNK | 0o777)
        node.target = target
        self.attach_child(parent, name, node)
        fsnotify_name(parent, node, IN_CREATE, name)
        return node

    def link(self, old: str, new: str, cwd: Optional[Inode] = None) -> None:
        node = self.lookup(old, cwd, follow=False)
        if node.is_dir:
            raise KernelError(EPERM, "hard link to directory")
        parent, name = self.resolve_parent(new, cwd or self.root)
        if name in parent.entries:
            raise KernelError(EEXIST, new)
        self.attach_child(parent, name, node)
        node.nlink += 1
        fsnotify_name(parent, node, IN_CREATE, name)
        fsnotify(node, IN_ATTRIB)  # nlink changed, like Linux

    def unlink(self, path: str, cwd: Optional[Inode] = None,
               rmdir: bool = False) -> None:
        parent, name = self.resolve_parent(path, cwd or self.root)
        node = parent.entries.get(name)
        if node is None:
            raise KernelError(ENOENT, path)
        if node.is_dir:
            if not rmdir:
                raise KernelError(EISDIR, path)
            if node.entries:
                raise KernelError(ENOTEMPTY, path)
            parent.nlink -= 1
        elif rmdir:
            raise KernelError(ENOTDIR, path)
        self._detach_child(parent, name, node)
        node.nlink -= 1
        fsnotify_delete(parent, node, name)

    def rename(self, old: str, new: str, cwd: Optional[Inode] = None) -> None:
        op, oname = self.resolve_parent(old, cwd or self.root)
        node = op.entries.get(oname)
        if node is None:
            raise KernelError(ENOENT, old)
        np, nname = self.resolve_parent(new, cwd or self.root)
        existing = np.entries.get(nname)
        if existing is not None:
            if existing.is_dir and not node.is_dir:
                raise KernelError(EISDIR, new)
            if node.is_dir and existing.is_dir and existing.entries:
                raise KernelError(ENOTEMPTY, new)
        self._detach_child(op, oname, node)
        self.attach_child(np, nname, node)
        if existing is not None and existing is not node:
            # the clobbered target lost its link: watchers must learn
            existing.nlink -= 1
            fsnotify_inode_gone(existing)
        fsnotify_move(op, np, node, oname, nname)

    def mknod_device(self, path: str, device, mode: int = S_IFCHR | 0o666,
                     rdev: int = 0) -> Inode:
        parent, name = self.resolve_parent(path, self.root)
        node = Inode(mode)
        node.device = device
        node.rdev = rdev
        self.attach_child(parent, name, node)
        return node

    def add_proc_file(self, path: str, generator: Callable) -> Inode:
        """Register a procfs-style dynamic file."""
        parent, name = self.resolve_parent(path, self.root)
        node = Inode(S_IFREG | 0o444)
        node.generator = generator
        node.data = None  # content produced on demand
        self.attach_child(parent, name, node)
        return node

    def add_special_file(self, path: str, opener: Callable,
                         mode: int = S_IFREG | 0o444) -> Inode:
        """Register a file whose ``open`` yields a live object fd.

        ``opener(proc, flags)`` must return a ready-to-install
        :class:`~repro.kernel.fdtable.OpenFile` (e.g. the epollable
        trace_pipe reader); the inode itself carries no content.
        """
        parent, name = self.resolve_parent(path, self.root)
        node = Inode(mode)
        node.opener = opener
        node.data = None
        self.attach_child(parent, name, node)
        return node

    def add_dynamic_symlink(self, path: str, generator: Callable) -> Inode:
        parent, name = self.resolve_parent(path, self.root)
        node = Inode(S_IFLNK | 0o777)
        node.generator = generator
        self.attach_child(parent, name, node)
        return node

    def readdir(self, node: Inode) -> List[DirEntry]:
        if not node.is_dir:
            raise KernelError(ENOTDIR)
        out = [DirEntry(node.ino, ".", DT_DIR),
               DirEntry(node.ino, "..", DT_DIR)]
        for name, child in sorted(node.entries.items()):
            out.append(DirEntry(
                child.ino, name, _DTYPE_OF.get(child.mode & S_IFMT, DT_UNKNOWN)))
        return out


class CharDevice(FileOps):
    """Base class for character devices (/dev/null and friends).  A
    device is the object of every fd open on it: always ready, with no
    waitqueue.  lseek on a ``seekable`` one returns 0, as on Linux's
    /dev/null, /dev/zero and /dev/[u]random; on any other it fails with
    ESPIPE."""

    def read_step(self, length: int) -> bytes:
        return b""

    def write_step(self, data: bytes) -> int:
        return len(data)


class NullDevice(CharDevice):
    seekable = True


class ZeroDevice(CharDevice):
    seekable = True

    def read_step(self, length: int) -> bytes:
        return b"\x00" * length


class RandomDevice(CharDevice):
    seekable = True

    def __init__(self, seed: int = 0x5EED):
        import random
        self._rng = random.Random(seed)

    def read_step(self, length: int) -> bytes:
        return bytes(self._rng.getrandbits(8) for _ in range(length))


class TTYDevice(CharDevice):
    """Terminal device: accumulates output, serves queued input."""

    def __init__(self):
        self.output = bytearray()
        self.input = bytearray()

    def read_step(self, length: int) -> bytes:
        out = bytes(self.input[:length])
        del self.input[:length]
        return out

    def write_step(self, data: bytes) -> int:
        self.output.extend(data)
        return len(data)

    def feed(self, data: bytes) -> None:
        self.input.extend(data)
