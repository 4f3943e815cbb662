"""Filesystem event notification: inotify instances, watches, wire records.

The third readiness source on the PR 1 waitqueue layer (after sockets/pipes
and the event fds): every mutating VFS operation publishes an *fsnotify*
event on the inodes it touches, and inotify instances that hold a watch on
that inode queue a Linux-wire-format record.  The instance's
:class:`~repro.kernel.eventpoll.WaitQueue` wakes on enqueue, so readiness
flows unchanged through ``epoll_pwait``, ``ppoll`` and ``io_uring``
``POLL_ADD``/``READ`` — one notification core, many front-end fds.

Linux semantics modeled here:

* watches live **on inodes** (like fsnotify marks), so events follow the
  object, not the path: a watched file renamed elsewhere keeps reporting;
* directory watches see child *namespace* events (``IN_CREATE``,
  ``IN_DELETE``, ``IN_MOVED_FROM``/``IN_MOVED_TO``) carrying the child
  name; content events (``IN_MODIFY``, ``IN_CLOSE_WRITE``...) are
  delivered to watches on the file's own inode *and* — dnotify-style,
  carrying the child name — to watches on its containing directory;
* ``rename`` emits a cookie-paired ``IN_MOVED_FROM``/``IN_MOVED_TO``
  (same nonzero cookie, FROM strictly before TO in the queue);
* the per-instance queue is bounded, with the overflow discipline of
  :class:`~repro.kernel.eventpoll.BoundedRing`: a full queue drops the
  event, and the drops share one ``IN_Q_OVERFLOW`` record (wd = -1);
* an event identical to the current queue tail (same wd/mask/cookie/name)
  is coalesced away, exactly like inotify's tail-merge;
* removing a watch (explicitly, or implicitly when the inode is deleted
  or the watch was ``IN_ONESHOT``) queues ``IN_IGNORED``.

The wire record matches ``struct inotify_event``: ``{i32 wd, u32 mask,
u32 cookie, u32 len}`` followed by ``len`` name bytes (NUL-padded to a
multiple of 16 — the kernel's ``round_event_name_len``; 0 for the empty
name).
"""

from __future__ import annotations

import itertools
import struct
from typing import Dict

from .errno import EINVAL, ENOTDIR, KernelError
from .eventpoll import EPOLLHUP, BoundedRing, FileOps
from .trace import KernelTrace

# event mask bits (Linux values)
IN_ACCESS = 0x00000001
IN_MODIFY = 0x00000002
IN_ATTRIB = 0x00000004
IN_CLOSE_WRITE = 0x00000008
IN_CLOSE_NOWRITE = 0x00000010
IN_OPEN = 0x00000020
IN_MOVED_FROM = 0x00000040
IN_MOVED_TO = 0x00000080
IN_CREATE = 0x00000100
IN_DELETE = 0x00000200
IN_DELETE_SELF = 0x00000400
IN_MOVE_SELF = 0x00000800

IN_CLOSE = IN_CLOSE_WRITE | IN_CLOSE_NOWRITE
IN_MOVE = IN_MOVED_FROM | IN_MOVED_TO
IN_ALL_EVENTS = 0x00000FFF

# events sent whether requested or not
IN_UNMOUNT = 0x00002000
IN_Q_OVERFLOW = 0x00004000
IN_IGNORED = 0x00008000

# watch options
IN_ONLYDIR = 0x01000000
IN_DONT_FOLLOW = 0x02000000
IN_EXCL_UNLINK = 0x04000000
IN_MASK_ADD = 0x20000000
IN_ISDIR = 0x40000000
IN_ONESHOT = 0x80000000

# inotify_init1 flags
IN_CLOEXEC = 0o2000000
IN_NONBLOCK = 0o0004000

INOTIFY_EVENT_HDR = 16          # sizeof(struct inotify_event)
MAX_QUEUED_EVENTS = 16384       # /proc/sys/fs/inotify/max_queued_events

# rename cookies pair IN_MOVED_FROM with IN_MOVED_TO across instances;
# a plain counter reproduces bit-identically run to run
_cookie_counter = itertools.count(1)


def next_cookie() -> int:
    return next(_cookie_counter)


class InotifyEvent:
    """One queued record (pre-wire-format)."""

    __slots__ = ("wd", "mask", "cookie", "name")

    def __init__(self, wd: int, mask: int, cookie: int = 0, name: str = ""):
        self.wd = wd
        self.mask = mask
        self.cookie = cookie
        self.name = name

    def same_as(self, other: "InotifyEvent") -> bool:
        return (self.wd == other.wd and self.mask == other.mask and
                self.cookie == other.cookie and self.name == other.name)

    def encode(self) -> bytes:
        """Linux ``struct inotify_event`` wire bytes."""
        name = self.name.encode()
        if name:
            # NUL-terminate, pad to a 16-byte multiple (round_event_name_len)
            pad = -(len(name) + 1) % INOTIFY_EVENT_HDR
            name = name + b"\x00" * (1 + pad)
        return struct.pack("<iIII", self.wd, self.mask & 0xFFFFFFFF,
                           self.cookie, len(name)) + name

    @property
    def size(self) -> int:
        name_len = len(self.name.encode())
        if name_len:
            name_len += 1 + (-(name_len + 1) % INOTIFY_EVENT_HDR)
        return INOTIFY_EVENT_HDR + name_len

    def __repr__(self) -> str:
        return (f"InotifyEvent(wd={self.wd}, mask=0x{self.mask:x}, "
                f"cookie={self.cookie}, name={self.name!r})")


class Watch:
    """One watch descriptor: an (instance, inode, mask) binding."""

    __slots__ = ("wd", "inode", "mask", "owner")

    def __init__(self, wd: int, inode, mask: int, owner: "Inotify"):
        self.wd = wd
        self.inode = inode
        self.mask = mask
        self.owner = owner


class _EventQueue(BoundedRing):
    """An instance's event queue: a :class:`~.eventpoll.BoundedRing` of
    :class:`InotifyEvent` records with inotify's tail merge, whose
    overflow marker is ``IN_Q_OVERFLOW`` with wd -1."""

    def __init__(self, capacity: int, trace):
        super().__init__(capacity)
        self.trace = trace   # kernel observability

    def marker(self, first: InotifyEvent, count: int) -> InotifyEvent:
        return InotifyEvent(-1, IN_Q_OVERFLOW)

    def merges(self, tail: InotifyEvent, ev: InotifyEvent) -> bool:
        return tail.same_as(ev)  # like inotify_merge

    def on_keep(self, ev: InotifyEvent) -> None:
        self.trace.counters.inc("inotify.enqueued")
        self.trace.emit("inotify_enqueue", arg=ev.mask, info=ev.name[:16])

    def on_drop(self, ev: InotifyEvent) -> None:
        self.trace.counters.inc("inotify.dropped")
        self.trace.emit("inotify_overflow", arg=ev.mask, info=ev.name[:16])


class Inotify(FileOps):
    """One inotify instance (the object behind the fd)."""

    seekable = True

    def __init__(self, max_queued: int = MAX_QUEUED_EVENTS, trace=None):
        self.queue = _EventQueue(max_queued, trace or KernelTrace())
        self.wq = self.queue.wq
        self.watches: Dict[int, Watch] = {}
        self._by_inode: Dict[int, Watch] = {}    # id(inode) -> watch
        self._next_wd = 1
        self.closed = False

    @property
    def max_queued(self) -> int:
        return self.queue.capacity

    @max_queued.setter
    def max_queued(self, capacity: int) -> None:
        self.queue.capacity = capacity

    @property
    def dropped(self) -> int:
        return self.queue.dropped

    # ------------------------------------------------------------------
    # watch management
    # ------------------------------------------------------------------

    def add_watch(self, inode, mask: int) -> int:
        if not mask & (IN_ALL_EVENTS | IN_ONESHOT):
            raise KernelError(EINVAL, "empty inotify mask")
        if mask & IN_ONLYDIR and not inode.is_dir:
            raise KernelError(ENOTDIR, "IN_ONLYDIR on a non-directory")
        existing = self._by_inode.get(id(inode))
        if existing is not None:
            # a second add on the same inode updates (or, with
            # IN_MASK_ADD, extends) the mask and returns the same wd
            if mask & IN_MASK_ADD:
                existing.mask |= mask & ~IN_MASK_ADD
            else:
                existing.mask = mask
            return existing.wd
        wd = self._next_wd
        self._next_wd += 1
        watch = Watch(wd, inode, mask, self)
        self.watches[wd] = watch
        self._by_inode[id(inode)] = watch
        if inode.watches is None:
            inode.watches = []
        inode.watches.append(watch)
        return wd

    def rm_watch(self, wd: int) -> None:
        watch = self.watches.get(wd)
        if watch is None:
            raise KernelError(EINVAL, f"unknown watch descriptor {wd}")
        self._drop_watch(watch)

    def _drop_watch(self, watch: Watch) -> None:
        """Detach a watch and queue its IN_IGNORED farewell."""
        self.watches.pop(watch.wd, None)
        self._by_inode.pop(id(watch.inode), None)
        if watch.inode.watches is not None:
            try:
                watch.inode.watches.remove(watch)
            except ValueError:
                pass
        self._enqueue(InotifyEvent(watch.wd, IN_IGNORED))

    # ------------------------------------------------------------------
    # event queue
    # ------------------------------------------------------------------

    def publish(self, watch: Watch, mask: int, name: str = "",
                cookie: int = 0) -> None:
        """Filter ``mask`` against the watch and queue a record."""
        if self.closed:
            return
        wanted = mask & (watch.mask | IN_Q_OVERFLOW | IN_IGNORED |
                         IN_UNMOUNT)
        if not wanted & ~IN_ISDIR:
            return
        if mask & IN_ISDIR:
            wanted |= IN_ISDIR
        self._enqueue(InotifyEvent(watch.wd, wanted, cookie, name))
        if watch.mask & IN_ONESHOT:
            self._drop_watch(watch)

    def _enqueue(self, ev: InotifyEvent) -> None:
        if not self.closed:
            self.queue.push(ev)

    # ------------------------------------------------------------------
    # fd surface
    # ------------------------------------------------------------------

    def read_step(self, length: int) -> bytes:
        return self.queue.read_step(length)

    def poll_events(self) -> int:
        return self.queue.poll_events()

    def close(self) -> None:
        self.closed = True   # before the drops: no IN_IGNORED is queued
        for watch in list(self.watches.values()):
            self._drop_watch(watch)
        self.queue.clear()
        self.wq.wake(EPOLLHUP)


# ----------------------------------------------------------------------
# fsnotify hooks (called from the VFS / fd layer)
# ----------------------------------------------------------------------

def fsnotify(inode, mask: int, name: str = "", cookie: int = 0) -> None:
    """Publish an event to every watch on ``inode`` (cheap when none)."""
    watches = getattr(inode, "watches", None)
    if not watches:
        return
    for watch in list(watches):
        watch.owner.publish(watch, mask, name, cookie)


def fsnotify_content(inode, mask: int, cookie: int = 0) -> None:
    """A content event (IN_MODIFY, IN_CLOSE_WRITE...): the file's own
    watches see it anonymously, and — like real inotify's directory
    delivery — the containing directory's watches see it with the child
    name attached."""
    fsnotify(inode, mask, "", cookie)
    parent = getattr(inode, "parent", None)
    if parent is None or inode.is_dir:
        return
    name = getattr(inode, "pname", None)
    if name is None or parent.entries.get(name) is not inode:
        return
    fsnotify_name(parent, inode, mask, name, cookie)


def fsnotify_name(dir_inode, node, mask: int, name: str,
                  cookie: int = 0) -> None:
    """A namespace event on ``dir_inode`` about child ``name``."""
    if node is not None and node.is_dir:
        mask |= IN_ISDIR
    fsnotify(dir_inode, mask, name, cookie)


def fsnotify_move(old_dir, new_dir, node, old_name: str,
                  new_name: str) -> None:
    """Cookie-paired rename events: FROM, then TO, then MOVE_SELF."""
    cookie = next_cookie()
    fsnotify_name(old_dir, node, IN_MOVED_FROM, old_name, cookie)
    fsnotify_name(new_dir, node, IN_MOVED_TO, new_name, cookie)
    fsnotify(node, IN_MOVE_SELF)


def fsnotify_inode_gone(node) -> None:
    """The last link to ``node`` died: IN_DELETE_SELF, then its watches
    are torn down with IN_IGNORED (the inode-destruction path)."""
    if node is None or node.nlink > 0:
        return
    fsnotify(node, IN_DELETE_SELF)
    for watch in list(getattr(node, "watches", None) or ()):
        watch.owner._drop_watch(watch)


def fsnotify_delete(dir_inode, node, name: str) -> None:
    """IN_DELETE on the directory; self-delete teardown when the last
    link is gone (IN_DELETE_SELF, then the watches die with IN_IGNORED)."""
    fsnotify_name(dir_inode, node, IN_DELETE, name)
    fsnotify_inode_gone(node)


def decode_events(data: bytes):
    """Parse wire bytes back into ``(wd, mask, cookie, name)`` tuples."""
    out = []
    off = 0
    while off + INOTIFY_EVENT_HDR <= len(data):
        wd, mask, cookie, name_len = struct.unpack_from("<iIII", data, off)
        off += INOTIFY_EVENT_HDR
        name = data[off:off + name_len].split(b"\x00", 1)[0].decode()
        off += name_len
        out.append((wd, mask, cookie, name))
    return out
