"""The block layer: disk cost model, page cache, writeback, crash consistency.

The VFS above this module is memory-backed; this module puts a *disk*
under its regular files so durability is a real, testable property:

* :class:`Disk` — a flat block device with a seek/throughput cost model.
  Every request charges ``seek_ns`` when the head moves plus a per-block
  transfer time; the accrued cost is *settled* at syscall exit by parking
  the calling task on the scheduler (I/O waits are schedule points, like
  every other blocking primitive).  A single device-busy timeline
  serializes requests, so a writeback storm queues behind foreground I/O
  exactly the way one spindle would.
* :class:`FileMapping` — per-inode page-cache state at disk-block
  granularity: which cached blocks are authoritative (``resident``),
  which are modified since their last flush (``dirty``, stamped for age
  ordering), and where the flushed copy lives (``blocks_disk`` /
  ``size_disk``).  The inode's ``bytearray`` *is* the cache; eviction
  only forgets residency (a model of cache pressure, not of memory).
* :class:`BlockFS` — mounts a VFS subtree (default ``/data``) on a disk.
  Data blocks are written copy-on-write; metadata (the directory tree
  plus every file's block list and size) is serialized as JSON into one
  of two alternating areas, and a single-block superblock naming the
  live area is the **atomic commit point**.  A crash between any two
  block writes recovers to the last committed tree: fsync'd bytes
  survive, torn un-synced writes are invisible.
* :class:`WritebackDaemon` — a kworker-style flusher applying the
  ``dirty_expire_centisecs`` age threshold every
  ``dirty_writeback_centisecs``; :meth:`BlockFS.balance_dirty` applies
  the ``dirty_ratio`` ceiling *foreground* (the writer pays), with
  ``dirty_background_ratio`` as the flush target — the Linux split.

Consistency contract (what the crash-matrix tests assert):

* ``fsync``/``fdatasync`` flush the file's dirty pages and commit, so on
  recovery the file has exactly its last-fsync'd content;
* writeback commits after flushing, so a daemon-flushed file recovers
  whole (some prefix of history), never torn mid-page;
* ``sync_file_range`` and ``O_DIRECT`` writes push data blocks but do
  **not** commit metadata — without a later fsync the new size/blocks
  are not referenced by the superblock and recovery shows the old state
  (the classic "sync_file_range is not durable" pitfall, modeled);
* ``IN_CLOSE_WRITE`` is a cache event, not a durability event: a file
  can be closed-written and still lost to a crash until writeback or
  fsync commits it.

Simplifications (documented, test-visible): hard links under the mount
persist as independent files per path; symlinks and device nodes under
the mount are not persisted; timestamps persist only at commit
granularity, so ``fdatasync`` and ``fsync`` do the same work.
"""

from __future__ import annotations

import heapq
import itertools
import json
import threading
import time as _time
import weakref
import zlib
from typing import Dict, List, Optional, Set

from .errno import EINVAL, ENOSPC, KernelError
from .eventpoll import EPOLLIN, WaitQueue
from .trace import KernelTrace
from .vfs import CharDevice, Inode, S_IFREG

BLOCKFS_MAGIC = "repro-blockfs-1"

# dirty stamps: a process-global monotone counter so writeback victim
# order is deterministic run to run (ages for the *expiry* threshold use
# wall time separately, carried alongside)
_stamp_counter = itertools.count(1)


class Disk:
    """A flat block device with a seek + per-block transfer cost model.

    ``cost_ns`` moves a model head: a request starting anywhere but one
    past the previous request's last block pays ``seek_ns``.  Writes are
    silently dropped once the disk is ``dead`` (or after the
    :meth:`fail_after` countdown reaches zero) — the crash-simulation
    primitive: everything an app does after the "kill" point never
    reaches the platter, and recovery sees only what landed before.
    """

    def __init__(self, nblocks: int = 2048, block_size: int = 4096,
                 seek_us: float = 100.0, read_us_per_block: float = 20.0,
                 write_us_per_block: float = 20.0,
                 image: Optional[bytes] = None):
        if nblocks < 16 or block_size < 512:
            raise ValueError("disk too small to host a filesystem")
        self.nblocks = nblocks
        self.block_size = block_size
        self.seek_ns = int(seek_us * 1000)
        self.read_ns = int(read_us_per_block * 1000)
        self.write_ns = int(write_us_per_block * 1000)
        if image is None:
            self.image = bytearray(nblocks * block_size)
        else:
            if len(image) != nblocks * block_size:
                raise ValueError("image size does not match geometry")
            self.image = bytearray(image)
        self._head = 0
        self.dead = False
        self._fail_after: Optional[int] = None
        self.reads = 0
        self.writes = 0
        self.seeks = 0
        self.lost_writes = 0

    # ---- cost model ----

    def cost_ns(self, blk: int, write: bool) -> int:
        cost = self.write_ns if write else self.read_ns
        if blk != self._head:
            cost += self.seek_ns
            self.seeks += 1
        self._head = blk + 1
        return cost

    # ---- transfer ----

    def read_block(self, blk: int) -> bytes:
        self.reads += 1
        off = blk * self.block_size
        return bytes(self.image[off:off + self.block_size])

    def write_block(self, blk: int, data: bytes) -> None:
        if self._fail_after is not None and self._fail_after <= 0:
            self.dead = True
        if self.dead:
            self.lost_writes += 1
            return
        if self._fail_after is not None:
            self._fail_after -= 1
        self.writes += 1
        buf = bytes(data[:self.block_size])
        if len(buf) < self.block_size:
            buf = buf + b"\x00" * (self.block_size - len(buf))
        off = blk * self.block_size
        self.image[off:off + self.block_size] = buf

    # ---- crash simulation ----

    def fail_after(self, nwrites: int) -> None:
        """Let ``nwrites`` more writes land, then die silently."""
        self._fail_after = nwrites

    def snapshot(self) -> bytes:
        return bytes(self.image)

    def clone(self, image: Optional[bytes] = None) -> "Disk":
        """A fresh disk with the same geometry/costs (for remounting a
        crash snapshot)."""
        d = Disk(self.nblocks, self.block_size, image=image
                 if image is not None else self.snapshot())
        d.seek_ns, d.read_ns, d.write_ns = \
            self.seek_ns, self.read_ns, self.write_ns
        return d


class FileMapping:
    """Page-cache state for one regular file backed by a :class:`BlockFS`.

    The inode's ``data`` bytearray is the cache; this object records, at
    disk-block granularity, which of its blocks are *resident*
    (authoritative — everything else is a zero placeholder awaiting a
    disk read), which are *dirty* (modified since last flush, stamped
    for writeback ordering and age expiry), and the flushed-on-disk
    layout (``blocks_disk``, ``None`` marking a hole, valid up to
    ``size_disk``).  ``committed`` says the on-disk metadata references
    this file; ``meta_dirty`` says the in-memory shape has diverged.
    """

    __slots__ = ("fs", "inode", "resident", "dirty", "blocks_disk",
                 "size_disk", "committed", "meta_dirty")

    def __init__(self, fs: "BlockFS", inode: Inode):
        self.fs = fs
        self.inode = inode
        self.resident: Set[int] = set()
        self.dirty: Dict[int, tuple] = {}   # idx -> (stamp, wall_ns)
        self.blocks_disk: List[Optional[int]] = []
        self.size_disk = 0
        self.committed = False
        self.meta_dirty = False

    # ---- residency (cache fill) ----

    def ensure_resident(self, offset: int, length: int,
                        charge: bool = True) -> None:
        """Fault the blocks covering ``[offset, offset+length)`` into the
        cache (disk reads for non-resident, disk-backed blocks)."""
        if length <= 0:
            return
        data = self.inode.data
        end = min(offset + length, len(data))
        if end <= max(offset, 0):
            return
        fs = self.fs
        bs = fs.disk.block_size
        first = max(offset, 0) // bs
        if first == (end - 1) // bs and first in self.resident:
            # a hit inside one resident block takes no lock: the lock
            # never covered the caller's read of the cached bytes, and a
            # clean block evicted meanwhile keeps valid bytes
            if not fs._quiet:
                fs.counters._counts["block.cache_hit"] += 1
            return
        hits = misses = 0
        with fs._lock:
            for idx in range(first, (end - 1) // bs + 1):
                if idx in self.resident:
                    hits += 1
                    continue
                misses += 1
                blk = self.blocks_disk[idx] \
                    if idx < len(self.blocks_disk) else None
                lo = idx * bs
                hi = min(lo + bs, len(data), self.size_disk)
                if blk is not None and hi > lo:
                    buf = fs._disk_read(blk, charge)
                    data[lo:hi] = buf[:hi - lo]
                # holes and never-flushed tails stay zeros
                self.resident.add(idx)
        if hits:
            fs._count("block.cache_hit", hits)
        if misses:
            fs._count("block.cache_miss", misses)

    # ---- write-side hooks (called from vfs.Inode pre/post mutation) ----

    def write_prepare(self, offset: int, length: int) -> int:
        """Pull read-modify-write edge blocks resident *before* the write
        mutates the cache; returns the start of the region that will be
        dirtied (sparse zero-fill extends it back to old EOF)."""
        old_len = len(self.inode.data)
        end = offset + length
        start = offset if offset <= old_len else old_len
        bs = self.fs.disk.block_size
        if start % bs and start < old_len:
            self.ensure_resident((start // bs) * bs, bs)
        if end % bs and end < old_len:
            self.ensure_resident((end // bs) * bs, bs)
        return start

    def mark_dirty(self, offset: int, length: int) -> None:
        if length <= 0:
            self.meta_dirty = True
            return
        fs = self.fs
        bs = fs.disk.block_size
        with fs._lock:
            for idx in range(offset // bs, (offset + length - 1) // bs + 1):
                self.resident.add(idx)
                if idx not in self.dirty:
                    self.dirty[idx] = (next(_stamp_counter),
                                       _time.monotonic_ns())
                    fs._ndirty += 1
            self.meta_dirty = True
            fs._note_dirty()
        fs.balance_dirty()

    def truncate_prepare(self, old: int, new: int) -> None:
        bs = self.fs.disk.block_size
        if new < old and new % bs:
            # the kept partial block must be authoritative before the
            # shrink makes it dirty (a zero placeholder would be flushed
            # over real content otherwise)
            self.ensure_resident((new // bs) * bs, bs)
        elif new > old and old % bs:
            self.ensure_resident((old // bs) * bs, bs)

    def truncate_apply(self, old: int, new: int) -> None:
        fs = self.fs
        bs = fs.disk.block_size
        if new > old:
            self.mark_dirty(old, new - old)
            return
        with fs._lock:
            last_keep = (new - 1) // bs if new > 0 else -1
            for idx in [i for i in self.resident if i > last_keep]:
                self.resident.discard(idx)
            for idx in [i for i in self.dirty if i > last_keep]:
                del self.dirty[idx]
                fs._ndirty -= 1
            if new % bs:
                idx = new // bs
                self.resident.add(idx)
                if idx not in self.dirty:
                    self.dirty[idx] = (next(_stamp_counter),
                                       _time.monotonic_ns())
                    fs._ndirty += 1
            self.meta_dirty = True
            fs._note_dirty()

    # ---- flush & eviction ----

    def flush(self, charge: bool = True) -> int:
        """Write every dirty page copy-on-write; returns pages written.

        Old block versions go to ``pending_free`` (reusable only after
        the next commit — a crash mid-flush must still recover the
        previous content), and the on-disk layout advances to the
        current cache shape.  Metadata is *not* committed here.
        """
        fs = self.fs
        with fs._lock:
            if not self.dirty:
                return 0
            bs = fs.disk.block_size
            data = self.inode.data
            nblocks = (len(data) + bs - 1) // bs
            if len(self.blocks_disk) < nblocks:
                self.blocks_disk.extend(
                    [None] * (nblocks - len(self.blocks_disk)))
            pages = 0
            for idx in sorted(self.dirty):
                if idx >= nblocks:
                    continue  # pruned content past EOF
                newblk = fs._alloc_block()
                old = self.blocks_disk[idx]
                if old is not None:
                    fs._pending_free.append(old)
                lo = idx * bs
                fs._disk_write(newblk, bytes(data[lo:lo + bs]), charge)
                self.blocks_disk[idx] = newblk
                pages += 1
            if len(self.blocks_disk) > nblocks:
                for blk in self.blocks_disk[nblocks:]:
                    if blk is not None:
                        fs._pending_free.append(blk)
                del self.blocks_disk[nblocks:]
            self.size_disk = len(data)
            fs._ndirty -= len(self.dirty)
            self.dirty.clear()
            self.meta_dirty = True
            fs._count("block.writeback_pages", pages)
            return pages

    def evict_clean(self) -> int:
        """Forget residency of clean pages (they re-fault from disk)."""
        with self.fs._lock:
            victims = [i for i in self.resident if i not in self.dirty]
            for idx in victims:
                self.resident.discard(idx)
            return len(victims)

    def min_stamp(self) -> tuple:
        return min(self.dirty.values()) if self.dirty else (0, 0)


class _PendingTLS(threading.local):
    pending = 0


class BlockFS:
    """One mounted block filesystem: cache policy + commit protocol.

    On-disk layout (block granularity)::

        0                      superblock (JSON: magic/seq/area/len/crc)
        1 .. m                 metadata area A   (m = max(4, nblocks/256))
        1+m .. 2m              metadata area B
        1+2m .. nblocks-1      data blocks (COW allocated)

    A commit serializes the tree into the *inactive* area, then rewrites
    the superblock to point at it — one atomic block write flips the
    whole filesystem between consistent states.
    """

    def __init__(self, disk: Optional[Disk] = None,
                 mountpoint: str = "/data", trace=None,
                 auto_daemon: bool = True, dirty_ratio: int = 20,
                 dirty_background_ratio: int = 10,
                 dirty_expire_centisecs: int = 3000,
                 dirty_writeback_centisecs: int = 500):
        self.disk = disk if disk is not None else Disk()
        self.mountpoint = "/" + mountpoint.strip("/") \
            if mountpoint.strip("/") else "/data"
        self.set_trace(trace or KernelTrace())
        self.meta_blocks = max(4, self.disk.nblocks // 256)
        self.data_start = 1 + 2 * self.meta_blocks
        if self.data_start >= self.disk.nblocks:
            raise ValueError("disk too small for the metadata areas")
        self.auto_daemon = auto_daemon
        self.dirty_ratio = dirty_ratio
        self.dirty_background_ratio = dirty_background_ratio
        self.dirty_expire_centisecs = dirty_expire_centisecs
        self.dirty_writeback_centisecs = dirty_writeback_centisecs
        self._lock = threading.RLock()
        self._disk_lock = threading.Lock()
        self._busy_until_ns = 0
        self.ioq = WaitQueue()          # I/O completion waitqueue
        self._inodes: Dict[int, Inode] = {}   # ino -> inode (registry)
        self._free: List[int] = []
        self._pending_free: List[int] = []
        self._ndirty = 0
        self._seq = 0
        self._area = 1                  # first commit lands in area 0
        self._quiet = True              # mount/mkfs: no counters/trace
        self.dead = False
        self._daemon: Optional[WritebackDaemon] = None
        self.vfs = None
        self.root_inode: Optional[Inode] = None
        # per-thread accrued device time; ``tls.pending`` reads 0 in a
        # thread that accrued none (Kernel.call reads it once per syscall)
        self.tls = _PendingTLS()

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------

    def set_trace(self, trace) -> None:
        self.trace = trace
        self.counters = trace.counters

    def _count(self, name: str, n: int = 1) -> None:
        if not self._quiet:
            self.counters.inc(name, n)

    def _emit(self, point: str, arg: int = 0, info: str = "") -> None:
        if not self._quiet:
            self.trace.emit(point, arg=arg, info=info)

    # ------------------------------------------------------------------
    # cost accrual & settlement (the scheduler-charged disk model)
    # ------------------------------------------------------------------

    def take_pending(self) -> int:
        ns = self.tls.pending
        self.tls.pending = 0
        return ns

    def drop_pending(self) -> None:
        self.tls.pending = 0

    def _add_pending(self, ns: int) -> None:
        self.tls.pending += ns

    def reserve(self, ns: int) -> int:
        """Reserve ``ns`` of device time on the single device-busy
        timeline, behind what is already queued; returns when the
        reservation ends (``time.monotonic_ns``)."""
        with self._disk_lock:
            end = max(_time.monotonic_ns(), self._busy_until_ns) + ns
            self._busy_until_ns = end
        return end

    def settle(self, kernel, proc) -> None:
        """Serve this thread's accrued device time: reserve a slot on the
        single device-busy timeline, then park until it elapses.

        With a kernel/proc the wait is a schedule point
        (:meth:`~repro.kernel.sched.Scheduler.sleep` releases the CPU
        slot, ``proc.kick`` subscribed on ``ioq`` delivers early wakes);
        the writeback daemon settles with plain sleeps.  The wait is
        uninterruptible, like a task in D state.
        """
        ns = self.take_pending()
        if ns <= 0:
            return
        end = self.reserve(ns)
        waited0 = _time.monotonic_ns()
        if kernel is None or proc is None:
            rem = end - _time.monotonic_ns()
            if rem > 0:
                _time.sleep(rem / 1e9)
        else:
            self.ioq.subscribe(proc.kick)
            try:
                while True:
                    rem = end - _time.monotonic_ns()
                    if rem <= 0:
                        break
                    kernel.sched.sleep(proc, rem / 1e9)
            finally:
                self.ioq.unsubscribe(proc.kick)
        self._count("block.io_wait_ns", _time.monotonic_ns() - waited0)
        self._emit("block_complete", arg=ns)
        self.ioq.wake(EPOLLIN)

    # ------------------------------------------------------------------
    # raw device access (cost + counters + tracepoints)
    # ------------------------------------------------------------------

    def _disk_read(self, blk: int, charge: bool = True) -> bytes:
        cost = self.disk.cost_ns(blk, write=False)
        if charge:
            self._add_pending(cost)
        self._count("block.read_blocks")
        self._emit("block_submit", arg=blk, info="r")
        return self.disk.read_block(blk)

    def _disk_write(self, blk: int, data: bytes,
                    charge: bool = True) -> None:
        cost = self.disk.cost_ns(blk, write=True)
        if charge:
            self._add_pending(cost)
        self._count("block.write_blocks")
        self._emit("block_submit", arg=blk, info="w")
        self.disk.write_block(blk, data)
        if self.disk.dead:
            self._count("block.lost_writes")

    def _alloc_block(self) -> int:
        if not self._free:
            raise KernelError(ENOSPC, "block device full")
        return heapq.heappop(self._free)

    # ------------------------------------------------------------------
    # mount & recovery
    # ------------------------------------------------------------------

    def mount(self, vfs) -> None:
        """Attach to ``vfs`` at the mountpoint, recovering the committed
        tree from the disk (or mkfs'ing an unformatted one)."""
        self.vfs = vfs
        root = vfs.mkdirs(self.mountpoint)
        root.sb = self
        self.root_inode = root
        recovered = self._read_meta()
        if recovered is None:
            self._free = list(range(self.data_start, self.disk.nblocks))
            heapq.heapify(self._free)
            self._commit(charge=False)  # mkfs: an empty committed tree
        else:
            meta, seq, area = recovered
            self._seq = seq
            self._area = area
            used: Set[int] = set()
            for d in sorted(meta.get("dirs", ())):
                vfs.mkdirs(self.mountpoint + d)
            for path in sorted(meta.get("files", {})):
                fm = meta["files"][path]
                parent_path, _, name = path.rpartition("/")
                parent = vfs.mkdirs(self.mountpoint + parent_path) \
                    if parent_path else root
                node = Inode(S_IFREG | (fm.get("m", 0o644) & 0o7777))
                node.data = bytearray(int(fm["s"]))
                node.mtime_ns = int(fm.get("t", node.mtime_ns))
                m = FileMapping(self, node)
                m.blocks_disk = [None if b is None else int(b)
                                 for b in fm["b"]]
                m.size_disk = int(fm["s"])
                m.committed = True
                node.mapping = m
                node.sb = self
                parent.entries[name] = node
                self._inodes[node.ino] = node
                used.update(b for b in m.blocks_disk if b is not None)
            self._free = [b for b in range(self.data_start,
                                           self.disk.nblocks)
                          if b not in used]
            heapq.heapify(self._free)
            self._fix_backpointers(root)
        self._quiet = False

    def _fix_backpointers(self, dirnode: Inode) -> None:
        for name, child in dirnode.entries.items():
            child.parent = dirnode
            child.pname = name
            child.sb = self
            if child.is_dir:
                self._fix_backpointers(child)

    def _read_meta(self):
        bs = self.disk.block_size
        try:
            sb = json.loads(self.disk.read_block(0).rstrip(b"\x00").decode())
            if sb.get("magic") != BLOCKFS_MAGIC:
                return None
            area, length = int(sb["area"]), int(sb["len"])
            if area not in (0, 1) or not 0 <= length <= self.meta_blocks * bs:
                return None
            base = 1 + area * self.meta_blocks
            blob = b"".join(self.disk.read_block(base + i)
                            for i in range((length + bs - 1) // bs))[:length]
            if (zlib.crc32(blob) & 0xFFFFFFFF) != int(sb["crc"]):
                return None
            return json.loads(blob.decode()), int(sb["seq"]), area
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            return None

    # ------------------------------------------------------------------
    # adopt / disown (files entering and leaving the mounted subtree)
    # ------------------------------------------------------------------

    def adopt(self, node: Inode) -> None:
        """A node was attached under the mount: back it with the disk.
        Files arrive all-resident, all-dirty (nothing flushed yet)."""
        node.sb = self
        if node.is_file and node.generator is None and node.device is None:
            if node.mapping is not None:
                return
            m = FileMapping(self, node)
            node.mapping = m
            with self._lock:
                self._inodes[node.ino] = node
            if len(node.data):
                m.mark_dirty(0, len(node.data))
            else:
                m.meta_dirty = True
                with self._lock:
                    self._note_dirty()
        elif node.is_dir:
            for name, child in node.entries.items():
                child.parent = node
                child.pname = name
                self.adopt(child)

    def disown(self, node: Inode) -> None:
        """A node left the mount (rename out, or last link dropped):
        materialize its content in memory and release its disk blocks."""
        if node.is_file and node.mapping is not None:
            m = node.mapping
            m.ensure_resident(0, len(node.data), charge=False)
            with self._lock:
                self._ndirty -= len(m.dirty)
                m.dirty.clear()
                for blk in m.blocks_disk:
                    if blk is not None:
                        self._pending_free.append(blk)
                self._inodes.pop(node.ino, None)
            node.mapping = None
        elif node.is_dir:
            for child in node.entries.values():
                self.disown(child)
        node.sb = None

    # ------------------------------------------------------------------
    # metadata commit
    # ------------------------------------------------------------------

    def _serialize(self):
        # drop unlinked files first (their blocks free at this commit)
        for node in [n for n in self._inodes.values() if n.nlink <= 0]:
            self.disown(node)
        dirs: List[str] = []
        files: Dict[str, dict] = {}
        mappings: List[FileMapping] = []

        def walk(dirnode: Inode, prefix: str) -> None:
            for name in sorted(dirnode.entries):
                child = dirnode.entries[name]
                p = prefix + "/" + name
                if child.is_dir:
                    dirs.append(p)
                    walk(child, p)
                elif child.is_file and child.mapping is not None:
                    m = child.mapping
                    files[p] = {"b": list(m.blocks_disk), "s": m.size_disk,
                                "m": child.mode & 0o7777,
                                "t": child.mtime_ns}
                    mappings.append(m)

        walk(self.root_inode, "")
        blob = json.dumps({"dirs": dirs, "files": files}, sort_keys=True,
                          separators=(",", ":")).encode()
        return blob, mappings

    def _commit(self, charge: bool = True) -> None:
        """Write the tree to the inactive metadata area, then flip the
        superblock to it — the single atomic transition."""
        with self._lock:
            blob, mappings = self._serialize()
            bs = self.disk.block_size
            if len(blob) > self.meta_blocks * bs:
                raise KernelError(ENOSPC, "metadata area overflow")
            area = 1 - self._area
            base = 1 + area * self.meta_blocks
            for i in range(0, max(len(blob), 1), bs):
                self._disk_write(base + i // bs, blob[i:i + bs], charge)
            sb = {"magic": BLOCKFS_MAGIC, "seq": self._seq + 1,
                  "area": area, "len": len(blob),
                  "crc": zlib.crc32(blob) & 0xFFFFFFFF}
            self._disk_write(0, json.dumps(sb, sort_keys=True).encode(),
                             charge)
            self._seq += 1
            self._area = area
            while self._pending_free:
                heapq.heappush(self._free, self._pending_free.pop())
            for m in mappings:
                m.committed = True
                m.meta_dirty = bool(m.dirty) or \
                    len(m.inode.data) != m.size_disk
            self._count("block.commits")

    # ------------------------------------------------------------------
    # sync family
    # ------------------------------------------------------------------

    def fsync_inode(self, inode: Inode, datasync: bool = False,
                    charge: bool = True) -> int:
        """Flush + commit one file; ``datasync`` does the same work here
        because timestamp-only metadata is never tracked separately."""
        m = inode.mapping
        if m is None:
            return 0
        with self._lock:
            pages = m.flush(charge) if m.dirty else 0
            if pages or m.meta_dirty or not m.committed:
                self._commit(charge)
        self._count("block.fsync")
        return pages

    def fsync_dir(self) -> None:
        """fsync of a directory on the mount: commit the tree, so every
        entry under it is durable (a file's unflushed data is not)."""
        with self._lock:
            self._commit()
        self._count("block.fsync")

    def flush_inode(self, inode: Inode, charge: bool = True) -> int:
        """Push a file's dirty pages without committing metadata (the
        ``sync_file_range`` / ``O_DIRECT`` write-through path)."""
        m = inode.mapping
        if m is None:
            return 0
        with self._lock:
            return m.flush(charge) if m.dirty else 0

    def sync_all(self, charge: bool = True) -> int:
        """``sync(2)``: flush every dirty file, commit unconditionally."""
        with self._lock:
            pages = 0
            for m in self._dirty_victims():
                pages += m.flush(charge)
            self._commit(charge)
            return pages

    # ------------------------------------------------------------------
    # writeback policy
    # ------------------------------------------------------------------

    def _dirty_victims(self) -> List[FileMapping]:
        out = [n.mapping for n in self._inodes.values()
               if n.mapping is not None and n.mapping.dirty]
        out.sort(key=lambda m: (m.min_stamp()[0], m.inode.ino))
        return out

    def _dirty_limit(self, ratio: int) -> int:
        return max(1, (self.disk.nblocks - self.data_start) * ratio // 100)

    def _note_dirty(self) -> None:
        if self.auto_daemon and self._daemon is None and not self.dead:
            self._daemon = WritebackDaemon(self)
            self._daemon.start()

    def balance_dirty(self) -> None:
        """Foreground throttle: past ``dirty_ratio`` the *writer* flushes
        down to the background target before its write returns."""
        with self._lock:
            if self.dead or self._ndirty <= self._dirty_limit(
                    self.dirty_ratio):
                return
            self._count("block.foreground_writeback")
            target = self._dirty_limit(self.dirty_background_ratio)
            pages = 0
            for m in self._dirty_victims():
                if self._ndirty <= target:
                    break
                pages += m.flush()
            if pages:
                self._commit()
                self._emit("writeback", arg=pages)

    def writeback(self, older_than_ns: Optional[int] = None,
                  charge: bool = True) -> int:
        """One flusher pass: write out dirty files (oldest first; only
        those aged past ``older_than_ns`` when given) and commit."""
        with self._lock:
            if self.dead:
                return 0
            cutoff = None
            if older_than_ns is not None:
                cutoff = _time.monotonic_ns() - older_than_ns
            pages = 0
            for m in self._dirty_victims():
                if cutoff is not None and m.min_stamp()[1] > cutoff:
                    continue
                pages += m.flush(charge)
            if pages:
                self._commit(charge)
                self._emit("writeback", arg=pages)
            return pages

    def drop_caches(self) -> int:
        with self._lock:
            return sum(n.mapping.evict_clean()
                       for n in self._inodes.values()
                       if n.mapping is not None)

    # ------------------------------------------------------------------
    # crash & teardown
    # ------------------------------------------------------------------

    def crash(self) -> Disk:
        """Kill the kernel's disk mid-flight: stop writeback, freeze the
        image, and hand back a fresh disk holding the snapshot (remount
        it with ``Kernel(block=BlockFS(disk))`` to run recovery)."""
        self.stop_daemon()
        self.dead = True
        image = self.disk.snapshot()
        self.disk.dead = True
        return self.disk.clone(image)

    def stop_daemon(self) -> None:
        if self._daemon is not None:
            self._daemon.stop()
            self._daemon = None

    # ------------------------------------------------------------------
    # stats (/proc/block)
    # ------------------------------------------------------------------

    def stats_text(self) -> str:
        d = self.disk
        with self._lock:
            resident = sum(len(n.mapping.resident)
                           for n in self._inodes.values()
                           if n.mapping is not None)
            lines = [
                f"disk: {d.nblocks} blocks x {d.block_size} B "
                f"(data {self.data_start}..{d.nblocks - 1}) seq: {self._seq}",
                f"files: {len(self._inodes)} cached_pages: {resident} "
                f"dirty_pages: {self._ndirty}",
                f"disk_reads: {d.reads} disk_writes: {d.writes} "
                f"seeks: {d.seeks} lost_writes: {d.lost_writes}",
                f"cache_hits: {self.counters.get('block.cache_hit')} "
                f"cache_misses: {self.counters.get('block.cache_miss')}",
                f"writeback_pages: "
                f"{self.counters.get('block.writeback_pages')} "
                f"commits: {self.counters.get('block.commits')} "
                f"fsyncs: {self.counters.get('block.fsync')}",
                f"foreground_writeback: "
                f"{self.counters.get('block.foreground_writeback')} "
                f"io_wait_ns: {self.counters.get('block.io_wait_ns')}",
                f"dirty_ratio: {self.dirty_ratio} "
                f"dirty_background_ratio: {self.dirty_background_ratio}",
                f"dirty_expire_centisecs: {self.dirty_expire_centisecs} "
                f"dirty_writeback_centisecs: "
                f"{self.dirty_writeback_centisecs}",
            ]
        return "\n".join(lines) + "\n"


class WritebackDaemon:
    """The kworker-style flusher thread behind one :class:`BlockFS`.

    Holds only a weak reference so hundreds of short-lived test kernels
    never leak threads: the loop exits when the filesystem is collected
    or marked dead.  Started lazily on the first dirty page."""

    def __init__(self, fs: BlockFS):
        self._fs_ref = weakref.ref(fs)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="kworker-flush", daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive() and \
                threading.current_thread() is not self._thread:
            self._thread.join(timeout=2.0)

    def _run(self) -> None:
        while True:
            fs = self._fs_ref()
            if fs is None or fs.dead:
                return
            interval = max(fs.dirty_writeback_centisecs, 1) / 100.0
            fs = None  # no strong ref while sleeping
            if self._stop.wait(interval):
                return
            fs = self._fs_ref()
            if fs is None or fs.dead:
                return
            try:
                pages = fs.writeback(
                    older_than_ns=fs.dirty_expire_centisecs * 10_000_000,
                    charge=True)
                if pages:
                    fs.settle(None, None)   # the device stays busy
                else:
                    fs.drop_pending()
            except KernelError:
                fs.drop_pending()


# ----------------------------------------------------------------------
# /proc/sys/vm knob devices (kernel/procfs.py mounts these)
# ----------------------------------------------------------------------

_VM_KNOBS = {
    "dirty_ratio": (1, 100),
    "dirty_background_ratio": (0, 100),
    "dirty_expire_centisecs": (0, 10**9),
    "dirty_writeback_centisecs": (0, 10**9),
}


class VMKnobDevice(CharDevice):
    """One writable /proc/sys/vm knob backed by a BlockFS attribute."""

    def __init__(self, fs: BlockFS, name: str):
        if name not in _VM_KNOBS:
            raise ValueError(name)
        self.fs = fs
        self.name = name

    def read(self, length: int) -> bytes:
        return f"{getattr(self.fs, self.name)}\n".encode()[:length]

    def write(self, data: bytes) -> int:
        try:
            value = int(data.split()[0])
        except (ValueError, IndexError):
            raise KernelError(EINVAL, f"bad value for {self.name}")
        lo, hi = _VM_KNOBS[self.name]
        if not lo <= value <= hi:
            raise KernelError(EINVAL, f"{self.name} out of range")
        setattr(self.fs, self.name, value)
        return len(data)


class DropCachesDevice(CharDevice):
    """/proc/sys/vm/drop_caches: any write evicts clean pages."""

    def __init__(self, fs: BlockFS):
        self.fs = fs

    def read(self, length: int) -> bytes:
        return b"0\n"[:length]

    def write(self, data: bytes) -> int:
        self.fs.drop_caches()
        return len(data)


# ----------------------------------------------------------------------
# spec-string factory (mirrors create_backend / create_scheduler)
# ----------------------------------------------------------------------

def create_blockfs(spec, trace: Optional[KernelTrace] = None) -> BlockFS:
    """Build the kernel's block layer from a spec.

    ``None`` → a default 8 MiB disk mounted at ``/data``;
    ``"block:blocks=4096,bs=4096,seek_us=100,read_us=20,write_us=20,
    mount=/data,daemon=1,dirty_ratio=20,..."`` → a tuned instance; a
    :class:`Disk` remounts an existing image; a :class:`BlockFS` passes
    through (its trace sink is rebound to the kernel's).
    """
    if spec is None:
        return BlockFS(Disk(), trace=trace)
    if isinstance(spec, BlockFS):
        if trace:
            spec.set_trace(trace)
        return spec
    if isinstance(spec, Disk):
        return BlockFS(spec, trace=trace)
    if isinstance(spec, str):
        body = spec.strip()
        if body.lower() == "block":
            return BlockFS(Disk(), trace=trace)
        if body.lower().startswith("block:"):
            disk_kw: Dict[str, object] = {}
            fs_kw: Dict[str, object] = {}
            for part in body[6:].split(","):
                part = part.strip()
                if not part:
                    continue
                key, _, value = part.partition("=")
                key = key.strip().lower()
                value = value.strip()
                try:
                    if key == "blocks":
                        disk_kw["nblocks"] = int(value)
                    elif key == "bs":
                        disk_kw["block_size"] = int(value)
                    elif key == "seek_us":
                        disk_kw["seek_us"] = float(value)
                    elif key == "read_us":
                        disk_kw["read_us_per_block"] = float(value)
                    elif key == "write_us":
                        disk_kw["write_us_per_block"] = float(value)
                    elif key == "mount":
                        fs_kw["mountpoint"] = value
                    elif key == "daemon":
                        fs_kw["auto_daemon"] = value not in ("0", "off")
                    elif key in ("dirty_ratio", "dirty_background_ratio",
                                 "dirty_expire_centisecs",
                                 "dirty_writeback_centisecs"):
                        fs_kw[key] = int(value)
                    else:
                        raise ValueError(f"unknown block option {key!r}")
                except ValueError as exc:
                    raise ValueError(
                        f"bad block spec component {part!r}: {exc}")
            return BlockFS(Disk(**disk_kw), trace=trace, **fs_kw)
    raise ValueError(f"unrecognized block spec: {spec!r}")
