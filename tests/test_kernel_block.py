"""Block layer tests: the disk cost model charged through the scheduler,
the block-granular page cache, writeback (daemon + foreground), the real
sync family, O_DIRECT/O_SYNC semantics, /proc surfaces, uring FSYNC —
and crash consistency: a kill-at-every-write matrix over a scenario with
fsync'd, un-synced, and O_DIRECT data, plus a Hypothesis invariant that
the page cache always equals disk-after-recovery overlaid with the dirty
pages."""

import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.kernel import (
    AT_FDCWD, AddressSpace, BlockFS, Disk, IN_ALL_EVENTS, IN_CLOSE_WRITE,
    IN_NONBLOCK, IORING_OP_FSYNC, IORING_OP_READ, IORING_OP_WRITE, Kernel,
    KernelError, MAP_SHARED, O_CREAT, O_DIRECT, O_RDONLY, O_RDWR, O_SYNC,
    O_WRONLY, PROT_READ, PROT_WRITE, SQE, TRACEPOINTS, VFS, create_blockfs,
    decode_events,
)
from repro.kernel.calls.memsys import MS_SYNC
from repro.kernel.errno import EINVAL, ENOENT, ENOSPC

ZERO_COST = "seek_us=0,read_us=0,write_us=0"


def _fast_disk(nblocks=512):
    return Disk(nblocks=nblocks, seek_us=0.0, read_us_per_block=0.0,
                write_us_per_block=0.0)


def _boot(disk=None, **kw):
    fs = BlockFS(disk if disk is not None else _fast_disk(),
                 auto_daemon=False, **kw)
    return Kernel(block=fs), fs


def _remount(disk):
    return Kernel(block=BlockFS(disk, auto_daemon=False))


def _read_or_none(kern, path):
    try:
        return bytes(kern.vfs.read_file(path))
    except KernelError as exc:
        assert exc.errno == ENOENT
        return None


# ---------------------------------------------------------------------------
# crash matrix
# ---------------------------------------------------------------------------

CONTENT_A = bytes(range(256)) * 32          # 8 KiB, two blocks
CONTENT_A2 = b"#" * 4000 + CONTENT_A[4000:]  # after the second fsync
CONTENT_B = b"never-synced " * 100
CONTENT_C = b"direct-io " * 50


def _crash_scenario(fail_at=None):
    """Run the write/fsync scenario on a zero-cost disk, killing the
    device after ``fail_at`` post-mount writes (None = never).  Returns
    the crashed disk image plus the write-count marks of each commit
    point (meaningful on the baseline run, deterministic across runs)."""
    disk = _fast_disk()
    kern, fs = _boot(disk)
    base = disk.writes
    if fail_at is not None:
        disk.fail_after(fail_at)
    p = kern.create_process(["crash-scenario"])

    fd = kern.call(p, "openat", AT_FDCWD, "/data/a", O_CREAT | O_WRONLY,
                   0o644)
    kern.call(p, "write", fd, CONTENT_A)
    kern.call(p, "fsync", fd)
    a1 = disk.writes - base

    fdb = kern.call(p, "openat", AT_FDCWD, "/data/b", O_CREAT | O_WRONLY,
                    0o644)
    kern.call(p, "write", fdb, CONTENT_B)
    kern.call(p, "close", fdb)           # close-write, never synced

    fdc = kern.call(p, "openat", AT_FDCWD, "/data/c",
                    O_CREAT | O_WRONLY | O_DIRECT, 0o644)
    kern.call(p, "write", fdc, CONTENT_C)
    kern.call(p, "close", fdc)           # data on disk, metadata is not

    kern.call(p, "pwrite64", fd, b"#" * 4000, 0)
    kern.call(p, "fsync", fd)
    a2 = disk.writes - base
    kern.call(p, "close", fd)

    return fs.crash(), a1, a2


def test_crash_scenario_baseline_recovers_everything_committed():
    crashed, a1, a2 = _crash_scenario()
    assert 0 < a1 < a2
    kern = _remount(crashed)
    assert _read_or_none(kern, "/data/a") == CONTENT_A2
    # b's creation was committed by a's second fsync, but its data was
    # never flushed: it recovers as an empty file, never as torn bytes
    assert _read_or_none(kern, "/data/b") == b""
    # c's O_DIRECT write put the data on disk; the same later commit
    # made the metadata durable too
    assert _read_or_none(kern, "/data/c") == CONTENT_C


def test_crash_matrix_kill_at_every_write():
    _, a1, a2 = _crash_scenario()        # baseline marks (deterministic)
    for k in range(a2 + 2):
        crashed, _, _ = _crash_scenario(fail_at=k)
        kern = _remount(crashed)
        a = _read_or_none(kern, "/data/a")
        b = _read_or_none(kern, "/data/b")
        c = _read_or_none(kern, "/data/c")
        if k < a1:
            # crash before the first commit point: nothing exists; a
            # half-written commit must roll back to the empty fs
            assert a is None and b is None and c is None, k
        elif k < a2:
            # between the two commits: exactly the first fsync'd
            # version of a — never a torn mix of old and new bytes
            assert a == CONTENT_A, k
            assert b is None and c is None, k
        else:
            assert a == CONTENT_A2, k
            assert b == b"" and c == CONTENT_C, k


def test_unreadable_superblock_refomats_cleanly():
    # kill the disk before mkfs finishes: remount finds no valid
    # superblock and formats fresh instead of crashing
    disk = _fast_disk()
    disk.fail_after(0)
    kern, fs = _boot(disk)
    crashed = fs.crash()
    kern2 = _remount(crashed)
    assert _read_or_none(kern2, "/data/x") is None
    p = kern2.create_process(["post"])
    fd = kern2.call(p, "openat", AT_FDCWD, "/data/x", O_CREAT | O_WRONLY,
                    0o644)
    kern2.call(p, "write", fd, b"alive")
    kern2.call(p, "fsync", fd)


# ---------------------------------------------------------------------------
# Hypothesis: cache == disk-after-recovery overlaid with dirty pages
# ---------------------------------------------------------------------------

_FILES = ("f0", "f1")
_OP = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(_FILES),
              st.integers(0, 12000), st.integers(1, 5000),
              st.integers(0, 255)),
    st.tuples(st.just("truncate"), st.sampled_from(_FILES),
              st.integers(0, 16000)),
    st.tuples(st.just("fsync"), st.sampled_from(_FILES)),
    st.tuples(st.just("writeback"), st.just("")),
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(_OP, max_size=25))
def test_clean_cache_blocks_match_recovered_disk(ops):
    v = VFS()
    fs = BlockFS(_fast_disk(nblocks=256), auto_daemon=False)
    fs.mount(v)
    nodes = {name: v.write_file("/data/" + name, b"") for name in _FILES}
    for op in ops:
        try:
            if op[0] == "write":
                _, name, off, n, byte = op
                nodes[name].write_at(off, bytes([byte]) * n)
            elif op[0] == "truncate":
                nodes[op[1]].truncate(op[2])
            elif op[0] == "fsync":
                fs.fsync_inode(nodes[op[1]], charge=False)
            else:
                fs.writeback(charge=False)
        except KernelError as exc:
            assert exc.errno == ENOSPC

    # recover a snapshot of the device as it stands right now
    v2 = VFS()
    fs2 = BlockFS(fs.disk.clone(), auto_daemon=False)
    fs2.mount(v2)
    bs = fs.disk.block_size
    for name, node in nodes.items():
        try:
            rec = bytes(v2.read_file("/data/" + name))
        except KernelError:
            rec = b""
        m = node.mapping
        data = node.data
        for idx in range((len(data) + bs - 1) // bs):
            if idx in m.dirty or idx not in m.resident:
                continue  # dirty/absent pages may diverge from disk
            lo, hi = idx * bs, min(idx * bs + bs, len(data))
            assert bytes(data[lo:hi]) == rec[lo:hi], (name, idx)


def test_sync_all_makes_cache_and_disk_identical():
    v = VFS()
    fs = BlockFS(_fast_disk(nblocks=256), auto_daemon=False)
    fs.mount(v)
    na = v.write_file("/data/a", b"alpha" * 1000)
    nb = v.write_file("/data/b", b"beta" * 2000)
    nb.truncate(3000)
    fs.sync_all(charge=False)
    v2 = VFS()
    BlockFS(fs.disk.clone(), auto_daemon=False).mount(v2)
    assert bytes(v2.read_file("/data/a")) == bytes(na.data)
    assert bytes(v2.read_file("/data/b")) == bytes(nb.data)


# ---------------------------------------------------------------------------
# cost model: I/O time is charged through the scheduler
# ---------------------------------------------------------------------------

class TestCostModel:
    def test_io_cost_parks_the_caller(self):
        kern = Kernel(
            block="block:seek_us=2000,read_us=500,write_us=500,daemon=0",
            trace="on")
        p = kern.create_process(["io"])
        fd = kern.call(p, "openat", AT_FDCWD, "/data/f",
                       O_CREAT | O_WRONLY, 0o644)
        kern.call(p, "write", fd, b"x" * 8192)
        t0 = time.monotonic()
        kern.call(p, "fsync", fd)
        elapsed = time.monotonic() - t0
        # fsync flushes >= 2 data blocks + metadata + superblock at
        # 500us/block + 2ms/seek: well over half a millisecond of
        # simulated device time, served while parked on the I/O queue
        assert elapsed >= 0.0005
        assert kern.trace.counters["block.io_wait_ns"] > 0
        assert kern.trace.counters["block.fsync"] == 1

    def test_zero_cost_disk_does_not_park(self):
        kern, _fs = _boot()
        p = kern.create_process(["io"])
        fd = kern.call(p, "openat", AT_FDCWD, "/data/f",
                       O_CREAT | O_WRONLY, 0o644)
        t0 = time.monotonic()
        kern.call(p, "write", fd, b"x" * 4096)
        kern.call(p, "fsync", fd)
        assert time.monotonic() - t0 < 0.5

    def test_cache_hits_skip_the_device(self):
        kern = Kernel(block="block:" + ZERO_COST + ",daemon=0",
                      trace="on")
        fs = kern.blockdev
        p = kern.create_process(["io"])
        fd = kern.call(p, "openat", AT_FDCWD, "/data/f",
                       O_CREAT | O_RDWR, 0o644)
        kern.call(p, "write", fd, b"y" * 16384)
        kern.call(p, "fsync", fd)
        fs.drop_caches()
        reads_before = fs.disk.reads
        assert kern.call(p, "pread64", fd, 16384, 0) == b"y" * 16384
        misses = kern.trace.counters["block.cache_miss"]
        assert fs.disk.reads > reads_before and misses >= 4
        # second read: fully cached, the device is not touched
        reads_before = fs.disk.reads
        assert kern.call(p, "pread64", fd, 16384, 0) == b"y" * 16384
        assert fs.disk.reads == reads_before
        assert kern.trace.counters["block.cache_hit"] >= 4


# ---------------------------------------------------------------------------
# sync family and open-flag semantics
# ---------------------------------------------------------------------------

class TestDurabilitySemantics:
    def test_o_sync_writes_are_durable_without_fsync(self):
        kern, fs = _boot()
        p = kern.create_process(["osync"])
        fd = kern.call(p, "openat", AT_FDCWD, "/data/s",
                       O_CREAT | O_WRONLY | O_SYNC, 0o644)
        kern.call(p, "write", fd, b"synchronous" * 400)
        kern2 = _remount(fs.crash())
        assert _read_or_none(kern2, "/data/s") == b"synchronous" * 400

    def test_o_direct_alone_is_not_durable(self):
        kern, fs = _boot()
        p = kern.create_process(["direct"])
        fd = kern.call(p, "openat", AT_FDCWD, "/data/d",
                       O_CREAT | O_RDWR | O_DIRECT, 0o644)
        writes_before = fs.disk.writes
        kern.call(p, "write", fd, b"raw" * 2000)
        node = kern.vfs.lookup("/data/d")
        # the data went straight to the device and left the cache...
        assert fs.disk.writes > writes_before
        assert not node.mapping.resident
        # ...reads fault it back in (and O_DIRECT drops it again)
        assert kern.call(p, "pread64", fd, 6000, 0) == b"raw" * 2000
        assert not node.mapping.resident
        # but without a commit the file does not survive a crash
        kern2 = _remount(fs.crash())
        assert _read_or_none(kern2, "/data/d") is None

    def test_sync_file_range_flushes_data_without_commit(self):
        kern, fs = _boot()
        p = kern.create_process(["sfr"])
        fd = kern.call(p, "openat", AT_FDCWD, "/data/r",
                       O_CREAT | O_WRONLY, 0o644)
        kern.call(p, "write", fd, b"range" * 1000)
        seq, writes = fs._seq, fs.disk.writes
        kern.call(p, "sync_file_range", fd, 0, 0, 0)
        # the classic pitfall, modeled: data blocks hit the device but
        # no metadata commit happened, so a crash still loses the file
        assert fs.disk.writes > writes and fs._seq == seq
        kern2 = _remount(fs.crash())
        assert _read_or_none(kern2, "/data/r") is None

    def test_sync_and_syncfs_commit_everything(self):
        kern, fs = _boot()
        p = kern.create_process(["sync"])
        for name in ("x", "y"):
            fd = kern.call(p, "openat", AT_FDCWD, "/data/" + name,
                           O_CREAT | O_WRONLY, 0o644)
            kern.call(p, "write", fd, name.encode() * 5000)
            kern.call(p, "close", fd)
        kern.call(p, "sync")
        kern2 = _remount(fs.crash())
        assert _read_or_none(kern2, "/data/x") == b"x" * 5000
        assert _read_or_none(kern2, "/data/y") == b"y" * 5000

    def test_fdatasync_is_durable_too(self):
        kern, fs = _boot()
        p = kern.create_process(["fdsync"])
        fd = kern.call(p, "openat", AT_FDCWD, "/data/j",
                       O_CREAT | O_WRONLY, 0o644)
        kern.call(p, "write", fd, b"journal")
        kern.call(p, "fdatasync", fd)
        kern2 = _remount(fs.crash())
        assert _read_or_none(kern2, "/data/j") == b"journal"

    def test_fsync_of_the_directory_makes_a_new_entry_durable(self):
        kern, fs = _boot()
        p = kern.create_process(["creat"])
        fd = kern.call(p, "openat", AT_FDCWD, "/data/new",
                       O_CREAT | O_WRONLY, 0o644)
        kern.call(p, "close", fd)
        dfd = kern.call(p, "openat", AT_FDCWD, "/data", O_RDONLY)
        commits = kern.counters.get("block.commits")
        assert kern.call(p, "fsync", dfd) == 0
        assert kern.counters.get("block.commits") - commits == 1
        kern2 = _remount(fs.crash())
        assert _read_or_none(kern2, "/data/new") == b""

    def test_fsync_of_a_directory_off_the_mount_commits_nothing(self):
        kern, _fs = _boot()
        p = kern.create_process(["tmpdir"])
        dfd = kern.call(p, "openat", AT_FDCWD, "/tmp", O_RDONLY)
        commits = kern.counters.get("block.commits")
        assert kern.call(p, "fsync", dfd) == 0
        assert kern.counters.get("block.commits") == commits

    def test_close_write_event_does_not_imply_durability(self):
        # IN_CLOSE_WRITE fires at close(2); durability needs fsync.  An
        # editor watching for close-write and assuming the save is on
        # disk loses the file to a crash
        kern, fs = _boot()
        p = kern.create_process(["watcher"])
        ifd = kern.call(p, "inotify_init1", IN_NONBLOCK)
        kern.call(p, "inotify_add_watch", ifd, "/data", IN_ALL_EVENTS)
        fd = kern.call(p, "openat", AT_FDCWD, "/data/doc",
                       O_CREAT | O_WRONLY, 0o644)
        kern.call(p, "write", fd, b"draft")
        kern.call(p, "close", fd)
        evs = decode_events(kern.call(p, "read", ifd, 4096))
        assert (IN_CLOSE_WRITE, "doc") in [(m, n) for _, m, _, n in evs]
        kern2 = _remount(fs.crash())
        assert _read_or_none(kern2, "/data/doc") is None

    def test_rename_then_fsync_survives(self):
        kern, fs = _boot()
        p = kern.create_process(["mv"])
        fd = kern.call(p, "openat", AT_FDCWD, "/data/tmp",
                       O_CREAT | O_WRONLY, 0o644)
        kern.call(p, "write", fd, b"payload")
        kern.call(p, "fsync", fd)
        kern.call(p, "renameat", AT_FDCWD, "/data/tmp", AT_FDCWD,
                  "/data/final")
        kern.call(p, "fsync", fd)
        kern2 = _remount(fs.crash())
        assert _read_or_none(kern2, "/data/tmp") is None
        assert _read_or_none(kern2, "/data/final") == b"payload"

    def test_unlink_is_durable_at_the_next_commit(self):
        kern, fs = _boot()
        p = kern.create_process(["rm"])
        fd = kern.call(p, "openat", AT_FDCWD, "/data/victim",
                       O_CREAT | O_WRONLY, 0o644)
        kern.call(p, "write", fd, b"doomed" * 1000)
        kern.call(p, "fsync", fd)
        kern.call(p, "close", fd)
        kern.call(p, "unlinkat", AT_FDCWD, "/data/victim", 0)
        kern.call(p, "sync")   # commit: the deletion reaches the disk
        kern2 = _remount(fs.crash())
        assert _read_or_none(kern2, "/data/victim") is None
        # the freed blocks are reusable: fill a file of the same size
        p2 = kern2.create_process(["reuse"])
        fd = kern2.call(p2, "openat", AT_FDCWD, "/data/fresh",
                        O_CREAT | O_WRONLY, 0o644)
        kern2.call(p2, "write", fd, b"reborn" * 1000)
        kern2.call(p2, "fsync", fd)

    def test_enospc_when_data_blocks_run_out(self):
        kern, _fs = _boot(Disk(nblocks=16, seek_us=0.0,
                               read_us_per_block=0.0,
                               write_us_per_block=0.0))
        p = kern.create_process(["full"])
        fd = kern.call(p, "openat", AT_FDCWD, "/data/big",
                       O_CREAT | O_WRONLY, 0o644)
        # 16 dirty blocks on a 7-data-block device: the dirty-ratio
        # throttle forces foreground writeback mid-write, which runs
        # out of blocks — the write itself reports ENOSPC
        with pytest.raises(KernelError) as exc:
            kern.call(p, "write", fd, b"z" * 65536)
        assert exc.value.errno == ENOSPC


# ---------------------------------------------------------------------------
# writeback: daemon, dirty thresholds, msync
# ---------------------------------------------------------------------------

class TestWriteback:
    def test_daemon_flushes_aged_dirty_pages(self):
        kern = Kernel(block="block:" + ZERO_COST +
                      ",dirty_writeback_centisecs=2,dirty_expire_centisecs=0")
        fs = kern.blockdev
        try:
            p = kern.create_process(["bg"])
            fd = kern.call(p, "openat", AT_FDCWD, "/data/bg",
                           O_CREAT | O_WRONLY, 0o644)
            kern.call(p, "write", fd, b"w" * 8192)
            deadline = time.monotonic() + 5.0
            while fs._ndirty and time.monotonic() < deadline:
                time.sleep(0.01)
            assert fs._ndirty == 0
            kern2 = _remount(fs.crash())
            assert _read_or_none(kern2, "/data/bg") == b"w" * 8192
        finally:
            fs.stop_daemon()

    def test_foreground_writeback_when_dirty_ratio_exceeded(self):
        kern = Kernel(block="block:" + ZERO_COST +
                      ",daemon=0,dirty_ratio=2,dirty_background_ratio=1",
                      trace="on")
        fs = kern.blockdev
        limit = fs._dirty_limit(fs.dirty_ratio)
        p = kern.create_process(["hog"])
        fd = kern.call(p, "openat", AT_FDCWD, "/data/hog",
                       O_CREAT | O_WRONLY, 0o644)
        kern.call(p, "write", fd, b"h" * ((limit + 4) * 4096))
        # the write itself throttled into foreground writeback
        assert kern.trace.counters["block.foreground_writeback"] >= 1
        assert fs._ndirty <= limit

    def test_msync_ms_sync_is_durable(self):
        kern, fs = _boot()
        p = kern.create_process(["mm"])
        p.mm = AddressSpace(0x10000, 0x100000)
        fd = kern.call(p, "openat", AT_FDCWD, "/data/m",
                       O_CREAT | O_RDWR, 0o644)
        kern.call(p, "write", fd, b"a" * 8192)
        res = kern.call(p, "mmap", 0, 8192, PROT_READ | PROT_WRITE,
                        MAP_SHARED, fd, 0)
        kern.call(p, "msync", res.addr, 8192, MS_SYNC,
                  lambda addr, length: b"B" * length)
        kern2 = _remount(fs.crash())
        assert _read_or_none(kern2, "/data/m") == b"B" * 8192


# ---------------------------------------------------------------------------
# uring FSYNC
# ---------------------------------------------------------------------------

class TestUringFsync:
    def test_fsync_completes_async_and_is_durable(self):
        kern = Kernel(
            block="block:seek_us=100,read_us=50,write_us=50,daemon=0")
        fs = kern.blockdev
        p = kern.create_process(["ring"])
        fd = kern.call(p, "openat", AT_FDCWD, "/data/u",
                       O_CREAT | O_WRONLY, 0o644)
        kern.call(p, "write", fd, b"ring-durable" * 300)
        ring = kern.call(p, "io_uring_setup", 8)
        sub, cqes = kern.call(
            p, "io_uring_enter", ring,
            [SQE(IORING_OP_FSYNC, fd=fd, user_data=7)], 1, 2_000_000_000)
        assert sub == 1
        assert [(c.user_data, c.res) for c in cqes] == [(7, 0)]
        kern2 = _remount(fs.crash())
        assert _read_or_none(kern2, "/data/u") == b"ring-durable" * 300

    def test_fsync_on_non_regular_fd_is_einval(self):
        kern, _fs = _boot()
        p = kern.create_process(["ring"])
        efd = kern.call(p, "eventfd2", 0, 0)
        ring = kern.call(p, "io_uring_setup", 8)
        _sub, cqes = kern.call(
            p, "io_uring_enter", ring,
            [SQE(IORING_OP_FSYNC, fd=efd, user_data=1)], 1, 1_000_000_000)
        assert cqes[0].res == -EINVAL

    def test_fsync_fails_with_einval_on_a_pipe_and_an_eventfd(self):
        """The syscalls and the ring share one fsync step, which follows
        Linux: only regular files and directories sync."""
        kern, _fs = _boot()
        p = kern.create_process(["sync"])
        r, w = kern.call(p, "pipe2", 0)
        efd = kern.call(p, "eventfd2", 0, 0)
        for fd in (r, w, efd):
            for call in ("fsync", "fdatasync"):
                with pytest.raises(KernelError) as ei:
                    kern.call(p, call, fd)
                assert ei.value.errno == EINVAL

    def test_fsync_of_a_directory_completes(self):
        kern, _fs = _boot()
        p = kern.create_process(["ring"])
        dfd = kern.call(p, "openat", AT_FDCWD, "/data", O_RDONLY)
        ring = kern.call(p, "io_uring_setup", 8)
        _sub, cqes = kern.call(
            p, "io_uring_enter", ring,
            [SQE(IORING_OP_FSYNC, fd=dfd, user_data=2)], 1, 1_000_000_000)
        assert [(c.user_data, c.res) for c in cqes] == [(2, 0)]
        assert kern.call(p, "fsync", dfd) == 0

    def test_o_sync_write_commits_and_survives_a_crash(self):
        """A ring WRITE runs write(2)'s step, write-through included."""
        kern, fs = _boot()
        p = kern.create_process(["ring"])
        fd = kern.call(p, "openat", AT_FDCWD, "/data/s",
                       O_CREAT | O_WRONLY | O_SYNC, 0o644)
        ring = kern.call(p, "io_uring_setup", 8)
        commits = kern.counters.get("block.commits")
        _sub, cqes = kern.call(
            p, "io_uring_enter", ring,
            [SQE(IORING_OP_WRITE, fd=fd, data=b"sync-ring" * 100,
                 user_data=3)], 1, 2_000_000_000)
        assert [(c.user_data, c.res) for c in cqes] == [(3, 900)]
        assert kern.counters.get("block.commits") - commits == 1
        kern2 = _remount(fs.crash())
        assert _read_or_none(kern2, "/data/s") == b"sync-ring" * 100

    def test_cold_read_completes_async_like_fsync(self):
        """A cold READ's device time is reserved on the disk timeline
        like FSYNC's: the enter returns without the CQE and without
        parking, and the CQE posts once the reservation ends.  Reads
        are slow enough (25 ms a block) that the enter returns well
        before the device is done."""
        kern = Kernel(
            block="block:seek_us=100,read_us=25000,write_us=50,daemon=0")
        fs = kern.blockdev
        p = kern.create_process(["ring"])
        content = bytes(range(256)) * 32
        fd = kern.call(p, "openat", AT_FDCWD, "/data/cold",
                       O_CREAT | O_RDWR, 0o644)
        kern.call(p, "write", fd, content)
        kern.call(p, "fsync", fd)
        kern.call(p, "lseek", fd, 0, 0)
        fs.drop_caches()
        ring = kern.call(p, "io_uring_setup", 8)
        waited = kern.counters.get("block.io_wait_ns")
        misses = kern.counters.get("block.cache_miss")
        sub, cqes = kern.call(
            p, "io_uring_enter", ring,
            [SQE(IORING_OP_READ, fd=fd, length=len(content), user_data=9)],
            0)
        assert (sub, cqes) == (1, [])
        assert kern.counters.get("block.cache_miss") - misses == 2
        assert kern.counters.get("block.io_wait_ns") == waited
        _sub, cqes = kern.call(p, "io_uring_enter", ring, [], 1,
                               2_000_000_000)
        assert time.monotonic_ns() >= fs._busy_until_ns
        assert [(c.user_data, c.res, c.data) for c in cqes] == \
            [(9, len(content), content)]


# ---------------------------------------------------------------------------
# observability: /proc/block, /proc/sys/vm, tracepoints
# ---------------------------------------------------------------------------

class TestObservability:
    def test_block_tracepoints_registered_append_only(self):
        assert TRACEPOINTS.index("block_submit") == 15
        assert TRACEPOINTS.index("block_complete") == 16
        assert TRACEPOINTS.index("writeback") == 17

    def test_proc_block_reports_stats(self):
        kern, _fs = _boot()
        p = kern.create_process(["stat"])
        fd = kern.call(p, "openat", AT_FDCWD, "/data/f",
                       O_CREAT | O_WRONLY, 0o644)
        kern.call(p, "write", fd, b"s" * 4096)
        kern.call(p, "fsync", fd)
        pfd = kern.call(p, "openat", AT_FDCWD, "/proc/block", O_RDONLY)
        text = kern.call(p, "read", pfd, 4096).decode()
        assert "disk: 512 blocks x 4096 B" in text
        assert "dirty_ratio: 20" in text and "fsyncs: 1" in text

    def test_vm_knobs_read_write_and_validate(self):
        kern, fs = _boot()
        p = kern.create_process(["knob"])
        fd = kern.call(p, "openat", AT_FDCWD,
                       "/proc/sys/vm/dirty_ratio", O_RDONLY)
        assert kern.call(p, "read", fd, 64) == b"20\n"
        wfd = kern.call(p, "openat", AT_FDCWD,
                        "/proc/sys/vm/dirty_ratio", O_WRONLY)
        kern.call(p, "write", wfd, b"55")
        assert fs.dirty_ratio == 55
        for bad in (b"0", b"101", b"ratio"):
            with pytest.raises(KernelError) as exc:
                kern.call(p, "write", wfd, bad)
            assert exc.value.errno == EINVAL
        wfd2 = kern.call(p, "openat", AT_FDCWD,
                         "/proc/sys/vm/dirty_expire_centisecs", O_WRONLY)
        kern.call(p, "write", wfd2, b"100")
        assert fs.dirty_expire_centisecs == 100

    def test_drop_caches_via_proc(self):
        kern, fs = _boot()
        p = kern.create_process(["dc"])
        fd = kern.call(p, "openat", AT_FDCWD, "/data/f",
                       O_CREAT | O_WRONLY, 0o644)
        kern.call(p, "write", fd, b"c" * 16384)
        kern.call(p, "fsync", fd)
        node = kern.vfs.lookup("/data/f")
        assert node.mapping.resident
        dfd = kern.call(p, "openat", AT_FDCWD,
                        "/proc/sys/vm/drop_caches", O_WRONLY)
        kern.call(p, "write", dfd, b"1")
        assert not node.mapping.resident


# ---------------------------------------------------------------------------
# spec parsing & construction
# ---------------------------------------------------------------------------

class TestSpecParsing:
    def test_defaults_and_off(self):
        for removed in ("off", "none"):
            with pytest.raises(ValueError):
                create_blockfs(removed)
        fs = create_blockfs(None)
        assert fs.mountpoint == "/data" and fs.disk.nblocks == 2048

    def test_full_spec_string(self):
        fs = create_blockfs(
            "block:blocks=128,bs=512,seek_us=5,read_us=1,write_us=2,"
            "mount=/disk,daemon=0,dirty_ratio=33,dirty_background_ratio=7,"
            "dirty_expire_centisecs=100,dirty_writeback_centisecs=50")
        assert fs.disk.nblocks == 128 and fs.disk.block_size == 512
        assert fs.disk.seek_ns == 5000 and fs.disk.write_ns == 2000
        assert fs.mountpoint == "/disk" and not fs.auto_daemon
        assert fs.dirty_ratio == 33 and fs.dirty_background_ratio == 7
        assert (fs.dirty_expire_centisecs, fs.dirty_writeback_centisecs) \
            == (100, 50)

    def test_passthrough_and_errors(self):
        d = _fast_disk()
        assert create_blockfs(d).disk is d
        fs = BlockFS(_fast_disk(), auto_daemon=False)
        assert create_blockfs(fs) is fs
        for bad in ("floppy", "block:bogus=1", "block:blocks=nan"):
            with pytest.raises(ValueError):
                create_blockfs(bad)

    def test_disk_validates_geometry(self):
        with pytest.raises(ValueError):
            Disk(nblocks=4)
        with pytest.raises(ValueError):
            Disk(block_size=128)
        with pytest.raises(ValueError):
            Disk(image=b"short")
