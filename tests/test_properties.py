"""Property-based tests (hypothesis) over core data structures & invariants:
the mmap pool, VFS path resolution, signal mask algebra, layout codecs,
linear-memory safety, and the function-GC pass."""

from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.kernel import KernelError
from repro.kernel.calls.fs import Stat
from repro.kernel.mm import (
    AddressSpace, MAP_ANONYMOUS, MAP_FIXED, MAP_PRIVATE, MM_PAGE, PROT_READ,
    PROT_WRITE,
)
from repro.kernel.signals import (
    NSIG, PendingSignals, SIG_BLOCK, SIG_SETMASK, SIG_UNBLOCK, sig_bit,
)
from repro.kernel.vfs import VFS
from repro.wali.layout import Layout
from repro.wasm import LinearMemory, TrapOutOfBounds
from repro.wasm.errors import Trap


# --------------------------------------------------------------------------
# mmap pool / address space invariants
# --------------------------------------------------------------------------

_mm_ops = st.lists(
    st.tuples(
        st.sampled_from(["mmap", "mmap_fixed", "munmap", "mremap",
                         "mprotect"]),
        st.integers(0, 63),   # page index within the arena
        st.integers(1, 16),   # length in pages
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(_mm_ops)
def test_address_space_invariants(ops):
    """After any operation sequence: VMAs never overlap, all stay inside
    the arena, all are page-aligned."""
    base, limit = 0x10000, 0x10000 + 64 * MM_PAGE
    mm = AddressSpace(base, limit)
    mapped = []
    for op, page, length in ops:
        addr = base + page * MM_PAGE
        size = length * MM_PAGE
        try:
            if op == "mmap":
                r = mm.mmap(0, size, PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS)
                mapped.append(r.addr)
            elif op == "mmap_fixed":
                mm.mmap(addr, size, PROT_READ,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED)
            elif op == "munmap":
                mm.munmap(addr, size)
            elif op == "mremap" and mapped:
                old = mapped[-1]
                v = mm.find(old)
                if v is not None and v.start == old:
                    new, _ = mm.mremap(old, v.length, size, 1)
                    mapped[-1] = new
            elif op == "mprotect":
                mm.mprotect(addr, size, PROT_READ)
        except KernelError:
            pass  # ENOMEM/EINVAL are legal outcomes; invariants must hold

        vmas = sorted(mm.vmas, key=lambda v: v.start)
        for v in vmas:
            assert v.start % MM_PAGE == 0 and v.length % MM_PAGE == 0
            assert base <= v.start and v.end <= limit
        for a, b in zip(vmas, vmas[1:]):
            assert a.end <= b.start, "overlapping VMAs"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=12))
def test_mmap_pool_grows_memory_exactly_enough(sizes):
    from repro.wali.mmap_pool import MmapPool

    mem = LinearMemory(4, 4096)
    pool = MmapPool(mem)
    for pages in sizes:
        r = pool.space.mmap(0, pages * MM_PAGE, PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS)
        # every mapped byte must be backed by linear memory
        assert r.addr + pages * MM_PAGE <= mem.size_bytes
        mem.store_i32(r.addr + pages * MM_PAGE - 4, 1)  # must not trap


# --------------------------------------------------------------------------
# VFS path resolution
# --------------------------------------------------------------------------

_name = st.text(alphabet="abcxyz", min_size=1, max_size=6)
_relpath = st.lists(_name, min_size=1, max_size=4).map("/".join)


@settings(max_examples=50, deadline=None)
@given(st.lists(_relpath, min_size=1, max_size=10))
def test_vfs_create_then_resolve(paths):
    vfs = VFS()
    created = set()
    for p in paths:
        full = "/" + p
        parent = full.rsplit("/", 1)[0]
        if parent:
            try:
                vfs.mkdirs(parent)
            except KernelError:
                continue
        try:
            vfs.write_file(full, p.encode())
            created.add(full)
        except KernelError:
            continue  # a component may already exist as a file
    for full in created:
        node = vfs.lookup(full)
        if node.is_file:
            assert bytes(node.data) == full[1:].encode()


@settings(max_examples=50, deadline=None)
@given(_relpath, st.integers(0, 3))
def test_vfs_dot_and_dotdot_normalisation(path, updowns):
    vfs = VFS()
    vfs.mkdirs("/" + path)
    noisy = "/" + "/".join(
        c + "/." for c in path.split("/"))
    assert vfs.lookup(noisy) is vfs.lookup("/" + path)
    # descending then .. returns to the parent
    comps = path.split("/")
    if len(comps) >= 2:
        wobble = "/" + "/".join(comps[:-1]) + f"/{comps[-1]}/../{comps[-1]}"
        assert vfs.lookup(wobble) is vfs.lookup("/" + path)


# --------------------------------------------------------------------------
# signal algebra
# --------------------------------------------------------------------------

_sigs = st.lists(st.integers(1, NSIG), min_size=0, max_size=20)


@settings(max_examples=60, deadline=None)
@given(_sigs, st.integers(0, 2**NSIG - 1))
def test_pending_take_respects_mask(generated, mask):
    p = PendingSignals()
    for s in generated:
        p.generate(s)
    taken = []
    while True:
        s = p.take(mask)
        if s is None:
            break
        taken.append(s)
    # nothing blocked was delivered; everything unblocked was delivered once
    for s in taken:
        assert not mask & sig_bit(s)
    assert len(taken) == len(set(taken))
    expected = {s for s in generated if not mask & sig_bit(s)}
    assert set(taken) == expected
    # what remains pending is exactly the blocked subset
    assert all(mask & sig_bit(s) for s in p.queue)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1))
def test_sigprocmask_block_unblock_roundtrip(initial, delta):
    from repro.kernel import Kernel

    from repro.kernel import SIGKILL, sig_bit as sb
    from repro.kernel.signals import SIGSTOP

    k = Kernel()
    proc = k.create_process()
    k.call(proc, "rt_sigprocmask", SIG_SETMASK, initial)
    base = proc.blocked_mask  # KILL/STOP stripped
    k.call(proc, "rt_sigprocmask", SIG_BLOCK, delta)
    k.call(proc, "rt_sigprocmask", SIG_UNBLOCK, delta)
    stripped = delta & ~(sb(SIGKILL) | sb(SIGSTOP))
    assert proc.blocked_mask == base & ~stripped


# --------------------------------------------------------------------------
# layout codecs
# --------------------------------------------------------------------------

_u32 = st.integers(0, 2**32 - 1)
_u64 = st.integers(0, 2**64 - 1)
_i64 = st.integers(-2**63, 2**63 - 1)
_ns = st.integers(-2**62, 2**62)


@settings(max_examples=60, deadline=None)
@given(st.builds(
    # each field drawn from the narrowest host type that carries it
    Stat, st_dev=_u64, st_ino=_u64, st_mode=_u32, st_nlink=_u32,
    st_uid=_u32, st_gid=_u32, st_rdev=_u64, st_size=_i64,
    st_blksize=st.integers(-2**31, 2**31 - 1), st_blocks=_i64,
    st_atime_ns=_ns, st_mtime_ns=_ns, st_ctime_ns=_ns),
    st.sampled_from(["x86_64", "aarch64", "riscv64"]))
def test_stat_conversion_equals_direct_guest_encoding(st_, arch):
    """The §3.5 host-to-WALI conversion and packing the Stat straight
    into the guest layout (what ``WaliHost`` does) give the same bytes."""
    host = Layout(arch)
    guest = Layout("wali")
    assert host.convert_stat(host.encode_stat(st_), guest) == \
        guest.encode_stat(st_)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 255).map(lambda a: f"{a}.0.0.1"),
       st.integers(0, 65535))
def test_sockaddr_roundtrip(host, port):
    family, addr = Layout.decode_sockaddr(
        Layout.encode_sockaddr((host, port)))
    assert addr == (host, port)


# --------------------------------------------------------------------------
# linear memory safety
# --------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-100, 200000), st.integers(1, 8)),
                max_size=30))
def test_memory_never_reads_outside(accesses):
    mem = LinearMemory(1, 2)  # 64-128 KiB
    for addr, size in accesses:
        in_bounds = 0 <= addr and addr + size <= mem.size_bytes
        if in_bounds:
            mem.load_u(addr, size)
            mem.store_int(addr, 0xAB, size)
        else:
            with pytest.raises(TrapOutOfBounds):
                mem.load_u(addr, size)
            with pytest.raises(TrapOutOfBounds):
                mem.store_int(addr, 0xAB, size)
    assert len(mem.data) == mem.pages * 65536


# --------------------------------------------------------------------------
# function GC correctness
# --------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 20))
def test_gc_preserves_program_behaviour(seed, nfuncs):
    """Random call graphs compute the same result before and after GC."""
    from repro.wasm import I32, ModuleBuilder, instantiate
    from repro.wasm.opt import gc_functions

    mb = ModuleBuilder("g")
    rng = seed
    names = []
    for i in range(nfuncs):
        f = mb.func(f"fn{i}", params=[I32], results=[I32])
        rng = (rng * 1103515245 + 12345) & 0x7FFFFFFF
        if names and rng % 3 == 0:
            callee = names[rng % len(names)]
            f.local_get(0).i32_const(i + 1).op("i32.add").call(callee)
        else:
            f.local_get(0).i32_const(i + 1).op("i32.xor")
        f.end()
        names.append(f"fn{i}")
    main = mb.func("main", params=[I32], results=[I32], export=True)
    main.local_get(0).call(names[seed % len(names)])
    main.end()
    module = mb.build()

    before = instantiate(module).invoke("main", 77)
    gc_functions(module)
    after = instantiate(module).invoke("main", 77)
    assert before == after
    # GC must not leave more functions than it started with
    assert len(module.funcs) <= nfuncs + 1


# --------------------------------------------------------------------------
# socket stream buffer (kernel/net/base.py) invariants
# --------------------------------------------------------------------------

from repro.kernel.net import SOCK_BUF_CAPACITY, StreamBuffer

_immediate_ops = st.lists(st.one_of(
    st.tuples(st.just("write"), st.binary(min_size=1, max_size=512)),
    st.tuples(st.just("read"), st.integers(1, 512)),
    st.tuples(st.just("eof"), st.none()),
), min_size=1, max_size=120)


@settings(max_examples=80, deadline=None)
@given(_immediate_ops)
def test_stream_buffer_immediate_mode_invariants(ops):
    """Loopback-style delivery: any interleaving of write/read/shutdown
    never loses or reorders bytes and never exceeds the capacity."""
    buf = StreamBuffer(capacity=1024)
    sent = bytearray()
    received = bytearray()
    for op, arg in ops:
        if op == "write":
            window = buf.space()
            n = buf.write(arg)
            assert n == min(len(arg), window)  # accepts exactly the window
            sent += arg[:n]
        elif op == "read":
            received += buf.read(arg)
        else:
            buf.set_eof()
        assert len(buf.data) + buf.in_flight <= buf.capacity
        assert 0 <= buf.space() <= buf.capacity
        assert not (buf.eof is False and op == "eof")  # eof latches
    received += buf.read(len(buf.data))
    assert bytes(received) == bytes(sent)


_delayed_ops = st.lists(st.one_of(
    st.tuples(st.just("xmit"), st.binary(min_size=1, max_size=512)),
    st.tuples(st.just("arrive"), st.none()),
    st.tuples(st.just("read"), st.integers(1, 512)),
    st.tuples(st.just("eof"), st.none()),
), min_size=1, max_size=120)


@settings(max_examples=80, deadline=None)
@given(_delayed_ops)
def test_stream_buffer_delayed_mode_invariants(ops):
    """WAN-style delivery: bytes accepted into the in-flight window and
    landed later (FIFO) are never lost, reordered, or over capacity —
    the in-flight account always reconciles to zero."""
    buf = StreamBuffer(capacity=1024)
    in_flight = []  # the model's view of the delay line
    sent = bytearray()
    received = bytearray()
    for op, arg in ops:
        if op == "xmit":
            chunk = arg[:buf.space()]  # sender clamps to the window
            if chunk:
                buf.in_flight += len(chunk)
                in_flight.append(chunk)
                sent += chunk
        elif op == "arrive" and in_flight:
            chunk = in_flight.pop(0)  # links deliver FIFO
            buf.in_flight -= len(chunk)
            buf.data.extend(chunk)
        elif op == "read":
            received += buf.read(arg)
        elif op == "eof":
            buf.set_eof()
        assert len(buf.data) + buf.in_flight <= buf.capacity
        assert buf.in_flight == sum(len(c) for c in in_flight)
        assert 0 <= buf.space() <= buf.capacity
    while in_flight:  # land the rest of the delay line
        chunk = in_flight.pop(0)
        buf.in_flight -= len(chunk)
        buf.data.extend(chunk)
    received += buf.read(len(buf.data))
    assert buf.in_flight == 0
    assert bytes(received) == bytes(sent)


# --------------------------------------------------------------------------
# scheduler run-queue invariants
# --------------------------------------------------------------------------

_sched_ops = st.lists(
    st.tuples(
        st.sampled_from(["attach", "block", "wake", "yield", "exit",
                         "preempt", "tick"]),
        st.integers(0, 7),     # task index
        st.integers(0, 500),   # clock advance (us)
    ),
    min_size=1, max_size=80,
)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), _sched_ops)
def test_scheduler_partition_and_vruntime_invariants(ncpus, ops):
    """Random block/wake/yield/exit/preempt sequences never lose or
    duplicate a task: the running set, the run queue, and the blocked
    set always partition the live tasks; at most ``ncpus`` tasks run;
    total charged CPU time is monotone non-decreasing (vruntime itself
    is *not* monotone in total: a cross-CPU migration renormalizes the
    task's clock against the destination queue's min_vruntime)."""
    from repro.kernel import Process, Scheduler
    from repro.kernel.sched import (
        SCHED_BLOCKED, SCHED_DEAD, SCHED_RUNNABLE, SCHED_RUNNING,
    )

    clock = [0]
    sched = Scheduler(ncpus=ncpus, slice_us=100,
                      clock=lambda: clock[0])
    procs = [Process(pid, 0) for pid in range(1, 9)]
    last_total_cpu = 0
    for op, idx, advance_us in ops:
        clock[0] += advance_us * 1000
        proc = procs[idx]
        if op == "attach":
            sched.task_attach(proc)
        elif op == "block":
            sched.task_block(proc)
        elif op == "wake":
            sched.task_wake(proc)
        elif op == "yield":
            sched.task_yield(proc)
        elif op == "exit":
            sched.task_exit(proc)
        elif op == "preempt":
            sched.check_preempt(proc)
        elif op == "tick":
            sched.tick()

        live = set(sched.live_pids())
        running = set(sched.running_pids())
        runnable = set(sched.runnable_pids())
        blocked = set(sched.blocked_pids())
        # partition: disjoint, and together exactly the live tasks
        assert running | runnable | blocked == live
        assert not running & runnable
        assert not running & blocked
        assert not runnable & blocked
        assert len(running) <= ncpus
        # states and membership agree; dead tasks own nothing
        for p in procs:
            if p.se.state == SCHED_RUNNING:
                assert p.pid in running
            elif p.se.state == SCHED_RUNNABLE:
                assert p.pid in runnable
            elif p.se.state == SCHED_BLOCKED:
                assert p.pid in blocked
            elif p.se.state == SCHED_DEAD:
                assert p.pid not in live
        # work conservation: a slot never idles while tasks wait
        if runnable:
            assert len(running) == ncpus
        # total charged CPU time (over all tasks ever) is monotone;
        # vruntime may jump down on migration (renormalization) but
        # never below zero
        total_cpu = sum(p.se.cpu_time_ns for p in procs)
        assert total_cpu >= last_total_cpu
        last_total_cpu = total_cpu
        assert all(p.se.vruntime_ns >= 0 for p in procs)
    # a blocked task consumed no slice while blocked: charge only ever
    # happens in the RUNNING state, so cpu_time only grows when granted
    for p in procs:
        assert p.se.cpu_time_ns >= 0
        assert p.se.wait_ns >= 0


# --------------------------------------------------------------------------
# inotify queue-bound invariant
# --------------------------------------------------------------------------

_inotify_ops = st.lists(
    st.one_of(
        # publish an event: (name index, mask choice)
        st.tuples(st.just("pub"), st.integers(0, 5), st.integers(0, 2)),
        # drain some records: (buffer size in whole-record units)
        st.tuples(st.just("read"), st.integers(1, 6), st.just(0)),
    ),
    min_size=1, max_size=120,
)


@settings(max_examples=80, deadline=None)
@given(_inotify_ops, st.integers(1, 8))
def test_inotify_queue_never_exceeds_bound_plus_overflow(ops, bound):
    """After any publish/read interleaving on a bounded inotify queue:
    the queue never holds more than ``max_queued`` content events plus a
    single IN_Q_OVERFLOW marker, records drain in FIFO order, and every
    drained record round-trips through the wire format."""
    from repro.kernel import IN_MODIFY, IN_Q_OVERFLOW, Inotify
    from repro.kernel.inotify import INOTIFY_EVENT_HDR, decode_events

    ino = Inotify(max_queued=bound)

    class _Node:
        is_dir = False
        nlink = 1
        watches = None

    wd = ino.add_watch(_Node(), IN_MODIFY)
    watch = ino.watches[wd]
    published = drained = 0
    for op, a, b in ops:
        if op == "pub":
            ino.publish(watch, IN_MODIFY, name=f"n{a}" * (b + 1))
            published += 1
        else:
            try:
                data = ino.read_step(a * 48)  # fits >=1 padded record
            except KernelError:
                data = b""
            evs = decode_events(data)
            for w, mask, cookie, name in evs:
                assert w in (wd, -1)
                if w == -1:
                    assert mask & IN_Q_OVERFLOW
                else:
                    drained += 1
        # the core bound: content events <= max_queued, plus at most one
        # overflow marker, at every step
        content = [e for e in ino.queue if not e.mask & IN_Q_OVERFLOW]
        markers = [e for e in ino.queue if e.mask & IN_Q_OVERFLOW]
        assert len(content) <= bound
        assert len(markers) <= 1
        assert len(ino.queue) <= bound + 1
        # wire size is always a whole number of aligned records
        for e in ino.queue:
            assert e.size % INOTIFY_EVENT_HDR == 0
    # conservation: a content record only exists because of a publish —
    # drained + still-queued + dropped never exceeds the publish count
    # (tail coalescing may make it strictly smaller)
    content_left = sum(1 for e in ino.queue if not e.mask & IN_Q_OVERFLOW)
    assert drained + content_left + ino.dropped <= published


# --------------------------------------------------------------------------
# trace ring invariants (kernel/trace.py)
# --------------------------------------------------------------------------

_trace_ops = st.lists(
    st.tuples(
        st.sampled_from(["push", "drain"]),
        st.integers(0, 12),      # tracepoint index / drain size factor
        st.integers(0, 2**31),   # arg payload
    ),
    min_size=1, max_size=80,
)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), _trace_ops)
def test_trace_ring_bounded_with_single_marker(capacity, ops):
    """The ring never exceeds capacity + one drop marker, the marker's
    ``arg`` accounts for every swallowed event exactly, and every drain
    returns a whole number of wire records."""
    from repro.kernel.trace import (
        TRACE_RECORD_SIZE, TRACEPOINTS, TraceBuffer, TraceEvent,
        decode_records,
    )

    buf = TraceBuffer(capacity=capacity)
    pushed = drained = marker_drained = 0
    for op, idx, arg in ops:
        if op == "push":
            buf.push(TraceEvent(pushed + 1, idx % len(TRACEPOINTS), 0, 1,
                                arg, "prop"))
            pushed += 1
        else:
            try:
                data = buf.read_step(max(idx, 1) * TRACE_RECORD_SIZE)
            except KernelError:
                data = b""
            assert len(data) % TRACE_RECORD_SIZE == 0
            for rec in decode_records(data):
                if rec.is_drop_marker:
                    marker_drained += rec.arg
                else:
                    drained += 1
        # the core bound, checked at every step
        events = buf.events()
        markers = [e for e in events if e.id == 0xFFFF]
        assert len(events) - len(markers) <= capacity
        assert len(markers) <= 1
        # drop accounting never leaks: queued marker + drained markers
        # cover the dropped count exactly
        queued_marker = markers[0].arg if markers else 0
        assert queued_marker + marker_drained == buf.dropped
    # conservation: every pushed event is drained, still queued, or
    # accounted by a drop marker
    left = sum(1 for e in buf.events() if e.id != 0xFFFF)
    assert drained + left + buf.dropped == pushed


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.integers(0, 12),                      # tracepoint id
    st.integers(0, 2**31 - 1),               # pid
    st.integers(-2**62, 2**62),              # arg
    st.text(st.characters(min_codepoint=32, max_codepoint=126),
            max_size=16),                    # info label
), min_size=1, max_size=30))
def test_trace_records_roundtrip_wire_format(events):
    """encode -> decode is lossless for id/pid/arg and preserves info up
    to the 16-byte field width."""
    from repro.kernel.trace import (
        TRACEPOINTS, TraceEvent, decode_records,
    )

    blob = b"".join(
        TraceEvent(1000 + i, id_ % len(TRACEPOINTS), 0, pid, arg,
                   info).encode()
        for i, (id_, pid, arg, info) in enumerate(events))
    recs = decode_records(blob)
    assert len(recs) == len(events)
    for rec, (id_, pid, arg, info) in zip(recs, events):
        assert rec.point == TRACEPOINTS[id_ % len(TRACEPOINTS)]
        assert rec.pid == pid and rec.arg == arg
        assert rec.info == info.encode()[:16].decode(
            errors="replace").split("\x00", 1)[0]
