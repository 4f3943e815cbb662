"""Kernel observability: tracepoints, the trace ring, counters, histograms.

The ftrace-shaped tracing core behind ``/proc/trace`` and
``/proc/trace_pipe``.  Three cooperating pieces:

* :class:`CounterRegistry` — the single home for every kernel event
  counter.  Subsystems that used to keep ad-hoc tallies (uring CQ
  overflows, WAN datagram loss, epoll wake coalescing) increment named
  counters here instead, so ``/proc`` files and
  :mod:`repro.metrics.breakdown` report from one source of truth.

* :class:`TraceBuffer` — a bounded ring of fixed-format
  :class:`TraceEvent` records, with the overflow discipline of
  :class:`~repro.kernel.eventpoll.BoundedRing`: one drop marker whose
  ``arg`` counts the events it swallowed.  The buffer is an epollable
  object, so a guest tails ``/proc/trace_pipe`` through the same
  readiness machinery the tracepoints instrument.

* :class:`KernelTrace` — the per-kernel facade: the tracepoint registry
  and mask, the deterministic trace clock, per-syscall log2-bucket
  latency histograms (service vs runnable-wait), and the control-command
  parser behind ``/proc/trace_ctl``.

Timestamps come from a per-instance *logical* clock (fixed epoch + 1 µs
per event), like the VFS inode clock: wall-clock stamps would differ
between runs and break the determinism-rerun guarantee for exact-record
assertions.

Wire format — one record is exactly :data:`TRACE_RECORD_SIZE` (40)
bytes, little-endian ``<QHHiq16s``::

    u64 ts_ns     logical timestamp
    u16 id        tracepoint id (TRACEPOINTS index; 0xFFFF = drop marker)
    u16 flags     bit 0 set on the drop marker
    i32 pid       originating task (0 when anonymous)
    i64 arg       point-specific value (errno, byte count, event mask...)
    c16 info      NUL-padded label (syscall name, backend kind, ...)

Guests parse the stream by slicing every 40 bytes; hosts use
:func:`decode_records`.
"""

from __future__ import annotations

import itertools
import struct
import threading
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional

from .errno import EINVAL, KernelError
from .eventpoll import BoundedRing, add_wake_hook, remove_wake_hook

# ---- the tracepoint registry ----------------------------------------------

TRACEPOINTS = (
    "sched_switch",       # a task was granted a CPU slot (arg: wait ns)
    "sched_wakeup",       # a blocked task became runnable (arg: vruntime)
    "sched_preempt",      # a slot was taken away (arg: ns it ran)
    "syscall_enter",      # info: syscall name
    "syscall_exit",       # info: syscall name, arg: -errno (0 on success)
    "wq_wake",            # a readiness waitqueue fired (arg: event mask)
    "net_deliver",        # payload committed to the wire (arg: bytes)
    "net_drop",           # impairment ate a datagram (arg: bytes)
    "uring_submit",       # SQE batch handed over (arg: batch size)
    "uring_complete",     # one CQE posted (arg: res)
    "uring_overflow",     # CQ full, completion backlogged
    "inotify_enqueue",    # fsnotify record queued (arg: mask, info: name)
    "inotify_overflow",   # inotify queue full, event dropped
    # ids are append-only: the two SMP points land after the originals
    "sched_migrate",      # task re-placed on another CPU (arg: dest cpu)
    "sched_steal",        # idle CPU pulled queued work (arg: dest cpu)
    # block-layer points (ids 15-17)
    "block_submit",       # block request issued (arg: block, info: r/w)
    "block_complete",     # accrued device time settled (arg: ns charged)
    "writeback",          # a flusher pass committed (arg: pages written)
    # zero-crossing uring points (ids 18-21)
    "uring_multishot",    # multishot op posted a MORE CQE (arg: res)
    "uring_register",     # buffer table registered (arg: slot count)
    "uring_sqpoll_park",  # SQPOLL poller idled out, NEED_WAKEUP raised
    "uring_sqpoll_wake",  # IORING_ENTER_SQ_WAKEUP revived the poller
    # id 22: a lost wakeup, recovered only by the wait's safety slice
    "safety_net_wakeup",
)

TRACEPOINT_IDS: Dict[str, int] = {n: i for i, n in enumerate(TRACEPOINTS)}

# record layout (see module docstring)
_RECORD = struct.Struct("<QHHiq16s")
TRACE_RECORD_SIZE = _RECORD.size          # 40
TRACE_DROP_ID = 0xFFFF                    # the drop marker's pseudo-id
TRACE_AUX_ID = 0xFFFE                     # typed-payload continuation
TRACE_FLAG_DROP = 0x1
TRACE_FLAG_AUX = 0x2

# ---- typed argument payloads (perf-style events) --------------------------
#
# A tracepoint with a schema can carry structured arguments beyond the
# 16-byte info field: the payload is struct-packed and emitted as AUX
# continuation records right behind the parent — same timestamp, id
# TRACE_AUX_ID, flags TRACE_FLAG_AUX, the parent's point id in the pid
# field, `(chunk_seq << 32) | chunk_bytes` in arg, and up to 16 payload
# bytes per chunk in info.  Old 40-byte readers keep working: every
# record is still exactly 40 bytes and AUX records never set the drop
# bit.  Payload emission is opt-in (`payload=on` in trace_ctl; default
# off) so exact-record captures stay byte-identical.  The schemas are
# self-describing via /proc/trace_format (see KernelTrace.format_text).

TRACE_SCHEMAS: Dict[str, tuple] = {
    "sched_switch": (("wait_ns", "q"), ("vruntime_ns", "q"),
                     ("nice", "i"), ("cpu", "i")),
    "sched_wakeup": (("vruntime_ns", "q"), ("cpu", "i")),
    "sched_preempt": (("ran_ns", "q"), ("vruntime_ns", "q")),
    "syscall_exit": (("errno", "i"), ("service_ns", "q"),
                     ("wait_ns", "q")),
    "net_deliver": (("bytes", "q"),),
    "block_submit": (("block", "q"), ("write", "i")),
}

_SCHEMA_STRUCTS: Dict[str, struct.Struct] = {
    point: struct.Struct("<" + "".join(fmt for _, fmt in fields))
    for point, fields in TRACE_SCHEMAS.items()
}

# the trace clock: fixed epoch + 1 µs per event, per KernelTrace instance
# (separate from the VFS inode clock so tracing never perturbs stat-shaped
# determinism, and two kernels in one process don't interleave stamps)
TRACE_EPOCH_NS = 1_704_067_200 * 10**9    # 2024-01-01T00:00:00Z

TRACE_DEFAULT_CAPACITY = 4096

# log2 histogram geometry: bucket i counts latencies in [2^(i-1), 2^i) ns
HIST_BUCKETS = 64


def hist_bucket(ns: int) -> int:
    """The log2 bucket index for a latency of ``ns`` nanoseconds."""
    if ns <= 0:
        return 0
    return min(ns.bit_length(), HIST_BUCKETS - 1)


class CounterRegistry:
    """Named monotonic event counters (the one source of truth).

    Increments are single dict operations, atomic under the GIL — the
    same discipline the readiness layer relies on — so subsystems call
    :meth:`inc` from any thread without extra locking.
    """

    __slots__ = ("_counts",)

    def __init__(self):
        self._counts: Dict[str, int] = defaultdict(int)

    def inc(self, name: str, n: int = 1) -> None:
        self._counts[name] += n

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def __getitem__(self, name: str) -> int:
        return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        """All nonzero counters, sorted by name."""
        return {k: v for k, v in sorted(self._counts.items()) if v}

    def clear(self) -> None:
        self._counts.clear()


class TraceEvent:
    """One ring-buffer record (pre-wire-format)."""

    __slots__ = ("ts_ns", "id", "flags", "pid", "arg", "info")

    def __init__(self, ts_ns: int, id_: int, flags: int, pid: int,
                 arg: int, info: str = ""):
        self.ts_ns = ts_ns
        self.id = id_
        self.flags = flags
        self.pid = pid
        self.arg = arg
        self.info = info

    def encode(self) -> bytes:
        info = self.info if isinstance(self.info, bytes) \
            else self.info.encode()
        return _RECORD.pack(self.ts_ns, self.id, self.flags, self.pid,
                            self.arg, info[:16])

    def __repr__(self) -> str:
        name = TRACEPOINTS[self.id] if self.id < len(TRACEPOINTS) \
            else f"id{self.id:#x}"
        return (f"TraceEvent({name}, pid={self.pid}, arg={self.arg}, "
                f"info={self.info!r})")


class TraceRecord(NamedTuple):
    """One decoded wire record."""

    ts_ns: int
    point: str
    flags: int
    pid: int
    arg: int
    info: str

    @property
    def is_drop_marker(self) -> bool:
        return bool(self.flags & TRACE_FLAG_DROP)


def decode_records(data: bytes) -> List[TraceRecord]:
    """Parse trace_pipe wire bytes back into :class:`TraceRecord` rows."""
    out: List[TraceRecord] = []
    for off in range(0, len(data) - TRACE_RECORD_SIZE + 1,
                     TRACE_RECORD_SIZE):
        ts, id_, flags, pid, arg, info = _RECORD.unpack_from(data, off)
        if id_ < len(TRACEPOINTS):
            point = TRACEPOINTS[id_]
        else:
            point = "aux" if id_ == TRACE_AUX_ID else "drop"
        out.append(TraceRecord(ts, point, flags, pid, arg,
                               info.split(b"\x00", 1)[0].decode(
                                   errors="replace")))
    return out


class TypedTraceRecord(NamedTuple):
    """A decoded record with its stitched typed payload (or None)."""

    ts_ns: int
    point: str
    flags: int
    pid: int
    arg: int
    info: str
    payload: Optional[dict]

    @property
    def is_drop_marker(self) -> bool:
        return bool(self.flags & TRACE_FLAG_DROP)


def decode_typed_records(data: bytes) -> List["TypedTraceRecord"]:
    """Like :func:`decode_records`, but AUX continuation records are
    stitched back onto their parent as a decoded ``payload`` dict.

    AUX chunks ride directly behind the parent with the same timestamp
    and the parent's point id in their pid field; an incomplete payload
    (ring overflow swallowed a chunk) decodes to ``payload=None``.  AUX
    records never appear as rows of their own.
    """
    out: List[TypedTraceRecord] = []
    chunks: Dict[int, bytearray] = {}  # out-index -> payload bytes so far
    for off in range(0, len(data) - TRACE_RECORD_SIZE + 1,
                     TRACE_RECORD_SIZE):
        ts, id_, flags, pid, arg, info = _RECORD.unpack_from(data, off)
        if id_ == TRACE_AUX_ID and flags & TRACE_FLAG_AUX:
            # pid carries the parent's point id, arg the chunk length
            if out and out[-1].ts_ns == ts and pid < len(TRACEPOINTS) \
                    and out[-1].point == TRACEPOINTS[pid]:
                nbytes = arg & 0xFFFFFFFF
                chunks.setdefault(len(out) - 1,
                                  bytearray()).extend(info[:nbytes])
            continue
        if id_ < len(TRACEPOINTS):
            point = TRACEPOINTS[id_]
        else:
            point = "drop"
        out.append(TypedTraceRecord(
            ts, point, flags, pid, arg,
            info.split(b"\x00", 1)[0].decode(errors="replace"), None))
    for idx, buf in chunks.items():
        rec = out[idx]
        codec = _SCHEMA_STRUCTS.get(rec.point)
        if codec is None or len(buf) != codec.size:
            continue
        values = codec.unpack(bytes(buf))
        payload = {name: value for (name, _), value
                   in zip(TRACE_SCHEMAS[rec.point], values)}
        out[idx] = rec._replace(payload=payload)
    return out


class TraceBuffer(BoundedRing):
    """The bounded trace ring behind ``/proc/trace_pipe``: a
    :class:`~.eventpoll.BoundedRing` of :class:`TraceEvent` records.

    The overflow marker is a drop record (id :data:`TRACE_DROP_ID`, flag
    :data:`TRACE_FLAG_DROP`, info ``overflow``) stamped with the first
    dropped event's timestamp; its ``arg`` is the count it swallowed.
    ``close`` is deliberately a no-op: the ring is kernel-global and
    outlives any one open description of ``/proc/trace_pipe``.
    """

    def __init__(self, capacity: int = TRACE_DEFAULT_CAPACITY,
                 counters: Optional[CounterRegistry] = None):
        super().__init__(capacity)
        self.counters = counters

    def marker(self, first: TraceEvent, count: int) -> TraceEvent:
        return TraceEvent(first.ts_ns, TRACE_DROP_ID, TRACE_FLAG_DROP, 0,
                          count, "overflow")

    def on_drop(self, ev: TraceEvent) -> None:
        if self.counters is not None:
            self.counters.inc("trace.dropped")

    def close(self) -> None:
        pass  # shared ring: closing one trace_pipe fd must not clear it

    def events(self) -> List[TraceEvent]:
        return self.records()


class KernelTrace:
    """Per-kernel observability state: tracepoints, counters, histograms.

    Constructed unconditionally by :class:`~repro.kernel.kernel.Kernel`
    (unless ablated with ``trace="off"``); tracing starts *disabled* —
    :meth:`emit` is then two attribute loads and a set test, the
    compiled-in-but-off cost the overhead benchmark bounds.  The
    latency histograms are always on: one log2 bucket increment per
    syscall, cheap enough to never gate, which ``Kernel.call`` makes
    itself (with the ``syscall.<name>`` bump of :attr:`cells`).
    """

    def __init__(self, capacity: int = TRACE_DEFAULT_CAPACITY):
        self.counters = CounterRegistry()
        # the registry's cells: Kernel.call bumps ``syscall.<name>`` here
        self.cells = self.counters._counts
        self.buffer = TraceBuffer(capacity, self.counters)
        self.enabled = False
        self.mask = set(TRACEPOINTS)
        self._ticks = itertools.count(1)
        # syscall name -> 64 log2 buckets, for each latency dimension
        self.service_hist: Dict[str, List[int]] = {}
        self.wait_hist: Dict[str, List[int]] = {}
        # re-entrancy guard: a push wakes the ring's waitqueue, and the
        # wq_wake tracepoint hooks every wake — without the guard that
        # wake would trace itself forever
        self._local = threading.local()
        self._wq_hook: Optional[Callable[[int], None]] = None
        # typed-payload emission (perf-style events): opt-in so exact
        # 40-byte record captures stay byte-identical by default
        self.payloads = False
        # perf counting events attach probes here; None (the common
        # case) keeps emit's extra cost to one load + identity test
        self.probes: Optional[Dict[str, List[Callable]]] = None

    # ---- the trace clock ----

    def now_ns(self) -> int:
        return TRACE_EPOCH_NS + next(self._ticks) * 1_000

    # ---- emission ----

    def emit(self, point: str, pid: int = 0, arg: int = 0,
             info: str = "", args: Optional[tuple] = None) -> None:
        """Record one event if tracing is on and ``point`` is unmasked.

        ``args`` are the point's typed arguments (in schema order, see
        :data:`TRACE_SCHEMAS`); they are packed into AUX continuation
        records when payload emission is on, and fed to perf tracepoint
        probes regardless.  Probes fire *before* the enabled/mask
        check: a perf counter bound to a tracepoint counts firings even
        while trace recording is off, like perf vs ftrace on Linux.
        """
        if self.probes is not None:
            fns = self.probes.get(point)
            if fns:
                for fn in fns:
                    fn(pid, arg, info)
        if not self.enabled or point not in self.mask:
            return
        if getattr(self._local, "busy", False):
            return
        self._local.busy = True
        try:
            self.counters.inc("trace.events")
            ts = self.now_ns()
            self.buffer.push(TraceEvent(ts, TRACEPOINT_IDS[point], 0, pid,
                                        arg, info))
            if args is not None and self.payloads:
                codec = _SCHEMA_STRUCTS.get(point)
                if codec is not None:
                    self._push_payload(ts, point, codec.pack(*args))
        finally:
            self._local.busy = False

    def _push_payload(self, ts: int, point: str, payload: bytes) -> None:
        """Emit AUX continuation records carrying a packed payload."""
        point_id = TRACEPOINT_IDS[point]
        for seq, off in enumerate(range(0, len(payload), 16)):
            chunk = payload[off : off + 16]
            self.buffer.push(TraceEvent(
                ts, TRACE_AUX_ID, TRACE_FLAG_AUX, point_id,
                (seq << 32) | len(chunk), chunk))

    # ---- perf probes (kernel/perf.py counting events) ----

    def add_probe(self, point: str, fn: Callable) -> None:
        if point not in TRACEPOINT_IDS:
            raise KernelError(EINVAL, f"unknown tracepoint {point}")
        if self.probes is None:
            self.probes = {}
        self.probes.setdefault(point, []).append(fn)

    def remove_probe(self, point: str, fn: Callable) -> None:
        if self.probes is None:
            return
        fns = self.probes.get(point)
        if fns is None:
            return
        try:
            fns.remove(fn)
        except ValueError:
            return
        if not fns:
            del self.probes[point]
        if not self.probes:
            self.probes = None

    # ---- control (the /proc/trace_ctl command language) ----

    def enable(self) -> None:
        self.enabled = True
        self._sync_wq_hook()

    def disable(self) -> None:
        self.enabled = False
        self._sync_wq_hook()

    def set_mask(self, points) -> None:
        points = set(points)
        unknown = points - set(TRACEPOINTS)
        if unknown:
            raise KernelError(EINVAL,
                              f"unknown tracepoints: {sorted(unknown)}")
        self.mask = points
        self._sync_wq_hook()

    def _sync_wq_hook(self) -> None:
        """Subscribe to waitqueue wakes only while wq_wake can fire.

        ``WaitQueue.wake`` is the hottest path in the kernel; the global
        hook list must stay empty whenever no tracer wants wake events.
        """
        want = self.enabled and "wq_wake" in self.mask
        if want and self._wq_hook is None:
            def hook(events: int) -> None:
                self.emit("wq_wake", arg=events)
            self._wq_hook = hook
            add_wake_hook(hook)
        elif not want and self._wq_hook is not None:
            remove_wake_hook(self._wq_hook)
            self._wq_hook = None

    def control(self, text: str) -> None:
        """Apply trace_ctl commands (one per line / semicolon)::

            on | off        start / stop tracing
            clear           empty the ring buffer
            mask=all        unmask every tracepoint
            mask=none       mask everything (histograms stay on)
            mask=a,b,c      unmask exactly the listed points
            +name | -name   unmask / mask one point
            payload=on|off  emit typed AUX payload records (default off)
        """
        for chunk in text.replace(";", "\n").splitlines():
            cmd = chunk.strip()
            if not cmd:
                continue
            if cmd == "on":
                self.enable()
            elif cmd == "off":
                self.disable()
            elif cmd == "clear":
                self.buffer.clear()
            elif cmd == "mask=all":
                self.set_mask(TRACEPOINTS)
            elif cmd == "mask=none":
                self.set_mask(())
            elif cmd.startswith("mask="):
                self.set_mask(p.strip() for p in cmd[5:].split(",")
                              if p.strip())
            elif cmd in ("payload=on", "payload=off"):
                self.payloads = cmd.endswith("on")
            elif cmd.startswith("+") or cmd.startswith("-"):
                name = cmd[1:].strip()
                if name not in TRACEPOINT_IDS:
                    raise KernelError(EINVAL, f"unknown tracepoint {name}")
                mask = set(self.mask)
                (mask.add if cmd[0] == "+" else mask.discard)(name)
                self.set_mask(mask)
            else:
                raise KernelError(EINVAL, f"unknown trace command {cmd!r}")

    # ---- reporting ----

    def status_text(self) -> str:
        """The ``/proc/trace`` rendering: state, ring, mask, counters."""
        lines = [
            f"tracing: {'on' if self.enabled else 'off'}",
            f"buffer: {len(self.buffer)}/{self.buffer.capacity} "
            f"(total {self.buffer.total}, dropped {self.buffer.dropped})",
        ]
        for point in TRACEPOINTS:
            flag = "+" if point in self.mask else "-"
            lines.append(f"  {flag}{point}")
        for name, value in self.counters.snapshot().items():
            lines.append(f"{name}: {value}")
        return "\n".join(lines) + "\n"

    def format_text(self) -> str:
        """The ``/proc/trace_format`` rendering: the wire layout plus the
        per-point typed payload schemas, so readers can self-describe."""
        lines = [
            f"record: <QHHiq16s size {TRACE_RECORD_SIZE} "
            "(ts_ns:u64 id:u16 flags:u16 pid:i32 arg:i64 info:16s)",
            f"drop: id {TRACE_DROP_ID:#06x} flag {TRACE_FLAG_DROP:#x}",
            f"aux: id {TRACE_AUX_ID:#06x} flag {TRACE_FLAG_AUX:#x} "
            "(pid=parent point id, arg=(seq<<32)|nbytes, info=chunk)",
            f"payloads: {'on' if self.payloads else 'off'}",
        ]
        for point, schema in sorted(TRACE_SCHEMAS.items()):
            fields = " ".join(f"{name}:{fmt}" for name, fmt in schema)
            lines.append(f"{point}: {fields}")
        return "\n".join(lines) + "\n"

    def close(self) -> None:
        """Detach global hooks (kernels are long-lived; tests call this)."""
        if self._wq_hook is not None:
            remove_wake_hook(self._wq_hook)
            self._wq_hook = None


def create_trace(spec=None) -> Optional[KernelTrace]:
    """Resolve a trace spec: None (default, compiled in but disabled),
    ``"off"`` (ablated entirely — the overhead baseline), ``"on"``
    (enabled from boot), or a :class:`KernelTrace` instance."""
    if spec is None:
        return KernelTrace()
    if isinstance(spec, KernelTrace):
        return spec
    text = str(spec)
    if text in ("off", "none"):
        return None
    if text == "on":
        trace = KernelTrace()
        trace.enable()
        return trace
    raise KernelError(EINVAL, f"bad trace spec {spec!r}")
