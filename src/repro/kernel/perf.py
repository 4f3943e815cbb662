"""perf events: sampling profiler + counting events as epollable fds.

The ``perf_event_open`` analogue (§ the paper's evaluation is built on
profiling; this closes the "where does guest time go" gap the
tracepoint layer cannot answer).  Two event kinds, both living behind
ordinary file descriptors (the object behind the fd):

* **sampling events** — a deterministic sampling clock advances by
  :data:`PERF_OPPORTUNITY_NS` at every *opportunity* (a syscall dispatch
  by an in-scope task, or a scheduler tick over the running set).  When
  the clock crosses the event's period, one variable-length
  ``PERF_RECORD_SAMPLE`` is captured: pid, the task's vruntime/nice,
  and the guest **wasm call stack** walked from the interpreter's frame
  stack (``Process.machine.frames``).  Records land in a bounded
  :class:`PerfRing`, with the overflow discipline of
  :class:`~repro.kernel.eventpoll.BoundedRing`: one
  ``PERF_RECORD_LOST`` marker whose count grows in place.

  The clock is **per (event, pid)**: a task's sample sequence depends
  only on its own opportunity stream (its deterministic syscall
  sequence), never on cross-task interleaving — the same per-flow
  discipline the WAN impairment RNG uses.  Tick-driven opportunities
  (contended kernels only) are best-effort on top.

* **counting events** — bound to a :class:`~.trace.CounterRegistry`
  name (``sched.*``, ``uring.*``, ``block.cache_hit``,
  ``syscall.<name>``...), to any tracepoint (``tracepoint:<point>``,
  counted via an emit probe that fires even while trace recording is
  off), or to ``instructions`` (wasm ops retired, summed from
  ``Machine.steps`` over the event's scope).  ``ioctl`` drives
  enable / disable / reset; ``read`` returns the 8-byte current value.

Scope (the ``pid`` argument of ``perf_event_open``): ``0`` = the
calling process, ``> 0`` = that pid, ``-1`` = every process.

Wire format — every record starts with an 8-byte header
``<IHH`` + 2 pad (``size`` includes the header)::

    u32 size   total record bytes
    u16 type   PERF_RECORD_SAMPLE (9) | PERF_RECORD_LOST (2)
    u16 misc   0

``PERF_RECORD_SAMPLE`` body (``<QiiQI``)::

    u64 time_ns      the event's deterministic sampling clock
    i32 pid          sampled task
    i32 nice         its nice value at the sample
    u64 vruntime_ns  its CFS vruntime at the sample
    u32 nframes      call-stack depth, then nframes x (u16 len + name)

``PERF_RECORD_LOST`` body: one ``u64`` — samples swallowed by the full
ring.  Decode captures with :func:`decode_perf_records`.
"""

from __future__ import annotations

import struct
import sys
import threading
from typing import List, NamedTuple, Tuple

from ..wasm.interp import COMPILED_FILE
from .errno import EINVAL, ENOTTY, KernelError
from .eventpoll import EPOLLIN, BoundedRing, FileOps, WaitQueue
from .trace import TRACEPOINT_IDS
from .vfs import CharDevice

# ---- ABI constants (the real Linux values) --------------------------------

PERF_EVENT_IOC_ENABLE = 0x2400
PERF_EVENT_IOC_DISABLE = 0x2401
PERF_EVENT_IOC_REFRESH = 0x2402
PERF_EVENT_IOC_RESET = 0x2403

PERF_RECORD_LOST = 2
PERF_RECORD_SAMPLE = 9

PERF_FLAG_FD_CLOEXEC = 8

# attr.type values (a compact repro-specific attr, not the 128-byte
# perf_event_attr: config is a *name* in the observability namespace)
PERF_TYPE_COUNTER = 0
PERF_TYPE_TRACEPOINT = 1
PERF_TYPE_SAMPLING = 2

# the deterministic sampling clock: 1 µs per opportunity, like the
# trace clock's 1 µs per event
PERF_OPPORTUNITY_NS = 1_000

PERF_DEFAULT_RING_CAPACITY = 4096
PERF_MAX_SAMPLE_RATE_DEFAULT = 100_000

_HEADER = struct.Struct("<IHH")
_SAMPLE_BODY = struct.Struct("<QiiQI")
_FRAME_LEN = struct.Struct("<H")
_LOST_BODY = struct.Struct("<Q")

PERF_HEADER_SIZE = _HEADER.size           # 8


class PerfAttr:
    """The decoded ``perf_event_open`` attribute block.

    Guest layout (24 bytes, ``<IIQII`` — see ``wali/layout.py``):
    ``u32 type``, ``u32 config_ptr`` (NUL-terminated name, read
    host-side), ``u64 sample_freq`` (Hz), ``u32 ring_capacity``
    (0 = default), ``u32 disabled`` (start disabled, arm via ioctl).
    """

    __slots__ = ("type", "config", "sample_freq", "ring_capacity",
                 "disabled")

    def __init__(self, type: int = PERF_TYPE_COUNTER, config: str = "",
                 sample_freq: int = 0, ring_capacity: int = 0,
                 disabled: bool = False):
        self.type = type
        self.config = config
        self.sample_freq = sample_freq
        self.ring_capacity = ring_capacity
        self.disabled = bool(disabled)


class PerfSample(NamedTuple):
    """One decoded record (samples and lost markers share the shape)."""

    type: int
    time_ns: int
    pid: int
    nice: int
    vruntime_ns: int
    frames: Tuple[str, ...]
    lost: int

    @property
    def is_lost_marker(self) -> bool:
        return self.type == PERF_RECORD_LOST


def encode_sample(time_ns: int, pid: int, nice: int, vruntime_ns: int,
                  frames: Tuple[str, ...]) -> bytes:
    names = [f.encode(errors="replace")[:255] for f in frames]
    body = _SAMPLE_BODY.pack(time_ns, pid, nice, vruntime_ns, len(names))
    parts = [body]
    for n in names:
        parts.append(_FRAME_LEN.pack(len(n)))
        parts.append(n)
    payload = b"".join(parts)
    return _HEADER.pack(PERF_HEADER_SIZE + len(payload),
                        PERF_RECORD_SAMPLE, 0) + payload


def encode_lost(lost: int) -> bytes:
    return _HEADER.pack(PERF_HEADER_SIZE + _LOST_BODY.size,
                        PERF_RECORD_LOST, 0) + _LOST_BODY.pack(lost)


def decode_perf_records(data: bytes) -> List[PerfSample]:
    """Parse a perf fd capture back into :class:`PerfSample` rows.

    A trailing partial record (a reader that stopped mid-stream) is
    ignored, exactly like a short trace_pipe slice.
    """
    out: List[PerfSample] = []
    off = 0
    while off + PERF_HEADER_SIZE <= len(data):
        size, rtype, _misc = _HEADER.unpack_from(data, off)
        if size < PERF_HEADER_SIZE or off + size > len(data):
            break
        body = data[off + PERF_HEADER_SIZE : off + size]
        if rtype == PERF_RECORD_SAMPLE and len(body) >= _SAMPLE_BODY.size:
            t, pid, nice, vrt, nframes = _SAMPLE_BODY.unpack_from(body, 0)
            frames: List[str] = []
            p = _SAMPLE_BODY.size
            for _ in range(nframes):
                if p + _FRAME_LEN.size > len(body):
                    break
                (ln,) = _FRAME_LEN.unpack_from(body, p)
                p += _FRAME_LEN.size
                frames.append(body[p : p + ln].decode(errors="replace"))
                p += ln
            out.append(PerfSample(PERF_RECORD_SAMPLE, t, pid, nice, vrt,
                                  tuple(frames), 0))
        elif rtype == PERF_RECORD_LOST and len(body) >= _LOST_BODY.size:
            (lost,) = _LOST_BODY.unpack_from(body, 0)
            out.append(PerfSample(PERF_RECORD_LOST, 0, 0, 0, 0, (), lost))
        off += size
    return out


class PerfRing(BoundedRing):
    """Bounded ring of variable-length sample records: a
    :class:`~.eventpoll.BoundedRing` whose overflow marker is a
    ``PERF_RECORD_LOST`` record (:func:`encode_lost`).  It is the
    epollable object behind a sampling perf fd."""

    @property
    def lost(self) -> int:
        return self.dropped

    def encode(self, record: bytes) -> bytes:
        return record

    def marker(self, first: bytes, count: int) -> bytes:
        return encode_lost(count)


def _walk_frames(proc, tick: bool = False) -> Tuple[str, ...]:
    """The guest wasm call stack, outermost first.

    The interpreter's frames come from the task's machine; while compiled
    code runs (``machine.native_depth``), the compiled frames follow them,
    read off the Python stack of the task's host thread
    (:func:`_compiled_frames`).  Best effort: syscall-driven samples walk
    the *calling* task's own machine and thread (parked inside the host
    import call, every frame's pc committed — a consistent snapshot);
    tick-driven samples (``tick``) may race a running interpreter, so any
    surprise degrades to a single ``?``.
    """
    machine = getattr(proc, "machine", None)
    if machine is None:
        return ()
    try:
        names = []
        for frame in machine.frames:
            name = getattr(frame[0], "name", None)
            names.append(name if name else "?")
        if machine.native_depth:
            names += _compiled_frames(proc, tick)
        return tuple(names)
    except Exception:
        return ("?",)


def _compiled_frames(proc, tick: bool) -> List[str]:
    """The compiled wasm frames (code filed as ``<wasm:NAME>``) on the
    task's host thread, outermost first: the caller's own stack for a
    syscall-driven sample, which runs in the task's thread, and that
    thread's stack from ``sys._current_frames()`` for a tick."""
    if tick:
        frame = sys._current_frames().get(proc.se.host_thread)
    else:
        frame = sys._getframe()
    names = []
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename.startswith(COMPILED_FILE):
            names.append(filename[len(COMPILED_FILE):-1])
        frame = frame.f_back
    names.reverse()
    return names


class SamplingPerfEvent(FileOps):
    """A profiling event: periodic call-stack samples into a ring."""

    kind = "sampling"

    def __init__(self, perf: "PerfSubsystem", scope_pid: int, freq_hz: int,
                 capacity: int, enabled: bool = True):
        self.perf = perf
        self.scope = scope_pid
        self.freq_hz = freq_hz
        self.period_ns = max(10**9 // freq_hz, 1)
        self.ring = PerfRing(capacity)
        self.enabled = enabled
        self.samples = 0
        self.throttled = 0
        # pid -> [clock_ns, next_due_ns]: per-task determinism (see
        # module docstring)
        self._clocks = {}
        self._lock = threading.Lock()

    # ---- fd surface (delegated to the ring) ----

    @property
    def wq(self) -> WaitQueue:
        return self.ring.wq

    def poll_events(self) -> int:
        return self.ring.poll_events()

    def read_step(self, length: int) -> bytes:
        return self.ring.read_step(length)

    def close(self) -> None:
        self.perf._detach(self)

    # ---- control ----

    def ioctl(self, request: int, arg: int = 0) -> int:
        if request in (PERF_EVENT_IOC_ENABLE, PERF_EVENT_IOC_REFRESH):
            self.enabled = True
            self.perf._refresh()
        elif request == PERF_EVENT_IOC_DISABLE:
            self.enabled = False
            self.perf._refresh()
        elif request == PERF_EVENT_IOC_RESET:
            with self._lock:
                self._clocks.clear()
                self.samples = 0
                self.throttled = 0
            self.ring.clear()
        else:
            raise KernelError(ENOTTY, f"perf ioctl 0x{request:x}")
        return 0

    # ---- sampling ----

    def matches(self, pid: int) -> bool:
        return self.scope == -1 or self.scope == pid

    def opportunity(self, proc, tick: bool = False) -> None:
        """One opportunity for ``proc``; sample if the period elapsed.
        ``tick``: a scheduler tick, taken on another task's thread."""
        if not self.enabled:
            return
        with self._lock:
            st = self._clocks.get(proc.pid)
            if st is None:
                st = self._clocks[proc.pid] = [0, self.period_ns]
            st[0] += PERF_OPPORTUNITY_NS
            if st[0] < st[1]:
                return
            st[1] += self.period_ns
            if st[1] <= st[0]:
                # catch-up would burst: clamp forward and count the
                # throttle, like kernel.perf_event_max_sample_rate does
                st[1] = st[0] + self.period_ns
                self.throttled += 1
            now = st[0]
        se = getattr(proc, "se", None)
        nice = se.nice if se is not None else 0
        vrt = se.vruntime_ns if se is not None else 0
        record = encode_sample(now, proc.pid, nice, vrt,
                               _walk_frames(proc, tick))
        self.samples += 1
        self.ring.push(record)


class CountingPerfEvent(FileOps):
    """A counter event: reads an 8-byte monotone value, never consumes.

    ``config`` names the source:

    * a :class:`~.trace.CounterRegistry` key (``sched.switch``,
      ``syscall.read``, ``block.cache_hit``...),
    * ``tracepoint:<point>`` — a probe on the emit path that counts
      firings even while trace recording is off,
    * ``instructions`` — wasm ops retired (``Machine.steps``) summed
      over the event's scope.

    Enable/disable follow the offset discipline: the value is
    ``accumulated + (raw - enabled_at)`` while enabled, so a disabled
    interval contributes nothing.
    """

    kind = "counting"

    def __init__(self, perf: "PerfSubsystem", config: str, scope_pid: int,
                 enabled: bool = True):
        self.perf = perf
        self.config = config
        self.scope = scope_pid
        self.wq = WaitQueue()     # counters are always readable
        self._probe = None
        self._hits = 0
        if config.startswith("tracepoint:"):
            point = config[len("tracepoint:"):]
            if point not in TRACEPOINT_IDS:
                raise KernelError(EINVAL, f"unknown tracepoint {point!r}")
            trace = perf.kernel.trace

            def probe(pid: int, arg: int, info) -> None:
                if self.scope == -1 or self.scope == pid:
                    self._hits += 1

            self._probe = (trace, point, probe)
            trace.add_probe(point, probe)
        self.enabled = False
        self._acc = 0
        self._base = 0
        if enabled:
            self.ioctl(PERF_EVENT_IOC_ENABLE)

    # ---- the raw source ----

    def _raw(self) -> int:
        if self._probe is not None:
            return self._hits
        kernel = self.perf.kernel
        if self.config == "instructions":
            total = 0
            for p in list(kernel.processes.values()):
                if self.scope != -1 and p.pid != self.scope:
                    continue
                m = getattr(p, "machine", None)
                if m is not None:
                    total += getattr(m, "steps", 0)
            return total
        return kernel.counters.get(self.config)

    def value(self) -> int:
        if self.enabled:
            return self._acc + (self._raw() - self._base)
        return self._acc

    # ---- fd surface ----

    def poll_events(self) -> int:
        return EPOLLIN

    def read_step(self, length: int) -> bytes:
        if length < 8:
            raise KernelError(EINVAL, "perf counter read needs 8 bytes")
        return self.value().to_bytes(8, "little", signed=False)

    def close(self) -> None:
        if self._probe is not None:
            trace, point, probe = self._probe
            trace.remove_probe(point, probe)
            self._probe = None

    # ---- control ----

    def ioctl(self, request: int, arg: int = 0) -> int:
        if request in (PERF_EVENT_IOC_ENABLE, PERF_EVENT_IOC_REFRESH):
            if not self.enabled:
                self._base = self._raw()
                self.enabled = True
        elif request == PERF_EVENT_IOC_DISABLE:
            if self.enabled:
                self._acc += self._raw() - self._base
                self.enabled = False
        elif request == PERF_EVENT_IOC_RESET:
            self._acc = 0
            self._base = self._raw()
        else:
            raise KernelError(ENOTTY, f"perf ioctl 0x{request:x}")
        return 0


class PerfSubsystem:
    """Per-kernel perf state: open events and the opportunity drivers.

    ``active`` is the hot-path gate: one attribute load + truth test in
    ``Kernel.call`` when no enabled sampling event exists, the same
    disabled-cost discipline as the tracepoint mask check.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.max_sample_rate = PERF_MAX_SAMPLE_RATE_DEFAULT
        self.active = False
        self.events_opened = 0
        self._sampling: List[SamplingPerfEvent] = []
        self._lock = threading.Lock()

    # ---- event lifecycle ----

    def open_event(self, proc, attr: PerfAttr, pid: int, cpu: int,
                   group_fd: int, flags: int):
        if pid < -1:
            raise KernelError(EINVAL, f"bad perf pid {pid}")
        if group_fd != -1:
            raise KernelError(EINVAL, "perf event groups not supported")
        scope = proc.pid if pid == 0 else pid
        if attr.type == PERF_TYPE_SAMPLING:
            freq = int(attr.sample_freq)
            if freq <= 0 or freq > self.max_sample_rate:
                raise KernelError(
                    EINVAL, f"sample_freq {freq} outside "
                    f"1..{self.max_sample_rate} "
                    "(/proc/sys/kernel/perf_event_max_sample_rate)")
            capacity = attr.ring_capacity or PERF_DEFAULT_RING_CAPACITY
            event = SamplingPerfEvent(self, scope, freq, capacity,
                                      enabled=not attr.disabled)
            with self._lock:
                self._sampling.append(event)
            self._refresh()
        elif attr.type == PERF_TYPE_TRACEPOINT:
            event = CountingPerfEvent(self, f"tracepoint:{attr.config}",
                                      scope, enabled=not attr.disabled)
        elif attr.type == PERF_TYPE_COUNTER:
            if not attr.config:
                raise KernelError(EINVAL, "perf counter needs a config name")
            event = CountingPerfEvent(self, attr.config, scope,
                                      enabled=not attr.disabled)
        else:
            raise KernelError(EINVAL, f"bad perf event type {attr.type}")
        self.events_opened += 1
        return event

    def _detach(self, event: SamplingPerfEvent) -> None:
        with self._lock:
            try:
                self._sampling.remove(event)
            except ValueError:
                pass
        self._refresh()

    def _refresh(self) -> None:
        self.active = any(ev.enabled for ev in self._sampling)

    # ---- opportunity drivers ----

    def on_syscall(self, proc) -> None:
        """A syscall dispatch by ``proc``: deterministic opportunity."""
        for event in self._sampling:
            if event.enabled and event.matches(proc.pid):
                event.opportunity(proc)

    def on_tick(self, running) -> None:
        """A scheduler tick over the running set: best-effort sampling
        of user-mode tasks (contended kernels only; see module doc)."""
        if not self.active:
            return
        for proc in list(running):
            for event in self._sampling:
                if event.enabled and event.matches(proc.pid):
                    event.opportunity(proc, tick=True)

    # ---- reporting (/proc/perf) ----

    def status_text(self) -> str:
        with self._lock:
            sampling = list(self._sampling)
        lines = [
            f"perf_event_max_sample_rate: {self.max_sample_rate}",
            f"events_opened: {self.events_opened}",
            f"sampling_events: {len(sampling)}",
            f"active: {1 if self.active else 0}",
        ]
        for i, ev in enumerate(sampling):
            lines.append(
                f"  event#{i}: scope={ev.scope} freq_hz={ev.freq_hz} "
                f"period_ns={ev.period_ns} "
                f"{'on' if ev.enabled else 'off'} "
                f"samples={ev.samples} lost={ev.ring.lost} "
                f"throttled={ev.throttled}")
        return "\n".join(lines) + "\n"


class PerfMaxRateDevice(CharDevice):
    """/proc/sys/kernel/perf_event_max_sample_rate: a writable knob
    with the /proc/sys/vm validation discipline."""

    def __init__(self, perf: PerfSubsystem):
        self.perf = perf

    def read_step(self, length: int) -> bytes:
        return f"{self.perf.max_sample_rate}\n".encode()[:length]

    def write_step(self, data: bytes) -> int:
        try:
            value = int(data.split()[0])
        except (ValueError, IndexError):
            raise KernelError(EINVAL,
                              "bad value for perf_event_max_sample_rate")
        if not 1 <= value <= 10**9:
            raise KernelError(EINVAL,
                              "perf_event_max_sample_rate out of range")
        self.perf.max_sample_rate = value
        return len(data)
