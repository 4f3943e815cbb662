"""perf events: the sampling profiler, counting events, typed trace
payloads, flamegraph folding, writable /proc knobs, and the guest
``perf`` tool."""

import json
import struct
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel import (
    AT_FDCWD, EPOLL_CTL_ADD, EPOLLIN, Kernel, KernelError, O_NONBLOCK,
    O_RDONLY, O_WRONLY, PERF_EVENT_IOC_DISABLE, PERF_EVENT_IOC_ENABLE,
    PERF_EVENT_IOC_RESET, PERF_RECORD_LOST, PERF_RECORD_SAMPLE,
    PERF_TYPE_COUNTER, PERF_TYPE_SAMPLING, PERF_TYPE_TRACEPOINT, PerfAttr,
    PerfRing, TRACE_SCHEMAS, decode_perf_records, decode_records,
    decode_typed_records,
)
from repro.kernel.perf import PERF_OPPORTUNITY_NS, encode_lost, encode_sample
from repro.metrics import (
    fold, frame_totals, from_samples, hottest_frames, perf_report_json,
    render_flamegraph, render_perf_report, total_samples, trace_report_dict,
    unfold,
)


@pytest.fixture
def k():
    kern = Kernel()
    yield kern
    kern.trace.close()


@pytest.fixture
def proc(k):
    return k.create_process(["t"], {})


def read_all(k, proc, path):
    fd = k.call(proc, "openat", AT_FDCWD, path, O_RDONLY, 0)
    out = b""
    while True:
        chunk = k.call(proc, "read", fd, 65536)
        if not chunk:
            break
        out += chunk
    k.call(proc, "close", fd)
    return out


def knob_write(k, proc, path, text):
    fd = k.call(proc, "openat", AT_FDCWD, path, O_WRONLY, 0)
    k.call(proc, "write", fd, text.encode())
    k.call(proc, "close", fd)


def knob_read(k, proc, path):
    fd = k.call(proc, "openat", AT_FDCWD, path, O_RDONLY, 0)
    data = k.call(proc, "read", fd, 256)
    k.call(proc, "close", fd)
    return data.decode()


# --------------------------------------------------------------------------
# the perf ring: wire format + overflow discipline (property-based)
# --------------------------------------------------------------------------

_frame = st.text(alphabet="abcdefgh_", min_size=1, max_size=10)
_stack = st.lists(_frame, min_size=0, max_size=6).map(tuple)


class TestPerfWire:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**62), st.integers(-1, 2**31 - 1),
           st.integers(-20, 19), st.integers(0, 2**62), _stack)
    def test_sample_roundtrip(self, t, pid, nice, vrt, frames):
        recs = decode_perf_records(encode_sample(t, pid, nice, vrt, frames))
        assert len(recs) == 1
        s = recs[0]
        assert (s.type, s.time_ns, s.pid, s.nice, s.vruntime_ns,
                s.frames) == (PERF_RECORD_SAMPLE, t, pid, nice, vrt, frames)
        assert not s.is_lost_marker

    def test_lost_roundtrip_and_trailing_partial(self):
        data = encode_lost(7) + encode_sample(1, 2, 0, 3, ("a",))
        recs = decode_perf_records(data + data + data[:5])  # torn tail
        assert [r.type for r in recs] == [PERF_RECORD_LOST,
                                          PERF_RECORD_SAMPLE,
                                          PERF_RECORD_LOST,
                                          PERF_RECORD_SAMPLE]
        assert recs[0].is_lost_marker and recs[0].lost == 7

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 40))
    def test_ring_bound_and_single_marker(self, capacity, pushes):
        ring = PerfRing(capacity=capacity)
        for i in range(pushes):
            ring.push(encode_sample(i, 1, 0, 0, ("f",)))
        # content bound: capacity records + at most one lost marker
        assert len(ring) <= capacity + 1
        if pushes == 0:
            with pytest.raises(KernelError):
                ring.read_step(65536)
            return
        recs = decode_perf_records(ring.read_step(1 << 20))
        markers = [r for r in recs if r.is_lost_marker]
        kept = [r for r in recs if not r.is_lost_marker]
        assert len(markers) <= 1
        assert len(kept) == min(pushes, capacity)
        # conservation: kept + swallowed == pushed
        swallowed = markers[0].lost if markers else 0
        assert len(kept) + swallowed == pushes
        assert ring.lost == swallowed and ring.total == pushes

    def test_ring_read_whole_records_only(self):
        ring = PerfRing(capacity=8)
        rec = encode_sample(1, 1, 0, 0, ("alpha", "beta"))
        ring.push(rec)
        ring.push(rec)
        with pytest.raises(KernelError):  # EINVAL: can't hold one record
            ring.read_step(len(rec) - 1)
        out = ring.read_step(len(rec) + 3)  # room for one, not two
        assert len(out) == len(rec) and len(ring) == 1

    def test_marker_clears_on_drain(self):
        ring = PerfRing(capacity=1)
        for i in range(3):
            ring.push(encode_sample(i, 1, 0, 0, ()))
        ring.read_step(1 << 20)
        ring.push(encode_sample(9, 1, 0, 0, ()))
        recs = decode_perf_records(ring.read_step(1 << 20))
        assert len(recs) == 1 and not recs[0].is_lost_marker

    def test_poll_and_bad_capacity(self):
        with pytest.raises(KernelError):
            PerfRing(capacity=0)
        ring = PerfRing(capacity=2)
        assert ring.poll_events() == 0
        ring.push(encode_sample(0, 1, 0, 0, ()))
        assert ring.poll_events() == EPOLLIN


# --------------------------------------------------------------------------
# typed trace payloads (the tracepoint schema layer)
# --------------------------------------------------------------------------

def _schema_args(point):
    ranges = {"q": st.integers(-2**62, 2**62),
              "i": st.integers(-2**31, 2**31 - 1)}
    return st.tuples(*(ranges[fmt] for _, fmt in TRACE_SCHEMAS[point]))


class TestTypedPayloads:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(TRACE_SCHEMAS)), st.data())
    def test_payload_roundtrip(self, point, data):
        args = data.draw(_schema_args(point))
        from repro.kernel import KernelTrace
        t = KernelTrace()
        # mask to the one point: the wq_wake hook is process-global, so
        # guest threads from other tests must not land in this buffer
        t.set_mask({point})
        t.enable()
        t.payloads = True
        t.emit(point, pid=7, arg=1, info="x", args=args)
        recs = decode_typed_records(t.buffer.read_step(65536))
        t.close()
        assert len(recs) == 1 and recs[0].point == point
        expected = {name: value for (name, _), value
                    in zip(TRACE_SCHEMAS[point], args)}
        assert recs[0].payload == expected

    def test_payloads_off_by_default(self):
        from repro.kernel import KernelTrace
        t = KernelTrace()
        t.set_mask({"sched_switch"})
        t.enable()
        t.emit("sched_switch", pid=1, args=(1, 2, 0, 0))
        recs = decode_records(t.buffer.read_step(65536))
        t.close()
        assert len(recs) == 1  # no AUX continuation records

    def test_aux_records_are_plain_40_byte_rows(self):
        from repro.kernel import KernelTrace
        t = KernelTrace()
        t.control("payload=on\nmask=sched_switch\non\n")
        t.emit("sched_switch", pid=1, args=(10, 20, 0, 0))
        data = t.buffer.read_step(65536)
        t.close()
        assert len(data) % 40 == 0
        plain = decode_records(data)
        assert plain[0].point == "sched_switch"
        assert sum(1 for r in plain if r.point == "aux") >= 1
        typed = decode_typed_records(data)
        assert len(typed) == 1
        assert typed[0].payload == {"wait_ns": 10, "vruntime_ns": 20,
                                    "nice": 0, "cpu": 0}

    def test_kernel_syscall_exit_payload(self, k, proc):
        k.trace.control("payload=on\nmask=syscall_exit\non\n")
        k.call(proc, "getpid")
        k.trace.disable()
        recs = decode_typed_records(k.trace.buffer.read_step(65536))
        exits = [r for r in recs if r.point == "syscall_exit"
                 and r.info == "getpid"]
        assert exits and exits[0].payload is not None
        assert exits[0].payload["errno"] == 0
        assert exits[0].payload["service_ns"] >= 0

    def test_trace_format_self_describing(self, k, proc):
        text = read_all(k, proc, "/proc/trace_format").decode()
        assert "record: <QHHiq16s size 40" in text
        assert "payloads: off" in text
        for point, schema in TRACE_SCHEMAS.items():
            fields = " ".join(f"{n}:{f}" for n, f in schema)
            assert f"{point}: {fields}" in text
        k.trace.control("payload=on")
        assert "payloads: on" in read_all(
            k, proc, "/proc/trace_format").decode()


# --------------------------------------------------------------------------
# flamegraph folding (property-based) + perf report tables
# --------------------------------------------------------------------------

_folds = st.dictionaries(
    st.lists(_frame, min_size=1, max_size=5).map(tuple),
    st.integers(1, 10**6), max_size=12)


class TestFlamegraph:
    @settings(max_examples=80, deadline=None)
    @given(_folds)
    def test_fold_unfold_roundtrip(self, d):
        text = fold(d)
        assert unfold(text) == d
        # canonical text is a fixpoint: fold(unfold(x)) == x
        assert fold(unfold(text)) == text

    @settings(max_examples=80, deadline=None)
    @given(_folds)
    def test_counts_conserved(self, d):
        assert total_samples(unfold(fold(d))) == sum(d.values())

    def test_unfold_bare_record_lines(self):
        text = "a;b\na;b\na\n"
        assert unfold(text) == {("a", "b"): 2, ("a",): 1}

    def test_from_samples_skips_lost(self):
        recs = decode_perf_records(
            encode_sample(1, 1, 0, 0, ("m", "f")) + encode_lost(5)
            + encode_sample(2, 1, 0, 0, ("m", "f"))
            + encode_sample(3, 1, 0, 0, ()))
        f = from_samples(recs)
        assert f == {("m", "f"): 2, ("[unknown]",): 1}
        assert total_samples(f) == 3

    def test_render_and_report_shapes(self):
        f = unfold("main;serve;read 6\nmain;serve 3\nmain;idle 1\n")
        fg = render_flamegraph(f)
        assert "flamegraph: 10 samples" in fg
        assert fg.index("main") < fg.index("serve") < fg.index("read")
        report = render_perf_report(f)
        assert "top-down" in report and "bottom-up" in report
        assert hottest_frames(f)[0] == "read"

    def test_json_report_stable(self):
        f = unfold("b;c 2\na 1\n")
        j1, j2 = perf_report_json(f), perf_report_json(dict(reversed(
            list(f.items()))))
        assert j1 == j2  # insertion order does not leak into the report
        doc = json.loads(j1)
        assert list(doc) == ["total_samples", "stacks", "frames"]
        assert doc["total_samples"] == 3

    def test_perf_report_cli(self, tmp_path, capsys):
        from repro.metrics.perf_report import main
        p = tmp_path / "folded.txt"
        p.write_text("x;y 4\n")
        assert main([str(p)]) == 0
        assert "bottom-up" in capsys.readouterr().out
        assert main(["--json", str(p)]) == 0
        assert json.loads(capsys.readouterr().out)["total_samples"] == 4

    def test_trace_report_json(self, k, proc):
        k.call(proc, "getpid")
        doc = trace_report_dict(k.trace)
        assert any(row["syscall"] == "getpid" for row in doc["latency"])
        assert doc["counters"].get("sched.switch", 0) >= 1


# --------------------------------------------------------------------------
# perf_event_open: validation, counting events, ioctl discipline
# --------------------------------------------------------------------------

class TestPerfSyscall:
    def test_bad_attrs_einval(self, k, proc):
        for attr, pid, group in [
                (PerfAttr(type=99), 0, -1),                      # bad type
                (PerfAttr(type=PERF_TYPE_SAMPLING), 0, -1),      # freq 0
                (PerfAttr(type=PERF_TYPE_SAMPLING,
                          sample_freq=10**7), 0, -1),            # > max rate
                (PerfAttr(type=PERF_TYPE_COUNTER), 0, -1),       # no config
                (PerfAttr(type=PERF_TYPE_COUNTER, config="x"), -2, -1),
                (PerfAttr(type=PERF_TYPE_COUNTER, config="x"), 0, 5),
        ]:
            with pytest.raises(KernelError):
                k.call(proc, "perf_event_open", attr, pid, -1, group, 0)
        with pytest.raises(KernelError):  # unknown flag bits
            k.call(proc, "perf_event_open",
                   PerfAttr(type=PERF_TYPE_COUNTER, config="x"),
                   0, -1, -1, 0x40000)

    def test_counter_event_counts_and_resets(self, k, proc):
        attr = PerfAttr(type=PERF_TYPE_COUNTER, config="syscall.getpid")
        fd = k.call(proc, "perf_event_open", attr, 0, -1, -1, 0)
        k.call(proc, "ioctl", fd, PERF_EVENT_IOC_RESET, 0)
        for _ in range(5):
            k.call(proc, "getpid")
        val = struct.unpack("<q", k.call(proc, "read", fd, 8))[0]
        assert val == 5
        # reads do not consume: the counter is a level, not a stream
        assert struct.unpack("<q", k.call(proc, "read", fd, 8))[0] == 5
        k.call(proc, "ioctl", fd, PERF_EVENT_IOC_RESET, 0)
        for _ in range(3):
            k.call(proc, "getpid")
        assert struct.unpack("<q", k.call(proc, "read", fd, 8))[0] == 3
        k.call(proc, "ioctl", fd, PERF_EVENT_IOC_DISABLE, 0)
        k.call(proc, "getpid")
        assert struct.unpack("<q", k.call(proc, "read", fd, 8))[0] == 3
        k.call(proc, "ioctl", fd, PERF_EVENT_IOC_ENABLE, 0)
        k.call(proc, "getpid")
        assert struct.unpack("<q", k.call(proc, "read", fd, 8))[0] == 4
        k.call(proc, "close", fd)

    def test_tracepoint_event_without_tracing_on(self, k, proc):
        assert not k.trace.enabled  # probes fire below the enabled gate
        attr = PerfAttr(type=PERF_TYPE_TRACEPOINT, config="syscall_exit")
        fd = k.call(proc, "perf_event_open", attr, 0, -1, -1, 0)
        k.call(proc, "ioctl", fd, PERF_EVENT_IOC_RESET, 0)
        for _ in range(4):
            k.call(proc, "getpid")
        val = struct.unpack("<q", k.call(proc, "read", fd, 8))[0]
        assert val >= 4  # one exit per dispatch, at least
        k.call(proc, "close", fd)
        with pytest.raises(KernelError):  # unknown point name
            k.call(proc, "perf_event_open",
                   PerfAttr(type=PERF_TYPE_TRACEPOINT, config="bogus"),
                   0, -1, -1, 0)

    def test_sampling_deterministic_stream(self):
        """Two identical kernels produce byte-identical sample streams
        (the deterministic clock: one period = period_ns/1000 syscalls)."""
        def capture():
            k = Kernel()
            try:
                proc = k.create_process(["t"], {})
                attr = PerfAttr(type=PERF_TYPE_SAMPLING, sample_freq=1000,
                                ring_capacity=64)
                fd = k.call(proc, "perf_event_open", attr, 0, -1, -1, 0)
                for _ in range(5000):
                    k.call(proc, "getpid")
                return k.call(proc, "read", fd, 1 << 20)
            finally:
                k.trace.close()

        a, b = capture(), capture()
        assert a == b
        recs = decode_perf_records(a)
        # freq 1000 -> period 1 ms -> 1000 opportunities per sample
        assert len(recs) == 5
        assert recs[0].time_ns == 1000 * PERF_OPPORTUNITY_NS
        assert all(not r.is_lost_marker for r in recs)

    def test_sampling_overflow_lost_marker(self, k, proc):
        attr = PerfAttr(type=PERF_TYPE_SAMPLING, sample_freq=100_000,
                        ring_capacity=2)
        fd = k.call(proc, "perf_event_open", attr, 0, -1, -1, 0)
        for _ in range(100):   # period = 10 opportunities -> 10 samples
            k.call(proc, "getpid")
        recs = decode_perf_records(k.call(proc, "read", fd, 1 << 20))
        markers = [r for r in recs if r.is_lost_marker]
        kept = [r for r in recs if not r.is_lost_marker]
        assert len(kept) == 2 and len(markers) == 1
        assert markers[0].lost == 8

    def test_sampling_fd_epollable(self, k, proc):
        attr = PerfAttr(type=PERF_TYPE_SAMPLING, sample_freq=100_000,
                        ring_capacity=64)
        fd = k.call(proc, "perf_event_open", attr, 0, -1, -1, 0)
        ep = k.call(proc, "epoll_create1", 0)
        k.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, fd, EPOLLIN, fd)
        for _ in range(20):
            k.call(proc, "getpid")
        events = k.call(proc, "epoll_pwait", ep, 8, 0)
        assert events and events[0][0] == fd and events[0][1] & EPOLLIN

    def test_ioctl_disable_stops_sampling(self, k, proc):
        attr = PerfAttr(type=PERF_TYPE_SAMPLING, sample_freq=100_000,
                        ring_capacity=64)
        fd = k.call(proc, "perf_event_open", attr, 0, -1, -1, 0)
        ep = k.call(proc, "epoll_create1", 0)
        k.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, fd, EPOLLIN, fd)
        k.call(proc, "ioctl", fd, PERF_EVENT_IOC_DISABLE, 0)
        assert not k.perf.active
        for _ in range(50):
            k.call(proc, "getpid")
        assert k.call(proc, "epoll_pwait", ep, 8, 0) == []  # nothing sampled
        k.call(proc, "ioctl", fd, PERF_EVENT_IOC_ENABLE, 0)
        assert k.perf.active
        for _ in range(50):
            k.call(proc, "getpid")
        assert k.call(proc, "epoll_pwait", ep, 8, 0)
        assert decode_perf_records(k.call(proc, "read", fd, 1 << 20))

    def test_proc_perf_status(self, k, proc):
        attr = PerfAttr(type=PERF_TYPE_SAMPLING, sample_freq=997,
                        ring_capacity=16)
        k.call(proc, "perf_event_open", attr, -1, -1, -1, 0)
        text = read_all(k, proc, "/proc/perf").decode()
        assert "perf_event_max_sample_rate: 100000" in text
        assert "sampling_events: 1" in text and "active: 1" in text
        assert "freq_hz=997" in text and "scope=-1" in text


# --------------------------------------------------------------------------
# writable /proc knobs
# --------------------------------------------------------------------------

class TestKnobs:
    def test_perf_max_sample_rate_knob(self, k, proc):
        path = "/proc/sys/kernel/perf_event_max_sample_rate"
        assert knob_read(k, proc, path).strip() == "100000"
        knob_write(k, proc, path, "500\n")
        assert k.perf.max_sample_rate == 500
        with pytest.raises(KernelError):
            k.call(proc, "perf_event_open",
                   PerfAttr(type=PERF_TYPE_SAMPLING, sample_freq=997),
                   0, -1, -1, 0)
        # a zero-byte write is a no-op before it reaches the device
        for bad in ("frogs", "0", "-3", str(10**10)):
            with pytest.raises(KernelError):
                knob_write(k, proc, path, bad)
        assert k.perf.max_sample_rate == 500

    def test_wan_knobs_read_write(self):
        k = Kernel(net_backend="wan:latency_ms=5,loss=0.0")
        try:
            proc = k.create_process(["t"], {})
            assert knob_read(
                k, proc, "/proc/sys/net/wan/latency_ms").strip() == "5"
            knob_write(k, proc, "/proc/sys/net/wan/latency_ms", "12.5\n")
            assert k.net.latency_ns == 12_500_000
            knob_write(k, proc, "/proc/sys/net/wan/loss", "0.25")
            assert k.net.loss == 0.25
            knob_write(k, proc, "/proc/sys/net/wan/bw_kbps", "64")
            assert k.net.bw_kbps == 64
            for path, bad in [("/proc/sys/net/wan/loss", "1.5"),
                              ("/proc/sys/net/wan/reorder", "-0.1"),
                              ("/proc/sys/net/wan/jitter_ms", "nope")]:
                with pytest.raises(KernelError):
                    knob_write(k, proc, path, bad)
        finally:
            k.trace.close()

    def test_wan_knobs_absent_on_loopback(self, k, proc):
        with pytest.raises(KernelError):
            k.call(proc, "openat", AT_FDCWD, "/proc/sys/net/wan/loss",
                   O_RDONLY, 0)


# --------------------------------------------------------------------------
# exact stacks from a known-shape guest
# --------------------------------------------------------------------------

_SHAPE_SOURCE = r"""
extern func SYS_getpid() -> i64 from "wali";

func lvl3() {
    var i: i32 = 0;
    while (i < 3000) { SYS_getpid(); i = i + 1; }
}
func lvl2() { lvl3(); }
func lvl1() { lvl2(); }
export func _start() { lvl1(); }
"""


class TestGuestStacks:
    def _capture(self):
        from repro.cc import compile_source
        from repro.wali import WaliRuntime

        rt = WaliRuntime()
        module = compile_source(_SHAPE_SOURCE, name="shape")
        wp = rt.load(module, argv=["shape"])
        # the levels run compiled: their frames come off the Python stack
        names = [f.name for f in module.funcs]
        n_imp = module.num_imported_funcs
        for name in ("lvl1", "lvl2", "lvl3"):
            assert wp.instance.funcs[n_imp + names.index(name)].native
        attr = PerfAttr(type=PERF_TYPE_SAMPLING, sample_freq=1000,
                        ring_capacity=64)
        event = rt.kernel.perf.open_event(wp.proc, attr, wp.proc.pid,
                                          -1, -1, 0)
        assert wp.run() == 0
        data = event.ring.read_step(1 << 20)
        event.close()
        rt.kernel.trace.close()
        return data

    def test_exact_known_shape_stack(self):
        recs = decode_perf_records(self._capture())
        assert len(recs) >= 2
        for r in recs:
            assert r.frames == ("_start", "lvl1", "lvl2", "lvl3")
            assert not r.is_lost_marker
        f = from_samples(recs)
        assert list(f) == [("_start", "lvl1", "lvl2", "lvl3")]

    def test_tick_sample_reads_the_tasks_thread(self):
        """A tick-driven sample runs on another task's thread: it reads
        the sampled task's compiled frames off that task's thread."""
        from repro.apps import with_libc
        from repro.cc import compile_source
        from repro.kernel import SIGKILL
        from repro.kernel.perf import _walk_frames
        from repro.wali import WaliRuntime

        rt = WaliRuntime()
        wp = rt.load(compile_source(with_libc(r"""
buffer flag[4];
func spin() { while (load32(flag) == 0) { } }
export func _start() { SYS_getpid(); spin(); }
"""), name="spin"))
        wp.start_in_thread()
        deadline = time.monotonic() + 10
        while wp.machine.native_depth == 0:
            assert time.monotonic() < deadline, "never entered spin"
            time.sleep(0.001)
        try:
            assert _walk_frames(wp.proc, tick=True) == ("_start", "spin")
        finally:
            rt.kernel.call(rt.kernel.process(1), "kill", wp.proc.pid,
                           SIGKILL)
            wp.join(5)
        assert not wp.thread.is_alive()
        rt.kernel.trace.close()

    def test_capture_deterministic_across_runs(self):
        assert self._capture() == self._capture()

    def test_name_section_roundtrip(self):
        from repro.cc import compile_source
        from repro.wasm import decode_module, encode_module

        m = compile_source(_SHAPE_SOURCE, name="shape")
        m2 = decode_module(encode_module(m))
        assert [f.name for f in m2.funcs] == [f.name for f in m.funcs]
        assert "lvl3" in [f.name for f in m2.funcs]

    def test_instructions_event_on_guest(self):
        from repro.cc import compile_source
        from repro.wali import WaliRuntime

        rt = WaliRuntime()
        module = compile_source(_SHAPE_SOURCE, name="shape")
        wp = rt.load(module, argv=["shape"])
        attr = PerfAttr(type=PERF_TYPE_COUNTER, config="instructions")
        event = rt.kernel.perf.open_event(wp.proc, attr, wp.proc.pid,
                                          -1, -1, 0)
        assert event.value() == 0
        assert wp.run() == 0
        assert event.value() > 3000  # at least one op per loop iteration
        rt.kernel.trace.close()


# --------------------------------------------------------------------------
# the guest perf tool
# --------------------------------------------------------------------------

class TestPerfGuestTool:
    def test_perf_stat_counts_exactly(self):
        from repro.apps import build
        from repro.wali import WaliRuntime

        rt = WaliRuntime()
        assert rt.run(build("perf"),
                      argv=["perf", "stat", "syscall.getpid", "200"]) == 0
        out = rt.kernel.console_output()
        assert b"perf stat syscall.getpid: 200" in out
        rt.kernel.trace.close()

    def test_perf_stat_tracepoint(self):
        from repro.apps import build
        from repro.wali import WaliRuntime

        rt = WaliRuntime()
        assert rt.run(build("perf"),
                      argv=["perf", "stat", "tracepoint:syscall_exit",
                            "50"]) == 0
        out = rt.kernel.console_output().decode()
        count = int(out.split("perf stat syscall_exit: ")[1].split()[0])
        assert count >= 50
        rt.kernel.trace.close()

    def test_perf_record_self_profile(self):
        from repro.apps import build
        from repro.wali import WaliRuntime

        rt = WaliRuntime()
        rt.install_binary("/bin/perf.wasm", build("perf"))
        assert rt.run("/bin/perf.wasm",
                      argv=["perf", "record", "100000", "10", "0"]) == 0
        out = rt.kernel.console_output().decode()
        folded = [ln for ln in out.splitlines() if ";" in ln]
        assert len(folded) == 10
        # binfmt round trip kept real function names for every frame
        for ln in folded:
            assert ln.startswith("_start;do_record")
            assert "?" not in ln
        assert "perf: 10 samples lost=0" in out
        rt.kernel.trace.close()

    def test_perf_report_aggregates(self):
        from repro.apps import build
        from repro.wali import WaliRuntime

        rt = WaliRuntime()
        assert rt.run(build("perf"),
                      argv=["perf", "report", "100000", "8", "0"]) == 0
        out = rt.kernel.console_output().decode()
        agg = [ln for ln in out.splitlines()
               if ";" in ln and ln.rsplit(" ", 1)[-1].isdigit()]
        assert agg
        assert sum(int(ln.rsplit(" ", 1)[1]) for ln in agg) == 8
        assert "perf: 8 samples" in out
        rt.kernel.trace.close()


# --------------------------------------------------------------------------
# acceptance: profiling the memcached echo serving loop from inside
# --------------------------------------------------------------------------

class TestMemcachedProfile:
    def test_record_hottest_frames_are_serving_loop(self):
        from repro.apps import build
        from repro.wali import WaliRuntime

        rt = WaliRuntime()
        # event-loop mode: one pid owns the whole serving loop
        server = rt.load(build("mini_memcached"),
                         argv=["memcached", "11211", "-e"])
        server.start_in_thread()
        for _ in range(500):
            if b"ready" in rt.kernel.console_output():
                break
            time.sleep(0.01)
        profiler = rt.load(
            build("perf"),
            argv=["perf", "record", "100000", "8",
                  str(server.proc.pid)])
        profiler.start_in_thread()
        client = rt.load(build("memcached_client"),
                         argv=["client", "11211", "40", "1"])
        assert client.run() == 0
        profiler.join(15)
        assert profiler.exit_status == 0

        out = rt.kernel.console_output().decode()
        folded = [ln for ln in out.splitlines() if ";" in ln
                  and ": " not in ln]
        assert folded, out
        profile = unfold("\n".join(folded))
        # every sampled stack is the serving loop, symbolized end to end
        serving = {"ev_serve", "ev_conn", "handle_line", "reply"}
        for stack in profile:
            assert stack[0] == "_start", stack
            assert "?" not in stack, stack
            assert serving & set(stack), stack
        # the serving loop owns 100% of inclusive samples, and the
        # hottest stack runs through it (its leaves are the libc
        # read/epoll wrappers the loop parks in — exactly what a real
        # profile of an event server looks like)
        assert frame_totals(profile)["ev_serve"][0] == \
            total_samples(profile)
        hot_stack = max(profile, key=profile.get)
        assert serving & set(hot_stack), hot_stack
        fg = render_flamegraph(profile)
        assert "ev_serve" in fg
        rt.kernel.trace.close()
