"""The kernel observability layer: tracepoints, the trace ring,
/proc files, counters, latency histograms, and the ktop guest app."""

import os
import struct

import pytest

from repro.kernel import (
    AF_INET, AT_FDCWD, EPOLL_CTL_ADD, EPOLLIN, Kernel, KernelError,
    KernelTrace, O_NONBLOCK, O_RDONLY, O_WRONLY, SOCK_DGRAM, TRACEPOINTS,
    TRACE_RECORD_SIZE, TraceBuffer, create_trace, decode_records,
    hist_bucket,
)
from repro.kernel.errno import EINVAL
from repro.kernel.trace import (
    CounterRegistry, TRACE_DROP_ID, TRACE_FLAG_DROP, TraceEvent,
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


def trace_ctl(k, proc, cmd):
    fd = k.call(proc, "openat", AT_FDCWD, "/proc/trace_ctl", O_WRONLY, 0)
    k.call(proc, "write", fd, cmd.encode())
    k.call(proc, "close", fd)


# --------------------------------------------------------------------------
# the ring buffer
# --------------------------------------------------------------------------

class TestTraceBuffer:
    def _ev(self, i):
        return TraceEvent(1000 + i, 0, 0, 1, i, "x")

    def test_push_read_roundtrip(self):
        buf = TraceBuffer(capacity=8)
        for i in range(3):
            buf.push(self._ev(i))
        data = buf.read_step(4096)
        recs = decode_records(data)
        assert [r.arg for r in recs] == [0, 1, 2]
        assert all(r.point == "sched_switch" for r in recs)

    def test_empty_read_eagain(self):
        buf = TraceBuffer(capacity=8)
        with pytest.raises(KernelError) as e:
            buf.read_step(4096)
        assert "EAGAIN" in str(e.value)

    def test_short_read_buffer_einval(self):
        buf = TraceBuffer(capacity=8)
        buf.push(self._ev(0))
        with pytest.raises(KernelError):
            buf.read_step(TRACE_RECORD_SIZE - 1)

    def test_read_drains_whole_records_only(self):
        buf = TraceBuffer(capacity=8)
        for i in range(5):
            buf.push(self._ev(i))
        data = buf.read_step(TRACE_RECORD_SIZE * 2 + 17)
        assert len(data) == TRACE_RECORD_SIZE * 2
        assert len(buf) == 3

    def test_overflow_single_marker(self):
        buf = TraceBuffer(capacity=4)
        for i in range(10):
            buf.push(self._ev(i))
        assert len(buf) == 5  # capacity + the one marker
        assert buf.dropped == 6
        recs = decode_records(buf.read_step(4096))
        markers = [r for r in recs if r.is_drop_marker]
        assert len(markers) == 1
        assert markers[0].arg == 6  # counts every swallowed event
        assert markers[0].info == "overflow"

    def test_marker_clears_on_drain(self):
        buf = TraceBuffer(capacity=2)
        for i in range(4):
            buf.push(self._ev(i))
        buf.read_step(4096)
        buf.push(self._ev(9))
        recs = decode_records(buf.read_step(4096))
        assert len(recs) == 1 and not recs[0].is_drop_marker

    def test_bad_capacity_einval(self):
        with pytest.raises(KernelError):
            TraceBuffer(capacity=0)

    def test_poll_and_wake(self):
        buf = TraceBuffer(capacity=4)
        assert buf.poll_events() == 0
        woken = []
        buf.wq.subscribe(woken.append)
        buf.push(self._ev(0))
        assert buf.poll_events() == EPOLLIN
        assert woken and woken[0] & EPOLLIN

    def test_close_is_noop(self):
        buf = TraceBuffer(capacity=4)
        buf.push(self._ev(0))
        buf.close()
        assert len(buf) == 1  # shared ring survives fd close


class TestCounterRegistry:
    def test_inc_get_snapshot(self):
        c = CounterRegistry()
        c.inc("a.b")
        c.inc("a.b", 4)
        c.inc("z.zero", 0)
        assert c.get("a.b") == c["a.b"] == 5
        assert c.get("missing") == 0
        assert c.snapshot() == {"a.b": 5}  # zeros filtered
        c.clear()
        assert c.snapshot() == {}


# --------------------------------------------------------------------------
# KernelTrace: clock, mask, control language
# --------------------------------------------------------------------------

class TestKernelTrace:
    def test_disabled_emit_is_dropped(self):
        t = KernelTrace()
        t.emit("sched_switch", pid=1)
        assert len(t.buffer) == 0

    def test_logical_clock_deterministic(self):
        a, b = KernelTrace(), KernelTrace()
        a.enable(), b.enable()
        for t in (a, b):
            t.emit("sched_switch", pid=1)
            t.emit("sched_wakeup", pid=2)
        ra = decode_records(a.buffer.read_step(4096))
        rb = decode_records(b.buffer.read_step(4096))
        assert [r.ts_ns for r in ra] == [r.ts_ns for r in rb]
        assert ra[0].ts_ns < ra[1].ts_ns
        a.close(), b.close()

    def test_mask_filters(self):
        t = KernelTrace()
        t.enable()
        t.set_mask({"net_drop"})
        t.emit("sched_switch", pid=1)
        t.emit("net_drop", arg=9)
        recs = decode_records(t.buffer.read_step(4096))
        assert [r.point for r in recs] == ["net_drop"]

    def test_unknown_mask_einval(self):
        t = KernelTrace()
        with pytest.raises(KernelError):
            t.set_mask({"bogus_point"})

    def test_control_language(self):
        t = KernelTrace()
        t.control("mask=syscall_enter,syscall_exit\non\n")
        assert t.enabled and t.mask == {"syscall_enter", "syscall_exit"}
        t.control("+net_drop; -syscall_exit")
        assert t.mask == {"syscall_enter", "net_drop"}
        t.control("mask=none")
        assert t.mask == set()
        t.control("mask=all")
        assert t.mask == set(TRACEPOINTS)
        t.enable()
        t.emit("net_drop")
        t.control("clear")
        assert len(t.buffer) == 0
        t.control("off")
        assert not t.enabled

    def test_control_bad_command_einval(self):
        t = KernelTrace()
        for bad in ("bogus", "+nope", "mask=what"):
            with pytest.raises(KernelError):
                t.control(bad)

    def test_create_trace_specs(self):
        for removed in ("off", "none"):
            with pytest.raises(KernelError) as exc:
                create_trace(removed)
            assert exc.value.errno == EINVAL
        assert create_trace(None).enabled is False
        on = create_trace("on")
        assert on.enabled is True
        on.close()
        inst = KernelTrace()
        assert create_trace(inst) is inst
        with pytest.raises(KernelError):
            create_trace("sideways")

    def test_status_text(self):
        t = KernelTrace()
        t.enable()
        t.set_mask({"net_drop"})
        t.emit("net_drop")
        text = t.status_text()
        assert "tracing: on" in text
        assert "+net_drop" in text and "-sched_switch" in text
        assert "trace.events: 1" in text


class TestHistograms:
    def test_bucket_geometry(self):
        assert hist_bucket(0) == 0
        assert hist_bucket(-5) == 0
        assert hist_bucket(1) == 1
        assert hist_bucket(1023) == 10
        assert hist_bucket(1024) == 11
        assert hist_bucket(1 << 70) == 63  # clamps

    def test_kernel_call_splits_service_and_wait(self, k, proc,
                                                 monkeypatch):
        """``Kernel.call`` books the task's runnable wait during the call
        in the wait histogram, and the rest of its time as service."""
        k.call(proc, "getppid")
        enter = k.sched.syscall_enter

        def queued(p):      # as if the task waited 3 µs for a CPU slot
            enter(p)
            p.se.wait_ns += 3000

        monkeypatch.setattr(k.sched, "syscall_enter", queued)
        k.call(proc, "getppid")
        assert sum(k.trace.service_hist["getppid"]) == 2
        wait = k.trace.wait_hist["getppid"]  # zero wait not recorded
        assert sum(wait) == 1 and wait[hist_bucket(3000)] == 1

    def test_histograms_always_on(self, k, proc):
        assert not k.trace.enabled
        k.call(proc, "getpid")
        assert sum(k.trace.service_hist["getpid"]) == 1


# --------------------------------------------------------------------------
# the kernel wiring: syscall tracepoints, exact records, /proc surface
# --------------------------------------------------------------------------

class TestSyscallTracepoints:
    def test_exact_enter_exit_records(self, k, proc):
        k.trace.set_mask({"syscall_enter", "syscall_exit"})
        k.trace.enable()
        k.call(proc, "getpid")
        k.trace.disable()
        recs = [r for r in decode_records(k.trace.buffer.read_step(65536))
                if r.info == "getpid"]
        assert [(r.point, r.pid, r.arg) for r in recs] == [
            ("syscall_enter", proc.pid, 0),
            ("syscall_exit", proc.pid, 0),
        ]

    def test_exit_carries_errno(self, k, proc):
        k.trace.set_mask({"syscall_exit"})
        k.trace.enable()
        with pytest.raises(KernelError):
            k.call(proc, "openat", AT_FDCWD, "/does/not/exist", O_RDONLY, 0)
        k.trace.disable()
        recs = decode_records(k.trace.buffer.read_step(65536))
        bad = [r for r in recs if r.info == "openat"]
        assert bad and bad[0].arg == -2  # -ENOENT

    def test_sched_tracepoints_fire(self, k, proc):
        k.trace.set_mask({"sched_switch"})
        k.trace.enable()
        k.call(proc, "getpid")
        k.trace.disable()
        recs = decode_records(k.trace.buffer.read_step(65536))
        assert any(r.point == "sched_switch" for r in recs)

    def test_wq_wake_hook_attaches_only_when_wanted(self, k, proc):
        from repro.kernel.eventpoll import _wake_hooks
        assert k.trace._wq_hook is None
        k.trace.enable()
        assert k.trace._wq_hook in _wake_hooks
        k.trace.set_mask({"syscall_exit"})
        assert k.trace._wq_hook is None
        k.trace.disable()

    def test_wq_wake_traces_eventfd_write(self, k, proc):
        k.trace.set_mask({"wq_wake"})
        k.trace.enable()
        efd = k.call(proc, "eventfd2", 0, 0)
        k.call(proc, "write", efd, struct.pack("<Q", 1))
        k.trace.disable()
        recs = decode_records(k.trace.buffer.read_step(65536))
        assert any(r.point == "wq_wake" and r.arg & EPOLLIN for r in recs)


class TestProcObservability:
    def test_sched_debug_lists_tasks(self, k, proc):
        text = read_all(k, proc, "/proc/sched_debug").decode()
        assert text.startswith("sched:cpus=")
        assert f"\n    {proc.pid} t" in text or f" {proc.pid} t" in text

    def test_proc_stat_has_sched_fields(self, k, proc):
        text = read_all(k, proc, f"/proc/{proc.pid}/stat").decode()
        fields = text.split()
        assert fields[0] == str(proc.pid)
        assert len(fields) >= 10  # classic columns + nice/vrt/wait/cpu

    def test_proc_status_has_observability_lines(self, k, proc):
        text = read_all(k, proc, "/proc/self/status").decode()
        for key in ("Nice:", "VRuntime:", "WaitNs:", "ServiceNs:",
                    "FDSize:"):
            assert key in text

    def test_uring_stats_count_submissions(self, k, proc):
        from repro.kernel import IORING_OP_NOP, SQE
        fd = k.call(proc, "io_uring_setup", 8)
        k.call(proc, "io_uring_enter", fd, [SQE(IORING_OP_NOP)], 1)
        text = read_all(k, proc, "/proc/uring").decode()
        assert "sqes_submitted: 1" in text
        assert "cqes_completed: 1" in text
        assert k.trace.counters["uring.submitted"] == 1

    def test_sockstat_counts_deliveries(self, k, proc):
        a = k.call(proc, "socket", AF_INET, SOCK_DGRAM, 0)
        b = k.call(proc, "socket", AF_INET, SOCK_DGRAM, 0)
        k.call(proc, "bind", b, ("127.0.0.1", 7001))
        k.call(proc, "sendto", a, b"ping", ("127.0.0.1", 7001))
        text = read_all(k, proc, "/proc/net/sockstat").decode()
        assert "backend: loopback" in text
        assert "delivered: 1" in text
        assert "delivered_bytes: 4" in text

    def test_wan_loss_counted_and_traced(self):
        k = Kernel(net_backend="wan:latency_ms=0,loss=1.0")
        try:
            proc = k.create_process(["t"], {})
            k.trace.set_mask({"net_drop"})
            k.trace.enable()
            a = k.call(proc, "socket", AF_INET, SOCK_DGRAM, 0)
            b = k.call(proc, "socket", AF_INET, SOCK_DGRAM, 0)
            k.call(proc, "bind", b, ("127.0.0.1", 7002))
            k.call(proc, "sendto", a, b"doomed", ("127.0.0.1", 7002))
            k.trace.disable()
            assert k.trace.counters["net.drop"] == 1
            recs = decode_records(k.trace.buffer.read_step(65536))
            drops = [r for r in recs if r.point == "net_drop"]
            assert drops and drops[0].arg == 6 and drops[0].info == "loss"
            text = read_all(k, proc, "/proc/net/sockstat").decode()
            assert "dropped: 1" in text
        finally:
            k.trace.close()

    def test_inotify_enqueue_counted(self, k, proc):
        k.call(proc, "mkdirat", AT_FDCWD, "/tmp/tw", 0o755)
        ifd = k.call(proc, "inotify_init1", 0)
        k.call(proc, "inotify_add_watch", ifd, "/tmp/tw", 0x100)  # IN_CREATE
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/tw/f", 0o101, 0o644)
        k.call(proc, "close", fd)
        assert k.trace.counters["inotify.enqueued"] >= 1
        text = read_all(k, proc, "/proc/inotify").decode()
        assert "enqueued:" in text

    def test_proc_trace_matches_status_text(self, k, proc):
        text = read_all(k, proc, "/proc/trace").decode()
        assert "tracing: off" in text
        assert "+syscall_enter" in text


class TestTracePipe:
    def test_tail_through_epoll(self, k, proc):
        trace_ctl(k, proc, "mask=syscall_enter,syscall_exit\non\n")
        tfd = k.call(proc, "openat", AT_FDCWD, "/proc/trace_pipe",
                     O_RDONLY | O_NONBLOCK, 0)
        ep = k.call(proc, "epoll_create1", 0)
        k.call(proc, "epoll_ctl", ep, EPOLL_CTL_ADD, tfd, EPOLLIN, tfd)
        events = k.call(proc, "epoll_pwait", ep, 8, 1_000_000_000)
        assert events and events[0][0] == tfd
        assert events[0][1] & EPOLLIN
        data = k.call(proc, "read", tfd, 65536)
        assert len(data) % TRACE_RECORD_SIZE == 0 and data
        recs = decode_records(data)
        # the stream starts at our own ctl write: openat enter first
        assert recs[0].point == "syscall_exit"  # ctl write's exit record
        assert all(r.pid == proc.pid for r in recs)
        trace_ctl(k, proc, "off\n")

    def test_pipe_empty_after_mask_none(self, k, proc):
        trace_ctl(k, proc, "mask=none\non\nclear\n")
        tfd = k.call(proc, "openat", AT_FDCWD, "/proc/trace_pipe",
                     O_RDONLY | O_NONBLOCK, 0)
        with pytest.raises(KernelError) as e:
            k.call(proc, "read", tfd, 4096)
        assert "EAGAIN" in str(e.value)
        trace_ctl(k, proc, "off\n")

    def test_trace_on_from_boot(self):
        k = Kernel(trace="on")
        try:
            proc = k.create_process(["t"], {})
            k.call(proc, "getpid")
            assert len(k.trace.buffer) > 0
        finally:
            k.trace.close()


# --------------------------------------------------------------------------
# the metrics layer
# --------------------------------------------------------------------------

class TestTraceReport:
    def test_percentiles_from_log2_buckets(self):
        from repro.metrics import hist_percentile
        buckets = [0] * 64
        buckets[5] = 90   # 90 samples ~24 ns
        buckets[10] = 10  # 10 samples ~768 ns
        p50 = hist_percentile(buckets, 0.50)
        p99 = hist_percentile(buckets, 0.99)
        assert p50 == 24 and p99 == 768
        assert hist_percentile([0] * 64, 0.99) == 0

    def test_latency_table_renders(self, k, proc):
        from repro.metrics import latency_rows, latency_table
        for _ in range(10):
            k.call(proc, "getpid")
        rows = latency_rows(k.trace)
        names = [r[0] for r in rows]
        assert "getpid" in names
        text = latency_table(k.trace)
        assert "svc p99 ns" in text and "getpid" in text

    def test_event_summary_per_subsystem(self, k, proc):
        from repro.metrics import render_trace_report, summarize_events
        k.trace.set_mask({"syscall_enter", "syscall_exit", "sched_switch"})
        k.trace.enable()
        k.call(proc, "getpid")
        k.trace.disable()
        data = k.trace.buffer.read_step(65536)
        summary = summarize_events(decode_records(data))
        assert summary["syscall"]["events"] >= 2
        assert summary["syscall"]["syscall_enter"] >= 1
        report = render_trace_report(k.trace, data)
        assert "syscall latency" in report and "subsystem" in report

    def test_summary_counts_drop_markers(self):
        from repro.metrics import summarize_events
        t = KernelTrace(capacity=2)
        t.enable()
        for _ in range(5):
            t.emit("net_drop")
        recs = decode_records(t.buffer.read_step(4096))
        summary = summarize_events(recs)
        assert summary["net"]["events"] == 2
        assert summary["other"]["dropped"] == 3
        t.close()

    def test_counter_snapshot_single_source(self, k, proc):
        from repro.metrics import counter_snapshot
        k.call(proc, "getpid")
        snap = dict(counter_snapshot(k))
        assert snap.get("sched.switch") == k.trace.counters["sched.switch"]


# --------------------------------------------------------------------------
# the ktop guest app
# --------------------------------------------------------------------------

class TestKtopGuest:
    def test_ktop_reads_proc_and_tails_pipe(self):
        from repro.apps import build
        from repro.wali import WaliRuntime

        rt = WaliRuntime()
        wp = rt.load(build("ktop"), argv=["ktop", "6"])
        assert wp.run() == 0
        out = rt.kernel.console_output()
        assert b"ktop ok sched=1 uring=1 records=" in out
        assert b"aligned=1" in out
        records = int(out.split(b"records=")[1].split(b" ")[0])
        assert records >= 6
        # ktop switched the tracer off on its way out
        assert rt.kernel.trace.enabled is False
        rt.kernel.trace.close()


# --------------------------------------------------------------------------
# packet capture: to_pcap golden file (--pcap on the examples)
# --------------------------------------------------------------------------

class TestPcapGolden:
    def _fixed_tap(self):
        from repro.kernel.net.base import PacketRecord, PacketTap
        tap = PacketTap()
        tap.records.append(PacketRecord(
            1_000_000_000, "data", ("127.0.0.1", 40001), ("127.0.0.1", 80),
            b"GET / HTTP/1.0\r\n\r\n"))
        tap.records.append(PacketRecord(
            1_000_250_000, "dgram", ("127.0.0.1", 5353), ("127.0.0.1", 53),
            b"query"))
        tap.records.append(PacketRecord(
            1_001_500_000, "eof", ("127.0.0.1", 40001), ("127.0.0.1", 80),
            b""))
        return tap

    def test_to_pcap_matches_golden(self):
        golden = os.path.join(os.path.dirname(__file__), "data",
                              "tap_golden.pcap")
        with open(golden, "rb") as f:
            assert self._fixed_tap().to_pcap() == f.read()

    def test_pcap_structure(self):
        data = self._fixed_tap().to_pcap()
        magic, vmaj, vmin, tz, sig, snaplen, link = struct.unpack_from(
            "<IHHiIII", data, 0)
        assert (magic, vmaj, vmin, link) == (0xA1B2C3D4, 2, 4, 147)
        # first record header: ts 1.000000s, 18-byte payload
        sec, usec, caplen, origlen = struct.unpack_from("<IIII", data, 24)
        assert (sec, usec, caplen, origlen) == (1, 0, 18, 18)
        assert data[40:58] == b"GET / HTTP/1.0\r\n\r\n"
        # total size: 24 global + 3 * (16 + payload)
        assert len(data) == 24 + 3 * 16 + 18 + 5 + 0
