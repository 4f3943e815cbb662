"""Observability-layer overhead over the memcached echo workload.

Two kernel configurations run the identical guest binaries
(mini-memcached + its client, every request a blocking round trip):

* ``disabled`` — the default ``Kernel()``: tracepoints compiled in but
  tracing off.  Every emit site pays two attribute loads and a set
  test; the always-on latency histograms pay one log2-bucket increment
  per syscall.  It records no trace events.
* ``enabled``  — ``Kernel(trace="on")`` with the full tracepoint mask
  and the wq_wake hook attached: every event is stamped, packed and
  pushed through the ring.

The report prices full-mask recording against the disabled kernel; no
timing bound is asserted.  The disabled cost itself is gated exactly,
in Python calls rather than seconds, by ``tests/test_crossing_cost.py``
(per syscall crossing) and ``tests/test_op_cost.py`` (per sqlite and
echo op).

Quick mode (``REPRO_BENCH_QUICK=1``) shrinks op counts for CI smoke.
"""

import time

from common import quick_mode, save_report

from repro.apps import build
from repro.kernel import Kernel
from repro.metrics import table
from repro.wali import WaliRuntime

QUICK = quick_mode()

NOPS = 30 if QUICK else 120
ROUNDS = 2 if QUICK else 3

CONFIGS = [
    ("disabled", None),
    ("enabled", "on"),
]


def _echo_run_s(trace_spec):
    """One memcached server+client session; wall seconds of the client."""
    kernel = Kernel(trace=trace_spec)
    rt = WaliRuntime(kernel=kernel)
    server = rt.load(build("mini_memcached"), argv=["memcached", "11211"])
    server.start_in_thread()
    for _ in range(500):
        if b"ready" in rt.kernel.console_output():
            break
        time.sleep(0.01)
    client = rt.load(build("memcached_client"),
                     argv=["client", "11211", str(NOPS), "1"])
    t0 = time.perf_counter()
    status = client.run()
    elapsed = time.perf_counter() - t0
    server.join(5)
    assert status == 0, f"client failed with trace={trace_spec!r}"
    assert b"client ok" in rt.kernel.console_output()
    events = kernel.counters["trace.events"]
    kernel.trace.close()
    return elapsed, events


def test_trace_overhead(benchmark):
    def sweep():
        out = {}
        for label, spec in CONFIGS:
            runs = [_echo_run_s(spec) for _ in range(ROUNDS)]
            out[label] = {
                "best_s": min(r[0] for r in runs),
                "events": max(r[1] for r in runs),
            }
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    base = results["disabled"]["best_s"]
    rows = []
    for label, _ in CONFIGS:
        r = results[label]
        rows.append((label, f"{r['best_s'] * 1e3:8.1f}",
                     f"{r['best_s'] / base:5.2f}x",
                     r["events"]))
    enabled_ratio = results["enabled"]["best_s"] / base
    out = [
        table(["config", "best ms", "vs disabled", "trace events"], rows),
        "",
        f"{2 * NOPS} blocking round trips, best of {ROUNDS} rounds",
        f"full-mask recording overhead: {(enabled_ratio - 1) * 100:+.1f}%",
        "",
        "tracepoints stay compiled into every hot path (sched grants,",
        "waitqueue wakes, syscall dispatch); disabled they cost two",
        "attribute loads and a set test, gated in Python calls by",
        "tests/test_crossing_cost.py and tests/test_op_cost.py — the",
        "observability layer is always one `echo on > /proc/trace_ctl` away.",
    ]
    save_report("trace_overhead.txt", "\n".join(out))

    # full recording must actually have recorded something, and the
    # disabled kernel nothing
    assert results["enabled"]["events"] > 0, results
    assert results["disabled"]["events"] == 0, results
