"""Fig. 7 — runtime breakdown of WALI across the system stack.

For each application the harness splits wall time into wasm-app, kernel
and WALI-interface shares.  The paper's claims: the WALI layer itself is a
small sliver (<~2.5%); compute apps (lua, paho-bench) are app-dominated
while sqlite spends over half its time in the kernel.
"""

import time

from common import save_report

from repro.apps import build, install_all
from repro.apps.lua import arith_benchmark_script
from repro.apps.sqlite import workload_script
from repro.metrics import measure_breakdown, percent_row
from repro.wali import WaliRuntime


def _measure_all():
    results = []

    results.append(measure_breakdown(
        "lua", build("mini_lua"), argv=["lua", "/tmp/w.lua"],
        files={"/tmp/w.lua": arith_benchmark_script(1200)}))

    rt = WaliRuntime()
    install_all(rt, ["echo", "cat", "wc"])
    script = b"".join(b"echo breakdown %d > /tmp/o.txt\ncat /tmp/o.txt\n" % i
                      for i in range(15)) + b"exit 0\n"
    rt.kernel.vfs.write_file("/tmp/w.sh", script)
    results.append(measure_breakdown(
        "bash", build("mini_sh"), argv=["sh", "/tmp/w.sh"], runtime=rt))

    # sqlite with the storage device latency model on (the paper's
    # testbed has real disks)
    rt = WaliRuntime()
    rt.kernel.storage_latency_ns_per_4k = 120_000
    results.append(measure_breakdown(
        "sqlite3", build("mini_sqlite"),
        argv=["sqlite", "/tmp/w.db", "/tmp/w.sql"],
        files={"/tmp/w.sql": workload_script(120, 240)}, runtime=rt))

    # paho-bench: client measured while the broker runs in the background
    rt = WaliRuntime()
    broker = rt.load(build("mqtt_broker"), argv=["broker", "1883"])
    broker.start_in_thread()
    for _ in range(300):
        if b"ready" in rt.kernel.console_output():
            break
        time.sleep(0.01)
    results.append(measure_breakdown(
        "paho-bench", build("paho_bench"),
        argv=["bench", "1883", "40", "512", "1"], runtime=rt))
    broker.join(5)

    # memcached: the client side drives the server threads
    rt = WaliRuntime()
    server = rt.load(build("mini_memcached"), argv=["memcached", "11211"])
    server.start_in_thread()
    for _ in range(300):
        if b"ready" in rt.kernel.console_output():
            break
        time.sleep(0.01)
    results.append(measure_breakdown(
        "memcached", build("memcached_client"),
        argv=["client", "11211", "80", "1"], runtime=rt))
    server.join(5)

    return results


def test_fig7_runtime_breakdown(benchmark):
    results = benchmark.pedantic(_measure_all, rounds=1, iterations=1)
    lines = ["Runtime breakdown across the system stack "
             "(█=wasm-app ▒=kernel ░=wali)", ""]
    for r in results:
        lines.append(percent_row(r.app, [
            ("app", r.app_pct), ("kernel", r.kernel_pct),
            ("wali", r.wali_pct)]))
    lines += [
        "",
        "paper Fig. 7: lua 97.5/2.4/0.1, bash 75.3/23.6/1.1, "
        "sqlite3 43.8/55.4/0.8, paho-bench 97.6/1.8/0.5, "
        "memcached 87.3/10.3/2.4 (%).",
    ]
    save_report("fig7_breakdown.txt", "\n".join(lines))

    by_app = {r.app: r for r in results}
    # WALI's share is always the smallest component
    for r in results:
        assert r.wali_pct < r.app_pct
        assert r.wali_pct < 15.0
    # compute apps are app-dominated; sqlite is kernel-heavy
    assert by_app["lua"].app_pct > 80.0
    assert by_app["sqlite3"].kernel_pct > by_app["lua"].kernel_pct
