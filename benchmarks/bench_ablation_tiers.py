"""Ablation — execution tiers and safepoint schemes.

Two engine-level design decisions the repository makes (mirroring the
paper's WAMR interp-vs-AoT split and §3.3's safepoint discussion):

1. **interpreter vs compiled tier**: the explicit-state interpreter is what
   makes fork/reentrancy possible; the compiled tier is several times
   faster but cannot fork (engine restriction, §3.6 item 5).  WALI runs
   both (``tier_up="fork_free"``): every function that reaches no fork,
   clone or ``execve`` import compiled, the paths to those calls
   interpreted.  The native tier compiles every function
   (``tier_up="all"``).  This bench quantifies
   the gap on a compute kernel and on a full guest workload.
2. **zero-copy vs struct-copy syscall paths** (§3.2): compares a pure
   passthrough (write) against a layout-converting call (fstat) to show the
   ABI-conversion premium the paper mentions for the <10% struct calls.
"""

import time

from common import save_report

from repro.apps import build, with_libc
from repro.cc import compile_source
from repro.metrics import table
from repro.virt import lua_workload, run_tier
from repro.wali import WaliHost, WaliRuntime
from repro.wasm import instantiate


def _compute_module():
    return compile_source(with_libc(r"""
export func run(n: i32) -> i32 {
    var acc: i32 = 0;
    var i: i32 = 0;
    while (i < n) {
        acc = (acc ^ (i * 2654435761)) + (acc >> 3);
        i = i + 1;
    }
    return acc;
}
export func _start() { exit(0); }
"""), name="ablate")


def test_ablation_interp_vs_compiled(benchmark):
    module = _compute_module()
    n = 60000

    inst_i = instantiate(module, _stub_imports(module), run_start=False)
    inst_c = instantiate(module, _stub_imports(module), run_start=False,
                         tier_up="all")
    body = inst_c.func_by_name("run").native   # f(machine, *args)

    t0 = time.perf_counter()
    r_interp = inst_i.invoke("run", n)
    t_interp = time.perf_counter() - t0

    def compiled_run():
        return body(inst_c.machine, n)

    r_compiled = benchmark(compiled_run)
    t_compiled_best = benchmark.stats.stats.min
    assert r_interp == r_compiled

    speedup = t_interp / t_compiled_best
    # tier comparison on a full workload (from the Fig. 8 harness)
    wl = lua_workload(300)
    app = build(wl.app)
    run_tier("native", app, wl)  # warm the AoT cache
    wali = run_tier("wali", app, wl)
    native = run_tier("native", app, wl)

    out = [
        "Ablation 1 — execution tier (compute kernel, n=60k):",
        f"  interpreter: {t_interp * 1000:8.2f} ms",
        f"  compiled:    {t_compiled_best * 1000:8.2f} ms "
        f"({speedup:.1f}x faster)",
        "",
        "Full workload (mini-lua, scale 300):",
        f"  WALI tier (mixed): {wali.run_s * 1000:8.1f} ms (forkable, "
        "signal-reentrant; fork-free functions compiled)",
        f"  compiled tier:     {native.run_s * 1000:8.1f} ms (every "
        "function compiled; fork fails — engine restriction, §3.6 item 5)",
        "",
        "The interpreter's explicit machine state buys fork and safepoint "
        "reentrancy; mixed mode pays it only in functions that can reach "
        "a fork, clone or execve.",
    ]
    save_report("ablation_tiers.txt", "\n".join(out))
    assert speedup > 1.5


def test_ablation_zero_copy_vs_struct_copy(benchmark):
    """§3.2: struct-layout calls pay an ABI-conversion premium."""
    rt = WaliRuntime()
    wp = rt.load(_compute_module(), argv=["ablate"])
    # a host with no image binds every name, openat and fstat included
    host = WaliHost(rt, wp)
    ns = host.imports()["wali"]
    buf = 1 << 16
    fd = ns["SYS_openat"].fn(-100 & 0xFFFFFFFF,
                             _cstr(wp, buf + 4096, "/tmp/abl"), 0o102, 0o644)

    def passthrough():
        ns["SYS_write"].fn(fd, buf, 64)

    benchmark.pedantic(passthrough, rounds=50, iterations=20)
    rounds = 1000
    for _ in range(rounds):
        ns["SYS_write"].fn(fd, buf, 64)
        ns["SYS_fstat"].fn(fd, buf)
    write_ns = wp.call_wali_ns["write"] / wp.call_counts["write"]
    fstat_ns = wp.call_wali_ns["fstat"] / wp.call_counts["fstat"]
    out = [
        "Ablation 2 — translation path (WALI-layer ns/call):",
        f"  write (zero-copy view):       {write_ns:8.0f} ns",
        f"  fstat (kstat ABI conversion): {fstat_ns:8.0f} ns "
        f"({fstat_ns / max(write_ns, 1):.1f}x)",
        "",
        f"zero-copy translations so far: {wp.zero_copy_calls}; "
        f"struct-copy calls: {wp.struct_copy_calls}",
        "paper §3.2: <10% of calls take the copy path; its premium is why "
        "WALI keeps a dedicated portable layout for the few "
        "structured arguments.",
    ]
    save_report("ablation_translation.txt", "\n".join(out))
    assert fstat_ns > write_ns


def _stub_imports(module):
    out = {}
    for im in module.imports:
        if im.kind == "func":
            out.setdefault(im.module, {})[im.name] = lambda *a: 0
    return out


def _cstr(wp, addr, s):
    wp.instance.memory.write_cstr(addr, s.encode())
    return addr
