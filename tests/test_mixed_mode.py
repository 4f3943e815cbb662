"""Mixed-mode execution: the compiled tier under the interpreter.

A *leaf* reaches no import through its static call graph, so it can
never enter the host; under ``tier_up="leaves"`` (the WALI default) the
leaves that contain a loop run compiled, called straight from the
interpreter, and under ``"all"`` every function does.  These tests pin
what that may not change: outputs, exit statuses and ``Machine.steps``
match the interpreter exactly under both rules; each instance (fork
child, thread, ``execve`` image) runs the shared compiled code on its own
memory and globals; signals still land at loop safepoints inside a
compiled leaf; and a fork above a compiled frame fails.
"""

import struct
import sys
import threading
import time

import pytest

from repro.apps import build, install_all, with_libc
from repro.cc import compile_source
from repro.kernel import SIGKILL, SIGUSR1
from repro.kernel.errno import EAGAIN
from repro.wali import WaliRuntime
from repro.wasm import F64, I32, ModuleBuilder, Trap, instantiate
from repro.wasm.compile import compiled_functions, leaf_functions
from repro.wasm.flatten import SAFEPOINT_SCHEMES
from repro.wasm.interp import WasmFunc


def _sum_module(name: str, k: int):
    """``w(n)`` calls ``f(n)``, a looping leaf returning sum(i * k) for i
    below n, which calls the loopless leaf ``mul``."""
    mb = ModuleBuilder(name)
    mul = mb.func("mul", params=[I32], results=[I32])
    mul.local_get(0).i32_const(k).op("i32.mul")
    mul.end()
    f = mb.func("f", params=[I32], results=[I32])
    i = f.add_local(I32)
    acc = f.add_local(I32)
    with f.block():
        with f.loop():
            f.local_get(i).local_get(0).op("i32.ge_u").br_if(1)
            f.local_get(acc).local_get(i).call("mul").op("i32.add")
            f.local_set(acc)
            f.local_get(i).i32_const(1).op("i32.add").local_set(i)
            f.br(0)
    f.local_get(acc)
    f.end()
    w = mb.func("w", params=[I32], results=[I32], export=True)
    w.local_get(0).call("f")
    w.end()
    return mb.build()


def _steps(module, func, args, tier_up, scheme="loop", fuel=None):
    inst = instantiate(module, scheme=scheme, tier_up=tier_up)
    machine = inst.machine
    machine.fuel = fuel
    result = machine.invoke(inst.func_by_name(func), list(args))
    return result, machine.steps


class TestLeafRule:
    def test_leaves_reach_no_import_indirect_call_grow_or_cycle(self):
        mb = ModuleBuilder("rule")
        mb.add_memory(1, 2)
        mb.add_table(1)
        mb.import_func("env", "host", params=[], results=[])
        leaf = mb.func("leaf", results=[I32])
        with leaf.loop():
            leaf.i32_const(0).br_if(0)
        leaf.i32_const(1)
        leaf.end()
        calls_leaf = mb.func("calls_leaf", results=[I32])
        calls_leaf.call("leaf")
        calls_leaf.end()
        host = mb.func("calls_host")
        host.call("host")
        host.end()
        above_host = mb.func("above_host")
        above_host.call("calls_host")
        above_host.end()
        indirect = mb.func("indirect")
        indirect.i32_const(0).call_indirect([], [])
        indirect.end()
        grow = mb.func("grow", results=[I32])
        grow.i32_const(1).op("memory.grow")
        grow.end()
        rec = mb.func("rec", params=[I32], results=[I32])
        rec.local_get(0)
        with rec.if_(I32):
            rec.local_get(0).i32_const(1).op("i32.sub").call("rec")
            rec.else_()
            rec.i32_const(0)
        rec.end()
        module = mb.build()
        idx = mb.func_index
        assert leaf_functions(module) == {idx("leaf"): True,
                                          idx("calls_leaf"): False}
        # only the looping leaf runs compiled from the interpreter
        assert set(compiled_functions(module, "loop", "leaves")) == \
            {idx("leaf")}
        n_imp = module.num_imported_funcs
        assert set(compiled_functions(module, "loop", "all")) == \
            set(range(n_imp, n_imp + len(module.funcs)))
        with pytest.raises(ValueError):
            compiled_functions(module, "loop", True)

    def test_two_modules_with_one_name_never_share_compiled_code(self):
        three, five = _sum_module("app", 3), _sum_module("app", 5)
        assert three.name == five.name
        f = three.num_imported_funcs + 1
        assert compiled_functions(three, "loop", "leaves")[f] is not \
            compiled_functions(five, "loop", "leaves")[f]
        assert instantiate(three, tier_up="leaves").invoke("w", 10) == 135
        assert instantiate(five, tier_up="leaves").invoke("w", 10) == 225

    def test_compiled_function_names_do_not_shadow_helpers(self):
        """Compiled leaves share one namespace with the code generator's
        helpers: function 8 (``_f8``) must not replace a memory accessor."""
        mb = ModuleBuilder("names")
        mb.add_memory(1, 1)
        mb.add_data(0, struct.pack("<dd", 2.5, 0.25))
        for i in range(9):
            g = mb.func(f"g{i}", params=[F64], results=[F64])
            g.local_get(0).f64_const(float(i)).op("f64.add")
            g.end()
        f = mb.func("f", params=[I32], results=[F64])
        acc = f.add_local(F64)
        with f.block():
            with f.loop():
                f.local_get(0).op("i32.eqz").br_if(1)
                f.local_get(acc).i32_const(0).op("f64.load", 3, 0)
                f.op("f64.add").call("g8").local_set(acc)
                f.i32_const(16).local_get(acc).op("f64.store", 3, 0)
                f.local_get(0).i32_const(1).op("i32.sub").local_set(0)
                f.br(0)
        f.local_get(acc)
        f.end()
        w = mb.func("w", params=[I32], results=[F64], export=True)
        w.local_get(0).call("f")
        w.end()
        module = mb.build()
        assert mb.func_index("g8") == 8
        assert instantiate(module, tier_up="leaves").invoke("w", 3) == 31.5
        assert instantiate(module).invoke("w", 3) == 31.5
        inst = instantiate(module, tier_up="all")
        assert inst.invoke("w", 3) == 31.5
        assert struct.unpack_from("<d", inst.memory.data, 16)[0] == 31.5

    def test_concurrent_loads_past_the_cache_capacity(self):
        """Guest threads load images concurrently; with more distinct
        images than the compiled-code cache holds, every load still gets
        its own module's code."""
        modules = [_sum_module("app", k) for k in range(100, 180)]
        errors, interval = [], sys.getswitchinterval()

        def load(chunk):
            try:
                for k, module in chunk:
                    got = instantiate(module, tier_up="leaves").invoke(
                        "w", 4)
                    assert got == 6 * k, (k, got)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        chunks = [list(zip(range(100, 180), modules))[i::8]
                  for i in range(8)]
        threads = [threading.Thread(target=load, args=(c,), daemon=True)
                   for c in chunks]
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_same_image_compiles_once(self):
        from repro.wasm import decode_module, encode_module

        image = encode_module(_sum_module("app", 7))
        for rule in ("leaves", "all"):
            first = compiled_functions(decode_module(image), "loop", rule)
            assert compiled_functions(decode_module(image), "loop",
                                      rule) is first
        # the cache key holds the rule: the two rules never share a table
        assert first is not compiled_functions(decode_module(image), "loop",
                                               "leaves")


class TestSteps:
    @pytest.mark.parametrize("scheme", SAFEPOINT_SCHEMES)
    def test_compiled_leaf_retires_the_interpreters_steps(self, scheme):
        module = _sum_module("steps", 3)
        want = _steps(module, "w", [50], None, scheme)
        for rule in ("leaves", "all"):
            assert _steps(module, "w", [50], rule, scheme) == want
        assert want[0] == 3 * 49 * 50 // 2

    @pytest.mark.parametrize("scheme", SAFEPOINT_SCHEMES)
    def test_branch_to_the_function_label(self, scheme):
        """``br_if`` out of a loop straight to the function's label (the
        flat jump lands on the closing ``ret``)."""
        mb = ModuleBuilder("exit")
        f = mb.func("f", params=[I32], results=[I32])
        acc = f.add_local(I32)
        with f.block():
            with f.loop():
                f.local_get(acc).local_get(acc).local_get(0)
                f.op("i32.ge_u").br_if(2).op("drop")
                f.local_get(acc).i32_const(3).op("i32.add").local_set(acc)
                f.br(0)
        f.i32_const(0)
        f.end()
        w = mb.func("w", params=[I32], results=[I32], export=True)
        w.local_get(0).call("f")
        w.end()
        module = mb.build()
        want = _steps(module, "w", [10], None, scheme)
        assert want[0] == 12
        for rule in ("leaves", "all"):
            assert _steps(module, "w", [10], rule, scheme) == want

    def test_fuel_runs_leaves_interpreted(self):
        module = _sum_module("fuel", 3)
        _, total = _steps(module, "w", [20], None)
        # a machine with fuel is an interpreter-only reference...
        for rule in ("leaves", "all"):
            assert _steps(module, "w", [20], rule, fuel=10 ** 9) == \
                _steps(module, "w", [20], None)
        # ...whose fuel trap lands on the same step as without tier-up
        for fuel in (3, total // 2, total - 1):
            traps = []
            for tier_up in (None, "leaves", "all"):
                inst = instantiate(module, tier_up=tier_up)
                inst.machine.fuel = fuel
                with pytest.raises(Trap) as ei:
                    inst.invoke("w", 20)
                traps.append((ei.value.kind, inst.machine.steps))
            assert traps == [("fuel-exhausted", fuel + 1)] * 3

    def test_poll_hook_sees_exact_steps_inside_a_compiled_leaf(self):
        module = _sum_module("polls", 3)
        seen = {}
        for tier_up in (None, "leaves", "all"):
            inst = instantiate(module, tier_up=tier_up)
            machine = inst.machine
            counts = seen[tier_up] = []
            machine.poll_hook = lambda m=machine, c=counts: c.append(
                (m.steps, m.native_depth))
            inst.invoke("w", 6)
        for rule in ("leaves", "all"):
            assert [s for s, _ in seen[rule]] == [s for s, _ in seen[None]]
            assert {d for _, d in seen[rule]} == {1}
        assert {d for _, d in seen[None]} == {0}


# --------------------------------------------------------------------------
# WALI guests: same output, status and steps under each tier-up rule
# --------------------------------------------------------------------------

SQL = (b"insert apple 1\ninsert pear 22\ninsert fig 333\nget pear\n"
       b"delete apple\nget apple\ninsert kiwi 4444\nvacuum\ncount\n"
       b"get fig\nexit\n")
LUA = (b"set i 40\nset s 0\nwhile i\n  mov t i\n  mul t t 37\n"
       b"  mod t t 1009\n  add s s t\n  subi i 1\nend\nprint s\n")
SH = (b"echo thin kernel interface > /data/f.txt\ncat /data/f.txt | wc\n"
      b"wc < /data/f.txt\nexit 0\n")

GUESTS = {
    "mini_sqlite": (["mini_sqlite", "/data/t.db", "/tmp/in"], SQL, []),
    "mini_lua": (["mini_lua", "/tmp/in"], LUA, []),
    "event_echo": (["event_echo", "2", "5"], b"", []),
    "mini_sh": (["mini_sh", "/tmp/in"], SH, ["echo", "cat", "wc"]),
}


def _run_app(app, tier_up, made):
    """Run ``app``; ``made`` is the ``wali_processes`` list, which holds
    every process, reaped children included."""
    argv, script, tools = GUESTS[app]
    rt = WaliRuntime(tier_up=tier_up)
    install_all(rt, tools)
    rt.kernel.vfs.write_file("/tmp/in", script)
    first = len(made)
    status = rt.run(build(app), argv=argv)
    procs = made[first:]
    # per-process counts; the pids of a pipeline's children depend on
    # which thread forks first, so the counts are compared as a multiset
    steps = sorted(wp.machine.steps for wp in procs)
    native = sum(1 for f in procs[0].instance.funcs
                 if isinstance(f, WasmFunc) and f.native is not None)
    return (rt.kernel.console_output(), status, steps), native


@pytest.mark.parametrize("app", sorted(GUESTS))
def test_wali_guest_identical_with_tier_up(app, wali_processes):
    want, none = _run_app(app, None, wali_processes)
    got, native = _run_app(app, "leaves", wali_processes)
    assert none == 0 and native > 0
    assert got == want
    assert want[1] == 0 and want[0]
    if app == "mini_sh":   # every forked child is compared
        assert len(want[2]) > 1
    else:   # the shell forks, which "all" refuses
        got, native = _run_app(app, "all", wali_processes)
        assert native == len(build(app).funcs)
        assert got == want


# --------------------------------------------------------------------------
# per-instance binding, signals and fork under a compiled leaf
# --------------------------------------------------------------------------

def _guest(source, name):
    return compile_source(with_libc(source), name=name)


def test_fork_child_and_thread_run_a_leaf_on_their_own_state():
    rt = WaliRuntime()
    module = _guest(r"""
global g: i32 = 0;
buffer buf[64];
buffer out[16];
buffer done[4];
func fill(p: i32, n: i32) -> i32 {
    var i: i32 = 0;
    var s: i32 = 0;
    while (i < n) { store8(p + i, g + i); s = s + load8u(p + i); i = i + 1; }
    return s;
}
func worker(arg: i32) {
    g = 100;
    store32(out, fill(buf + 32, 8));
    atomic_add32(done, 1);
}
export func _start() {
    g = 10;
    var pid: i32 = fork();
    if (pid == 0) {
        g = 50;
        if (fill(buf, 8) != 428 || load8u(buf + 7) != 57) { exit(9); }
        exit(3);
    }
    waitpid(pid, out + 4);
    thread_create(funcref(worker), 0);
    var spins: i32 = 0;
    while (load32(done) < 1 && spins < 10000000) {
        SYS_sched_yield();
        spins = spins + 1;
    }
    var bits: i32 = 0;
    if (((load32(out + 4) >> 8) & 255) == 3) { bits = bits | 1; }
    if (load32(out) == 828 && load8u(buf + 32) == 100) { bits = bits | 2; }
    if (load8u(buf) == 0 && g == 10) { bits = bits | 4; }
    if (fill(buf, 8) == 108 && load8u(buf + 39) == 107) { bits = bits | 8; }
    exit(bits);
}
""", "binding")
    wp = rt.load(module)
    fill = [f.name for f in module.funcs].index("fill")
    assert wp.instance.funcs[module.num_imported_funcs + fill].native
    assert wp.run() == 15


def _spinner(rt, source, name):
    """Load ``source`` (its ``_start`` spins in the leaf ``spin``) on a
    guest thread and wait until the thread is inside the compiled leaf."""
    wp = rt.load(_guest(source, name))
    wp.start_in_thread()
    deadline = time.monotonic() + 10
    while wp.machine.native_depth == 0:
        assert time.monotonic() < deadline, "never entered the leaf"
        time.sleep(0.001)
    return wp


SPIN = r"""
buffer flag[4];
global res: i32 = 0;
func spin(p: i32) -> i32 {
    var n: i32 = 0;
    while (load32(p) == 0) { n = n + 1; }
    return n;
}
"""


def test_sigkill_stops_a_spinning_compiled_leaf():
    rt = WaliRuntime()
    wp = _spinner(rt, SPIN + r"""
export func _start() { spin(flag); exit(0); }
""", "spin")
    init = rt.kernel.process(1)
    rt.kernel.call(init, "kill", wp.proc.pid, SIGKILL)
    wp.join(5)
    assert not wp.thread.is_alive()
    assert wp.exit_status == 128 + SIGKILL


def test_fork_in_a_handler_above_a_compiled_leaf_fails_with_eagain():
    rt = WaliRuntime()
    wp = _spinner(rt, SPIN + r"""
func on_usr1(sig: i32) {
    res = fork();
    if (res == 0) { exit(42); }   // a child would resume here
    store32(flag, 1);
}
export func _start() {
    signal(SIGUSR1, funcref(on_usr1));
    spin(flag);
    if (res != 0 - 1) { exit(1); }
    exit(errno);
}
""", "nofork")
    procs = len(rt.kernel.processes)
    rt.kernel.call(rt.kernel.process(1), "kill", wp.proc.pid, SIGUSR1)
    wp.join(5)
    assert not wp.thread.is_alive()
    assert wp.exit_status == EAGAIN
    assert rt.kernel.counters.get("wali.fork_refused") == 1
    assert len(rt.kernel.processes) == procs


def test_signal_handler_runs_above_a_compiled_leaf():
    rt = WaliRuntime()
    wp = _spinner(rt, SPIN + r"""
func on_usr1(sig: i32) { store32(flag, sig); }
export func _start() {
    signal(SIGUSR1, funcref(on_usr1));
    exit(spin(flag) > 0);
}
""", "handler")
    rt.kernel.call(rt.kernel.process(1), "kill", wp.proc.pid, SIGUSR1)
    wp.join(5)
    assert not wp.thread.is_alive()
    assert wp.exit_status == 1
    assert rt.kernel.counters.get("wali.fork_refused") == 0


def test_execve_image_gets_its_own_leaves():
    rt = WaliRuntime()
    second = _guest(SPIN + r"""
export func _start() { store32(flag, 7); exit(spin(flag) + 20); }
""", "second")
    rt.install_binary("/bin/second.wasm", second)
    first = _guest(SPIN + r"""
buffer path[16];
export func _start() {
    store32(flag, 1);
    strcpy(path, "/bin/second.wasm");
    if (spin(flag) != 0) { exit(1); }
    execve(path, 0, 0);
    exit(2);
}
""", "first")
    wp = rt.load(first)
    old = wp.instance
    assert wp.run() == 20
    assert wp.instance is not old
    assert any(isinstance(f, WasmFunc) and f.native is not None
               for f in wp.instance.funcs)
