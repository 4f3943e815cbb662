"""Mixed-mode execution: the compiled tier under the interpreter.

A *fork-free* function reaches no fork, clone or ``execve`` import
through its static call graph; under ``tier_up="fork_free"`` (the WALI
default) every fork-free function runs compiled, syscalls and all,
called straight from the interpreter, and under ``"all"`` every function
does.  These tests pin what that may not change: outputs, exit statuses
and ``Machine.steps`` match the interpreter exactly under both rules;
each instance (fork child, thread, ``execve`` image) runs the shared
compiled code on its own memory and globals; signals still land at loop
safepoints inside compiled code; the guests' fork, clone and execve
paths stay interpreted, so they still fork; a fork from a signal
handler above a compiled frame fails; a compiled ``_start`` runs
compiled; and a WALI safepoint calls its hook only while a signal is
pending.
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
from repro.wasm import F64, I32, I64, ModuleBuilder, Trap, instantiate
from repro.wasm.compile import (
    FORK_IMPORTS, compiled_functions, fork_free_functions,
)
from repro.wasm.module import KIND_FUNC
from repro.wasm.flatten import SAFEPOINT_SCHEMES
from repro.wasm.interp import ALWAYS_POLL, WasmFunc


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
    def test_fork_free_reaches_no_fork_import_indirect_call_grow_or_cycle(
            self):
        """A fork-free function may call any import but the fork family
        and may use atomic ops, but has no cycle, ``call_indirect`` or
        ``memory.grow`` in its call graph."""
        mb = ModuleBuilder("rule")
        mb.add_memory(1, 2)
        mb.add_table(1)
        mb.import_func("env", "host", params=[], results=[])
        for name in sorted(FORK_IMPORTS):
            mb.import_func("wali", name, params=[], results=[I32])
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
        atomic = mb.func("atomic", results=[I32])
        atomic.i32_const(0).i32_const(1).op("i32.atomic.rmw.add", 2, 0)
        atomic.end()
        for name in sorted(FORK_IMPORTS):
            fn = mb.func(f"calls_{name}")
            fn.call(name).op("drop")
            fn.end()
        above_fork = mb.func("above_fork")
        above_fork.call("calls_host").call("calls_SYS_fork")
        above_fork.end()
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
        free = {idx(n) for n in ("leaf", "calls_leaf", "calls_host",
                                 "above_host", "atomic")}
        assert fork_free_functions(module) == free
        # every fork-free function runs compiled, looping or not
        assert set(compiled_functions(module, "loop", "fork_free")) == free
        n_imp = module.num_imported_funcs
        assert set(compiled_functions(module, "loop", "all")) == \
            set(range(n_imp, n_imp + len(module.funcs)))
        with pytest.raises(ValueError):
            compiled_functions(module, "loop", True)
        with pytest.raises(ValueError):
            compiled_functions(module, "loop", "leaves")

    def test_two_modules_with_one_name_never_share_compiled_code(self):
        three, five = _sum_module("app", 3), _sum_module("app", 5)
        assert three.name == five.name
        f = three.num_imported_funcs + 1
        assert compiled_functions(three, "loop", "fork_free")[f] is not \
            compiled_functions(five, "loop", "fork_free")[f]
        assert instantiate(three, tier_up="fork_free").invoke("w", 10) == 135
        assert instantiate(five, tier_up="fork_free").invoke("w", 10) == 225

    def test_compiled_function_names_do_not_shadow_helpers(self):
        """Compiled functions share one namespace with the code generator's
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
        assert instantiate(module, tier_up="fork_free").invoke("w", 3) == 31.5
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
                    got = instantiate(module, tier_up="fork_free").invoke(
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
        for rule in ("fork_free", "all"):
            first = compiled_functions(decode_module(image), "loop", rule)
            assert compiled_functions(decode_module(image), "loop",
                                      rule) is first
        # the cache key holds the rule: the two rules never share a table
        assert first is not compiled_functions(decode_module(image), "loop",
                                               "fork_free")


class TestSteps:
    @pytest.mark.parametrize("scheme", SAFEPOINT_SCHEMES)
    def test_compiled_leaf_retires_the_interpreters_steps(self, scheme):
        module = _sum_module("steps", 3)
        want = _steps(module, "w", [50], None, scheme)
        for rule in ("fork_free", "all"):
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
        for rule in ("fork_free", "all"):
            assert _steps(module, "w", [10], rule, scheme) == want

    def test_fuel_runs_leaves_interpreted(self):
        module = _sum_module("fuel", 3)
        _, total = _steps(module, "w", [20], None)
        # a machine with fuel is an interpreter-only reference...
        for rule in ("fork_free", "all"):
            assert _steps(module, "w", [20], rule, fuel=10 ** 9) == \
                _steps(module, "w", [20], None)
        # ...whose fuel trap lands on the same step as without tier-up
        for fuel in (3, total // 2, total - 1):
            traps = []
            for tier_up in (None, "fork_free", "all"):
                inst = instantiate(module, tier_up=tier_up)
                inst.machine.fuel = fuel
                with pytest.raises(Trap) as ei:
                    inst.invoke("w", 20)
                traps.append((ei.value.kind, inst.machine.steps))
            assert traps == [("fuel-exhausted", fuel + 1)] * 3

    def test_poll_hook_sees_exact_steps_inside_a_compiled_leaf(self):
        module = _sum_module("polls", 3)
        seen = {}
        for tier_up in (None, "fork_free", "all"):
            inst = instantiate(module, tier_up=tier_up)
            machine = inst.machine
            counts = seen[tier_up] = []
            machine.poll_hook = lambda m=machine, c=counts: c.append(
                (m.steps, m.native_depth))
            inst.invoke("w", 6)
        for rule in ("fork_free", "all"):
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
    got, native = _run_app(app, "fork_free", wali_processes)
    assert none == 0 and native > 0
    assert got == want
    assert want[1] == 0 and want[0]
    if app == "mini_sh":   # every forked child is compared
        assert len(want[2]) > 1
    else:   # the shell forks, which "all" refuses
        got, native = _run_app(app, "all", wali_processes)
        assert native == len(build(app).funcs)
        assert got == want


# compiled functions per guest, out of its defined functions: the sqlite,
# echo and lua guests run fully compiled; the shell's fork and exec paths
# stay interpreted, and so does memcached's clone (its atomic mutexes
# and the request path above them run compiled)
COMPILED = {"mini_sqlite": (35, 35), "event_echo": (48, 48),
            "mini_lua": (28, 28), "mini_sh": (30, 35),
            "mini_memcached": (57, 60)}


def _reaches_fork(module):
    """The defined functions whose static call graph reaches an import in
    ``FORK_IMPORTS``."""
    names = [im.name for im in module.imported(KIND_FUNC)]
    n_imp = len(names)

    def calls(body):
        for instr in body:
            if instr[0] == "call":
                yield instr[1]
            elif instr[0] in ("block", "loop", "if"):
                for arm in instr[2:]:
                    yield from calls(arm)

    graph = {n_imp + i: set(calls(fn.body))
             for i, fn in enumerate(module.funcs)}
    reach = {i for i in range(n_imp) if names[i] in FORK_IMPORTS}
    grew = True
    while grew:
        new = {i for i, cs in graph.items() if cs & reach} - reach
        reach |= new
        grew = bool(new)
    return {i for i in reach if i >= n_imp}


@pytest.mark.parametrize("app", sorted(COMPILED))
def test_fork_free_compiles_every_function_off_the_fork_paths(app):
    module = build(app)
    compiled = set(compiled_functions(module, "loop", "fork_free"))
    assert (len(compiled), len(module.funcs)) == COMPILED[app]
    forking = _reaches_fork(module)
    assert not compiled & forking
    if app in ("mini_sh", "mini_memcached"):
        assert forking
    inst = WaliRuntime().load(module).instance
    n_imp = module.num_imported_funcs
    assert {i for i, f in enumerate(inst.funcs) if i >= n_imp and
            f.native is not None} == compiled


def test_shell_pipeline_forks_under_fork_free(wali_processes):
    rt = WaliRuntime()
    install_all(rt, ["echo", "cat", "wc"])
    rt.kernel.vfs.write_file("/tmp/in", b"echo a b c | wc\nexit 0\n")
    assert rt.run(build("mini_sh"), argv=["mini_sh", "/tmp/in"]) == 0
    assert rt.kernel.console_output() == b"1 6\n"
    assert rt.kernel.syscall_counts["fork"] >= 2
    assert rt.kernel.syscall_counts["execve"] == 2
    assert rt.kernel.counters.get("wali.fork_refused") == 0


@pytest.mark.parametrize("mode", [[], ["-u"]], ids=["threaded", "ring"])
def test_memcached_serves_under_fork_free(mode):
    from repro.kernel import AF_INET, SOCK_STREAM

    rt = WaliRuntime()
    server = rt.load(build("mini_memcached"),
                     argv=["memcached", "11215", *mode])
    server.start_in_thread()
    deadline = time.monotonic() + 10
    while b"ready" not in rt.kernel.console_output():
        assert time.monotonic() < deadline, "server did not come up"
        time.sleep(0.01)
    k = rt.kernel
    cp = k.create_process(["pyclient"])
    fd = k.call(cp, "socket", AF_INET, SOCK_STREAM)
    k.call(cp, "connect", fd, ("127.0.0.1", 11215))

    def request(line):
        k.call(cp, "sendto", fd, line)
        out = b""
        while not out.endswith(b"\n"):
            data, _ = k.call(cp, "recvfrom", fd, 256)
            assert data
            out += data
        return out.strip()

    assert request(b"set k v1\n") == b"STORED"
    assert request(b"get k\n") == b"VALUE v1"
    assert request(b"shutdown\n") == b"BYE"
    server.join(5)
    assert not server.thread.is_alive()
    # the threaded mode clones one worker per client
    assert k.syscall_counts.get("clone", 0) == (0 if mode else 1)
    assert k.counters.get("wali.fork_refused") == 0


# --------------------------------------------------------------------------
# per-instance binding, signals and fork under a compiled leaf
# --------------------------------------------------------------------------

def _guest(source, name):
    return compile_source(with_libc(source), name=name)


TIER_RULES = (None, "fork_free", "all")


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


# --------------------------------------------------------------------------
# the compiled entry and the gated safepoint
# --------------------------------------------------------------------------

@pytest.mark.parametrize("app", ["event_echo", "mini_lua", "mini_sqlite"])
def test_entry_of_a_compiled_guest_runs_compiled(app, wali_processes):
    """``_start`` of a fully compiled guest runs its compiled body: the
    interpreter decodes, so retires, none of the guest's ops, and
    output, status and steps are the interpreter's."""
    want, _ = _run_app(app, None, wali_processes)
    first = len(wali_processes)
    got, _ = _run_app(app, "fork_free", wali_processes)
    assert got == want
    funcs = [f for f in wali_processes[first].instance.funcs
             if isinstance(f, WasmFunc)]
    assert all(f.native is not None for f in funcs)
    assert [f for f in funcs if f.code.decoded is not None] == []


SIGNALS = r"""
global i: i32 = 0;
global at: i32 = 0;
global hits: i32 = 0;
func on_usr1(sig: i32) { at = i; hits = hits + 1; }
"""


def _wali_run(source, name, tier_up, gate=None):
    """Run ``source`` under ``tier_up``; returns ``(status, steps, hook
    calls)``.  ``gate`` replaces the machine's poll gate."""
    rt = WaliRuntime(tier_up=tier_up)
    wp = rt.load(_guest(SIGNALS + source, name))
    hook, calls = wp.machine.poll_hook, []

    def counted():
        calls.append(1)
        hook()

    wp.machine.poll_hook = counted
    if gate is not None:
        wp.machine.poll_gate = gate
    assert (wp.instance.exports["_start"].native is not None) == \
        (tier_up is not None)
    return wp.run(), wp.machine.steps, len(calls)


def test_wali_safepoints_skip_the_hook_with_nothing_pending():
    """A WALI machine's safepoints call the poll hook only while a signal
    is pending: a compiled loop with none calls it 0 times, though with
    the default gate it would at each of its loop headers."""
    source = r"""
export func _start() {
    while (i < 1000) { i = i + 1; }
    exit(i - 1000);
}
"""
    for tier_up in (None, "fork_free"):
        assert _wali_run(source, "idle", tier_up)[::2] == (0, 0)
        assert _wali_run(source, "idle", tier_up, ALWAYS_POLL)[2] > 1000


def test_signal_raised_mid_loop_lands_at_the_next_loop_header():
    source = r"""
export func _start() {
    signal(SIGUSR1, funcref(on_usr1));
    while (i < 10) {
        if (i == 3) { SYS_kill(i32(SYS_getpid()), SIGUSR1); }
        i = i + 1;
    }
    exit(at * 16 + hits);
}
"""
    runs = [_wali_run(source, "midloop", t) for t in TIER_RULES]
    assert runs[0][0] == 4 * 16 + 1
    assert [r[:2] for r in runs] == [runs[0][:2]] * len(runs)
    # the hook ran once, at the one header that had a signal pending
    assert [r[2] for r in runs] == [1] * len(runs)


def test_blocked_signal_waits_for_sigprocmask_to_unblock_it():
    source = r"""
export func _start() {
    signal(SIGUSR1, funcref(on_usr1));
    sigblock(SIGUSR1);
    SYS_kill(i32(SYS_getpid()), SIGUSR1);
    while (i < 10) { i = i + 1; }
    var before: i32 = hits;
    sigunblock(SIGUSR1);
    exit(before * 64 + at * 2 + hits);
}
"""
    runs = [_wali_run(source, "blocked", t) for t in TIER_RULES]
    assert runs[0][0] == 10 * 2 + 1
    assert [r[:2] for r in runs] == [runs[0][:2]] * len(runs)


def test_trap_in_a_compiled_entry_leaves_steps_exact():
    source = r"""
export func _start() {
    var s: i32 = 0;
    while (i < 5) { s = s + i; i = i + 1; }
    exit(s / (i - 5));
}
"""
    runs = [_wali_run(source, "trap", t) for t in TIER_RULES]
    assert runs[0][0] == 128 + 6
    assert [r[:2] for r in runs] == [runs[0][:2]] * len(runs)


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


# --------------------------------------------------------------------------
# imports called from compiled code
# --------------------------------------------------------------------------
# Compiled code calls a HostFunc import's ``fn`` itself and masks the
# result inline; every case must come out as the interpreter's does.

TIERS = (None, "fork_free")


def _import_caller(imports):
    """A module with one import ``env.NAME`` per ``(NAME, params,
    results)`` in ``imports`` and, for each, an inner function that calls
    it (compiled under ``fork_free``) and an export ``NAME`` that calls
    the inner one from the interpreter."""
    mb = ModuleBuilder("imports")
    for name, params, results in imports:
        mb.import_func("env", name, params=params, results=results)
    for name, params, results in imports:
        inner = mb.func(f"inner_{name}", params=params, results=results)
        for i in range(len(params)):
            inner.local_get(i)
        inner.call(name)
        inner.end()
        outer = mb.func(f"run_{name}", params=params, results=results,
                        export=True)
        for i in range(len(params)):
            outer.local_get(i)
        outer.call(f"inner_{name}")
        outer.end()
    return mb.build(), mb.func_index


def _outcomes(module, index, env, name, args=(), link=None):
    """(result or trap kind, steps) of ``run_NAME`` under each tier;
    ``link(instance, tier_up)`` may rewrite the instance's import slots."""
    out = []
    for tier_up in TIERS:
        inst = instantiate(module, {"env": env}, tier_up=tier_up)
        if link is not None:
            link(inst, tier_up)
        compiled = inst.funcs[index(f"inner_{name}")].native is not None
        assert compiled == (tier_up is not None)
        try:
            got = inst.invoke(f"run_{name}", *args)
        except Trap as exc:
            got = ("trap", exc.kind)
        out.append((got, inst.machine.steps))
    return out


def test_void_import_that_returns_a_value_traps_on_both_tiers():
    module, index = _import_caller([("void", [], [])])
    got = _outcomes(module, index, {"void": lambda: 5}, "void")
    assert got[0][0] == ("trap", "host-result-mismatch")
    assert got[1] == got[0]


@pytest.mark.parametrize("name, results, value, want", [
    ("neg32", [I32], -9, 2**32 - 9),
    ("neg64", [I64], -9, 2**64 - 9),
    ("none32", [I32], None, 0),
    ("none64", [I64], None, 0),
    ("nonef", [F64], None, 0.0),
    ("big32", [I32], 2**40 + 3, 3),
])
def test_import_results_are_masked_on_both_tiers(name, results, value, want):
    module, index = _import_caller([(name, [], results)])
    got = _outcomes(module, index, {name: lambda: value}, name)
    assert got[0][0] == want and type(got[0][0]) is type(want)
    assert got[1] == got[0]


def test_import_bound_to_another_instances_function_runs_from_compiled():
    """An import slot that holds another instance's exported wasm function
    (not a HostFunc) is called through the generic call path.  Linking
    takes only host functions, so the test fills the slot itself."""
    lib = ModuleBuilder("lib")
    double = lib.func("double", params=[I32], results=[I32], export=True)
    double.local_get(0).local_get(0).op("i32.add")
    double.end()
    lib = lib.build()
    module, index = _import_caller([("double", [I32], [I32])])

    def link(inst, tier_up):
        fn = instantiate(lib, tier_up=tier_up).func_by_name("double")
        assert (fn.native is not None) == (tier_up is not None)
        inst.funcs[index("double")] = fn

    got = _outcomes(module, index, {"double": lambda x: 0}, "double", (21,),
                    link)
    assert got[0][0] == 42
    assert got[1] == got[0]


POLICY_GUEST = r"""
func probe(n: i32) -> i32 {
    var ok: i32 = 0;
    var i: i32 = 0;
    while (i < n) {
        if (write(1, "x", 1) == 1) { ok = ok + 1; }
        i = i + 1;
    }
    return ok;
}
func denied() -> i64 { return SYS_getpid(); }
export func _start() {
    var ok: i32 = probe(5);
    if (ok == 5) { denied(); }
    exit(ok);
}
"""


def _policy_run(policy, tier_up):
    rt = WaliRuntime(policy=policy, tier_up=tier_up)
    module = _guest(POLICY_GUEST, "policy")
    wp = rt.load(module)
    status = wp.run()
    names = {f.name: i for i, f in
             enumerate(module.funcs, module.num_imported_funcs)}
    compiled = [wp.instance.funcs[names[n]].native is not None
                for n in ("probe", "denied")]
    assert compiled == [tier_up is not None] * 2
    trap = wp.trap.kind if wp.trap is not None else None
    return status, trap, rt.kernel.console_output(), wp.machine.steps


def test_policy_denies_and_injects_from_compiled_code():
    from repro.kernel.errno import EIO
    from repro.wali import FaultInjector, SecurityPolicy

    deny = [_policy_run(SecurityPolicy(deny={"getpid"}), t) for t in TIERS]
    assert deny[0][1] == "syscall-denied" and deny[0][2] == b"xxxxx"
    assert deny[1] == deny[0]
    injectors = [FaultInjector(failures={"write": (EIO, 3)})
                 for _ in TIERS]
    inject = [_policy_run(inj, t) for inj, t in zip(injectors, TIERS)]
    assert inject[0][:3] == (4, None, b"xxxx")
    assert inject[1] == inject[0]
    assert [inj.injected for inj in injectors] == [[("write", 3)]] * 2
