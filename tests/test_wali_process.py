"""How a WALI process is made and released: one constructor and one attach
step behind load, fork, thread spawn and WASI-over-WALI, a host that binds
only its image's imports, cloned instances relinked to their own host,
process-changing calls that fail without side effects, one accounting store
per process, and release from ``WaliRuntime.processes`` at reap.
"""

import pytest

from repro.apps import build, install_all, with_libc
from repro.cc import compile_source
from repro.kernel.errno import EACCES
from repro.kernel.mm import AddressSpace
from repro.wali import MODULE, WaliHost, WaliRuntime
from repro.wali.host import ENGINE_COST_CALLS
from repro.wasi import wasi_over_wali
from repro.wasm import I32, I64, ModuleBuilder, encode_module, instantiate

THREAD_FLAGS = 0x10f00  # CLONE_VM|CLONE_FS|CLONE_FILES|CLONE_SIGHAND|CLONE_THREAD
GETTID_IMPORT = 0
# funcref table slots of table_module(); slot 3 stays empty
GETTID, WAIT_THEN_FORK, RETURN, EMPTY = 0, 1, 2, 3


def table_module():
    """A WALI module whose table holds a host funcref (``SYS_gettid``) and
    two thread entries: one that spins until word 0 of memory is set and
    then forks, and one that returns at once."""
    mb = ModuleBuilder("table-host")
    gettid = mb.import_func("wali", "SYS_gettid", results=[I64])
    mb.import_func("wali", "SYS_fork", results=[I64])
    mb.add_memory(1, 16)
    mb.add_table(4)
    f = mb.func("wait_then_fork", [I32])
    with f.block():
        with f.loop():
            f.i32_const(0).i32_load().br_if(1)
            f.br(0)
    f.call("SYS_fork").op("drop")
    f.end()
    mb.func("ret", [I32]).end()
    mb.add_elem(GETTID, [gettid, mb.func_index("wait_then_fork"),
                         mb.func_index("ret")])
    return mb.build()


def process_of(made, pid):
    """The process of ``pid`` among those made (``wali_processes``): a
    thread that has exited is reaped, and gone from ``rt.processes``."""
    return next(wp for wp in made if wp.proc.pid == pid)


def joined(wp):
    wp.join(5)
    assert not wp.thread.is_alive()
    return wp


def spawn(rt, made, wp, slot):
    return process_of(made, rt.spawn_thread(wp, THREAD_FLAGS, slot, 0))


# ---- one constructor, one attach ----

def by_load(rt, made):
    return rt.load(table_module())


def by_fork(rt, made):
    wp = rt.load(table_module())
    return joined(process_of(made, rt.fork(wp)))


def by_thread(rt, made):
    return joined(spawn(rt, made, rt.load(table_module()), RETURN))


def by_wasi(rt, made):
    host, wp = wasi_over_wali(rt)
    mb = ModuleBuilder("wasi-app")
    mb.add_memory(1, 16)
    wp.attach(instantiate(mb.build(), host.imports()))
    return wp


FIELDS = {"rt", "proc", "module", "host", "instance", "machine", "pool",
          "sigv", "cells", "zero_copy_calls", "fixed_elides", "exit_status",
          "trap", "thread"}


@pytest.mark.parametrize("route", [by_load, by_fork, by_thread, by_wasi])
def test_every_route_builds_the_same_process(route, wali_processes):
    wp = route(WaliRuntime(), wali_processes)
    assert set(vars(wp)) == FIELDS
    assert wp.host.wp is wp
    assert wp.machine.instance is wp.instance
    assert wp.proc.machine is wp.machine
    assert wp.pool.memory is wp.instance.memory
    assert wp.proc.mm is wp.pool.space
    assert wp.sigv.proc is wp.proc
    assert wp.machine.poll_hook is not None


# ---- relinking a clone to its own host ----

def test_thread_spawn_leaves_the_parents_table_alone(wali_processes):
    rt = WaliRuntime()
    wp = rt.load(table_module())
    own = wp.instance.funcs[GETTID_IMPORT]
    child = joined(spawn(rt, wali_processes, wp, RETURN))
    assert child.instance.table is wp.instance.table
    assert child.instance.funcs[GETTID_IMPORT] is not own
    # the parent's funcref still reaches the parent's host
    assert wp.instance.table.elems[GETTID] is own
    assert own.fn() == wp.proc.pid


def test_fork_from_a_thread_relinks_every_host_funcref(wali_processes):
    rt = WaliRuntime()
    wp = rt.load(table_module())
    forker = spawn(rt, wali_processes, wp, WAIT_THEN_FORK)
    other = joined(spawn(rt, wali_processes, wp, RETURN))
    wp.instance.memory.store_i32(0, 1)      # let the forker fork
    joined(forker)
    (child,) = [p for p in wali_processes
                if p not in (wp, forker, other)]
    joined(child)
    # the shared table holds the leader's funcref; the child's copy must
    # call the child's host, whichever host the entry came from
    assert child.instance.table is not wp.instance.table
    assert child.instance.table.elems[GETTID] is \
        child.instance.funcs[GETTID_IMPORT]
    assert wp.instance.table.elems[GETTID] is wp.instance.funcs[GETTID_IMPORT]


# ---- failures leave no trace ----

@pytest.mark.parametrize("fn", [EMPTY, 99])
def test_bad_thread_entry_starts_no_task(fn):
    rt = WaliRuntime()
    wp = rt.load(table_module())
    kernel = rt.kernel

    def state():
        return (set(kernel.processes), list(rt.processes),
                kernel.sched.live_pids())

    before = state()
    # the image does not import SYS_clone: a host with no image binds it
    clone = WaliHost(rt, wp).imports()["wali"]["SYS_clone"]
    assert clone.fn(THREAD_FLAGS, 0, fn, 0) == -EACCES
    assert state() == before


def unlinkable_module(import_name="SYS_getpid", data_at=0):
    """A well-formed image that fails to link: it imports a ``wali`` name
    the host lacks, or its data segment lies past its memory."""
    mb = ModuleBuilder("unlinkable")
    mb.import_func("wali", import_name, results=[I64])
    mb.add_memory(1, 16)
    mb.add_data(data_at, b"x")
    mb.func("_start", export=True).end()
    return mb.build()


@pytest.mark.parametrize("image", [
    b"#!/bin/sh\necho hi\n",
    encode_module(table_module())[:30],     # truncated .wasm
    encode_module(unlinkable_module(import_name="SYS_nonexistent")),
    encode_module(unlinkable_module(data_at=70000)),
], ids=["not-wasm", "truncated-wasm", "unlinkable-wasm", "data-oob-wasm"])
def test_failed_execve_leaves_the_process_intact(image):
    rt = WaliRuntime()
    rt.kernel.vfs.write_file("/bad", image)
    mod = compile_source(with_libc(r"""
buffer argvv[12];
export func _start() {
    var fd: i32 = open("/keep", O_CREAT | O_WRONLY | 524288, 420);
    store32(argvv, "/bad");
    store32(argvv + 4, "other");
    store32(argvv + 8, 0);
    var r: i32 = execve("/bad", argvv, 0);
    if (r != -1) { exit(1); }
    if (errno != 8) { exit(2); }
    // the O_CLOEXEC descriptor survived the failed execve
    if (write(fd, "x", 1) != 1) { exit(3); }
    exit(0);
}
"""), name="prog")
    wp = rt.load(mod, argv=["prog", "a1"])
    assert wp.run() == 0
    assert wp.proc.argv == ["prog", "a1"]
    assert wp.proc.comm == "prog"
    assert rt.kernel.vfs.read_file("/keep") == b"x"


def test_fork_copies_the_address_space_once(monkeypatch, wali_processes):
    copies = []
    copy = AddressSpace.fork_copy

    def counted(space):
        copies.append(copy(space))
        return copies[-1]

    monkeypatch.setattr(AddressSpace, "fork_copy", counted)
    rt = WaliRuntime()
    child = by_fork(rt, wali_processes)
    (space,) = copies
    assert child.proc.mm is child.pool.space is space
    assert space.grow_hook == child.pool._ensure_backing


# ---- a host binds its image's imports ----

SH_PIPELINE = b"echo thin kernel > /tmp/f\ncat /tmp/f | wc\nexit 0\n"


def wali_imports(module):
    return {im.name for im in module.imports if im.module == MODULE}


def run_shell(rt):
    """Run mini_sh over a pipeline: it forks, and its children execve."""
    install_all(rt, ["echo", "cat", "wc"])
    rt.kernel.vfs.write_file("/tmp/in", SH_PIPELINE)
    root = rt.load(build("mini_sh"), argv=["mini_sh", "/tmp/in"])
    assert root.run() == 0
    assert rt.kernel.console_output() == b"1 12\n"
    return root


def test_every_host_binds_exactly_its_images_imports(monkeypatch):
    bound = []
    imports = WaliHost.imports

    def recording(host):
        ns = imports(host)
        bound.append((host.image, set(ns[MODULE])))
        return ns

    monkeypatch.setattr(WaliHost, "imports", recording)
    rt = WaliRuntime()
    rt.load(build("mini_sqlite"))
    run_shell(rt)
    for image, names in bound:
        assert names == wali_imports(image), image.name
    images = [image.name for image, _ in bound]
    # the load, each forked child of the shell, and each execve'd tool
    assert images.count("mini_sqlite") == 1
    assert images.count("mini_sh") >= 3
    assert {"/bin/cat.wasm", "/bin/wc.wasm"} <= set(images)


# ---- one accounting store per process ----

def test_accounting_outlives_execve():
    rt = WaliRuntime()
    install_all(rt, ["echo"])
    wp = rt.load(compile_source(with_libc(r"""
buffer argvv[12];
export func _start() {
    var pid: i64 = SYS_getpid();
    store32(argvv, "/bin/echo.wasm");
    store32(argvv + 4, "after");
    store32(argvv + 8, 0);
    execve("/bin/echo.wasm", argvv, 0);
    exit(9);
}
"""), name="first"), argv=["first"])
    assert wp.run() == 0
    assert wp.module.name == "/bin/echo.wasm"
    assert b"after" in rt.kernel.console_output()
    counts = wp.call_counts
    # the first image's calls, then echo's
    assert counts["getpid"] == 1 and counts["execve"] == 1
    assert counts["write"] >= 1
    assert wp.wali_time_ns == sum(
        ns for name, (_, ns) in wp.cells.items()
        if name not in ENGINE_COST_CALLS) > 0


# ---- release at reap ----

def test_an_exited_thread_leaves_the_runtime(wali_processes):
    rt = WaliRuntime()
    wp = rt.load(table_module())
    child = joined(spawn(rt, wali_processes, wp, RETURN))
    assert child.proc.pid not in rt.kernel.processes
    assert rt.processes == [wp]


def test_a_shell_holds_only_unreaped_processes(wali_processes):
    rt = WaliRuntime()
    root = run_shell(rt)
    assert len(wali_processes) >= 3        # the pipeline forked
    # every child was waited for; the root is a zombie nobody waits for
    assert rt.processes == [root]
    live = rt.kernel.processes
    assert all(live.get(wp.proc.pid) is wp.proc for wp in rt.processes)


def test_translation_counters_outlive_execve():
    """``zero_copy_translations`` counts every image's writes, like the
    cells do: 5 one-byte writes, then echo's."""
    rt = WaliRuntime()
    install_all(rt, ["echo"])
    wp = rt.load(compile_source(with_libc(r"""
buffer argvv[12];
export func _start() {
    var i: i32 = 0;
    while (i < 5) { write(1, "x", 1); i = i + 1; }
    store32(argvv, "/bin/echo.wasm");
    store32(argvv + 4, "after");
    store32(argvv + 8, 0);
    execve("/bin/echo.wasm", argvv, 0);
    exit(9);
}
"""), name="first"), argv=["first"])
    assert wp.run() == 0
    assert wp.module.name == "/bin/echo.wasm"
    writes = wp.call_counts["write"]
    assert writes > 5
    stats = wp.host.stats()
    assert stats["zero_copy_translations"] == writes
    assert stats["calls"] == sum(wp.call_counts.values())
