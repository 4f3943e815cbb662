"""The deterministic twin of Table 2: Python calls per WALI crossing.

Each case makes one syscall from a compiled guest function and counts the
Python ``call`` events (``sys.setprofile``) from the compiled function's
own frame down to the kernel handler and back.  Wall-clock overheads
vary with the machine; these counts do not, so a change that adds a frame
to the crossing fails here even when no timing moves.

The crossing is one frame per layer: the compiled function calls the
import's ``HostFunc.fn`` directly (no engine glue), the WALI handler
calls ``Kernel.call`` through ``WaliHost.k``, and ``Kernel.call`` makes
the scheduler's enter and exit calls and the handler call, and keeps
its books (counter cell, latency histograms) in its own frame.  What is
left is the handler's own work.  ``read`` and ``pread64`` read one
resident byte of a ``/data`` file (a page-cache hit, counted without a
call); ``write`` goes to ``/dev/null``; ``futex`` wakes a word nobody
waits on; ``ppoll`` polls one pipe that holds a byte, with a zero
timeout.
"""

import gc
import struct
import sys

import pytest

from repro.kernel.vfs import AT_FDCWD, O_RDWR
from repro.wali import WaliRuntime
from repro.wali.spec import SYSCALLS
from repro.wasm import I64, ModuleBuilder
from repro.wasm.interp import HostFunc

# Python calls per crossing, below the compiled function's own frame:
#   getpid  fn, passthrough, Kernel.call, syscall_enter, sys_getpid,
#           syscall_exit
#   read    fn, w_read, Kernel.call, syscall_enter, sys_read,
#           FDTable.get, readable_mode, OpenFile.read, ensure_resident,
#           _reg_content, syscall_exit, copy_out, LinearMemory.write and
#           its check
COUNTS = {"getpid": 6, "getuid": 6, "read": 14, "pread64": 14, "write": 16,
          "fstat": 17, "lseek": 9, "stat": 31, "futex": 12, "ppoll": 27}

# comprehensions that CPython 3.12 runs inline, without a frame
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})

PATH = b"/data/crossing\0"
PATH_PTR = 1024
POLLFD_PTR = 2048      # one pollfd: the pipe's read end, POLLIN
TIMESPEC_PTR = 2064    # a zero timeout
FUTEX_PTR = 2096
FUTEX_WAKE = 1
POLLIN = 1


def _module():
    """One exported function per syscall, each making exactly that call."""
    mb = ModuleBuilder("crossing")
    mb.add_memory(1)
    for name in COUNTS:
        spec = SYSCALLS[name]
        mb.import_func("wali", spec.import_name,
                       params=spec.functype.params, results=[I64])
    for name in COUNTS:
        spec = SYSCALLS[name]
        params = spec.functype.params
        f = mb.func(name, params=params, results=[I64], export=True)
        for i in range(len(params)):
            f.local_get(i)
        f.call(spec.import_name)
        f.end()
    return mb.build()


def _calls(fn, *args) -> int:
    """Python calls made by ``fn(*args)``.  The cyclic collector is off
    meanwhile: a collection that an allocation inside ``fn`` triggers
    would run the weakref callbacks and finalizers of garbage that
    earlier code left behind (a dead thread leaving ``threading``'s
    ``WeakSet``, say) inside the count."""
    n = 0

    def profile(frame, event, arg):
        nonlocal n
        if event == "call" and frame.f_code.co_name not in _INLINED:
            n += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return n


@pytest.fixture(scope="module")
def guest():
    rt = WaliRuntime()
    k = rt.kernel
    k.vfs.write_file(PATH[:-1].decode(), bytes(range(256)) * 32)
    wp = rt.load(_module(), argv=["crossing"])
    data = k.call(wp.proc, "openat", AT_FDCWD, PATH[:-1].decode(), O_RDWR)
    null = k.call(wp.proc, "openat", AT_FDCWD, "/dev/null", O_RDWR)
    r, w = k.call(wp.proc, "pipe2", 0)
    k.call(wp.proc, "write", w, b"x")
    mem = wp.instance.memory
    mem.write(PATH_PTR, PATH)
    mem.write(POLLFD_PTR, struct.pack("<ihh", r, POLLIN, 0))
    args = {"getpid": (), "getuid": (), "read": (data, 0, 1),
            "pread64": (data, 0, 1, 4096), "write": (null, 0, 1),
            "fstat": (data, 0), "lseek": (data, 0, 0),
            "stat": (PATH_PTR, 0),
            "futex": (FUTEX_PTR, FUTEX_WAKE, 1, 0, 0, 0),
            "ppoll": (POLLFD_PTR, 1, TIMESPEC_PTR, 0)}
    return rt, wp, args


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_python_calls_per_crossing(guest, name):
    rt, wp, args = guest
    compiled = wp.instance.func_by_name(name).native
    assert compiled is not None
    hf = next(f for f in wp.instance.funcs
              if isinstance(f, HostFunc) and f.name == f"SYS_{name}")
    results = {compiled(wp.machine, *args[name]) for _ in range(3)}
    assert all(r < 1 << 63 for r in results), results   # no -errno
    counts = [_calls(compiled, wp.machine, *args[name]),
              _calls(hf.fn, *args[name])]
    # the compiled function's own frame, then the crossing itself
    assert counts == [1 + COUNTS[name], COUNTS[name]]
    assert rt.kernel.counters.get("block.cache_miss") == 0
