"""Python calls per workload op: a deterministic gate on whole guest runs.

``tests/test_crossing_cost.py`` pins the Python calls of single
crossings.  This pins what one small op of the two walibench workloads
costs end to end, the engine's safepoints, its compiled entries and the
kernel's per-syscall bookkeeping included: a mini_sqlite load and a
cold-cache query of the same database on ``/data``, and one short
event_echo run.  An idle cost that comes back (a poll hook called with
no signal pending, an interpreted ``_start``, a frame added to every
syscall) fails here even when no timing moves.

The count is the ``call`` events (``sys.setprofile``) of the guest's
thread, with the cyclic collector off.  Frames of the standard library
are not counted, since its Python code differs between CPython versions,
and neither are comprehensions, which CPython 3.12 runs inline.  Every
other frame is this repository's code, generated code included (WALI
handlers, compiled guest functions).  The disk costs nothing and has no
writeback daemon, so no step of the run waits on the wall clock.
"""

import gc
import sys
import sysconfig

import pytest

from repro.apps import build
from repro.kernel import Kernel
from repro.kernel.vfs import O_WRONLY
from repro.wali import WaliRuntime

# Python calls per op
COUNTS = {"sqlite_load": 1504, "sqlite_query": 924, "echo": 2224}

LOAD = (b"insert apple 1\ninsert pear 22\ninsert fig 333\ndelete apple\n"
        b"insert kiwi 4444\ninsert plum 55555\nvacuum\ninsert lime 6\n"
        b"exit\n")
QUERY = b"get pear\nget apple\nget lime\ncount\nexit\n"
BLOCK = "block:seek_us=0,read_us=0,write_us=0,daemon=0"

_STDLIB = sysconfig.get_paths()["stdlib"]
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def _calls(fn) -> int:
    """Python calls made by ``fn()`` outside the standard library."""
    n = 0

    def profile(frame, event, arg):
        nonlocal n
        if event == "call":
            code = frame.f_code
            if code.co_name not in _INLINED and \
                    not code.co_filename.startswith(_STDLIB):
                n += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return n


def _drop_caches(k):
    """``sync; echo 3 > /proc/sys/vm/drop_caches``"""
    admin = k.create_process(["drop_caches"])
    k.call(admin, "sync")
    fd = k.call(admin, "open", "/proc/sys/vm/drop_caches", O_WRONLY)
    k.call(admin, "write", fd, b"3\n")
    k.call(admin, "exit_group", 0)


def _sqlite():
    rt = WaliRuntime(kernel=Kernel(block=BLOCK))
    k = rt.kernel
    k.vfs.write_file("/tmp/load", LOAD)
    k.vfs.write_file("/tmp/query", QUERY)
    counts = {}
    for phase in ("load", "query"):
        wp = rt.load(build("mini_sqlite"),
                     argv=["mini_sqlite", "/data/t.db", f"/tmp/{phase}"])
        counts[f"sqlite_{phase}"] = _calls(wp.run)
        assert wp.exit_status == 0
        if phase == "load":
            _drop_caches(k)
    assert k.console_output() == (b"OK\nOK\nOK\nDELETED\nOK\nOK\nVACUUMED\n"
                                  b"OK\n22\n(nil)\n6\n5\n")
    assert k.counters.get("block.cache_miss") > 0   # the query ran cold
    return counts


def _echo():
    rt = WaliRuntime()
    wp = rt.load(build("event_echo"), argv=["event_echo", "2", "5"])
    counts = {"echo": _calls(wp.run)}
    assert wp.exit_status == 0
    assert rt.kernel.console_output() == b"echo ok echoes=10\n"
    return counts


@pytest.mark.parametrize("workload", [_sqlite, _echo],
                         ids=["sqlite", "echo"])
def test_python_calls_per_op(workload):
    counts = workload()
    assert counts == {name: COUNTS[name] for name in counts}
