"""Workload generators for the Fig. 7 / Fig. 8 benchmarks.

Each generator takes a ``scale`` knob and produces a :class:`Workload`;
the Fig. 8 sweeps grow scale so the x-axis ("native execution time")
spans a range, exposing the startup-vs-slope crossover between WALI and
Docker the paper highlights.
"""

from __future__ import annotations

from ..apps.lua import arith_benchmark_script
from ..apps.sqlite import workload_script
from .tiers import Workload


def lua_workload(scale: int = 2000) -> Workload:
    """CPU-bound interpreter workload (lua row: ~97% app time)."""
    return Workload(
        app="mini_lua",
        argv=["mini_lua", "/tmp/bench.lua"],
        files={"/tmp/bench.lua": arith_benchmark_script(scale)},
        label=f"lua-{scale}",
    )


def bash_workload(scale: int = 200) -> Workload:
    """Shell line-processing workload (builtins only: every tier can run
    it, including the non-forking compiled tier)."""
    lines = []
    for i in range(scale):
        lines.append(f"echo line {i} of the benchmark run")
        if i % 10 == 0:
            lines.append("pwd")
            lines.append("cd /tmp")
            lines.append("cd /")
        lines.append("status")
    lines.append("exit 0")
    script = ("\n".join(lines) + "\n").encode()
    return Workload(
        app="mini_sh",
        argv=["mini_sh", "/tmp/bench.sh"],
        files={"/tmp/bench.sh": script},
        label=f"bash-{scale}",
    )


def sqlite_workload(scale: int = 150) -> Workload:
    """Kernel-I/O heavy database workload (sqlite row: >50% kernel time)."""
    return Workload(
        app="mini_sqlite",
        argv=["mini_sqlite", "/tmp/bench.db", "/tmp/bench.sql"],
        files={"/tmp/bench.sql": workload_script(scale, scale * 2)},
        label=f"sqlite-{scale}",
    )


def echo_workload(scale: int = 20, nclients: int = 50,
                  net: str = "loopback") -> Workload:
    """Many-client event-loop chat: one single-threaded guest drives
    ``nclients`` concurrent connections through epoll for ``scale`` echo
    rounds each — the readiness-dispatch-bound workload (all kernel time
    is accept4/read/write/epoll_pwait).  ``net`` selects the kernel's
    network backend: under ``"wan:..."`` every echo pays the configured
    link latency, so the workload turns network-bound."""
    nclients = max(1, min(nclients, 100))
    suffix = "" if net == "loopback" else f"@{net.split(':', 1)[0]}"
    return Workload(
        app="event_echo",
        argv=["event_echo", str(nclients), str(scale)],
        label=f"echo-{nclients}x{scale}{suffix}",
        net=net,
    )


def watch_workload(scale: int = 12, ring: bool = False) -> Workload:
    """Filesystem-event workload: the watchd guest tails a log and tracks
    directory churn through inotify + signalfd readiness (``scale``
    mutation rounds; ``ring=True`` serves through the io_uring ring
    instead of epoll)."""
    argv = ["watchd", str(scale)] + (["-u"] if ring else [])
    return Workload(
        app="watchd",
        argv=argv,
        label=f"watch-{scale}{'-u' if ring else ''}",
    )


WORKLOADS = {
    "lua": lua_workload,
    "bash": bash_workload,
    "sqlite": sqlite_workload,
    "echo": echo_workload,
    "watch": watch_workload,
}
