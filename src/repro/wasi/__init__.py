"""``repro.wasi`` — WASI preview1 layered over WALI (the paper's §4.1
result: ``libuvwasi`` unmodified over WALI).

:class:`WasiHost` reaches the kernel only through WALI name-bound
imports, and a WASI app runs as an ordinary WALI process: the same
``attach``, run loop and exit path as a WALI app.

Also hosts the Table 1 porting matrix machinery.
"""

from typing import Dict, Optional

from ..wali import MODULE as WALI_MODULE, WaliProcess, WaliRuntime
from ..wasm import Module
from .host import WasiHost
from .porting import (
    FEATURE_OF_SYSCALL, PortingRow, WASI_SYSCALLS, WASIX_SYSCALLS,
    build_matrix, porting_row, render_matrix, required_syscalls,
)
from .spec import FUNCTIONS, MODULE, wasi_errno


def wasi_over_wali(runtime: WaliRuntime, argv=None, env=None,
                   preopens: Optional[Dict[str, str]] = None):
    """Create a (WasiHost, WaliProcess) pair layered over WALI.

    Returns ``(wasi_host, wali_process)``: instantiate the WASI app with
    ``wasi_host.imports()`` and pass the instance to
    ``wali_process.attach``.
    """
    proc = runtime.kernel.create_process(argv or ["wasi-app"], env or {})
    wp = WaliProcess(runtime, proc)
    host = WasiHost(wp.host.imports()[WALI_MODULE],
                    lambda: wp.instance.memory, preopens)
    return host, wp


def run_wasi_module(module: Module, runtime: Optional[WaliRuntime] = None,
                    argv=None, env=None, preopens=None) -> int:
    """Run a WASI app's ``_start`` as a WALI process; returns its exit
    status (134 on a trap, like a WALI app)."""
    rt = runtime or WaliRuntime()
    host, wp = wasi_over_wali(rt, argv, env, preopens)
    wp.attach(rt.instantiate(module, host.imports()))
    return wp.run()


__all__ = [
    "FEATURE_OF_SYSCALL", "FUNCTIONS", "MODULE", "PortingRow",
    "WASI_SYSCALLS", "WASIX_SYSCALLS", "WasiHost", "build_matrix",
    "porting_row", "render_matrix", "required_syscalls", "run_wasi_module",
    "wasi_errno", "wasi_over_wali",
]
