"""``repro.wasi`` — WASI preview1, implemented twice:

* natively in the engine (:mod:`repro.wasi.native`), the status quo;
* layered over WALI (:class:`WaliBackend` + :class:`WasiHost`), the
  paper's §4.1 result (``libuvwasi`` unmodified over WALI).

Also hosts the Table 1 porting matrix machinery and helpers to run WASI
applications on a WALI runtime.
"""

from typing import Dict, Optional

from ..wali import MODULE as WALI_MODULE, WaliProcess, WaliRuntime
from ..wasm import Module, instantiate
from ..wasm.errors import GuestExit
from .host import Backend, WaliBackend, WasiHost
from .native import NativeBackend
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
    backend = WaliBackend(wp.host.imports()[WALI_MODULE],
                          lambda: wp.instance.memory)
    return WasiHost(backend, preopens), wp


def run_wasi_module(module: Module, runtime: Optional[WaliRuntime] = None,
                    argv=None, env=None, preopens=None,
                    entry: str = "_start") -> int:
    """Run a WASI app with the WASI-over-WALI layering; returns exit code."""
    rt = runtime or WaliRuntime()
    host, wp = wasi_over_wali(rt, argv, env, preopens)
    wp.attach(instantiate(module, host.imports(), scheme=rt.scheme))
    try:
        wp.machine.invoke(wp.instance.exports[entry], [])
        return 0
    except GuestExit as exc:
        return exc.status


__all__ = [
    "Backend", "FEATURE_OF_SYSCALL", "FUNCTIONS", "MODULE", "NativeBackend",
    "PortingRow", "WASI_SYSCALLS", "WASIX_SYSCALLS", "WaliBackend",
    "WasiHost", "build_matrix", "porting_row", "render_matrix",
    "required_syscalls", "run_wasi_module", "wasi_errno", "wasi_over_wali",
]
