"""repro — a reproduction of "Empowering WebAssembly with Thin Kernel
Interfaces" (EuroSys 2025).

Subpackages
===========

``repro.wasm``
    The WebAssembly engine: module model, binary codec, validator,
    explicit-state interpreter, compiled ("AoT") tier.
``repro.kernel``
    The virtual Linux substrate: VFS/procfs, fds/pipes, processes and
    clone-flag sharing, signals, mmap, futex, loopback sockets, per-ISA
    syscall tables.
``repro.wali``
    The paper's core contribution: the WebAssembly Linux Interface —
    ~150 name-bound syscalls with address-space translation, the mmap
    pool, virtual signals at safepoints, the 1-to-1 process model and
    security interpositions.
``repro.wasi``
    WASI preview1 layered over WALI (§4.1), run as a WALI process, plus
    the Table 1 porting matrix.
``repro.wazi``
    The recipe applied to Zephyr RTOS (§5.1), auto-generated from a
    syscall encoding.
``repro.cc``
    The mini-C toolchain guest software is compiled with.
``repro.apps``
    Guest software: libc + the application suite (shell, interpreter,
    database, KV server, MQTT, coreutils).
``repro.virt``
    Virtualization baselines for Fig. 8: native, Docker-like containers,
    QEMU-like emulation.
``repro.metrics``
    Syscall profiling (Fig. 2), runtime breakdown (Fig. 7), reporting.

Quickstart
==========

>>> from repro import WaliRuntime, compile_source, with_libc
>>> rt = WaliRuntime()
>>> mod = compile_source(with_libc('export func _start() { println("hi"); exit(0); }'))
>>> rt.run(mod)
0
>>> rt.kernel.console_output()
b'hi\\n'
"""

from .apps import build as build_app, install_all, with_libc
from .cc import CompileError, compile_source
from .kernel import Kernel, KernelError
from .wali import SecurityPolicy, WaliRuntime
from .wasi import run_wasi_module
from .wazi import WaziRuntime
from .wasm import (
    Machine, Module, ModuleBuilder, Trap, decode_module, encode_module,
    instantiate, validate_module,
)

__version__ = "1.0.0"

__all__ = [
    "CompileError", "Kernel", "KernelError", "Machine", "Module",
    "ModuleBuilder", "SecurityPolicy", "Trap", "WaliRuntime", "WaziRuntime",
    "build_app", "compile_source", "decode_module", "encode_module",
    "install_all", "instantiate", "run_wasi_module", "validate_module",
    "with_libc",
]
