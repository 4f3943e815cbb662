"""Virtualization tiers and the measurement harness behind Fig. 8.

Four ways to run the same application image:

========  ==========================  =========================  ==========
tier      startup work                execution                  base mem
========  ==========================  =========================  ==========
native    bind precompiled code       compiled tier, no sandbox   ~2 MB
wali      decode + validate + link    interp + compiled leaves   ~4 MB
qemu      translate to guest binary   decode-on-fetch emulator     ~6 MB
docker    assemble image + namespaces compiled tier (near-native) ~30 MB
========  ==========================  =========================  ==========

The wali tier is the WALI runtime's mixed mode: host-free looping leaves
run compiled, everything that can reach a syscall runs interpreted
(``docs/perf.md``, "Mixed-mode execution").  The qemu tier emulates
every function.

Startup and run times are *measured* (the work is real: validation,
linking, layer hashing, instruction decode); only the per-tier base memory
floor is a model constant (``BASE_MEMORY_MB`` below).  The native and
docker tiers bind code through :func:`repro.wasm.compile.compile_instance`;
its per-image cache makes compilation an offline step after a module's
first run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..kernel import Kernel
from ..wasm import Module, decode_module, encode_module
from ..wasm.compile import CompiledContext, compile_instance
from ..wasm.errors import GuestExit, Trap
from ..wasm.types import PAGE_SIZE
from .container import (
    Container, ContainerRuntime, DOCKER_BASE_OVERHEAD_MB, base_image,
)
from .emulator import emulate_instance

TIERS = ("native", "wali", "docker", "qemu")

BASE_MEMORY_MB = {
    "native": 2.0,   # bare process floor
    "wali": 4.0,     # engine + WALI bookkeeping (sigtable <1 KiB, pool base)
    "qemu": 6.0,     # emulator state + translation buffers
    "docker": DOCKER_BASE_OVERHEAD_MB,
}


@dataclass
class RunResult:
    tier: str
    app: str
    startup_s: float
    run_s: float
    peak_mem_mb: float
    status: int
    output: bytes = b""

    @property
    def total_s(self) -> float:
        return self.startup_s + self.run_s


@dataclass
class Workload:
    """One benchmark configuration for the Fig. 8 sweeps."""

    app: str
    argv: list
    files: Dict[str, bytes] = field(default_factory=dict)
    stdin: bytes = b""
    label: str = ""
    # kernel network backend spec (the --net knob): "loopback" (default),
    # "wan:latency_ms=...,jitter_ms=...,loss=...,bw_kbps=...", or
    # "host:optin=1" — see repro.kernel.net.create_backend
    net: str = "loopback"


class _GuestSession:
    """Common plumbing: kernel process + WALI host + instance."""

    def __init__(self, kernel: Kernel, module: Module, argv, env,
                 scheme: str, tier_up: bool = False):
        from ..wali import WaliRuntime

        self.rt = WaliRuntime(kernel=kernel, scheme=scheme, tier_up=tier_up)
        self.wp = self.rt.load(module, argv, env)

    def run_interp(self) -> int:
        return self.wp.run()

    def run_compiled(self, ctx: CompiledContext) -> int:
        inst = self.wp.instance
        start = inst.exports.get("_start")
        idx = inst.funcs.index(start)
        try:
            ctx.invoke(idx, ())
            status = 0
        except GuestExit as exc:
            status = exc.status
        except Trap as exc:
            self.wp.trap = exc
            status = 134
        return status


def _peak_mb(tier: str, session: _GuestSession) -> float:
    pages = session.wp.instance.memory.peak_pages \
        if session.wp.instance.memory is not None else 0
    return BASE_MEMORY_MB[tier] + pages * PAGE_SIZE / (1024 * 1024)


def _prepare_kernel(kernel: Kernel, workload: Workload) -> None:
    for path, data in workload.files.items():
        kernel.vfs.mkdirs(path.rsplit("/", 1)[0] or "/")
        kernel.vfs.write_file(path, data)
    if workload.stdin:
        kernel.console_feed(workload.stdin)


def run_tier(tier: str, module: Module, workload: Workload,
             env: Optional[dict] = None) -> RunResult:
    """Run one workload under one virtualization tier; measure everything."""
    if tier == "docker":
        return _run_docker(module, workload, env)

    binary = encode_module(module)  # the packaged application image
    kernel = Kernel(net_backend=workload.net)
    _prepare_kernel(kernel, workload)

    t0 = time.perf_counter()
    if tier == "wali":
        image = decode_module(binary, name=workload.app)
        session = _GuestSession(kernel, image, workload.argv, env, "loop",
                                tier_up=True)
        startup = time.perf_counter() - t0
        t1 = time.perf_counter()
        status = session.run_interp()
    elif tier == "native":
        session = _GuestSession(kernel, module, workload.argv, env, "none")
        ctx = compile_instance(session.wp.instance)
        startup = time.perf_counter() - t0
        t1 = time.perf_counter()
        status = session.run_compiled(ctx)
    elif tier == "qemu":
        image = decode_module(binary, name=workload.app)
        session = _GuestSession(kernel, image, workload.argv, env, "none")
        emulate_instance(session.wp.instance)  # "binary translation" setup
        startup = time.perf_counter() - t0
        t1 = time.perf_counter()
        status = session.run_interp()
    else:
        raise ValueError(f"unknown tier {tier!r}")
    run_s = time.perf_counter() - t1
    return RunResult(tier, workload.app, startup, run_s,
                     _peak_mb(tier, session), status,
                     kernel.console_output())


def _run_docker(module: Module, workload: Workload,
                env: Optional[dict]) -> RunResult:
    runtime = ContainerRuntime()
    runtime.pull(base_image())
    binary = encode_module(module)

    t0 = time.perf_counter()
    container = runtime.create(
        "repro-base", app_files={f"/bin/{workload.app}.wasm": binary},
        net=workload.net)
    kernel = container.kernel
    _prepare_kernel(kernel, workload)
    session = _GuestSession(kernel, module, workload.argv, env, "none")
    ctx = compile_instance(session.wp.instance)
    startup = time.perf_counter() - t0

    t1 = time.perf_counter()
    status = session.run_compiled(ctx)
    run_s = time.perf_counter() - t1
    result = RunResult("docker", workload.app, startup, run_s,
                       _peak_mb("docker", session), status,
                       kernel.console_output())
    runtime.destroy(container)
    return result


def compare_all(module: Module, workload: Workload,
                tiers=TIERS) -> Dict[str, RunResult]:
    return {tier: run_tier(tier, module, workload) for tier in tiers}
