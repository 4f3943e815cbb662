"""Virtualization tiers and the measurement harness behind Fig. 8.

Four ways to run the same application image:

========  ==========================  =========================  ==========
tier      startup work                execution                  base mem
========  ==========================  =========================  ==========
native    bind precompiled code       compiled tier, no sandbox   ~2 MB
wali      decode + validate + link    sandboxed interpreter        ~4 MB
qemu      translate to guest binary   decode-on-fetch emulator     ~6 MB
docker    assemble image + namespaces compiled tier (near-native) ~30 MB
========  ==========================  =========================  ==========

Startup and run times are *measured* (the work is real: validation,
linking, layer hashing, instruction decode); only the per-tier base memory
floor is a model constant (``BASE_MEMORY_MB`` below).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..kernel import Kernel
from ..wasm import Module, decode_module, encode_module, instantiate
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
                 scheme: str):
        from ..wali import WaliRuntime
        from ..wali.runtime import WaliProcess

        self.rt = WaliRuntime(kernel=kernel, scheme=scheme)
        self.wp = WaliProcess(self.rt, kernel.create_process(argv, env or {}),
                              module)

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


# precompiled source cache for the native/docker tiers ("offline AoT")
_precompiled: Dict[int, dict] = {}


def _bind_compiled(module: Module, instance) -> CompiledContext:
    key = id(module)
    if key not in _precompiled:
        # compile once per module (offline step, not part of startup)
        tmp = instantiate(module, _null_imports(module), run_start=False)
        compile_instance(tmp, scheme="none")
        from ..wasm.compile import _FnCompiler

        sources = {}
        n_imp = module.num_imported_funcs
        for i in range(len(module.funcs)):
            idx = n_imp + i
            src = _FnCompiler(module, idx, "none").source()
            sources[idx] = compile(src, f"<aot:f{idx}>", "exec")
        _precompiled[key] = sources
    sources = _precompiled[key]
    import math

    from ..wasm.compile import (
        Trap as _T, TrapUnreachable, _clz, _ctz, _fdiv, _idiv_s, _irem_s,
        _rotl, _sext, _trunc, _udiv, _urem,
    )
    from ..wasm.types import signed32, signed64

    env = {"_idiv_s": _idiv_s, "_irem_s": _irem_s, "_clz": _clz,
           "_ctz": _ctz, "_rotl": _rotl, "_trunc": _trunc,
           "_sgn32": signed32, "_sgn64": signed64, "_sext": _sext,
           "_udiv": _udiv, "_urem": _urem, "_fdiv": _fdiv,
           "_sqrt": math.sqrt, "_ceil": math.ceil, "_floor": math.floor,
           "Trap": _T, "TrapUnreachable": TrapUnreachable}
    ctx = CompiledContext(instance)
    for idx, code in sources.items():
        scope: dict = {}
        exec(code, env, scope)
        ctx.cfuncs[idx] = scope[f"_f{idx}"]
    return ctx


def _null_imports(module: Module) -> dict:
    out: dict = {}
    for im in module.imports:
        if im.kind == "func":
            out.setdefault(im.module, {})[im.name] = lambda *a: 0
    return out


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
        session = _GuestSession(kernel, image, workload.argv, env, "loop")
        startup = time.perf_counter() - t0
        t1 = time.perf_counter()
        status = session.run_interp()
    elif tier == "native":
        session = _GuestSession(kernel, module, workload.argv, env, "none")
        ctx = _bind_compiled(module, session.wp.instance)
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
    ctx = _bind_compiled(module, session.wp.instance)
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
