"""Virtualization tiers and the measurement harness behind Fig. 8.

Four ways to run the same application image:

======  ===========================  ==============================  ========
tier    startup work                 execution                       base mem
======  ===========================  ==============================  ========
native  link + bind compiled code    ``tier_up="all"``, no sandbox   ~2 MB
wali    decode + validate + link     ``tier_up="fork_free"``         ~4 MB
qemu    translate to guest binary    decode-on-fetch emulator        ~6 MB
docker  assemble image + namespaces  ``tier_up="all"``, near-native  ~30 MB
======  ===========================  ==============================  ========

Every tier loads the image into a :class:`~repro.wali.WaliRuntime` over
its own kernel and runs it with :meth:`~repro.wali.WaliProcess.run`; the
tiers differ in the compiled tier's rule (``docs/perf.md``, "The compiled
tier").  Under ``"fork_free"``, every function that reaches no fork,
clone or ``execve`` import runs compiled, syscalls included, and the
paths to those calls run interpreted, so the wali tier forks.  Under
``"all"`` every function is compiled, so a ``fork`` fails with EAGAIN:
the native and docker tiers run only workloads that do not fork.  The qemu tier
emulates every function.

Startup and run times are *measured* (the work is real: validation,
linking, layer hashing, instruction decode); only the per-tier base memory
floor is a model constant (``BASE_MEMORY_MB`` below).  Decoding,
validation, flat code and compiled code are cached per image content
(:func:`repro.wasm.compile.load_image`), which makes them an offline step
after a module's first load.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..kernel import Kernel
from ..wali import WaliProcess, WaliRuntime
from ..wasm import Module, encode_module
from ..wasm.compile import load_image
from ..wasm.types import PAGE_SIZE
from .container import ContainerRuntime, DOCKER_BASE_OVERHEAD_MB, base_image
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


# tier -> (safepoint scheme, tier-up rule) of the runtime it loads into
_LOAD = {"native": ("none", "all"), "docker": ("none", "all"),
         "wali": ("loop", "fork_free"), "qemu": ("none", None)}


def _load(tier: str, kernel: Kernel, module: Module, workload: Workload,
          env: Optional[dict]) -> WaliProcess:
    scheme, tier_up = _LOAD[tier]
    rt = WaliRuntime(kernel=kernel, scheme=scheme, tier_up=tier_up)
    return rt.load(module, workload.argv, env)


def _peak_mb(tier: str, wp: WaliProcess) -> float:
    memory = wp.instance.memory
    pages = memory.peak_pages if memory is not None else 0
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
    if tier == "native":
        wp = _load(tier, kernel, module, workload, env)
    elif tier in ("wali", "qemu"):
        image = load_image(binary, workload.app)
        wp = _load(tier, kernel, image, workload, env)
        if tier == "qemu":
            emulate_instance(wp.instance)  # "binary translation" setup
    else:
        raise ValueError(f"unknown tier {tier!r}")
    startup = time.perf_counter() - t0
    t1 = time.perf_counter()
    status = wp.run()
    run_s = time.perf_counter() - t1
    return RunResult(tier, workload.app, startup, run_s,
                     _peak_mb(tier, wp), status, kernel.console_output())


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
    wp = _load("docker", kernel, module, workload, env)
    startup = time.perf_counter() - t0

    t1 = time.perf_counter()
    status = wp.run()
    run_s = time.perf_counter() - t1
    result = RunResult("docker", workload.app, startup, run_s,
                       _peak_mb("docker", wp), status,
                       kernel.console_output())
    runtime.destroy(container)
    return result


def compare_all(module: Module, workload: Workload,
                tiers=TIERS) -> Dict[str, RunResult]:
    return {tier: run_tier(tier, module, workload) for tier in tiers}
