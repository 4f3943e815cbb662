"""The WALI runtime: wiring engine, kernel and host together.

Implements the paper's 1-to-1 process model (§3.1):

* each WALI process is one kernel process running one module instance in its
  own machine (and, when spawned, its own Python thread);
* ``fork`` deep-copies the running machine + instance (the child resumes at
  the fork return point with result 0);
* ``clone(CLONE_VM|CLONE_THREAD...)`` creates an *instance-per-thread*
  duplicate sharing linear memory and the funcref table;
* ``execve`` replaces the module image in place — any ``.wasm`` file in the
  VFS is directly executable (the paper's binfmt trick).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Union

from ..kernel import Kernel
from ..kernel.errno import EACCES, EAGAIN, ENOEXEC, ENOENT, KernelError
from ..kernel.process import Process, STATE_RUNNING
from ..wasm import Module, decode_module, encode_module, instantiate
from ..wasm.errors import GuestExit, Trap, WasmError
from ..wasm.interp import Machine
from .host import WaliHost
from .mmap_pool import MmapPool
from .security import SecurityPolicy
from .sigvirt import VirtualSigTable


class ExecveImage(Exception):
    """Internal control flow: the guest requested a new program image."""

    def __init__(self, module: Module, path: str):
        self.module = module
        self.path = path
        super().__init__(f"execve {path}")


class WaliProcess:
    """One guest process: kernel process + instance + machine + WALI state."""

    def __init__(self, runtime: "WaliRuntime", proc: Process, module: Module):
        self.rt = runtime
        self.proc = proc
        self.module = module
        self.instance = None
        self.machine: Optional[Machine] = None
        self.host: Optional[WaliHost] = None
        self.pool: Optional[MmapPool] = None
        self.sigv: Optional[VirtualSigTable] = None
        self.wali_time_ns = 0
        self.exit_status: Optional[int] = None
        self.trap: Optional[Trap] = None
        self.thread: Optional[threading.Thread] = None
        self._load(module)

    # ---- image management ----

    def _load(self, module: Module) -> None:
        self.module = module
        self.host = WaliHost(self.rt, self)
        imports = self.host.imports()
        self.instance = instantiate(module, imports, scheme=self.rt.scheme,
                                    tier_up=self.rt.tier_up)
        self.machine = Machine(self.instance)
        # the perf sampler walks this interpreter's frame stack
        self.proc.machine = self.machine
        if self.instance.memory is not None:
            self.pool = MmapPool(self.instance.memory)
            self.proc.mm = self.pool.space
        self.sigv = VirtualSigTable(self.proc)
        self._arm_poll(self.machine)

    def _arm_poll(self, machine: Machine) -> None:
        machine.poll_hook = self.sigv.make_poll_hook(machine,
                                                     self.instance.table)

    def poll_now(self) -> None:
        """Deliver pending unblocked signals immediately (§3.3)."""
        self.sigv.drain(self.machine, self.instance.table)

    # ---- execution ----

    def run(self) -> int:
        """Run ``_start`` to completion in the calling thread."""
        return self._run_loop(resume=False)

    def _run_loop(self, resume: bool) -> int:
        status = 0
        while True:
            try:
                if resume:
                    resume = False
                    self.machine.run(0)
                else:
                    start = self.instance.exports.get("_start")
                    if start is None:
                        raise WasmError("module has no _start export")
                    self.machine.invoke(start, [])
                status = 0
            except GuestExit as exc:
                status = exc.status
            except ExecveImage as exc:
                self._load(exc.module)
                continue
            except Trap as exc:
                self.trap = exc
                status = 128 + 6  # SIGABRT-style termination
            break
        if self.proc.state == STATE_RUNNING:
            try:
                self.rt.kernel.call(self.proc, "exit_group", status)
            except KernelError:
                pass
        self.exit_status = status
        return status

    def start_in_thread(self, resume: bool = False) -> None:
        self.thread = threading.Thread(
            target=self._run_loop, args=(resume,), daemon=True,
            name=f"wali-pid{self.proc.pid}")
        self.thread.start()

    def join(self, timeout: Optional[float] = None) -> None:
        if self.thread is not None:
            self.thread.join(timeout)

    # ---- fork support ----

    def fork_clone(self, child_proc: Process) -> "WaliProcess":
        """Duplicate this running process for ``fork``: machine state and
        memory copied, code shared; child resumes at the fork point."""
        child = WaliProcess.__new__(WaliProcess)
        child.rt = self.rt
        child.proc = child_proc
        child.module = self.module
        child.instance = self.instance.clone()
        child.machine = self.machine.clone(child.instance)
        child_proc.machine = child.machine
        child.host = WaliHost(self.rt, child)
        # the cloned instance must call the *child's* host functions
        self._rebind_host(child)
        child.pool = self.pool.fork_copy(child.instance.memory)
        child_proc.mm = child.pool.space
        child.sigv = VirtualSigTable(child_proc)
        child.wali_time_ns = 0
        child.exit_status = None
        child.trap = None
        child.thread = None
        child._arm_poll(child.machine)
        return child

    def _rebind_host(self, child: "WaliProcess") -> None:
        """Point the child's imported host functions at the child's host."""
        imports = child.host.imports()["wali"]
        funcs = list(child.instance.funcs)
        for i, im in enumerate(child.module.imports):
            if im.kind == "func" and im.module == "wali" and \
                    im.name in imports:
                funcs[i] = imports[im.name]
        child.instance.funcs = funcs
        # the table may contain host funcrefs; keep guest functions shared
        if child.instance.table is not None:
            old_to_new = {id(o): n for o, n in
                          zip(self.instance.funcs, funcs)}
            child.instance.table.elems = [
                None if e is None else
                funcs[self.instance.funcs.index(e)]
                if e in self.instance.funcs else e
                for e in child.instance.table.elems]


class WaliRuntime:
    """The engine-side WALI implementation (the paper's WAMR analog)."""

    def __init__(self, kernel: Optional[Kernel] = None,
                 arch: str = "x86_64", scheme: str = "loop",
                 policy: Optional[SecurityPolicy] = None,
                 tier_up: bool = True):
        self.kernel = kernel if kernel is not None else Kernel(machine=arch)
        self.arch = arch
        self.scheme = scheme
        self.policy = policy
        # mixed mode: looping leaf functions run on the compiled tier
        # (wasm/compile.py); False keeps every guest function interpreted
        self.tier_up = tier_up
        self.processes: List[WaliProcess] = []

    # ---- program loading ----

    def install_binary(self, path: str, module: Module) -> None:
        """Write an encoded ``.wasm`` into the VFS (binfmt-style packaging)."""
        self.kernel.vfs.mkdirs(path.rsplit("/", 1)[0] or "/")
        self.kernel.vfs.write_file(path, encode_module(module), mode=0o755)

    def load(self, program: Union[str, Module],
             argv: Optional[List[str]] = None,
             env: Optional[Dict[str, str]] = None,
             cwd: str = "/") -> WaliProcess:
        """Create a WALI process for a module or an installed ``.wasm``."""
        if isinstance(program, str):
            module = self._image_from_path(program)
            argv = argv if argv is not None else [program]
        else:
            module = program
            argv = argv if argv is not None else [module.name or "app"]
        proc = self.kernel.create_process(argv, env or {}, cwd=cwd)
        wp = WaliProcess(self, proc, module)
        self.processes.append(wp)
        return wp

    def run(self, program, argv=None, env=None, cwd: str = "/") -> int:
        """Convenience: load + run to completion; returns the exit status."""
        return self.load(program, argv, env, cwd).run()

    def _image_from_path(self, path: str) -> Module:
        data = self.kernel.vfs.read_file(path)
        if data[:4] != b"\x00asm":
            raise KernelError(ENOEXEC, path)
        return decode_module(data, name=path)

    # ---- process model hooks (called from WaliHost) ----

    def fork(self, wp: WaliProcess, flags: int = 0) -> int:
        if wp.machine.native_depth:
            # a signal handler above a compiled leaf: the leaf's state is
            # on this thread's Python stack, where a clone cannot reach it
            self.kernel.counters.inc("wali.fork_refused")
            raise KernelError(EAGAIN, "fork above a compiled activation")
        child_proc = self.kernel.call(wp.proc, "fork")
        child = wp.fork_clone(child_proc)
        self.processes.append(child)
        # the child resumes at the fork return point with result 0
        child.machine.stack.append(0)
        child.start_in_thread(resume=True)
        return child_proc.pid

    def spawn_thread(self, wp: WaliProcess, flags: int, fn: int,
                     arg: int) -> int:
        child_proc = self.kernel.call(wp.proc, "clone", flags)
        child = WaliProcess.__new__(WaliProcess)
        child.rt = self
        child.proc = child_proc
        child.module = wp.module
        child.instance = wp.instance.thread_clone()
        child.machine = Machine(child.instance)
        child_proc.machine = child.machine
        child.host = WaliHost(self, child)
        wp._rebind_host(child)
        child.pool = wp.pool           # CLONE_VM: shared address space
        child.sigv = VirtualSigTable(child_proc)
        child.wali_time_ns = 0
        child.exit_status = None
        child.trap = None
        child._arm_poll(child.machine)
        self.processes.append(child)

        table = child.instance.table
        if table is None or fn >= len(table.elems) or table.elems[fn] is None:
            raise KernelError(EACCES, f"bad thread entry funcref {fn}")
        entry = table.elems[fn]

        def thread_main():
            try:
                child.machine.invoke(entry, [arg])
                status = 0
            except GuestExit as exc:
                status = exc.status
            except Trap as exc:
                child.trap = exc
                status = 128 + 6
            if child_proc.state == STATE_RUNNING:
                try:
                    self.kernel.call(child_proc, "exit", status)
                except KernelError:
                    pass
            child.exit_status = status

        child.thread = threading.Thread(
            target=thread_main, daemon=True,
            name=f"wali-tid{child_proc.pid}")
        child.thread.start()
        return child_proc.pid

    def execve(self, wp: WaliProcess, path: str, argv: List[str],
               envp: List[str]) -> int:
        self.kernel.call(wp.proc, "execve", path, argv, envp)
        module = self._image_from_path(path)
        raise ExecveImage(module, path)

    # ---- reporting ----

    def breakdown(self, wp: WaliProcess) -> dict:
        """Fig. 7 data: share of time in app vs kernel vs WALI."""
        kernel_ns = self.kernel.kernel_time_ns.get(wp.proc.tgid, 0)
        wali_ns = wp.wali_time_ns
        return {"kernel_ns": kernel_ns, "wali_ns": wali_ns}
