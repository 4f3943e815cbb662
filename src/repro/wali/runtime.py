"""The WALI runtime: wiring engine, kernel and host together.

Implements the paper's 1-to-1 process model (§3.1): each WALI process is
one kernel task running one module instance in its own machine (and, when
spawned, its own Python thread).  Every process has one lifecycle:

* **construct** -- ``WaliProcess(runtime, proc, module)`` sets every field
  and builds a :class:`WaliHost` for ``module`` that binds exactly its
  ``wali`` imports (a process with no module, WASI-over-WALI, gets a host
  that binds every name);
* **attach** -- :meth:`WaliProcess.attach` binds an instance to it, with a
  machine and an mmap pool.  It is the only code that sets the instance,
  machine, pool, virtual sigtable, poll hook and poll gate (the task's
  pending signals), and the kernel task's ``machine``/``mm``;
* **release** -- :meth:`WaliRuntime.release` drops the process from
  ``WaliRuntime.processes`` once the kernel reaps its task: when ``wait4``
  returns it, or when an auto-reaped thread's run ends.  The zombie a
  parent has not waited for stays, like the kernel's own record.

The routes differ only in where the instance comes from:

* load and ``execve`` instantiate the image over ``host.imports()``.
  ``execve`` instantiates the new image over a fresh host, bound to that
  image, before the kernel commits, so an image that fails to decode,
  validate or link fails with ENOEXEC and leaves the process as it was.
  Any ``.wasm`` file in the VFS is directly executable (the paper's binfmt
  trick).  An image is decoded, validated, flattened and compiled once per
  content (:func:`repro.wasm.compile.load_image`), so a load or
  ``execve`` of bytes seen before only links;
* ``fork`` copies the running instance and machine, and binds a pool to
  the address space the kernel's fork copied (the child resumes at the
  fork return point with result 0);
* ``clone(CLONE_VM|CLONE_THREAD...)`` makes an *instance-per-thread*
  duplicate sharing linear memory, the pool and the funcref table;
* WASI-over-WALI (:func:`repro.wasi.wasi_over_wali`) attaches the WASI
  app's instance.

**Accounting.** ``WaliProcess.cells`` is the process's one WALI store,
kept across ``execve`` with the translation counters beside it;
:mod:`repro.wali.host` describes its writer and views.

**Relink.** A cloned instance shares its parent's function list, so it is
pointed at the child's ``wali`` imports with :func:`repro.wasm.relink`, by
import name; the child's host binds the same image, so every name is
there.  A fork relinks its private copy of the table too.  A thread
shares the parent's table and never rewrites it: the parent's funcref
entries keep calling the parent's host.
"""

from __future__ import annotations

import threading
from collections import Counter
from functools import partial
from typing import Callable, Dict, List, Optional, Union

from ..kernel import Kernel
from ..kernel.errno import EACCES, EAGAIN, ENOEXEC, KernelError
from ..kernel.process import Process, STATE_DEAD, STATE_RUNNING
from ..wasm import (
    Instance, Module, decode_module, encode_module, instantiate, relink,
)
from ..wasm.compile import load_image
from ..wasm.errors import (
    DecodeError, GuestExit, LinkError, Trap, ValidationError, WasmError,
)
from ..wasm.interp import Machine
from .host import ENGINE_COST_CALLS, STRUCT_CALLS, WaliHost
from .mmap_pool import MmapPool
from .security import SecurityPolicy
from .sigvirt import VirtualSigTable
from .spec import MODULE


class ExecveImage(Exception):
    """Internal control flow: the guest requested a new program image,
    already instantiated (start function not yet run) over ``host``."""

    def __init__(self, module: Module, path: str, host: WaliHost,
                 instance: Instance):
        self.module = module
        self.path = path
        self.host = host
        self.instance = instance
        super().__init__(f"execve {path}")


class WaliProcess:
    """One guest process: kernel process + instance + machine + WALI state.

    The instance-side fields are None until :meth:`attach` sets them."""

    instance: Optional[Instance] = None
    machine: Optional[Machine] = None
    pool: Optional[MmapPool] = None
    sigv: Optional[VirtualSigTable] = None

    def __init__(self, runtime: "WaliRuntime", proc: Process,
                 module: Optional[Module] = None):
        self.rt = runtime
        self.proc = proc
        self.module = module
        # the WALI layer's accounting, for every image this process runs:
        # syscall name -> [calls, wali_ns]
        self.cells: Dict[str, List[int]] = {}
        # zero-copy address translations, and the per-SQE/CQE translations
        # that registered buffers skipped
        self.zero_copy_calls = 0
        self.fixed_elides = 0
        self.host = WaliHost(runtime, self, module)
        self.exit_status: Optional[int] = None
        self.trap: Optional[Trap] = None
        self.thread: Optional[threading.Thread] = None

    def attach(self, instance: Instance, machine: Optional[Machine] = None,
               pool: Optional[MmapPool] = None) -> None:
        """Make ``instance`` this process's image.

        ``machine`` defaults to a fresh one and ``pool`` to a fresh mmap
        pool over the instance's memory (fork and threads pass their own).
        """
        self.instance = instance
        if machine is None:
            machine = Machine(instance)
        self.machine = machine
        # the perf sampler walks this interpreter's frame stack
        self.proc.machine = machine
        if pool is None and instance.memory is not None:
            pool = MmapPool(instance.memory)
        self.pool = pool
        if pool is not None:
            self.proc.mm = pool.space
        self.sigv = VirtualSigTable(self.proc)
        machine.poll_hook = self.sigv.make_poll_hook(machine, instance.table)
        # the hook has work only while a signal is pending
        machine.poll_gate = self.proc.pending

    # views of the cells

    @property
    def call_counts(self) -> Counter:
        return Counter({n: c[0] for n, c in self.cells.items() if c[0]})

    @property
    def call_wali_ns(self) -> Counter:
        return Counter({n: c[1] for n, c in self.cells.items() if c[0]})

    @property
    def struct_copy_calls(self) -> int:
        return sum(c[0] for n, c in self.cells.items() if n in STRUCT_CALLS)

    @property
    def wali_time_ns(self) -> int:
        """Fig. 7's WALI share: every call but the process-model ones,
        whose cost is engine work (``ENGINE_COST_CALLS``)."""
        return sum(c[1] for n, c in self.cells.items()
                   if n not in ENGINE_COST_CALLS)

    def poll_now(self) -> None:
        """Deliver pending unblocked signals immediately (§3.3)."""
        self.sigv.drain(self.machine, self.instance.table)

    # ---- execution ----

    def run(self) -> int:
        """Run ``_start`` to completion in the calling thread."""
        return self._run_loop()

    def _run_loop(self, entry: Optional[Callable[[], object]] = None,
                  exit_call: str = "exit_group") -> int:
        """The one task runner: run ``entry``, else (and after an
        ``execve``) the image's ``_start``, to its end, then leave the
        kernel through ``exit_call`` with the status: the guest's exit
        code, 0 when the entry returns, 134 on a trap."""
        status = 0
        while True:
            try:
                if entry is None:
                    start = self.instance.exports.get("_start")
                    if start is None:
                        raise WasmError("module has no _start export")
                    self.machine.invoke(start, [])
                else:
                    entry()
                status = 0
            except GuestExit as exc:
                status = exc.status
            except ExecveImage as exc:
                # a fresh host per image
                self.module, self.host = exc.module, exc.host
                self.attach(exc.instance)
                if self.module.start is not None:
                    self.machine.invoke(
                        self.instance.funcs[self.module.start], [])
                entry = None  # the new image runs from its _start
                continue
            except Trap as exc:
                self.trap = exc
                status = 128 + 6  # SIGABRT-style termination
            break
        if self.proc.state == STATE_RUNNING:
            try:
                self.rt.kernel.call(self.proc, exit_call, status)
            except KernelError:
                pass
        self.exit_status = status
        return status

    def start_in_thread(self, resume: bool = False) -> None:
        """Run the process on its own host thread: ``_start``, or with
        ``resume`` the machine's saved frames (a forked child)."""
        entry = partial(self.machine.run, 0) if resume else None
        self.thread = threading.Thread(
            target=self._run_loop, args=(entry,), daemon=True,
            name=f"wali-pid{self.proc.pid}")
        self.thread.start()

    def join(self, timeout: Optional[float] = None) -> None:
        if self.thread is not None:
            self.thread.join(timeout)


class WaliRuntime:
    """The engine-side WALI implementation (the paper's WAMR analog)."""

    def __init__(self, kernel: Optional[Kernel] = None,
                 arch: str = "x86_64", scheme: str = "loop",
                 policy: Optional[SecurityPolicy] = None,
                 tier_up: Optional[str] = "fork_free"):
        self.kernel = kernel if kernel is not None else Kernel(machine=arch)
        self.scheme = scheme
        self.policy = policy
        # the compiled tier's rule (wasm/compile.py): "fork_free" runs every
        # function that reaches no fork, clone or execve import compiled,
        # "all" every function (a fork under a compiled frame then fails);
        # None keeps every function interpreted
        self.tier_up = tier_up
        # processes whose task is not reaped; release replaces the list,
        # so a reader iterating it sees a snapshot
        self.processes: List[WaliProcess] = []
        self._processes_lock = threading.Lock()

    # ---- program loading ----

    def install_binary(self, path: str, module: Module) -> None:
        """Write an encoded ``.wasm`` into the VFS (binfmt-style packaging)."""
        self.kernel.vfs.mkdirs(path.rsplit("/", 1)[0] or "/")
        self.kernel.vfs.write_file(path, encode_module(module), mode=0o755)

    def instantiate(self, module: Module, imports: dict,
                    run_start: bool = True) -> Instance:
        """Instantiate any image (WASI ones too) as this runtime runs it."""
        return instantiate(module, imports, scheme=self.scheme,
                           run_start=run_start, tier_up=self.tier_up)

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
        wp.attach(self.instantiate(module, wp.host.imports()))
        self._track(wp)
        return wp

    def run(self, program, argv=None, env=None, cwd: str = "/") -> int:
        """Convenience: load + run to completion; returns the exit status."""
        return self.load(program, argv, env, cwd).run()

    def _image_from_path(self, path: str) -> Module:
        data = self.kernel.vfs.read_file(path)
        if data[:4] != b"\x00asm":
            raise KernelError(ENOEXEC, path)
        try:
            # decoded and validated once per content; a miss calls this
            # module's own decode_module, the name a tracer wraps
            return load_image(data, path, decode_module)
        except (DecodeError, ValidationError) as exc:
            raise KernelError(ENOEXEC, f"{path}: {exc}") from exc

    # ---- process model hooks (called from WaliHost) ----

    def fork(self, wp: WaliProcess, flags: int = 0) -> int:
        if wp.machine.native_depth:
            # a compiled activation below this call keeps its state on the
            # thread's Python stack, where a clone cannot reach it
            self.kernel.counters.inc("wali.fork_refused")
            raise KernelError(EAGAIN, "fork above a compiled activation")
        child_proc = self.kernel.call(wp.proc, "fork")
        child = WaliProcess(self, child_proc, wp.module)
        instance = wp.instance.clone()
        wali = child.host.imports()[MODULE]
        instance.funcs = relink(instance.funcs, wali)
        if instance.table is not None:
            # the copy is the child's own: relink host funcrefs from any
            # host, including a leader's reached from a thread's table
            instance.table.elems = relink(instance.table.elems, wali)
        # the kernel's fork already copied the address space
        child.attach(instance, wp.machine.clone(instance),
                     MmapPool(instance.memory, space=child_proc.mm))
        self._track(child)
        # the child resumes at the fork return point with result 0
        child.machine.stack.append(0)
        child.start_in_thread(resume=True)
        return child_proc.pid

    def spawn_thread(self, wp: WaliProcess, flags: int, fn: int,
                     arg: int) -> int:
        table = wp.instance.table
        if table is None or fn >= len(table.elems) or table.elems[fn] is None:
            raise KernelError(EACCES, f"bad thread entry funcref {fn}")
        entry = table.elems[fn]
        child_proc = self.kernel.call(wp.proc, "clone", flags)
        child = WaliProcess(self, child_proc, wp.module)
        instance = wp.instance.thread_clone()
        # the table stays shared and is never rewritten: its host funcrefs
        # keep calling the parent's host
        instance.funcs = relink(instance.funcs,
                                child.host.imports()[MODULE])
        child.attach(instance, pool=wp.pool)  # CLONE_VM: shared pool
        self._track(child)

        def thread_main():
            child._run_loop(partial(child.machine.invoke, entry, [arg]),
                            "exit")
            if child_proc.state == STATE_DEAD:   # auto-reaped at exit
                self.release(child_proc.pid)

        child.thread = threading.Thread(
            target=thread_main, daemon=True,
            name=f"wali-tid{child_proc.pid}")
        child.thread.start()
        return child_proc.pid

    def execve(self, wp: WaliProcess, path: str, argv: List[str],
               envp: List[str]) -> int:
        # decode and instantiate before the kernel commits: a bad image
        # leaves the process (fds, argv, comm, dispositions) as it was
        module = self._image_from_path(path)
        host = WaliHost(self, wp, module)
        try:
            instance = self.instantiate(module, host.imports(),
                                        run_start=False)
        except LinkError as exc:
            raise KernelError(ENOEXEC, f"{path}: {exc}") from exc
        self.kernel.call(wp.proc, "execve", path, argv, envp)
        raise ExecveImage(module, path, host, instance)

    # ---- process table ----

    def _track(self, wp: WaliProcess) -> None:
        with self._processes_lock:
            self.processes.append(wp)

    def release(self, pid: int) -> None:
        """Drop the process of a task the kernel reaped."""
        with self._processes_lock:
            self.processes = [wp for wp in self.processes
                              if wp.proc.pid != pid]
