"""Span tracing around the public entry points of each WALI layer.

The tracer patches the classes and module functions named in
:meth:`Tracer.install` and restores them on :meth:`Tracer.uninstall`;
nothing under ``src/`` knows it exists.  Every call into a wrapped entry
point records one span ``[kind, start_ns, end_ns, parent, note]`` on a
per-thread list.  Spans stay in memory until :meth:`Tracer.summary`
folds them into per-layer numbers at the end of the run.

A span's self time is its duration minus the durations of its direct
children, so the self times of one thread's spans add up to the time that
thread spent inside wrapped calls.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from typing import Dict, List

from repro.kernel import Kernel
from repro.kernel.block import BlockFS
from repro.kernel.errno import EAGAIN, KernelError
from repro.kernel.eventpoll import EventPoll
from repro.kernel.net.base import Socket
from repro.kernel.process import STATE_RUNNING
from repro.kernel.sched import Scheduler
from repro.wali import host as wali_host
from repro.wali import runtime as wali_runtime
from repro.wasm.interp import Machine

_now = time.perf_counter_ns

# span kind -> layer that owns its self time
LAYER_OF = {
    "wasm.interp": "wasm",
    "wasm.decode": "wasm",
    "wasm.instantiate": "wasm",
    "wali.host": "wali",
    "wali.fork": "wali",
    "wali.execve": "wali",
    "kernel.dispatch": "kernel",
    "kernel.handler": "kernel",
    "epoll.wait_step": "kernel",
    "net.recv_step": "kernel",
    "sched.enter_exit": "sched",
    "sched.sleep": "sched",
    "block.settle": "block",
    "block.fsync": "block",
}
LAYERS = ("wasm", "wali", "kernel", "sched", "block")

# syscalls whose handler self time is reported by name
HANDLERS = ("read", "write", "pread64", "pwrite64", "epoll_pwait", "fsync",
            "wait4", "fork", "execve")

_K, _T0, _T1, _PARENT, _NOTE = range(5)
_INTERP = "wasm.interp"


class Tracer:
    """Per-thread span stacks over the WALI stack's entry points."""

    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        # (thread, spans) for every thread that recorded a span
        self.threads: List[tuple] = []
        self._saved: List[tuple] = []

    # ---- recording ----

    def _stack(self):
        """The calling thread's span stack, registering the thread on its
        first span; None while the thread is muted."""
        tls = self._tls
        try:
            return tls.stack
        except AttributeError:
            tls.spans = []
            tls.stack = []
            with self._lock:
                self.threads.append((threading.current_thread(), tls.spans))
            return tls.stack

    def mute(self, muted: bool) -> None:
        """Stop (or resume) recording on the calling thread; used for the
        load generator, whose kernel calls are not guest work."""
        tls = self._tls
        stack = self._stack()
        if muted and stack is not None:
            tls.saved, tls.stack = stack, None
        elif not muted and stack is None:
            tls.stack = tls.saved

    # ---- wrappers ----
    # Each wrapper is one closure with the bookkeeping inlined: the
    # per-span cost is what the traced run's overhead is made of.

    def _plain(self, kind: str, fn, note=None):
        tls, stack_of, now = self._tls, self._stack, _now

        def traced(*args, **kwargs):
            try:
                stack = tls.stack
            except AttributeError:
                stack = stack_of()
            if stack is None:
                return fn(*args, **kwargs)
            spans = tls.spans
            rec = [kind, now(), 0, stack[-1] if stack else -1, note]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[_T1] = now()
                stack.pop()
        return traced

    def _noted(self, kind: str, fn, note_of):
        """Like :meth:`_plain`, with ``note_of(args, result, exc, rec)``
        filling the span's note after the call."""
        tls, stack_of, now = self._tls, self._stack, _now

        def traced(*args, **kwargs):
            try:
                stack = tls.stack
            except AttributeError:
                stack = stack_of()
            if stack is None:
                return fn(*args, **kwargs)
            spans = tls.spans
            rec = [kind, now(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except KernelError as err:
                exc = err
                raise
            finally:
                rec[_T1] = now()
                stack.pop()
                rec[_NOTE] = note_of(args, result, exc, rec)
        return traced

    def _machine_run(self, fn):
        tls, stack_of, now = self._tls, self._stack, _now

        def traced(machine, *args, **kwargs):
            try:
                stack = tls.stack
            except AttributeError:
                stack = stack_of()
            if stack is None:
                return fn(machine, *args, **kwargs)
            spans = tls.spans
            rec = [_INTERP, now(), 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            steps0 = machine.steps
            try:
                return fn(machine, *args, **kwargs)
            finally:
                rec[_T1] = now()
                stack.pop()
                rec[_NOTE] = machine.steps - steps0
        return traced

    def _imports(self, fn):
        tracer = self

        def traced(host):
            ns = fn(host)
            for hf in ns[wali_host.MODULE].values():
                hf.fn = tracer._plain("wali.host", hf.fn)
            return ns
        return traced

    # ---- install / uninstall ----

    def _patch(self, owner, attr: str, wrapper) -> None:
        had = attr in vars(owner)
        self._saved.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, wrapper(getattr(owner, attr)))

    def install(self) -> None:
        p = self._patch
        p(Machine, "run", self._machine_run)
        p(wali_runtime, "decode_module",
          lambda f: self._plain("wasm.decode", f))
        p(wali_runtime, "instantiate",
          lambda f: self._plain("wasm.instantiate", f))
        p(wali_host.WaliHost, "imports", self._imports)
        p(wali_runtime.WaliRuntime, "fork",
          lambda f: self._plain("wali.fork", f))
        p(wali_runtime.WaliRuntime, "execve",
          lambda f: self._plain("wali.execve", f))
        p(Kernel, "call", lambda f: self._plain("kernel.dispatch", f))
        for attr in dir(Kernel):
            if attr.startswith("sys_"):
                p(Kernel, attr,
                  lambda f, n=attr[4:]: self._plain("kernel.handler", f, n))
        p(Scheduler, "syscall_enter",
          lambda f: self._plain("sched.enter_exit", f))
        p(Scheduler, "syscall_exit",
          lambda f: self._plain("sched.enter_exit", f))
        # a sleep that ran its whole slice: nothing woke the task
        p(Scheduler, "sleep", lambda f: self._noted(
            "sched.sleep", f,
            lambda a, r, e, rec: rec[_T1] - rec[_T0] >= a[2] * 1e9))
        p(EventPoll, "wait_step", lambda f: self._noted(
            "epoll.wait_step", f, lambda a, r, e, rec: r is None))
        p(Socket, "recv_step", lambda f: self._noted(
            "net.recv_step", f,
            lambda a, r, e, rec: e is not None and e.errno == EAGAIN))
        p(BlockFS, "settle", lambda f: self._plain("block.settle", f))
        p(BlockFS, "fsync_inode", lambda f: self._plain("block.fsync", f))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, had, old = self._saved.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    # ---- folding spans into per-layer numbers ----

    def summary(self, ops: int, roots: List[tuple]) -> Dict[str, float]:
        """Per-layer metrics over every recorded span.

        ``ops`` normalises counts and times to one workload op.  ``roots``
        lists ``(thread, wall_s)`` for the guest threads whose lifetime the
        harness timed; their span self times are reconciled against it.
        """
        ops = max(ops, 1)
        n = Counter()              # spans per kind
        self_ns = Counter()        # self time per kind
        incl_ns = Counter()        # inclusive time per kind
        handler_ns = Counter()     # self time per syscall handler
        layer_ns = Counter()       # self time per layer, root threads only
        steps = 0
        sleep_timeouts = 0
        io_wait_ns = 0
        blocked_ns = 0
        epoll_empty = 0
        eagain = 0
        root_ids = {id(t) for t, _ in roots}
        for thread, spans in self.threads:
            child = [0] * len(spans)
            for rec in spans:
                if rec[_PARENT] >= 0 and rec[_T1]:
                    child[rec[_PARENT]] += rec[_T1] - rec[_T0]
            is_root = id(thread) in root_ids
            for i, rec in enumerate(spans):
                if not rec[_T1]:
                    continue  # still open: a guest abandoned mid-call
                kind = rec[_K]
                dur = rec[_T1] - rec[_T0]
                own = dur - child[i]
                n[kind] += 1
                self_ns[kind] += own
                incl_ns[kind] += dur
                layer = LAYER_OF[kind]
                if kind == "wasm.interp":
                    if not _has_ancestor(spans, i, "wasm.interp"):
                        steps += rec[_NOTE] or 0
                elif kind == "kernel.handler":
                    handler_ns[rec[_NOTE]] += own
                elif kind == "sched.sleep":
                    if _has_ancestor(spans, i, "block.settle"):
                        layer = "block"
                        io_wait_ns += own
                    else:
                        blocked_ns += own
                        sleep_timeouts += bool(rec[_NOTE])
                elif kind == "epoll.wait_step":
                    epoll_empty += bool(rec[_NOTE])
                elif kind == "net.recv_step":
                    eagain += bool(rec[_NOTE])
                if is_root:
                    layer_ns[layer] += own

        crossings = n["wali.host"]
        syscalls = n["kernel.dispatch"]
        root_wall_ns = sum(w for _, w in roots) * 1e9
        out = {
            "wasm.instructions": steps / ops,
            "wasm.interp_self_s": self_ns["wasm.interp"] / 1e9 / ops,
            "wasm.ns_per_instr": self_ns["wasm.interp"] / max(steps, 1),
            "wasm.decode_s": incl_ns["wasm.decode"] / 1e9 / ops,
            "wasm.instantiate_s": incl_ns["wasm.instantiate"] / 1e9 / ops,
            "wali.crossings": crossings,
            "wali.crossings_per_op": crossings / ops,
            "wali.self_ns_per_crossing":
                self_ns["wali.host"] / max(crossings, 1),
            "wali.fork_s": incl_ns["wali.fork"] / 1e9 / ops,
            "wali.execve_s": incl_ns["wali.execve"] / 1e9 / ops,
            "kernel.syscalls": syscalls / ops,
            "kernel.dispatch_ns_per_call":
                self_ns["kernel.dispatch"] / max(syscalls, 1),
            "sched.enter_exit_ns_per_call":
                self_ns["sched.enter_exit"] / max(syscalls, 1),
            "sched.blocked_s": blocked_ns / 1e9 / ops,
            "sched.sleep_timeouts": sleep_timeouts / ops,
            "epoll.wait_steps": n["epoll.wait_step"] / ops,
            "epoll.empty_ratio":
                epoll_empty / max(n["epoll.wait_step"], 1),
            "net.eagain_ratio": eagain / max(n["net.recv_step"], 1),
            "block.io_wait_s": io_wait_ns / 1e9 / ops,
            "block.fsync_s": incl_ns["block.fsync"] / 1e9 / ops,
        }
        for name in HANDLERS:
            out[f"kernel.handler_s.{name}"] = handler_ns[name] / 1e9 / ops
        total = sum(layer_ns.values())
        for layer in LAYERS:
            out[f"split.{layer}"] = layer_ns[layer] / max(total, 1)
        out["trace.self_sum_frac"] = total / max(root_wall_ns, 1)
        return out


def _has_ancestor(spans: list, i: int, kind: str) -> bool:
    p = spans[i][_PARENT]
    while p >= 0:
        if spans[p][_K] == kind:
            return True
        p = spans[p][_PARENT]
    return False


def kernel_counters(kernel, skip_tgids=()) -> Dict[str, float]:
    """Block-layer and scheduler counters one kernel accumulated."""
    snap = defaultdict(int)
    if kernel.trace is not None:
        snap.update(kernel.trace.counters.snapshot())
    wait_ns = sum(v for tgid, v in kernel.sched_wait_ns.items()
                  if tgid not in skip_tgids)
    return {
        "block.read_blocks": snap["block.read_blocks"],
        "block.write_blocks": snap["block.write_blocks"],
        "block.cache_hit": snap["block.cache_hit"],
        "block.cache_miss": snap["block.cache_miss"],
        "block.commits": snap["block.commits"],
        "sched.runnable_wait_s": wait_ns / 1e9,
    }


def retained_processes(rt) -> int:
    """WALI processes the runtime still holds whose task has exited."""
    live = rt.kernel.processes
    return sum(1 for wp in rt.processes
               if live.get(wp.proc.pid) is not wp.proc
               or wp.proc.state != STATE_RUNNING)

