"""The benchmark's five workloads, their seeded inputs and their references.

Each ``run_<name>(seed, seconds, deadline, stats, tracer, size)`` drives the
unmodified WALI stack (``WaliRuntime`` -> ``WaliHost`` -> ``Kernel``) for
``seconds`` of measured work and records into a :class:`Stats`.  The seed
fixes every input; it never changes how much work one op is, so runs with
different seeds measure the same amount of work.  Every output is checked
against a reference computed here in Python, never against the program's
own output.

``deadline`` is the run's wall-clock cap (``time.perf_counter`` value).
No guest is waited on past it or past its op's ``OP_CAP_S``; a guest
still running then fails its op and its kernel's tasks are killed.  Only
``kv`` uses ``tracer``: it mutes the span recording on the load
generator's thread.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import string
import time
from collections import Counter
from typing import Dict, List, Optional

from repro.apps import build
from repro.kernel import AF_INET, EPOLL_CTL_ADD, EPOLLIN, SOCK_STREAM
from repro.kernel.errno import EAGAIN, KernelError
from repro.kernel.net.base import SOCK_NONBLOCK
from repro.kernel.process import STATE_RUNNING
from repro.kernel.signals import SIGKILL
from repro.kernel.vfs import O_WRONLY
from repro.wali import WaliRuntime
from repro.wasm import encode_module

from tracer import kernel_counters, retained_processes

now = time.perf_counter

# sizes of one op, per workload (the self-test passes smaller ones)
SIZES = {
    "lua": {"iters": 150},
    "shell": {"pairs": 12},
    "sqlite": {"inserts": 200, "strata": 40, "misses": 4},
    "kv": {"conns": 8, "keys_per_conn": 64},
    "echo": {"echoes": 800},
}
# extra boots per run that only time set-up (its median needs samples)
SETUP_BOOTS = 10
# a guest op still running after this long is abandoned as failed
OP_CAP_S = 15.0
KV_DEADLINE_S = 0.1
# echo client counts the seed picks from; each divides every echo size.
# More clients batch more events per epoll_pwait but cost more set-up: at
# 800 round trips 8 and 10 are within 3% of each other, 8 and 20 are 7%.
ECHO_CLIENTS = (8, 10)
KV_PORT = 11211
GUEST_APPS = {
    "lua": ["mini_lua"],
    "shell": ["mini_sh", "echo", "cat", "wc"],
    "sqlite": ["mini_sqlite"],
    "kv": ["mini_memcached"],
    "echo": ["event_echo"],
}


class Stuck(Exception):
    """A guest was still running at its op's cap."""

    def __init__(self, rt, what: str):
        super().__init__(what)
        self.rt = rt


class Stats:
    """What one measured window recorded."""

    def __init__(self):
        self.setup_s: List[float] = []
        self.op_s: List[float] = []        # one latency per op, inf = failed
        self.phase_s: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0          # a clean exit with a wrong answer
        self.misses = 0         # kv requests past their deadline
        self.crashes = 0        # guest threads killed by a host exception
        self.stuck = 0          # ops abandoned at their cap
        self.rates: List[float] = []       # ops/s samples (see run.py)
        self.peak_rss_mb = 0.0
        self.retained: List[int] = []
        self.counters: Counter = Counter()
        self.roots: List[tuple] = []       # (guest thread, its wall time)

    def op(self, ok: bool, latency: float) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            latency = math.inf
        self.op_s.append(latency)

    def check(self, crashes: int, clean_exit: bool, right: bool,
              latency: float) -> None:
        """Record one guest op.  A nonzero exit or a crashed guest thread
        (``crashes`` is the count when the op began) is a failed op; a
        clean exit with output that disagrees with the reference is a
        failed op and a wrong answer."""
        if clean_exit and self.crashes == crashes:
            self.wrong += not right
            self.op(right, latency)
        else:
            self.op(False, latency)

    def phase(self, name: str, seconds: float) -> None:
        self.phase_s.setdefault(name, []).append(seconds)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

_IMAGES: Dict[str, bytes] = {}


def prepare(workload: str) -> None:
    """Compile the workload's guests from source and encode their images
    (the build step; not part of any timed set-up)."""
    for app in GUEST_APPS[workload]:
        if app not in _IMAGES:
            _IMAGES[app] = encode_module(build(app))


def boot(workload: str, files: Dict[str, bytes]) -> WaliRuntime:
    """A fresh kernel + runtime with the workload's ``.wasm`` files in
    ``/bin`` and its inputs written."""
    rt = WaliRuntime()
    vfs = rt.kernel.vfs
    for app in GUEST_APPS[workload]:
        vfs.write_file(f"/bin/{app}.wasm", _IMAGES[app], mode=0o755)
    for path, data in files.items():
        vfs.write_file(path, data)
    return rt


def run_guest(wp, deadline: float, stats: Stats) -> float:
    """Run a loaded guest in its own thread; returns its wall time."""
    t0 = now()
    wp.start_in_thread()
    wp.join(max(min(deadline, t0 + OP_CAP_S) - now(), 0.0))
    wall = now() - t0
    if wp.thread.is_alive():
        raise Stuck(wp.rt, f"pid {wp.proc.pid} still running at its cap")
    stats.roots.append((wp.thread, wall))
    return wall


def abandon(rt) -> None:
    """SIGKILL every task of a runtime whose op outlived its cap, so no
    guest thread is left behind polling, and wait (bounded) for them."""
    kernel = rt.kernel
    for proc in list(kernel.processes.values()):
        if proc.pid != 1 and proc.state == STATE_RUNNING:
            proc.generate_signal(SIGKILL)
    kernel.notify_all_blocked()
    for wp in rt.processes:
        if wp.thread is not None:
            wp.thread.join(1.0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def collect(rt, stats: Stats, skip_tgids=()) -> None:
    stats.counters.update(kernel_counters(rt.kernel, skip_tgids))
    stats.retained.append(retained_processes(rt))


def run_passes(setup, one_pass, seconds: float, deadline: float,
               stats: Stats, tracer) -> None:
    """Time ``SETUP_BOOTS`` extra set-ups, then repeat whole ops until
    ``seconds`` have been measured.  ``setup()`` boots and loads, returning
    ``(runtime, loaded guest)``; ``one_pass()`` sets up and runs one op."""
    for _ in range(SETUP_BOOTS if tracer is None else 0):
        t0 = now()
        setup()
        stats.setup_s.append(now() - t0)
        gc.collect()
    end = now() + seconds
    while True:
        t0 = now()
        failed = stats.failed
        try:
            one_pass()
        except Stuck as exc:
            stats.op(False, math.inf)
            stats.stuck += 1
            abandon(exc.rt)
        stats.rates.append(0.0 if stats.failed > failed
                           else 1.0 / (now() - t0))
        if not stats.peak_rss_mb:
            # the same work behind it in every run, however fast: set-up
            # boots and one op (later ops only add allocator fragmentation)
            stats.peak_rss_mb = peak_rss_mb()
        # each op boots a kernel (with its 8 MiB disk); free it before the
        # next one so peak RSS is one op's, not the collector's timing
        gc.collect()
        if now() >= min(end, deadline):
            return


# ---------------------------------------------------------------------------
# lua: the interpreter-bound workload (Fig. 7/8 lua row)
# ---------------------------------------------------------------------------

def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum(floor((a*i + b) / m) for i in range(n)) in O(log m) steps."""
    total = 0
    while True:
        if a >= m:
            total += (n - 1) * n // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


def lua_reference(iters: int, mul: int, mod: int) -> int:
    """Closed form of sum(i * mul % mod for i in 1..iters)."""
    return (mul * iters * (iters + 1) // 2
            - mod * _floor_sum(iters + 1, mod, mul, 0))


def lua_inputs(seed: int, iters: int):
    rng = random.Random(f"lua:{seed}")
    mul = rng.randrange(3, 100)
    mod = rng.randrange(5000, 10000)
    script = (f"set i {iters}\nset s 0\n"
              "while i\n"
              f"  mov t i\n  mul t t {mul}\n  mod t t {mod}\n"
              "  add s s t\n  subi i 1\n"
              "end\n"
              "print s\n").encode()
    return script, f"{lua_reference(iters, mul, mod)}\n".encode()


def run_lua(seed: int, seconds: float, deadline: float, stats: Stats,
            tracer=None, size: Optional[dict] = None) -> None:
    size = size or SIZES["lua"]
    script, expected = lua_inputs(seed, size["iters"])

    def setup():
        rt = boot("lua", {"/tmp/bench.lua": script})
        return rt, rt.load("/bin/mini_lua.wasm",
                           argv=["mini_lua", "/tmp/bench.lua"])

    def one_pass():
        t0, crashes = now(), stats.crashes
        rt, wp = setup()
        stats.setup_s.append(now() - t0)
        wall = run_guest(wp, deadline, stats)
        stats.check(crashes, wp.exit_status == 0,
                    rt.kernel.console_output() == expected, wall)
        collect(rt, stats)

    run_passes(setup, one_pass, seconds, deadline, stats, tracer)


# ---------------------------------------------------------------------------
# shell: the process-lifecycle workload (Fig. 7 bash row)
# ---------------------------------------------------------------------------

_WORDS = ("wasm", "kernel", "thin", "interface", "syscall", "linux",
          "portable", "sandbox", "fork", "pipe", "signal", "mmap")


def shell_inputs(seed: int, pairs: int):
    """A script of ``echo ... > /data/fN.txt`` and ``cat ... | wc`` lines,
    the expected console output and the expected file contents."""
    rng = random.Random(f"shell:{seed}")
    lines, wc_out, files = [], [], {}
    for i in range(pairs):
        words = " ".join(rng.choice(_WORDS) for _ in range(4))
        path = f"/data/f{i}.txt"
        lines.append(f"echo {words} > {path}")
        lines.append(f"cat {path} | wc")
        files[path] = f"{words}\n".encode()
        wc_out.append(f"1 {len(files[path])}\n")
    lines.append("exit 0")
    script = ("\n".join(lines) + "\n").encode()
    return script, "".join(wc_out).encode(), files


def run_shell(seed: int, seconds: float, deadline: float, stats: Stats,
              tracer=None, size: Optional[dict] = None) -> None:
    size = size or SIZES["shell"]
    script, expected, files = shell_inputs(seed, size["pairs"])

    def setup():
        rt = boot("shell", {"/tmp/bench.sh": script})
        return rt, rt.load("/bin/mini_sh.wasm",
                           argv=["mini_sh", "/tmp/bench.sh"])

    def one_pass():
        t0, crashes = now(), stats.crashes
        rt, wp = setup()
        stats.setup_s.append(now() - t0)
        wall = run_guest(wp, deadline, stats)
        vfs = rt.kernel.vfs
        stats.check(crashes, wp.exit_status == 0,
                    rt.kernel.console_output() == expected
                    and all(vfs.read_file(p) == d for p, d in files.items()),
                    wall)
        collect(rt, stats)

    run_passes(setup, one_pass, seconds, deadline, stats, tracer)


# ---------------------------------------------------------------------------
# sqlite: the block-layer workload, a write phase and a cold-read phase
# ---------------------------------------------------------------------------

def _key(rng: random.Random) -> str:
    return "k" + "".join(rng.choice(string.ascii_lowercase)
                         for _ in range(12))


def sqlite_inputs(seed: int, inserts: int, strata: int, misses: int):
    """Load and query scripts with their expected outputs.

    Load: ``inserts`` inserts, a delete after every 5th insert, and a
    ``vacuum`` (ftruncate + fsync) after every 100th.  Query: one get from
    each of ``strata`` equal slices of the live records, ``misses`` gets
    of deleted keys, then ``count``.  mini-sqlite finds a key by scanning
    back from the newest record, so drawing one key per slice keeps the
    scan length of a query phase the same for every seed.
    """
    rng = random.Random(f"sqlite:{seed}")
    live: List[str] = []           # in record order
    values: Dict[str, str] = {}
    deleted: List[str] = []
    load, load_out = [], []
    for n in range(1, inserts + 1):
        key = _key(rng)
        while key in values or key in deleted:
            key = _key(rng)
        values[key] = f"v{rng.randrange(10 ** 9):09d}"
        live.append(key)
        load.append(f"insert {key} {values[key]}")
        load_out.append("OK")
        if n % 5 == 0:
            victim = live[-1 - rng.randrange(min(8, len(live)))]
            live.remove(victim)
            del values[victim]
            deleted.append(victim)
            load.append(f"delete {victim}")
            load_out.append("DELETED")
        if n % 100 == 0:
            load.append("vacuum")
            load_out.append("VACUUMED")
    load.append("exit")

    width = len(live) // strata
    gets = [live[s * width + rng.randrange(width)] for s in range(strata)]
    gets += rng.sample(deleted, misses)
    rng.shuffle(gets)
    query = [f"get {k}" for k in gets] + ["count", "exit"]
    query_out = [values.get(k, "(nil)") for k in gets] + [str(len(live))]

    def text(lines):
        return ("\n".join(lines) + "\n").encode()
    return text(load), text(load_out), text(query), text(query_out)


def drop_caches(kernel) -> None:
    """``echo 3 > /proc/sys/vm/drop_caches`` straight through the kernel."""
    admin = kernel.create_process(["drop_caches"])
    fd = kernel.call(admin, "open", "/proc/sys/vm/drop_caches", O_WRONLY)
    kernel.call(admin, "write", fd, b"3\n")
    kernel.call(admin, "close", fd)
    kernel.call(admin, "exit_group", 0)


def run_sqlite(seed: int, seconds: float, deadline: float, stats: Stats,
               tracer=None, size: Optional[dict] = None) -> None:
    size = size or SIZES["sqlite"]
    load, load_out, query, query_out = sqlite_inputs(
        seed, size["inserts"], size["strata"], size["misses"])
    db = "/data/bench.db"

    def setup():
        rt = boot("sqlite", {"/tmp/load.sql": load, "/tmp/query.sql": query})
        return rt, rt.load("/bin/mini_sqlite.wasm",
                           argv=["mini_sqlite", db, "/tmp/load.sql"])

    def one_pass():
        t0, crashes = now(), stats.crashes
        rt, wp = setup()
        stats.setup_s.append(now() - t0)
        k = rt.kernel
        load_s = run_guest(wp, deadline, stats)
        right = k.console_output() == load_out
        k.clear_console()
        drop_caches(k)
        wq = rt.load("/bin/mini_sqlite.wasm",
                     argv=["mini_sqlite", db, "/tmp/query.sql"])
        query_s = run_guest(wq, deadline, stats)
        stats.check(crashes, wp.exit_status == 0 and wq.exit_status == 0,
                    right and k.console_output() == query_out,
                    load_s + query_s)
        stats.phase("load_s", load_s)
        stats.phase("query_s", query_s)
        collect(rt, stats)

    run_passes(setup, one_pass, seconds, deadline, stats, tracer)


# ---------------------------------------------------------------------------
# echo: the syscall path with no second thread (event_echo, epoll mode)
# ---------------------------------------------------------------------------

def echo_inputs(seed: int, echoes: int):
    """The guest's argv and expected console output.  The seed picks how
    many clients share the ``echoes`` round trips; every split makes the
    same reads and writes."""
    clients = random.Random(f"echo:{seed}").choice(ECHO_CLIENTS)
    argv = ["event_echo", str(clients), str(echoes // clients)]
    return argv, f"echo ok echoes={echoes}\n".encode()


def run_echo(seed: int, seconds: float, deadline: float, stats: Stats,
             tracer=None, size: Optional[dict] = None) -> None:
    size = size or SIZES["echo"]
    argv, expected = echo_inputs(seed, size["echoes"])

    def setup():
        rt = boot("echo", {})
        return rt, rt.load("/bin/event_echo.wasm", argv=argv)

    def one_pass():
        t0, crashes = now(), stats.crashes
        rt, wp = setup()
        stats.setup_s.append(now() - t0)
        wall = run_guest(wp, deadline, stats)
        stats.check(crashes, wp.exit_status == 0,
                    rt.kernel.console_output() == expected, wall)
        collect(rt, stats)

    run_passes(setup, one_pass, seconds, deadline, stats, tracer)


# ---------------------------------------------------------------------------
# kv: the syscall-path workload (memcached -e, closed loop over loopback)
# ---------------------------------------------------------------------------

class _Conn:
    __slots__ = ("fd", "rng", "keys", "model", "pending", "discard",
                 "kicked", "buf", "preload")

    def __init__(self, fd: int, rng: random.Random, keys: List[str]):
        self.fd = fd
        self.rng = rng
        self.keys = keys
        self.model: Dict[str, str] = {}
        self.pending = None      # (sent_at, expected reply)
        self.discard = 0         # replies still owed to abandoned requests
        self.kicked = 0.0        # when the last re-arm was sent
        self.buf = b""
        self.preload = list(keys)

    def next_request(self, preload: bool):
        """The next (request line, expected reply); None when done."""
        rng = self.rng
        if preload:
            if not self.preload:
                return None
            key = self.preload.pop()
            value = f"v{rng.randrange(10 ** 8):08d}"
        else:
            key = rng.choice(self.keys)
            if rng.random() < 0.9:
                return f"get {key}\n".encode(), f"VALUE {self.model[key]}"
            value = f"v{rng.randrange(10 ** 8):08d}"
        self.model[key] = value
        return f"set {key} {value}\n".encode(), "STORED"


class KvServer:
    """mini-memcached ``-e`` in a guest thread plus a single-threaded
    closed-loop load generator calling ``Kernel.call`` directly.

    Each connection owns its own keys, so its replies follow from its own
    requests alone and a Python dict per connection is an exact model.
    A request with no reply after ``KV_DEADLINE_S`` counts as failed; the
    generator then sends ``stats`` on that connection, which re-arms a
    server that lost the readiness edge, and discards the two late replies.
    """

    def __init__(self, seed: int, size: dict, deadline: float, stats: Stats,
                 tracer=None):
        self.stats = stats
        self.deadline = deadline
        self.tracer = tracer
        t0 = now()
        self.rt = boot("kv", {})
        self.k = self.rt.kernel
        self.wp = self.rt.load("/bin/mini_memcached.wasm",
                               argv=["memcached", str(KV_PORT), "-e"])
        if tracer is not None:
            tracer.mute(True)   # generator calls are not guest work
        self.started = now()
        self.wp.start_in_thread()
        self.gen = self.k.create_process(["loadgen"])
        self.ep = self.k.call(self.gen, "epoll_create1", 0)
        self.done: List[float] = []   # when each measured request was answered
        fd = self._connect()
        # set-up ends when the server has accepted and answered
        self._call("sendto", fd, b"stats\n")
        if not self._lines(fd, min(t0 + 10.0, deadline)):
            raise Stuck(self.rt, "server never answered")
        stats.setup_s.append(now() - t0)
        self._call("close", fd)
        self.conns: List[_Conn] = []
        for c in range(size["conns"]):
            rng = random.Random(f"kv:{seed}:{c}")
            keys = [f"c{c}k{j}" for j in range(size["keys_per_conn"])]
            self.conns.append(_Conn(self._connect(), rng, keys))

    def _call(self, name: str, *args):
        return self.k.call(self.gen, name, *args)

    def _connect(self) -> int:
        while True:
            fd = self._call("socket", AF_INET, SOCK_STREAM | SOCK_NONBLOCK)
            try:
                self._call("connect", fd, ("127.0.0.1", KV_PORT))
            except KernelError:
                self._call("close", fd)   # not listening yet
                if now() >= self.deadline:
                    raise Stuck(self.rt, "server never listened")
                time.sleep(0.0005)
                continue
            self._call("epoll_ctl", self.ep, EPOLL_CTL_ADD, fd, EPOLLIN)
            return fd

    def _recv(self, fd: int) -> bytes:
        data = b""
        while True:
            try:
                chunk, _ = self._call("recvfrom", fd, 4096)
            except KernelError as exc:
                if exc.errno == EAGAIN:
                    return data
                raise
            if not chunk:
                return data
            data += chunk

    def _lines(self, fd: int, until: float) -> bool:
        """Wait (bounded) for a whole reply line on one probe socket."""
        buf = b""
        while now() < until:
            self._call("epoll_pwait", self.ep, 8, 10_000_000)
            buf += self._recv(fd)
            if buf.endswith(b"\n"):
                return True
        return False

    # ---- the closed loop ----

    def _send_next(self, c: _Conn, preload: bool) -> None:
        req = c.next_request(preload)
        if req is None:
            c.pending = None
            return
        self._call("sendto", c.fd, req[0])
        c.pending = (now(), req[1])

    def drive(self, until: float, preload: bool = False) -> None:
        """Run the closed loop until ``until`` (or, for the preload, until
        every key is set)."""
        stats = self.stats
        for c in self.conns:
            self._send_next(c, preload)
        closing = False
        while True:
            t = now()
            if t >= self.deadline:
                # the run's cap: whatever is still outstanding failed
                for c in self.conns:
                    if c.pending is not None:
                        stats.op(False, math.inf)
                        c.pending = None
                break
            if not preload and t >= until:
                closing = True
            waiting = [c for c in self.conns if c.pending is not None]
            # after the window only outstanding requests matter; the
            # preload also waits out re-arms, as their keys are not all set
            if not waiting and (closing or preload and
                                not any(c.discard for c in self.conns)):
                break
            due = min((c.pending[0] for c in waiting), default=t)
            timeout = min(max(due + KV_DEADLINE_S - t, 0.0), 0.02)
            ready = self._call("epoll_pwait", self.ep, 64,
                               int(timeout * 1e9))
            fds = {d for d, _ in ready} if ready else None
            for c in self.conns:
                # an empty wait rescans every socket: a reply whose
                # readiness edge was lost still counts if it is there
                if fds is not None and c.fd not in fds:
                    continue
                c.buf += self._recv(c.fd)
                while b"\n" in c.buf:
                    line, c.buf = c.buf.split(b"\n", 1)
                    if c.discard:
                        c.discard -= 1
                    elif c.pending is not None:
                        sent, expected = c.pending
                        ok = line.decode() == expected
                        stats.wrong += not ok
                        if preload:
                            stats.attempted += 1
                            stats.failed += not ok
                        else:
                            t = now()
                            stats.op(ok, t - sent)
                            if ok:
                                self.done.append(t)
                        c.pending = None
                    if c.pending is None and not c.discard and not closing:
                        self._send_next(c, preload)
            t = now()
            for c in self.conns:
                if c.pending is not None and t - c.pending[0] > KV_DEADLINE_S:
                    stats.misses += 1
                    if preload:
                        stats.attempted += 1
                        stats.failed += 1
                    else:
                        stats.op(False, math.inf)
                    c.pending = None
                    self._rearm(c, 2)   # the late reply + the stats reply
                elif c.discard and t - c.kicked > KV_DEADLINE_S:
                    self._rearm(c, 1)
            if closing and all(c.pending is None for c in self.conns):
                break

    def _rearm(self, c: _Conn, owed: int) -> None:
        self._call("sendto", c.fd, b"stats\n")
        c.discard += owed
        c.kicked = now()

    def stop(self) -> None:
        """Shut the server down and wait (bounded) for its thread."""
        probe = self.conns[0].fd if self.conns else self._connect()
        self._call("sendto", probe, b"shutdown\n")
        for _ in range(20):
            self.wp.join(min(0.25, max(self.deadline - now(), 0.0)))
            if not self.wp.thread.is_alive() or now() >= self.deadline:
                break
            # a lost wakeup can strand the shutdown too; more bytes re-arm
            for c in self.conns[1:]:
                try:
                    self._call("sendto", c.fd, b"stats\n")
                except KernelError:
                    pass   # the server exited meanwhile (EPIPE)
        wall = now() - self.started
        if self.wp.thread.is_alive():
            self.stats.stuck += 1
            abandon(self.rt)
        else:
            self.stats.roots.append((self.wp.thread, wall))
        for c in self.conns:
            self._call("close", c.fd)
        collect(self.rt, self.stats, skip_tgids={self.gen.tgid})
        if self.tracer is not None:
            self.tracer.mute(False)


def run_kv(seed: int, seconds: float, deadline: float, stats: Stats,
           tracer=None, size: Optional[dict] = None) -> None:
    size = size or SIZES["kv"]
    for _ in range(SETUP_BOOTS if tracer is None else 0):
        scratch = Stats()   # keeps only the set-up time of these boots
        KvServer(seed, size, deadline, scratch).stop()
        stats.setup_s += scratch.setup_s
        stats.stuck += scratch.stuck
        gc.collect()
    srv = KvServer(seed, size, deadline, stats, tracer)
    try:
        srv.drive(now() + seconds, preload=True)
        t0 = now()
        srv.drive(t0 + seconds)
        # answered requests per whole second of the window
        bins = Counter(int(t - t0) for t in srv.done if t - t0 < seconds)
        stats.rates += [bins[i] for i in range(int(seconds))] or \
            [len(srv.done) / max(now() - t0, 1e-9)]
    finally:
        srv.stop()
        stats.peak_rss_mb = peak_rss_mb()
