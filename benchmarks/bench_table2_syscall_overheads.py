"""Table 2 — intrinsic WALI overhead for 30 representative syscalls.

For each syscall the harness measures the WALI layer's own time (total
wrapper time minus kernel time — i.e. address translation, layout
conversion, bookkeeping), reports the handler's implementation size in
lines of code, and whether it needs engine state.  The paper's claims:

* most handlers are <10 LOC and cost a few hundred nanoseconds;
* ``clone`` is the outlier — not interface cost, but the engine
  duplicating an execution environment per thread (instance-per-thread).
"""

import time

from common import save_report

from repro.apps import with_libc
from repro.cc import compile_source
from repro.metrics import table
from repro.wali import SYSCALLS, WaliHost, WaliRuntime, handler_loc
from repro.kernel import SIGUSR1

# the paper's Table 2 selection
TABLE2_SYSCALLS = [
    "read", "write", "mmap", "open", "close", "fstat", "mprotect",
    "pread64", "lseek", "rt_sigaction", "stat", "futex", "rt_sigprocmask",
    "getpid", "writev", "munmap", "fcntl", "access", "recvfrom", "getuid",
    "geteuid", "poll", "getrusage", "getegid", "getgid", "lstat", "ioctl",
    "clone", "prlimit64", "fork",
]

GUEST = with_libc(r"""
func noop_thread(arg: i32) { }
export func _start() {
    // table entry for the clone microbenchmark; never actually started here
    if (argc() < 0) { thread_create(funcref(noop_thread), 0); }
    exit(0);
}
""")


class Microbench:
    """Drives WALI host functions directly against a loaded guest."""

    def __init__(self):
        self.rt = WaliRuntime()
        self.rt.kernel.vfs.write_file("/tmp/target.txt", b"x" * 4096)
        self.wp = self.rt.load(compile_source(GUEST, name="micro"),
                               argv=["micro"])
        # a host with no image binds every name: the harness calls many
        # the guest does not import
        self.ns = WaliHost(self.rt, self.wp).imports()["wali"]
        self.mem = self.wp.instance.memory
        base = 1 << 16
        self.buf = base
        self.path = base + 8192
        self.mem.write_cstr(self.path, b"/tmp/target.txt")
        self.iov = base + 8300
        self.mem.store_i32(self.iov, self.buf)
        self.mem.store_i32(self.iov + 4, 64)
        self.pollfd = base + 8400
        self.sigact = base + 8500
        self.mem.write(self.sigact, (2).to_bytes(4, "little") + b"\x00" * 12)
        self.ts = base + 8600
        self.fd = self.call("SYS_openat", -100 & 0xFFFFFFFF, self.path, 2, 0)
        self.mem.write(self.pollfd, self.fd.to_bytes(4, "little") +
                       (1).to_bytes(2, "little") + b"\x00\x00")
        sockfd = self.call("SYS_socket", 2, 2, 0)  # datagram, for recvfrom
        self.sock = sockfd
        sa = base + 8700
        from repro.wali.layout import Layout

        self.mem.write(sa, Layout.encode_sockaddr(("0.0.0.0", 901)))
        self.call("SYS_bind", self.sock, sa, 16)
        self.call("SYS_sendto", self.sock, self.buf, 8, 0, sa, 16)
        self.mmap_addr = self.call("SYS_mmap", 0, 8192, 3, 0x22,
                                   -1 & 0xFFFFFFFF, 0)

    def call(self, name, *args):
        return self.ns[name].fn(*args)

    def args_for(self, name):
        neg1 = -100 & 0xFFFFFFFF
        table = {
            "read": (self.fd, self.buf, 64),
            "write": (self.fd, self.buf, 64),
            "mmap": (0, 4096, 3, 0x22, -1 & 0xFFFFFFFF, 0),
            "open": (self.path, 0, 0),
            "close": None,  # special: open+close pairs
            "fstat": (self.fd, self.buf),
            "mprotect": (self.mmap_addr, 4096, 1),
            "pread64": (self.fd, self.buf, 64, 0),
            "lseek": (self.fd, 0, 0),
            "rt_sigaction": (SIGUSR1, self.sigact, 0, 8),
            "stat": (self.path, self.buf),
            "futex": (self.buf, 1, 1, 0, 0, 0),  # FUTEX_WAKE
            "rt_sigprocmask": (0, 0, 0, 8),
            "getpid": (),
            "writev": (self.fd, self.iov, 1),
            "munmap": None,  # special: mmap+munmap pairs
            "fcntl": (self.fd, 3, 0),
            "access": (self.path, 0),
            "recvfrom": None,  # special: needs a queued datagram
            "getuid": (),
            "geteuid": (),
            "poll": (self.pollfd, 1, 0),
            "getrusage": (0, self.buf),
            "getegid": (),
            "getgid": (),
            "lstat": (self.path, self.buf),
            "ioctl": (0, 0x5413, self.buf),  # TIOCGWINSZ on the tty
            "prlimit64": (0, 7, 0, self.buf),
            "fork": None,  # special
            "clone": None,  # special
        }
        return table[name]

    def measure(self, name, rounds=300):
        sys_name = f"SYS_{name}"
        if name == "close":
            for _ in range(rounds):
                fd = self.call("SYS_openat", -100 & 0xFFFFFFFF, self.path,
                               0, 0)
                self.call("SYS_close", fd)
        elif name == "munmap":
            for _ in range(rounds):
                addr = self.call("SYS_mmap", 0, 4096, 3, 0x22,
                                 -1 & 0xFFFFFFFF, 0)
                self.call("SYS_munmap", addr, 4096)
        elif name == "recvfrom":
            sa = 1 << 16
            for _ in range(rounds):
                self.call("SYS_sendto", self.sock, self.buf, 8, 0,
                          (1 << 16) + 8700, 16)
                self.call("SYS_recvfrom", self.sock, self.buf, 64, 0, 0, 0)
        elif name in ("fork", "clone"):
            rounds = 8
            for _ in range(rounds):
                if name == "fork":
                    self.call("SYS_fork")
                else:
                    self.call("SYS_clone", 0x10f00, 0, 2, 0)
            time.sleep(0.05)  # let the spawned children run out
        else:
            args = self.args_for(name)
            fn = self.ns[sys_name].fn
            for _ in range(rounds):
                fn(*args)
        count = self.wp.call_counts[name]
        wali_ns = self.wp.call_wali_ns[name]
        return wali_ns / max(count, 1)


def test_table2_syscall_overheads(benchmark):
    mb = Microbench()

    def run_all():
        rows = []
        for name in TABLE2_SYSCALLS:
            overhead = mb.measure(name)
            spec = SYSCALLS[name]
            rows.append((name, overhead, handler_loc(name),
                         "Y" if spec.stateful else "N"))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    formatted = [(n, f"{o:9.0f} ns", loc, st) for n, o, loc, st in rows]
    out = [table(["syscall", "WALI overhead", "LOC", "stateful"], formatted)]
    plain = [r for r in rows if r[0] not in ("clone", "fork")]
    median = sorted(r[1] for r in plain)[len(plain) // 2]
    clone_ns = next(r[1] for r in rows if r[0] == "clone")
    fork_ns = next(r[1] for r in rows if r[0] == "fork")
    out += [
        "",
        f"median overhead (excluding clone/fork): {median:.0f} ns",
        f"clone: {clone_ns:.0f} ns  fork: {fork_ns:.0f} ns — the outliers: "
        "the engine duplicates a per-thread execution environment "
        "(instance-per-thread) resp. the whole instance (fork), exactly the "
        "engine-not-interface cost the paper attributes to WAMR's thread "
        "manager.",
        "",
        "paper: most syscalls cost a few hundred ns and <10 LOC; clone is "
        "~500 us from execution-environment duplication.",
    ]
    save_report("table2_syscall_overheads.txt", "\n".join(out))

    # shape: most handlers small, pass-through cheap, clone the outlier
    locs = [loc for _, _, loc, _ in rows]
    assert sum(1 for v in locs if v <= 12) >= 24  # "under ~10 lines" claim
    assert clone_ns > 20 * median
    assert fork_ns > 20 * median
    stateful = {n: st for n, _, _, st in rows}
    assert stateful["mmap"] == "Y" and stateful["rt_sigaction"] == "Y"
    assert stateful["read"] == "N"
