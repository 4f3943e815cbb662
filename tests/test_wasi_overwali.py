"""The WASI-over-WALI conformance suite — the repository's analog of
running libuvwasi's 22-test ctest harness unmodified over WALI (§4.1, E2).

Every WASI operation below reaches the kernel *only* through WALI name-bound
imports (asserted at the end), realising Fig. 1's layering.
"""

import struct
from collections import Counter

import pytest

from repro.kernel import Kernel, Process
from repro.kernel.process import STATE_RUNNING
from repro.wali import WaliRuntime
from repro.wasi import MODULE, WasiHost, run_wasi_module, spec, wasi_over_wali
from repro.wasi.spec import (
    EBADF, ENOENT, ENOTCAPABLE, ESUCCESS, FILETYPE_DIRECTORY,
    FILETYPE_REGULAR_FILE, OFLAGS_CREAT, OFLAGS_TRUNC, RIGHTS_ALL,
    RIGHTS_FD_READ, RIGHTS_FD_WRITE, WHENCE_CUR, WHENCE_END, WHENCE_SET,
)
from repro.wasm import I32, ModuleBuilder, instantiate
from repro.wasm.errors import GuestExit


class Harness:
    """A WASI host layered over WALI plus a guest memory to marshal in."""

    def __init__(self, preopens=None, argv=None, env=None):
        self.rt = WaliRuntime()
        self.rt.kernel.vfs.mkdirs("/sandbox")
        self.host, self.wp = wasi_over_wali(
            self.rt, argv or ["app", "a1"], env or {"K": "V"},
            preopens or {"/sandbox": "/sandbox"})
        mb = ModuleBuilder("wasi-harness")
        mb.add_memory(32, 256)
        self.inst = instantiate(mb.build())
        self.wp.attach(self.inst)
        self.ns = self.host.imports()[MODULE]
        self.mem = self.inst.memory

    def call(self, name, *args):
        return self.ns[name].fn(*args)

    # convenience regions inside guest memory for test buffers
    BUF = 4096
    IOV = 8192
    OUT = 16384

    def put(self, addr, data: bytes):
        self.mem.write(addr, data)

    def cstr_args(self, addr, s: str):
        data = s.encode()
        self.mem.write(addr, data)
        return addr, len(data)

    def iov(self, addr, entries):
        """Write an iovec array at addr; entries = [(ptr, len)]."""
        for i, (p, n) in enumerate(entries):
            self.mem.write(addr + 8 * i, struct.pack("<II", p, n))
        return addr, len(entries)

    def open_file(self, name, oflags=0, rights=RIGHTS_ALL, fdflags=0):
        dirfd = self.preopen_fd()
        p, plen = self.cstr_args(self.BUF, name)
        assert self.call("path_open", dirfd, 1, p, plen, oflags,
                         rights, rights, fdflags, self.OUT) == ESUCCESS
        return self.mem.load_i32(self.OUT)

    def preopen_fd(self):
        self.call("fd_prestat_get", 3, self.OUT)  # force init
        return next(iter(self.host.preopens))


@pytest.fixture
def h():
    return Harness()


# ---- 22 conformance tests (libuvwasi suite analog) ----

def test_01_args_sizes_and_get(h):
    assert h.call("args_sizes_get", h.OUT, h.OUT + 4) == ESUCCESS
    assert h.mem.load_i32(h.OUT) == 2
    size = h.mem.load_i32(h.OUT + 4)
    assert size == len(b"app\x00a1\x00")
    assert h.call("args_get", h.BUF, h.BUF + 64) == ESUCCESS
    p0 = h.mem.load_i32(h.BUF)
    assert h.mem.read_cstr(p0) == b"app"
    p1 = h.mem.load_i32(h.BUF + 4)
    assert h.mem.read_cstr(p1) == b"a1"


def test_02_environ(h):
    assert h.call("environ_sizes_get", h.OUT, h.OUT + 4) == ESUCCESS
    assert h.mem.load_i32(h.OUT) == 1
    assert h.call("environ_get", h.BUF, h.BUF + 64) == ESUCCESS
    assert h.mem.read_cstr(h.mem.load_i32(h.BUF)) == b"K=V"


def test_03_clock_time_get(h):
    assert h.call("clock_time_get", spec.CLOCKID_MONOTONIC, 0,
                  h.OUT) == ESUCCESS
    t1 = h.mem.load_i64(h.OUT)
    h.call("clock_time_get", spec.CLOCKID_MONOTONIC, 0, h.OUT)
    assert h.mem.load_i64(h.OUT) >= t1 > 0


def test_04_prestat(h):
    fd = h.preopen_fd()
    assert h.call("fd_prestat_get", fd, h.OUT) == ESUCCESS
    tag = h.mem.data[h.OUT]
    namelen = h.mem.load_i32(h.OUT + 4)
    assert tag == 0 and namelen == len("/sandbox")
    assert h.call("fd_prestat_dir_name", fd, h.BUF, namelen) == ESUCCESS
    assert h.mem.read_bytes(h.BUF, namelen) == b"/sandbox"
    assert h.call("fd_prestat_get", 99, h.OUT) == EBADF


def test_05_path_open_write_read(h):
    fd = h.open_file("f.txt", OFLAGS_CREAT)
    h.put(h.BUF + 512, b"hello wasi")
    iov, n = h.iov(h.IOV, [(h.BUF + 512, 10)])
    assert h.call("fd_write", fd, iov, n, h.OUT) == ESUCCESS
    assert h.mem.load_i32(h.OUT) == 10
    h.call("fd_seek", fd, 0, WHENCE_SET, h.OUT)
    iov, n = h.iov(h.IOV, [(h.BUF + 600, 32)])
    assert h.call("fd_read", fd, iov, n, h.OUT) == ESUCCESS
    assert h.mem.load_i32(h.OUT) == 10
    assert h.mem.read_bytes(h.BUF + 600, 10) == b"hello wasi"
    assert h.call("fd_close", fd) == ESUCCESS


def test_06_scattered_iovecs(h):
    fd = h.open_file("sg.txt", OFLAGS_CREAT)
    h.put(h.BUF + 512, b"AAAA")
    h.put(h.BUF + 600, b"BB")
    iov, n = h.iov(h.IOV, [(h.BUF + 512, 4), (h.BUF + 600, 2)])
    h.call("fd_write", fd, iov, n, h.OUT)
    assert h.mem.load_i32(h.OUT) == 6
    assert h.rt.kernel.vfs.read_file("/sandbox/sg.txt") == b"AAAABB"


def test_07_fd_seek_tell(h):
    fd = h.open_file("seek.txt", OFLAGS_CREAT)
    h.put(h.BUF + 512, b"0123456789")
    iov, n = h.iov(h.IOV, [(h.BUF + 512, 10)])
    h.call("fd_write", fd, iov, n, h.OUT)
    assert h.call("fd_seek", fd, 4, WHENCE_SET, h.OUT) == ESUCCESS
    assert h.mem.load_i64(h.OUT) == 4
    assert h.call("fd_seek", fd, -2, WHENCE_END, h.OUT) == ESUCCESS
    assert h.mem.load_i64(h.OUT) == 8
    assert h.call("fd_tell", fd, h.OUT) == ESUCCESS
    assert h.mem.load_i64(h.OUT) == 8


def test_08_fd_pread_pwrite(h):
    fd = h.open_file("p.txt", OFLAGS_CREAT)
    h.put(h.BUF + 512, b"abcdef")
    iov, n = h.iov(h.IOV, [(h.BUF + 512, 6)])
    h.call("fd_pwrite", fd, iov, n, 0, h.OUT)
    iov, n = h.iov(h.IOV, [(h.BUF + 600, 3)])
    assert h.call("fd_pread", fd, iov, n, 2, h.OUT) == ESUCCESS
    assert h.mem.read_bytes(h.BUF + 600, 3) == b"cde"
    # offset must not move
    h.call("fd_tell", fd, h.OUT)
    assert h.mem.load_i64(h.OUT) == 0


def test_09_fd_filestat(h):
    fd = h.open_file("st.txt", OFLAGS_CREAT)
    h.put(h.BUF + 512, b"xyz")
    iov, n = h.iov(h.IOV, [(h.BUF + 512, 3)])
    h.call("fd_write", fd, iov, n, h.OUT)
    assert h.call("fd_filestat_get", fd, h.OUT) == ESUCCESS
    filetype = h.mem.data[h.OUT + 16]
    size = h.mem.load_i64(h.OUT + 32)
    assert filetype == FILETYPE_REGULAR_FILE
    assert size == 3


def test_10_fd_filestat_set_size(h):
    fd = h.open_file("tr.txt", OFLAGS_CREAT)
    assert h.call("fd_filestat_set_size", fd, 128) == ESUCCESS
    assert h.rt.kernel.vfs.lookup("/sandbox/tr.txt").size == 128


def test_11_fd_fdstat(h):
    fd = h.open_file("fs.txt", OFLAGS_CREAT, fdflags=spec.FDFLAGS_APPEND)
    assert h.call("fd_fdstat_get", fd, h.OUT) == ESUCCESS
    assert h.mem.data[h.OUT] == FILETYPE_REGULAR_FILE
    flags = struct.unpack_from("<H", h.mem.data, h.OUT + 2)[0]
    assert flags & spec.FDFLAGS_APPEND
    assert h.call("fd_fdstat_set_flags", fd, 0) == ESUCCESS


def test_12_path_filestat(h):
    h.rt.kernel.vfs.write_file("/sandbox/pf.txt", b"1234")
    dirfd = h.preopen_fd()
    p, plen = h.cstr_args(h.BUF, "pf.txt")
    assert h.call("path_filestat_get", dirfd, 1, p, plen, h.OUT) == ESUCCESS
    assert h.mem.load_i64(h.OUT + 32) == 4


def test_13_create_remove_directory(h):
    dirfd = h.preopen_fd()
    p, plen = h.cstr_args(h.BUF, "newdir")
    assert h.call("path_create_directory", dirfd, p, plen) == ESUCCESS
    assert h.rt.kernel.vfs.lookup("/sandbox/newdir").is_dir
    assert h.call("path_remove_directory", dirfd, p, plen) == ESUCCESS
    assert not h.rt.kernel.vfs.exists("/sandbox/newdir")


def test_14_unlink_file(h):
    h.rt.kernel.vfs.write_file("/sandbox/u.txt", b"")
    dirfd = h.preopen_fd()
    p, plen = h.cstr_args(h.BUF, "u.txt")
    assert h.call("path_unlink_file", dirfd, p, plen) == ESUCCESS
    assert not h.rt.kernel.vfs.exists("/sandbox/u.txt")


def test_15_rename(h):
    h.rt.kernel.vfs.write_file("/sandbox/old.txt", b"data")
    dirfd = h.preopen_fd()
    po, plo = h.cstr_args(h.BUF, "old.txt")
    pn, pln = h.cstr_args(h.BUF + 100, "new.txt")
    assert h.call("path_rename", dirfd, po, plo, dirfd, pn, pln) == ESUCCESS
    assert h.rt.kernel.vfs.read_file("/sandbox/new.txt") == b"data"


def test_16_symlink_readlink(h):
    dirfd = h.preopen_fd()
    pt, plt = h.cstr_args(h.BUF, "target.txt")
    pl, pll = h.cstr_args(h.BUF + 100, "link")
    assert h.call("path_symlink", pt, plt, dirfd, pl, pll) == ESUCCESS
    assert h.call("path_readlink", dirfd, pl, pll, h.BUF + 200, 64,
                  h.OUT) == ESUCCESS
    n = h.mem.load_i32(h.OUT)
    assert h.mem.read_bytes(h.BUF + 200, n) == b"target.txt"


def test_17_readdir(h):
    h.rt.kernel.vfs.write_file("/sandbox/a.txt", b"")
    h.rt.kernel.vfs.write_file("/sandbox/b.txt", b"")
    fd = h.open_file(".", spec.OFLAGS_DIRECTORY)
    assert h.call("fd_readdir", fd, h.BUF, 512, 0, h.OUT) == ESUCCESS
    used = h.mem.load_i32(h.OUT)
    blob = h.mem.read_bytes(h.BUF, used)
    assert b"a.txt" in blob and b"b.txt" in blob


def test_18_fd_renumber(h):
    fd = h.open_file("rn.txt", OFLAGS_CREAT)
    assert h.call("fd_renumber", fd, 9) == ESUCCESS
    h.put(h.BUF + 512, b"zz")
    iov, n = h.iov(h.IOV, [(h.BUF + 512, 2)])
    assert h.call("fd_write", 9, iov, n, h.OUT) == ESUCCESS
    assert h.call("fd_write", fd, iov, n, h.OUT) == EBADF
    # renumbering an fd onto itself keeps it open
    assert h.call("fd_renumber", 9, 9) == ESUCCESS
    assert h.call("fd_write", 9, iov, n, h.OUT) == ESUCCESS
    assert h.call("fd_renumber", fd, fd) == EBADF
    # a renumbered preopen is still a preopen, under its new number
    pre = h.preopen_fd()
    assert h.call("fd_renumber", pre, 12) == ESUCCESS
    assert h.host.preopens == {12: "/sandbox"}
    assert h.call("fd_prestat_get", 12, h.OUT) == ESUCCESS
    assert h.call("fd_prestat_get", pre, h.OUT) == EBADF


def test_19_random_get(h):
    assert h.call("random_get", h.BUF, 16) == ESUCCESS
    data = h.mem.read_bytes(h.BUF, 16)
    assert data != b"\x00" * 16


def test_20_errno_mapping(h):
    dirfd = h.preopen_fd()
    p, plen = h.cstr_args(h.BUF, "missing.txt")
    assert h.call("path_open", dirfd, 1, p, plen, 0, RIGHTS_ALL, RIGHTS_ALL,
                  0, h.OUT) == ENOENT
    assert h.call("fd_close", 1234) == EBADF


def test_21_capability_sandbox(h):
    dirfd = h.preopen_fd()
    p, plen = h.cstr_args(h.BUF, "/etc/passwd")
    assert h.call("path_open", dirfd, 1, p, plen, 0, RIGHTS_ALL, RIGHTS_ALL,
                  0, h.OUT) == ENOTCAPABLE
    p, plen = h.cstr_args(h.BUF, "../etc/passwd")
    assert h.call("path_open", dirfd, 1, p, plen, 0, RIGHTS_ALL, RIGHTS_ALL,
                  0, h.OUT) == ENOTCAPABLE
    # inside-sandbox dotdot is fine
    h.rt.kernel.vfs.mkdirs("/sandbox/sub")
    p, plen = h.cstr_args(h.BUF, "sub/../ok.txt")
    assert h.call("path_open", dirfd, 1, p, plen, OFLAGS_CREAT, RIGHTS_ALL,
                  RIGHTS_ALL, 0, h.OUT) == ESUCCESS


def test_22_proc_exit_and_layering_proof(h):
    fd = h.open_file("exit.txt", OFLAGS_CREAT)
    h.put(h.BUF + 512, b"bye")
    iov, n = h.iov(h.IOV, [(h.BUF + 512, 3)])
    assert h.call("fd_write", fd, iov, n, h.OUT) == ESUCCESS
    with pytest.raises(GuestExit) as ei:
        h.call("proc_exit", 17)
    assert ei.value.status == 17
    # every kernel interaction above went through WALI name-bound imports:
    # the kernel counted exactly the calls the WALI host counted
    counts = h.rt.kernel.syscall_counts
    assert counts["exit_group"] == 1 and counts["openat"] >= 2
    assert Counter(counts) == Counter(h.wp.call_counts)
    # and the WASI layer holds no kernel object to reach around WALI with
    assert not any(isinstance(v, (Kernel, Process))
                   for v in vars(h.host).values())


def test_readdir_cookie_loop_sees_every_entry_once(h):
    names = [f"file_{i:02d}.txt" for i in range(30)]
    for name in names:
        h.rt.kernel.vfs.write_file(f"/sandbox/{name}", b"")
    fd = h.open_file(".", spec.OFLAGS_DIRECTORY)
    # the wasi-libc readdir loop: parse whole dirents, resume at the last
    # one's d_next, stop once a call leaves the buffer short
    size, cookie, seen = 128, 0, []
    while True:
        assert h.call("fd_readdir", fd, h.BUF, size, cookie, h.OUT) == \
            ESUCCESS
        used = h.mem.load_i32(h.OUT)
        blob = h.mem.read_bytes(h.BUF, used)
        off = 0
        while off + 24 <= used:
            d_next, _ino, namlen, _type = struct.unpack_from(
                "<QQIB", blob, off)
            if off + 24 + namlen > used:
                break  # cut at the buffer's end: read it again
            seen.append(blob[off + 24:off + 24 + namlen].decode())
            cookie = d_next
            off += 24 + namlen
        if used < size:
            break
    assert sorted(seen) == sorted([".", ".."] + names)


# ---- a real WASI guest module through the same stack ----

def test_guest_module_hello_over_wali():
    mb = ModuleBuilder("wasi-hello")
    mb.import_func(MODULE, "fd_write", [I32, I32, I32, I32], [I32])
    mb.add_memory(2, 64)
    mb.add_data(64, b"hi from wasi\n")
    mb.add_data(32, struct.pack("<II", 64, 13))  # one iovec
    f = mb.func("_start", export=True)
    f.i32_const(1).i32_const(32).i32_const(1).i32_const(128)
    f.call("fd_write").op("drop")
    f.end()

    rt = WaliRuntime()
    status = run_wasi_module(mb.build(), rt)
    assert status == 0
    assert rt.kernel.console_output() == b"hi from wasi\n"


def test_wasi_app_runs_compiled(wali_processes):
    """A WASI app tiers up like a WALI app: ``_start`` reaches no fork,
    so under the default rule it gets a compiled body."""
    status = run_wasi_module(_exiting_app(lambda f: None), WaliRuntime())
    assert status == 0
    assert wali_processes[-1].instance.exports["_start"].native is not None


def _exiting_app(body):
    mb = ModuleBuilder("wasi-exit")
    mb.import_func(MODULE, "fd_write", [I32, I32, I32, I32], [I32])
    mb.add_memory(1, 16)
    f = mb.func("_start", export=True)
    body(f)
    f.end()
    return mb.build()


def test_returning_app_exits_like_a_wali_app():
    rt = WaliRuntime()
    status = run_wasi_module(_exiting_app(lambda f: None), rt,
                             preopens={"/tmp": "/tmp"})
    assert status == 0
    proc = rt.kernel.processes[max(rt.kernel.processes)]
    assert proc.argv == ["wasi-app"]
    assert proc.state != STATE_RUNNING
    assert proc.fdtable.entries == {}
    assert proc.pid not in rt.kernel.sched.live_pids()


def test_trapping_app_returns_134():
    rt = WaliRuntime()
    status = run_wasi_module(
        _exiting_app(lambda f: f.op("unreachable")), rt)
    assert status == 134
    proc = rt.kernel.processes[max(rt.kernel.processes)]
    assert proc.state != STATE_RUNNING
    assert proc.pid not in rt.kernel.sched.live_pids()
