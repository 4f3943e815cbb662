"""WALI interface tests: spec, translation, layouts, security, signals,
mmap-in-linear-memory, fork/exec, and the support calls."""

import struct

import pytest

from repro.cc import compile_source
from repro.apps import with_libc
from repro.kernel import (
    MAP_ANONYMOUS, MAP_PRIVATE, O_RDWR, PROT_READ, PROT_WRITE, SIGINT,
    SIGUSR1, SIGTERM,
)
from repro.kernel.calls.fs import Stat
from repro.kernel.errno import EINVAL
from repro.wali import (
    AUTO_PASSTHROUGH, GUEST_LAYOUT, Layout, SYSCALLS, SecurityPolicy,
    WaliHost, WaliRuntime, coverage_report, handler_loc, implemented_names,
)
from repro.wasm import I32, I64, ModuleBuilder, Trap
from repro.wasm.errors import GuestExit, TrapOutOfBounds, TrapSyscall

SEEK_SET, SEEK_CUR = 0, 1
I64_MINUS_ONE = (1 << 64) - 1  # an i64 -1 as it reaches a host function


def run_guest(source, argv=None, env=None, runtime=None, files=None):
    rt = runtime or WaliRuntime()
    if files:
        for path, data in files.items():
            rt.kernel.vfs.write_file(path, data)
    mod = compile_source(with_libc(source), name="test")
    wp = rt.load(mod, argv=argv or ["test"], env=env or {})
    status = wp.run()
    return rt, wp, status


class TestSpec:
    def test_spec_size_matches_paper_scale(self):
        # the paper implements ~137-150 syscalls; our spec stays near that
        # scale (slightly above, since we also bind the full sync family)
        assert 130 <= len(SYSCALLS) <= 180

    def test_implemented_coverage(self):
        names = implemented_names()
        assert len(names) >= 130
        for required in ("read", "write", "mmap", "fork", "execve",
                         "rt_sigaction", "clone", "futex", "socket"):
            assert required in names

    def test_import_names_are_name_bound(self):
        assert SYSCALLS["read"].import_name == "SYS_read"
        assert SYSCALLS["read"].functype.results == (I64,)

    def test_union_spec_covers_all_arches(self):
        rep = coverage_report()
        assert rep["in_union"] > 100
        for arch, count in rep["per_arch"].items():
            assert count > 90, arch

    def test_majority_auto_generated_or_small(self):
        # §5: most calls are passthrough; Table 2: most handlers <10 LOC
        locs = {n: handler_loc(n) for n in implemented_names()}
        small = sum(1 for v in locs.values() if v <= 10)
        assert small / len(locs) > 0.7
        assert len(AUTO_PASSTHROUGH & set(locs)) >= 40

    def test_stateful_flags(self):
        assert SYSCALLS["mmap"].stateful
        assert SYSCALLS["rt_sigaction"].stateful
        assert not SYSCALLS["read"].stateful


def bare_process():
    """A fresh runtime with one loaded, never started, one-page guest, and
    every ``wali`` import, bound by a host with no image (the guest
    imports none): tests call the HostFuncs directly with raw (unsigned)
    Wasm values, as the interpreter does."""
    mb = ModuleBuilder("bare")
    mb.add_memory(1)
    mb.func("_start", params=[], results=[], export=True).end()
    rt = WaliRuntime()
    wp = rt.load(mb.build())
    return rt, wp, WaliHost(rt, wp).imports()["wali"]


def sys_call(ns, name, *raw):
    return ns[f"SYS_{name}"].fn(*raw)


class TestGetdents64:
    """linux_dirent64 records as Linux returns them: ``d_off`` is the
    directory position after the entry, a buffer too small for the next
    entry is EINVAL, and a rewind reads the directory afresh."""

    BUF = 1024

    def _open(self):
        rt, wp, ns = bare_process()
        rt.kernel.vfs.mkdirs("/tmp/d")
        for name in ("a", "bb", "ccc"):
            rt.kernel.vfs.write_file(f"/tmp/d/{name}", b"")
        fd = rt.kernel.call(wp.proc, "open", "/tmp/d", 0, 0)
        return rt, wp, ns, fd

    def _read(self, wp, ns, fd, count):
        """getdents64's result and the (d_off, name) of each record."""
        n = sys_call(ns, "getdents64", fd, self.BUF, count)
        data = wp.instance.memory.read_bytes(self.BUF, max(n, 0))
        recs, off = [], 0
        while off < len(data):
            _, d_off, reclen = struct.unpack_from("<QQH", data, off)
            name = data[off + 19:data.index(b"\x00", off + 19)]
            recs.append((d_off, name.decode()))
            off += reclen
        return n, recs

    def test_d_off_is_the_directory_position_after_the_entry(self):
        rt, wp, ns, fd = self._open()
        _, recs = self._read(wp, ns, fd, 4096)
        assert recs == [(1, "."), (2, ".."), (3, "a"), (4, "bb"),
                        (5, "ccc")]
        # seekdir to an entry's d_off resumes after that entry
        assert sys_call(ns, "lseek", fd, recs[2][0], SEEK_SET) == 3
        assert self._read(wp, ns, fd, 4096)[1] == recs[3:]

    def test_a_buffer_too_small_for_the_next_entry_is_einval(self):
        rt, wp, ns, fd = self._open()
        assert self._read(wp, ns, fd, 8) == (-EINVAL, [])
        # one 24-byte record fits in 40 bytes, two do not
        assert self._read(wp, ns, fd, 40) == (24, [(1, ".")])
        assert rt.kernel.call(wp.proc, "lseek", fd, 0, SEEK_CUR) == 1
        self._read(wp, ns, fd, 4096)
        assert self._read(wp, ns, fd, 8) == (0, [])   # end of directory

    def test_rewind_sees_entries_created_since_the_first_read(self):
        rt, wp, ns, fd = self._open()
        self._read(wp, ns, fd, 4096)
        rt.kernel.vfs.write_file("/tmp/d/new", b"")
        assert sys_call(ns, "lseek", fd, 0, SEEK_SET) == 0
        names = [name for _, name in self._read(wp, ns, fd, 4096)[1]]
        assert names == [".", "..", "a", "bb", "ccc", "new"]


class TestGeneratedHandlers:
    def test_fchown_minus_one_keeps_the_uid(self):
        rt, wp, ns = bare_process()
        rt.kernel.vfs.write_file("/tmp/f", b"x")
        fd = rt.kernel.call(wp.proc, "open", "/tmp/f", O_RDWR, 0)
        uid = rt.kernel.call(wp.proc, "fstat", fd).st_uid
        assert sys_call(ns, "fchown", fd, 0xFFFFFFFF, 7) == 0
        st = rt.kernel.call(wp.proc, "fstat", fd)
        assert (st.st_uid, st.st_gid) == (uid, 7)

    def test_i64_arguments_are_signed_64_bit(self):
        rt, wp, ns = bare_process()
        rt.kernel.vfs.write_file("/tmp/f", b"x" * 100)
        fd = rt.kernel.call(wp.proc, "open", "/tmp/f", O_RDWR, 0)
        assert sys_call(ns, "lseek", fd, 1 << 31, SEEK_SET) == 1 << 31
        assert sys_call(ns, "lseek", fd, 10, SEEK_SET) == 10
        assert sys_call(ns, "lseek", fd, I64_MINUS_ONE, SEEK_CUR) == 9
        assert rt.kernel.call(wp.proc, "lseek", fd, 0, SEEK_CUR) == 9
        assert sys_call(ns, "ftruncate", fd, I64_MINUS_ONE) == -EINVAL
        assert rt.kernel.call(wp.proc, "fstat", fd).st_size == 100
        assert sys_call(ns, "sync_file_range", fd, I64_MINUS_ONE, 0,
                        0) == -EINVAL
        assert sys_call(ns, "sync_file_range", fd, 1 << 31, 4096, 0) == 0

    @pytest.mark.parametrize("entries, want", [
        # two entries for one readable fd: both fire
        ([("r", 1), ("r", 1)], [1, 1]),
        # one fd polled for two events: each entry gets its own revents
        ([("w", 1), ("w", 4)], [0, 4]),
        ([("w", 4), ("w", 1)], [4, 0]),
    ])
    def test_poll_reports_revents_per_entry(self, entries, want):
        rt, wp, ns = bare_process()
        mem = wp.instance.memory
        r, w = rt.kernel.call(wp.proc, "pipe2", 0)
        rt.kernel.call(wp.proc, "write", w, b"x")
        fds = {"r": r, "w": w}
        for i, (end, events) in enumerate(entries):
            mem.write(64 + 8 * i, Layout.encode_pollfd(fds[end], events, 0))
        assert sys_call(ns, "poll", 64, len(entries), 0) == \
            sum(1 for x in want if x)
        got = [mem.load_i32(64 + 8 * i + 4) >> 16 for i in range(len(want))]
        assert got == want

    def test_clock_getres_writes_a_timespec(self):
        rt, wp, ns = bare_process()
        mem = wp.instance.memory
        assert sys_call(ns, "clock_getres", 1, 64) == 0
        assert Layout.decode_timespec(mem.read_bytes(64, 16)) == 1
        assert sys_call(ns, "clock_getres", 1, 0) == 0

    def test_sched_setaffinity_reads_the_guest_mask(self):
        rt, wp, ns = bare_process()
        mem = wp.instance.memory
        mem.write(64, (1).to_bytes(8, "little"))
        assert sys_call(ns, "sched_setaffinity", 0, 8, 64) == 0
        assert rt.kernel.call(wp.proc, "sched_getaffinity", 0) == 1
        mem.write(64, bytes(8))
        assert sys_call(ns, "sched_setaffinity", 0, 8, 64) == -EINVAL

    def test_mincore_writes_one_byte_per_page(self):
        rt, wp, ns = bare_process()
        mem = wp.instance.memory
        addr = sys_call(ns, "mmap", 0, 8192, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, 0xFFFFFFFF, 0)
        assert sys_call(ns, "mincore", addr, 8192, 64) == 0
        assert mem.read_bytes(64, 2) == b"\x01\x01"
        with pytest.raises(TrapOutOfBounds):
            sys_call(ns, "mincore", addr, 8192, mem.size_bytes - 1)

    def test_getrandom_bounds_checks_before_drawing(self):
        rt, wp, ns = bare_process()
        mem = wp.instance.memory
        state = rt.kernel.rng.getstate()
        with pytest.raises(TrapOutOfBounds):
            sys_call(ns, "getrandom", mem.size_bytes - 4, 16, 0)
        assert rt.kernel.rng.getstate() == state
        # a ~4 GiB request is capped at Linux's per-call maximum and
        # bounds-checked, so it traps at once instead of drawing first
        with pytest.raises(TrapOutOfBounds):
            sys_call(ns, "getrandom", 0, 0xFFFFFFF0, 0)
        assert rt.kernel.rng.getstate() == state
        assert sys_call(ns, "getrandom", 0, 16, 0) == 16


# left out of the import sweep: the process-model calls build or replace
# guest instances, and these calls block a never-started guest forever
SWEEP_EXCLUDED = frozenset({
    "fork", "vfork", "clone", "clone3", "execve",
    "pause", "futex", "ppoll", "select", "pselect6", "rt_sigsuspend",
    "rt_sigtimedwait",
})


@pytest.mark.parametrize("raw", [0, 0xFFFFFFF0])
def test_every_import_returns_an_int_or_traps(raw):
    """No argument pattern makes a handler raise out of the host: each
    import returns an int (a result or ``-errno``) or stops the guest."""
    for name, spec in SYSCALLS.items():
        if name in SWEEP_EXCLUDED:
            continue
        _, _, ns = bare_process()
        try:
            res = ns[spec.import_name].fn(*[raw] * len(spec.params))
        except (Trap, GuestExit):
            continue
        except Exception as exc:
            pytest.fail(f"SYS_{name}: {exc!r}")
        assert isinstance(res, int), (name, res)


class TestLayouts:
    def _stat(self):
        return Stat(st_dev=1, st_ino=42, st_mode=0o100644, st_nlink=2,
                    st_uid=1000, st_gid=1000, st_size=12345,
                    st_blksize=4096, st_blocks=25,
                    st_atime_ns=1_500_000_789, st_mtime_ns=2_000_000_123,
                    st_ctime_ns=3_000_000_456)

    @pytest.mark.parametrize("arch", ["wali", "x86_64", "aarch64", "riscv64"])
    def test_stat_roundtrip(self, arch):
        lay = Layout(arch)
        st = self._stat()
        assert lay.decode_stat(lay.encode_stat(st)) == st

    def test_stat_layouts_differ_across_isas(self):
        st = self._stat()
        x86 = Layout("x86_64").encode_stat(st)
        arm = Layout("aarch64").encode_stat(st)
        assert x86 != arm
        assert len(x86) == 144
        assert len(arm) == 128

    def test_riscv_matches_aarch64_layout(self):
        st = self._stat()
        assert Layout("riscv64").encode_stat(st) == \
            Layout("aarch64").encode_stat(st)

    def test_convert_between_isas(self):
        st = self._stat()
        x86 = Layout("x86_64")
        data = x86.encode_stat(st)
        wali_bytes = x86.convert_stat(data, GUEST_LAYOUT)
        assert GUEST_LAYOUT.decode_stat(wali_bytes) == st

    def test_timespec_roundtrip(self):
        ns = 1_234_567_890_123
        assert Layout.decode_timespec(Layout.encode_timespec(ns)) == ns

    def test_sockaddr_roundtrip(self):
        data = Layout.encode_sockaddr(("127.0.0.1", 8080))
        family, addr = Layout.decode_sockaddr(data)
        assert family == 2
        assert addr == ("127.0.0.1", 8080)

    def test_sigaction_roundtrip(self):
        data = Layout.encode_sigaction(7, 0x10000000, 0xFF)
        assert Layout.decode_sigaction(data) == (7, 0x10000000, 0xFF)

    def test_dirents_respect_buffer_size(self):
        """The kernel returns only the entries whose records fit."""
        rt, wp, _ = bare_process()
        rt.kernel.vfs.mkdirs("/tmp/many")
        for i in range(100):
            rt.kernel.vfs.write_file(f"/tmp/many/file{i:03d}", b"")
        fd = rt.kernel.call(wp.proc, "open", "/tmp/many", 0, 0)
        entries = rt.kernel.call(wp.proc, "getdents64", fd, 256)
        data = Layout.encode_dirents(entries)
        assert 0 < len(entries) < 100
        assert len(data) == sum(e.reclen for _, e in entries) <= 256


class TestGuestFileIO:
    def test_open_write_read(self):
        rt, wp, status = run_guest(r"""
export func _start() {
    var fd: i32 = open("/tmp/f.txt", O_CREAT | O_RDWR, 0x1b4);
    write(fd, "payload", 7);
    close(fd);
    fd = open("/tmp/f.txt", O_RDONLY, 0);
    var buf: i32 = malloc(32);
    var n: i32 = read(fd, buf, 32);
    write(STDOUT, buf, n);
    exit(0);
}
""")
        assert status == 0
        assert rt.kernel.console_output() == b"payload"

    def test_errno_on_missing_file(self):
        rt, wp, status = run_guest(r"""
export func _start() {
    var fd: i32 = open("/does/not/exist", O_RDONLY, 0);
    if (fd == -1 && errno == 2) { exit(42); }  // ENOENT
    exit(1);
}
""")
        assert status == 42

    def test_getcwd_chdir(self):
        rt, wp, status = run_guest(r"""
buffer cwd[128];
export func _start() {
    SYS_chdir("/tmp");
    SYS_getcwd(cwd, 128);
    println(cwd);
    exit(0);
}
""")
        assert rt.kernel.console_output() == b"/tmp\n"

    def test_stat_via_portable_layout(self):
        rt, wp, status = run_guest(r"""
buffer st[128];
export func _start() {
    var fd: i32 = open("/etc/passwd", O_RDONLY, 0);
    SYS_fstat(fd, st);
    // portable WALI kstat: st_size is the 8th u64 field (offset 56)
    print_int(i32(load64(st + 56)));
    exit(0);
}
""")
        expected = len(rt.kernel.vfs.read_file("/etc/passwd"))
        assert rt.kernel.console_output().decode() == str(expected)

    def test_readv_writev_iovec_translation(self):
        rt, wp, status = run_guest(r"""
extern func SYS_writev(fd: i32, iov: i32, n: i32) -> i64 from "wali";
buffer iov[16];
export func _start() {
    store32(iov, "abc");      // iov[0].base
    store32(iov + 4, 3);      // iov[0].len
    store32(iov + 8, "DEF");  // iov[1].base
    store32(iov + 12, 3);
    SYS_writev(STDOUT, iov, 2);
    exit(0);
}
""")
        assert rt.kernel.console_output() == b"abcDEF"

    def test_getdents_via_guest(self):
        rt, wp, status = run_guest(r"""
buffer dents[512];
export func _start() {
    SYS_mkdir("/tmp/d", 0x1ed);
    close(open("/tmp/d/a", O_CREAT, 0x1b4));
    close(open("/tmp/d/b", O_CREAT, 0x1b4));
    var fd: i32 = open("/tmp/d", O_RDONLY, 0);
    var n: i32 = i32(SYS_getdents64(fd, dents, 512));
    // walk records, print names (offset 19 in each record)
    var off: i32 = 0;
    while (off < n) {
        println(dents + off + 19);
        off = off + load16u(dents + off + 16);
    }
    exit(0);
}
""")
        assert rt.kernel.console_output() == b".\n..\na\nb\n"


class TestGuestMmap:
    def test_anonymous_mmap_inside_linear_memory(self):
        rt, wp, status = run_guest(r"""
export func _start() {
    var p: i32 = i32(SYS_mmap(0, 8192, 3, MAP_PRIVATE | MAP_ANONYMOUS,
                              -1, i64(0)));
    store32(p, 0xbeef);
    store32(p + 8188, 7);
    if (load32(p) == 0xbeef) { exit(0); }
    exit(1);
}
""")
        assert status == 0
        # mapping landed inside the pool region of linear memory
        assert wp.pool.space.total_mapped() >= 8192

    def test_mmap_is_zeroed(self):
        rt, wp, status = run_guest(r"""
export func _start() {
    var p: i32 = i32(SYS_mmap(0, 4096, 3, MAP_PRIVATE | MAP_ANONYMOUS,
                              -1, i64(0)));
    store32(p, 123);
    SYS_munmap(p, 4096);
    var q: i32 = i32(SYS_mmap(0, 4096, 3, MAP_PRIVATE | MAP_ANONYMOUS,
                              -1, i64(0)));
    exit(load32(q));  // must be zero even though p was reused
}
""")
        assert status == 0

    def test_file_mmap_reads_content(self):
        rt, wp, status = run_guest(r"""
export func _start() {
    var fd: i32 = open("/tmp/data.bin", O_RDONLY, 0);
    var p: i32 = i32(SYS_mmap(0, 4096, 1, MAP_PRIVATE, fd, i64(0)));
    write(STDOUT, p, 11);
    exit(0);
}
""", files={"/tmp/data.bin": b"mapped-data" + b"\x00" * 100})
        assert rt.kernel.console_output() == b"mapped-data"

    def test_shared_mmap_writeback(self):
        rt, wp, status = run_guest(r"""
const MAP_SHARED = 1;
export func _start() {
    var fd: i32 = open("/tmp/wb.bin", O_RDWR, 0);
    var p: i32 = i32(SYS_mmap(0, 4096, 3, MAP_SHARED, fd, i64(0)));
    store8(p, 'X');
    SYS_munmap(p, 4096);
    exit(0);
}
""", files={"/tmp/wb.bin": b"original" + b"\x00" * 4088})
        assert rt.kernel.vfs.read_file("/tmp/wb.bin")[:8] == b"Xriginal"

    def test_mremap_grows_and_preserves(self):
        rt, wp, status = run_guest(r"""
const MREMAP_MAYMOVE = 1;
export func _start() {
    var p: i32 = i32(SYS_mmap(0, 4096, 3, MAP_PRIVATE | MAP_ANONYMOUS,
                              -1, i64(0)));
    store32(p, 777);
    var q: i32 = i32(SYS_mremap(p, 4096, 65536, MREMAP_MAYMOVE, 0));
    if (q < 0) { exit(1); }
    exit(load32(q) == 777);
}
""")
        assert status == 1  # exit(1) means the value survived

    def test_mmap_grows_linear_memory_on_demand(self):
        rt, wp, status = run_guest(r"""
export func _start() {
    // 2 MiB: far beyond the initial memory size
    var p: i32 = i32(SYS_mmap(0, 0x200000, 3, MAP_PRIVATE | MAP_ANONYMOUS,
                              -1, i64(0)));
    store8(p + 0x1fffff, 1);
    exit(0);
}
""")
        assert status == 0
        assert wp.instance.memory.pages > 32

    def test_enomem_past_declared_max(self):
        src = with_libc(r"""
export func _start() {
    // ask for more than the module's max memory allows
    var r: i64 = SYS_mmap(0, 0x10000000, 3, MAP_PRIVATE | MAP_ANONYMOUS,
                          -1, i64(0));
    if (r == i64(-12)) { exit(0); }  // -ENOMEM
    exit(1);
}
""")
        mod = compile_source(src, name="t", max_pages=64)
        rt = WaliRuntime()
        assert rt.run(mod) == 0


class TestSecurity:
    def test_proc_self_mem_blocked(self):
        rt = WaliRuntime()
        mod = compile_source(with_libc(r"""
export func _start() {
    open("/proc/self/mem", O_RDONLY, 0);
    exit(0);
}
"""), name="evil")
        wp = rt.load(mod)
        status = wp.run()
        assert wp.trap is not None
        assert wp.trap.kind == "syscall-denied"

    def test_proc_pid_mem_blocked(self):
        rt = WaliRuntime()
        mod = compile_source(with_libc(r"""
export func _start() {
    open("/proc/1/mem", O_RDONLY, 0);
    exit(0);
}
"""), name="evil2")
        wp = rt.load(mod)
        wp.run()
        assert wp.trap is not None

    def test_proc_status_still_allowed(self):
        rt, wp, status = run_guest(r"""
buffer buf[512];
export func _start() {
    var fd: i32 = open("/proc/self/status", O_RDONLY, 0);
    if (fd < 0) { exit(1); }
    exit(0);
}
""")
        assert status == 0

    def test_prot_exec_stripped(self):
        from repro.kernel.mm import PROT_EXEC
        rt, wp, status = run_guest(r"""
export func _start() {
    // PROT_READ|PROT_WRITE|PROT_EXEC = 7
    var p: i32 = i32(SYS_mmap(0, 4096, 7, MAP_PRIVATE | MAP_ANONYMOUS,
                              -1, i64(0)));
    exit(p > 0);
}
""")
        assert status == 1
        for vma in wp.pool.space.vmas:
            assert not vma.prot & PROT_EXEC

    def test_sigreturn_traps(self):
        rt = WaliRuntime()
        mod = compile_source(with_libc(r"""
extern func SYS_rt_sigreturn() -> i64 from "wali";
export func _start() {
    SYS_rt_sigreturn();
    exit(0);
}
"""), name="srop")
        wp = rt.load(mod)
        wp.run()
        assert wp.trap is not None
        assert wp.trap.kind == "syscall-denied"

    def test_seccomp_like_policy_layer(self):
        policy = SecurityPolicy(deny={"socket"})
        rt = WaliRuntime(policy=policy)
        mod = compile_source(with_libc(r"""
export func _start() {
    SYS_socket(AF_INET, SOCK_STREAM, 0);
    exit(0);
}
"""), name="net")
        wp = rt.load(mod)
        wp.run()
        assert wp.trap is not None
        assert policy.denied_calls == ["socket"]

    def test_import_section_enumerates_capabilities(self):
        # §3.6: the import section statically lists every syscall the binary
        # can possibly make — and static linking keeps it minimal.
        mod = compile_source(with_libc(r"""
export func _start() {
    println("hi");
    exit(0);
}
"""), name="caps")
        names = {n for m, n in mod.import_names() if m == "wali"}
        assert "SYS_write" in names
        assert "SYS_exit_group" in names
        # unreachable syscalls were garbage-collected out of the image
        assert "SYS_socket" not in names
        assert "SYS_fork" not in names


class TestSignalsViaWali:
    def test_guest_handler_runs_at_safepoint(self):
        rt, wp, status = run_guest(r"""
global got: i32 = 0;
func on_usr1(sig: i32) { got = sig; }
export func _start() {
    signal(SIGUSR1, funcref(on_usr1));
    SYS_kill(i32(SYS_getpid()), SIGUSR1);
    var i: i32 = 0;
    while (got == 0 && i < 1000000) { i = i + 1; }  // loop safepoints poll
    exit(got);
}
""")
        assert status == SIGUSR1

    def test_blocked_signal_deferred_until_unblock(self):
        rt, wp, status = run_guest(r"""
global got: i32 = 0;
func on_usr1(sig: i32) { got = got + 1; }
export func _start() {
    signal(SIGUSR1, funcref(on_usr1));
    sigblock(SIGUSR1);
    SYS_kill(i32(SYS_getpid()), SIGUSR1);
    var i: i32 = 0;
    while (i < 100000) { i = i + 1; }
    if (got != 0) { exit(1); }    // must NOT be delivered while blocked
    sigunblock(SIGUSR1);           // §3.3: polled right after unblock
    if (got == 1) { exit(0); }
    exit(2);
}
""")
        assert status == 0

    def test_default_action_terminates(self):
        rt, wp, status = run_guest(r"""
export func _start() {
    SYS_kill(i32(SYS_getpid()), SIGTERM);
    var i: i32 = 0;
    while (i < 1000000) { i = i + 1; }
    exit(0);  // unreachable: SIGTERM default action kills us
}
""")
        assert status == 128 + SIGTERM

    def test_sig_ign_is_dropped(self):
        rt, wp, status = run_guest(r"""
export func _start() {
    signal(SIGTERM, 1);  // SIG_IGN
    SYS_kill(i32(SYS_getpid()), SIGTERM);
    var i: i32 = 0;
    while (i < 100000) { i = i + 1; }
    exit(0);
}
""")
        assert status == 0

    def test_old_action_returned(self):
        rt, wp, status = run_guest(r"""
buffer act[16];
buffer oldact[16];
func h1(sig: i32) { }
func h2(sig: i32) { }
export func _start() {
    store32(act, funcref(h1));
    store32(act + 4, 0);
    store64(act + 8, i64(0));
    SYS_rt_sigaction(SIGUSR1, act, 0, 8);
    store32(act, funcref(h2));
    SYS_rt_sigaction(SIGUSR1, act, oldact, 8);
    exit(load32(oldact) == funcref(h1));
}
""")
        assert status == 1

    def test_handler_mask_defers_same_signal(self):
        # Without SA_NODEFER, a nested identical signal is deferred (§3.3)
        rt, wp, status = run_guest(r"""
global depth: i32 = 0;
global max_depth: i32 = 0;
global count: i32 = 0;
func on_usr1(sig: i32) {
    depth = depth + 1;
    if (depth > max_depth) { max_depth = depth; }
    count = count + 1;
    if (count == 1) {
        SYS_kill(i32(SYS_getpid()), SIGUSR1);
        var i: i32 = 0;
        while (i < 10000) { i = i + 1; }   // poll points inside the handler
    }
    depth = depth - 1;
}
export func _start() {
    signal(SIGUSR1, funcref(on_usr1));
    SYS_kill(i32(SYS_getpid()), SIGUSR1);
    var i: i32 = 0;
    while (count < 2 && i < 1000000) { i = i + 1; }
    exit(max_depth);   // 1 = deferred (correct), 2 = nested (wrong)
}
""")
        assert status == 1


class TestProcessModelViaWali:
    def test_fork_returns_zero_in_child(self):
        rt, wp, status = run_guest(r"""
export func _start() {
    var pid: i32 = fork();
    if (pid == 0) {
        println("child");
        exit(11);
    }
    waitpid(pid, __io_buf);
    var code: i32 = (load32(__io_buf) >> 8) & 255;
    println("parent");
    exit(code);
}
""")
        assert status == 11
        out = rt.kernel.console_output()
        assert b"child" in out and b"parent" in out

    def test_fork_memory_is_copied(self):
        rt, wp, status = run_guest(r"""
buffer shared[4];
export func _start() {
    store32(shared, 1);
    var pid: i32 = fork();
    if (pid == 0) {
        store32(shared, 99);  // only the child's copy changes
        exit(0);
    }
    waitpid(pid, __io_buf);
    exit(load32(shared));
}
""")
        assert status == 1

    def test_execve_replaces_image(self):
        rt = WaliRuntime()
        from repro.apps import build, install_all
        install_all(rt, ["echo"])
        rt, wp, status = run_guest(r"""
buffer argvv[12];
export func _start() {
    store32(argvv, "/bin/echo.wasm");
    store32(argvv + 4, "from-exec");
    store32(argvv + 8, 0);
    execve("/bin/echo.wasm", argvv, 0);
    exit(9);  // unreachable on success
}
""", runtime=rt)
        assert status == 0
        assert b"from-exec" in rt.kernel.console_output()

    def test_execve_missing_file_returns(self):
        rt, wp, status = run_guest(r"""
buffer argvv[8];
export func _start() {
    store32(argvv, "/nope");
    store32(argvv + 4, 0);
    var r: i32 = execve("/nope", argvv, 0);
    if (r == -1 && errno == 2) { exit(5); }
    exit(1);
}
""")
        assert status == 5

    def test_threads_share_memory(self):
        rt, wp, status = run_guest(r"""
buffer counter[4];
buffer done[4];
func worker(arg: i32) {
    var i: i32 = 0;
    while (i < 1000) {
        atomic_add32(counter, 1);
        i = i + 1;
    }
    atomic_add32(done, 1);
}
export func _start() {
    thread_create(funcref(worker), 0);
    thread_create(funcref(worker), 0);
    var spins: i32 = 0;
    while (load32(done) < 2 && spins < 10000000) {
        SYS_sched_yield();
        spins = spins + 1;
    }
    exit(load32(counter) == 2000);
}
""")
        assert status == 1

    def test_getpid_vs_gettid_for_threads(self):
        rt, wp, status = run_guest(r"""
buffer results[8];
buffer done[4];
func worker(arg: i32) {
    store32(results, i32(SYS_getpid()));
    store32(results + 4, i32(SYS_gettid()));
    atomic_add32(done, 1);
}
export func _start() {
    var mypid: i32 = i32(SYS_getpid());
    thread_create(funcref(worker), 0);
    var spins: i32 = 0;
    while (load32(done) < 1 && spins < 10000000) {
        SYS_sched_yield();
        spins = spins + 1;
    }
    // same tgid, different tid
    exit((load32(results) == mypid) && (load32(results + 4) != mypid));
}
""")
        assert status == 1


class TestSupportCalls:
    def test_argv_passed_through_libc(self):
        rt, wp, status = run_guest(r"""
export func _start() {
    __init_args();
    print(argv(1));
    exit(argc());
}
""", argv=["prog", "xyz"])
        assert status == 2
        assert rt.kernel.console_output() == b"xyz"

    def test_env_explicit_not_inherited(self):
        rt, wp, status = run_guest(r"""
export func _start() {
    var v: i32 = getenv("ONLY");
    if (v == 0) { exit(1); }
    print(v);
    exit(0);
}
""", env={"ONLY": "this"})
        assert status == 0
        assert rt.kernel.console_output() == b"this"

    def test_missing_env_returns_null(self):
        rt, wp, status = run_guest(r"""
export func _start() {
    exit(getenv("NOPE") == 0);
}
""")
        assert status == 1


class TestBreakdownAccounting:
    def test_wali_time_is_small_fraction(self):
        rt, wp, status = run_guest(r"""
export func _start() {
    var fd: i32 = open("/tmp/x", O_CREAT | O_RDWR, 0x1b4);
    var i: i32 = 0;
    while (i < 200) {
        write(fd, "0123456789abcdef", 16);
        i = i + 1;
    }
    exit(0);
}
""")
        stats = wp.host.stats()
        assert stats["calls"] >= 200
        assert stats["zero_copy_translations"] >= 200
        assert rt.kernel.kernel_time_ns[wp.proc.tgid] > 0
        assert wp.wali_time_ns >= 0
