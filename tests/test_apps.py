"""Integration tests: the guest application suite end-to-end on WALI."""

import functools
import time

import pytest

from repro.apps import app_names, build, install_all, with_libc
from repro.apps.lua import arith_benchmark_script, fib_script
from repro.apps.sqlite import workload_script
from repro.cc import compile_source
from repro.kernel.errno import ESPIPE
from repro.kernel.vfs import O_RDONLY
from repro.wali import WaliRuntime


@pytest.fixture
def rt():
    return WaliRuntime()


def run(rt, app, argv, files=None, stdin=b""):
    for path, data in (files or {}).items():
        rt.kernel.vfs.mkdirs(path.rsplit("/", 1)[0] or "/")
        rt.kernel.vfs.write_file(path, data)
    if stdin:
        rt.kernel.console_feed(stdin)
    return rt.run(build(app), argv=argv)


class TestCoreutils:
    def test_all_apps_compile_and_validate(self):
        for name in app_names():
            module = build(name)
            assert module.find_export("_start", "func") is not None

    def test_echo(self, rt):
        assert run(rt, "echo", ["echo", "a", "b"]) == 0
        assert rt.kernel.console_output() == b"a b\n"

    def test_cat_files(self, rt):
        status = run(rt, "cat", ["cat", "/tmp/1", "/tmp/2"],
                     files={"/tmp/1": b"one", "/tmp/2": b"two"})
        assert status == 0
        assert rt.kernel.console_output() == b"onetwo"

    def test_cat_missing_file(self, rt):
        assert run(rt, "cat", ["cat", "/nope"]) == 1

    def test_cat_stdin(self, rt):
        assert run(rt, "cat", ["cat"], stdin=b"piped") == 0
        assert b"piped" in rt.kernel.console_output()

    def test_wc(self, rt):
        status = run(rt, "wc", ["wc", "/tmp/f"],
                     files={"/tmp/f": b"a\nbb\nccc\n"})
        assert status == 0
        assert rt.kernel.console_output() == b"3 9\n"

    def test_true_false(self, rt):
        assert run(rt, "true", ["true"]) == 0
        assert run(WaliRuntime(), "false", ["false"]) == 1

    def test_rle_compresses(self, rt):
        assert run(rt, "rle", ["rle"], stdin=b"aaaabbc") == 0
        assert rt.kernel.console_output() == b"\x04a\x02b\x01c"


class TestMiniLua:
    def test_fib(self, rt):
        status = run(rt, "mini_lua", ["lua", "/s.lua"],
                     files={"/s.lua": fib_script(20)})
        assert status == 0
        assert rt.kernel.console_output() == b"6765\n"

    def test_arith_benchmark_deterministic(self):
        outs = []
        for _ in range(2):
            rt = WaliRuntime()
            run(rt, "mini_lua", ["lua", "/s.lua"],
                files={"/s.lua": arith_benchmark_script(100)})
            outs.append(rt.kernel.console_output())
        assert outs[0] == outs[1]

    def test_nested_loops(self, rt):
        script = (b"set t 0\n"
                  b"loop 3\n"
                  b"  loop 4\n"
                  b"    addi t 1\n"
                  b"  end\n"
                  b"end\n"
                  b"print t\n")
        assert run(rt, "mini_lua", ["lua", "/s.lua"],
                   files={"/s.lua": script}) == 0
        assert rt.kernel.console_output() == b"12\n"

    def test_bad_instruction_errors(self, rt):
        assert run(rt, "mini_lua", ["lua", "/s.lua"],
                   files={"/s.lua": b"explode now\n"}) == 1

    def test_div_mod(self, rt):
        script = (b"set a 17\nset b 5\n"
                  b"div c a b\nprint c\n"
                  b"mod d a b\nprint d\n")
        run(rt, "mini_lua", ["lua", "/s.lua"], files={"/s.lua": script})
        assert rt.kernel.console_output() == b"3\n2\n"


class TestMiniSqlite:
    def test_insert_get_delete(self, rt):
        script = (b"insert alpha one\n"
                  b"insert beta two\n"
                  b"get alpha\n"
                  b"delete alpha\n"
                  b"get alpha\n"
                  b"get beta\n"
                  b"count\n"
                  b"exit\n")
        status = run(rt, "mini_sqlite", ["db", "/tmp/t.db", "/tmp/s"],
                     files={"/tmp/s": script})
        assert status == 0
        out = rt.kernel.console_output().splitlines()
        assert out == [b"OK", b"OK", b"one", b"DELETED", b"(nil)", b"two",
                       b"1"]

    def test_updates_shadow_old_records(self, rt):
        script = (b"insert k v1\ninsert k v2\nget k\nexit\n")
        run(rt, "mini_sqlite", ["db", "/tmp/t.db", "/tmp/s"],
            files={"/tmp/s": script})
        assert b"v2" in rt.kernel.console_output()

    def test_persistence_across_runs(self, rt):
        run(rt, "mini_sqlite", ["db", "/tmp/t.db", "/tmp/s1"],
            files={"/tmp/s1": b"insert persist yes\nexit\n"})
        rt.kernel.clear_console()
        wp = rt.load(build("mini_sqlite"), argv=["db", "/tmp/t.db", "/tmp/s2"])
        rt.kernel.vfs.write_file("/tmp/s2", b"get persist\nexit\n")
        wp.run()
        assert b"yes" in rt.kernel.console_output()

    def test_vacuum_shrinks_file(self, rt):
        script = workload_script(10, 0)[:-5] + \
            b"delete key00001\ndelete key00002\nvacuum\ncount\nexit\n"
        run(rt, "mini_sqlite", ["db", "/tmp/t.db", "/tmp/s"],
            files={"/tmp/s": script})
        assert rt.kernel.vfs.lookup("/tmp/t.db").size == 8 * 64

    def test_index_grows_with_mremap(self, rt):
        # >512 records forces the mremap growth path
        script = workload_script(600, 5)
        status = run(rt, "mini_sqlite", ["db", "/tmp/big.db", "/tmp/s"],
                     files={"/tmp/s": script})
        assert status == 0
        assert rt.kernel.syscall_counts["mremap"] >= 1


class TestShell:
    def test_builtin_loop_free_script(self, rt):
        install_all(rt, ["echo", "cat", "wc", "true", "false"])
        script = (b"echo one\n"
                  b"echo two three\n"
                  b"pwd\n"
                  b"exit 0\n")
        rt.kernel.vfs.write_file("/tmp/s.sh", script)
        assert rt.run(build("mini_sh"), argv=["sh", "/tmp/s.sh"]) == 0
        assert rt.kernel.console_output() == b"one\ntwo three\n/\n"

    def test_exit_status_propagates(self, rt):
        install_all(rt, ["false"])
        rt.kernel.vfs.write_file("/tmp/s.sh",
                                 b"/bin/false.wasm\nstatus\nexit 0\n")
        rt.run(build("mini_sh"), argv=["sh", "/tmp/s.sh"])
        assert rt.kernel.console_output() == b"1\n"

    def test_command_not_found_127(self, rt):
        rt.kernel.vfs.write_file("/tmp/s.sh", b"nosuchcmd\nstatus\nexit 0\n")
        rt.run(build("mini_sh"), argv=["sh", "/tmp/s.sh"])
        assert b"127" in rt.kernel.console_output()

    def test_input_redirection(self, rt):
        install_all(rt, ["wc"])
        rt.kernel.vfs.write_file("/tmp/data", b"x\ny\n")
        rt.kernel.vfs.write_file("/tmp/s.sh", b"wc < /tmp/data\nexit 0\n")
        rt.run(build("mini_sh"), argv=["sh", "/tmp/s.sh"])
        assert b"2 4" in rt.kernel.console_output()

    def test_append_redirection(self, rt):
        install_all(rt, ["echo"])
        rt.kernel.vfs.write_file(
            "/tmp/s.sh",
            b"echo first > /tmp/log\necho second >> /tmp/log\nexit 0\n")
        rt.run(build("mini_sh"), argv=["sh", "/tmp/s.sh"])
        assert rt.kernel.vfs.read_file("/tmp/log") == b"first\nsecond\n"

    def test_three_process_pipeline(self, rt):
        install_all(rt, ["cat", "wc", "echo"])
        rt.kernel.vfs.write_file("/tmp/data", b"hello pipeline\n")
        rt.kernel.vfs.write_file("/tmp/s.sh",
                                 b"cat /tmp/data | wc\nexit 0\n")
        rt.run(build("mini_sh"), argv=["sh", "/tmp/s.sh"])
        assert b"1 15" in rt.kernel.console_output()

    def test_comments_skipped(self, rt):
        rt.kernel.vfs.write_file("/tmp/s.sh", b"# comment\necho ok\nexit 0\n")
        rt.run(build("mini_sh"), argv=["sh", "/tmp/s.sh"])
        assert rt.kernel.console_output() == b"ok\n"


# libc read_line's contract, checked against the byte-at-a-time reader:
# empty lines, NUL bytes, a line longer than 511 bytes, no final newline
LINES = (b"one\n\n\nnul\x00byte\x00\n" + b"L" * 520 + b"\n"
         + b"ab\ntail without newline")


@functools.lru_cache(maxsize=None)
def _read_line_guest():
    """``rl N CALLS [PATH]``: CALLS read_line calls of size N on PATH
    (stdin when absent).  After each it prints ``len pos\n``, the line's
    bytes and ``\n``, where pos is ``lseek(fd, 0, SEEK_CUR)`` (-errno
    when that fails); then it prints the bytes a plain read leaves."""
    return compile_source(with_libc(r"""
buffer line[600];

func report(a: i32, b: i32) {
    print_int(a);
    print(" ");
    print_int(b);
    print("\n");
}

export func _start() {
    __init_args();
    var n: i32 = atoi(argv(1));
    var calls: i32 = atoi(argv(2));
    var fd: i32 = STDIN;
    if (argc() > 3) { fd = open(argv(3), O_RDONLY, 0); }
    var k: i32 = 0;
    while (k < calls) {
        var len: i32 = read_line(fd, line, n);
        report(len, i32(SYS_lseek(fd, i64(0), SEEK_CUR)));
        if (len > 0) { write_all(STDOUT, line, len); }
        print("\n");
        k = k + 1;
    }
    var r: i32 = read(fd, line, 600);
    while (r > 0) {
        write_all(STDOUT, line, r);
        r = read(fd, line, 600);
    }
    exit(0);
}
"""), name="rl")


def _byte_reader(data: bytes, n: int, calls: int):
    """The byte-at-a-time read_line over ``data``: each call's
    ``(length, bytes, offset after)``, then the bytes left unread."""
    pos, out = 0, []
    for _ in range(calls):
        line = bytearray()
        eof = False
        while len(line) < n - 1:
            if pos == len(data):
                eof = not line
                break
            byte = data[pos]
            pos += 1
            if byte == 10:
                break
            line.append(byte)
        out.append((-1 if eof else len(line), bytes(line), pos))
    return out, data[pos:]


def _parse(output: bytes, calls: int):
    out = []
    for _ in range(calls):
        head, output = output.split(b"\n", 1)
        length, pos = map(int, head.split())
        line, output = output[:max(length, 0)], output[max(length, 0):]
        assert output[:1] == b"\n"
        out.append((length, line, pos))
        output = output[1:]
    return out, output


class TestReadLine:
    """read_line returns the same lines, and leaves the fd at the same
    offset, on every kind of fd: a seekable file is read in chunks, a
    pipe or tty a byte at a time."""

    @pytest.mark.parametrize("calls", [3, len(LINES) + 2])
    @pytest.mark.parametrize("n", [1, 2, 512])
    @pytest.mark.parametrize("where", ["/tmp/lines", "/data/lines", "pipe",
                                       "tty"])
    def test_matches_the_byte_reader(self, where, n, calls):
        rt = WaliRuntime()
        k = rt.kernel
        argv = ["rl", str(n), str(calls)]
        if where.startswith("/"):
            k.vfs.write_file(where, LINES)
            argv.append(where)
        elif where == "tty":
            k.console_feed(LINES)
        wp = rt.load(_read_line_guest(), argv=argv)
        if where == "pipe":
            r, w = k.call(wp.proc, "pipe2", 0)
            assert k.call(wp.proc, "write", w, LINES) == len(LINES)
            k.call(wp.proc, "dup2", r, 0)
            k.call(wp.proc, "close", r)
            k.call(wp.proc, "close", w)
        assert wp.run() == 0
        got, rest = _parse(k.console_output(), calls)
        want, want_rest = _byte_reader(LINES, n, calls)
        if not where.startswith("/"):   # lseek fails: ESPIPE
            want = [(length, line, -ESPIPE) for length, line, _ in want]
        assert got == want
        # what read_line did not return is still in the file, pipe or tty
        assert rest == want_rest

    def test_shell_child_reads_on_from_a_seekable_script(self, rt):
        """A child sharing the script fd reads the line after its own."""
        install_all(rt, ["cat"])
        k = rt.kernel
        k.vfs.write_file("/tmp/s.sh", b"cat\nhello from the script\n")
        wp = rt.load(build("mini_sh"), argv=["sh"])
        fd = k.call(wp.proc, "open", "/tmp/s.sh", O_RDONLY)
        k.call(wp.proc, "dup2", fd, 0)
        k.call(wp.proc, "close", fd)
        assert wp.run() == 0
        assert k.console_output() == b"hello from the script\n"


class TestNetworkApps:
    def _start_server(self, rt, app, argv):
        server = rt.load(build(app), argv=argv)
        server.start_in_thread()
        for _ in range(500):
            if b"ready" in rt.kernel.console_output():
                return server
            time.sleep(0.01)
        raise TimeoutError("server never became ready")

    def test_memcached_session(self, rt):
        server = self._start_server(rt, "mini_memcached",
                                    ["memcached", "11311"])
        status = rt.run(build("memcached_client"),
                        argv=["client", "11311", "25", "1"])
        server.join(5)
        assert status == 0
        assert b"client ok checksum=" in rt.kernel.console_output()
        assert server.exit_status == 0

    def test_memcached_refuses_root(self, rt):
        proc_wp = rt.load(build("mini_memcached"), argv=["memcached"])
        proc_wp.proc.uid = proc_wp.proc.euid = 0
        assert proc_wp.run() == 71

    def test_mqtt_roundtrip_checksums(self, rt):
        server = self._start_server(rt, "mqtt_broker", ["broker", "11883"])
        status = rt.run(build("paho_bench"),
                        argv=["bench", "11883", "20", "48", "1"])
        server.join(5)
        assert status == 0
        assert b"bench ok=20 bad=0" in rt.kernel.console_output()

    def test_memcached_uses_clone_threads(self, rt):
        server = self._start_server(rt, "mini_memcached",
                                    ["memcached", "11312"])
        rt.run(build("memcached_client"), argv=["client", "11312", "5", "1"])
        server.join(5)
        assert rt.kernel.syscall_counts["clone"] >= 1


class TestSyscallFootprints:
    """Each app's trace hits the syscall families Table 1 credits it with."""

    def test_shell_uses_process_and_signal_calls(self, rt):
        install_all(rt, ["echo"])
        rt.kernel.vfs.write_file("/tmp/s.sh",
                                 b"echo x > /tmp/y\nexit 0\n")
        rt.run(build("mini_sh"), argv=["sh", "/tmp/s.sh"])
        counts = rt.kernel.syscall_counts
        for name in ("rt_sigaction", "fork", "execve", "wait4"):
            assert counts[name] >= 1, name

    def test_sqlite_uses_pread_pwrite_mremap_family(self, rt):
        run(rt, "mini_sqlite", ["db", "/t.db", "/s"],
            files={"/s": workload_script(600, 3)})
        counts = rt.kernel.syscall_counts
        for name in ("pread64", "pwrite64", "mmap", "mremap"):
            assert counts[name] >= 1, name

    def test_lua_is_compute_light_on_syscalls(self, rt):
        run(rt, "mini_lua", ["lua", "/s.lua"],
            files={"/s.lua": arith_benchmark_script(300)})
        assert sum(rt.kernel.syscall_counts.values()) < 30
