"""Kernel tests: VFS, fd semantics, pipes, procfs, poll."""

import time

import pytest

from repro.kernel import (
    AT_FDCWD, Kernel, KernelError, O_APPEND, O_CLOEXEC, O_CREAT, O_EXCL,
    O_NONBLOCK, O_RDONLY, O_RDWR, O_TRUNC, O_WRONLY,
)
from repro.kernel.errno import (
    EBADF, EEXIST, EINVAL, EISDIR, ELOOP, ENOENT, ENOSPC, ENOTDIR,
    ENOTEMPTY, ESPIPE,
)
from repro.kernel.fdtable import F_DUPFD_CLOEXEC, F_GETFD, F_GETFL, F_SETFL
from repro.kernel.process import RLIMIT_FSIZE


@pytest.fixture
def k():
    return Kernel()


@pytest.fixture
def proc(k):
    return k.create_process(["test"], {})


class TestOpenClose:
    def test_open_missing_enoent(self, k, proc):
        with pytest.raises(KernelError) as ei:
            k.call(proc, "openat", AT_FDCWD, "/nope", O_RDONLY, 0)
        assert ei.value.errno == ENOENT

    def test_create_write_read(self, k, proc):
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/a", O_CREAT | O_RDWR, 0o644)
        assert k.call(proc, "write", fd, b"abc") == 3
        k.call(proc, "lseek", fd, 0, 0)
        assert k.call(proc, "read", fd, 10) == b"abc"
        assert k.call(proc, "close", fd) == 0

    def test_o_excl(self, k, proc):
        k.call(proc, "openat", AT_FDCWD, "/tmp/b", O_CREAT, 0o644)
        with pytest.raises(KernelError) as ei:
            k.call(proc, "openat", AT_FDCWD, "/tmp/b",
                   O_CREAT | O_EXCL, 0o644)
        assert ei.value.errno == EEXIST

    def test_o_trunc(self, k, proc):
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/c", O_CREAT | O_RDWR, 0o644)
        k.call(proc, "write", fd, b"0123456789")
        k.call(proc, "close", fd)
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/c", O_RDWR | O_TRUNC, 0)
        assert k.call(proc, "fstat", fd).st_size == 0

    def test_o_append(self, k, proc):
        k.vfs.write_file("/tmp/d", b"xx")
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/d", O_WRONLY | O_APPEND, 0)
        k.call(proc, "write", fd, b"yy")
        assert k.vfs.read_file("/tmp/d") == b"xxyy"

    def test_write_on_rdonly_ebadf(self, k, proc):
        k.vfs.write_file("/tmp/e", b"")
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/e", O_RDONLY, 0)
        with pytest.raises(KernelError) as ei:
            k.call(proc, "write", fd, b"z")
        assert ei.value.errno == EBADF

    def test_open_dir_for_write_eisdir(self, k, proc):
        with pytest.raises(KernelError) as ei:
            k.call(proc, "openat", AT_FDCWD, "/tmp", O_WRONLY, 0)
        assert ei.value.errno == EISDIR

    def test_close_bad_fd(self, k, proc):
        with pytest.raises(KernelError) as ei:
            k.call(proc, "close", 99)
        assert ei.value.errno == EBADF

    def test_umask_applied(self, k, proc):
        k.call(proc, "umask", 0o077)
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/um", O_CREAT, 0o666)
        assert k.call(proc, "fstat", fd).st_mode & 0o777 == 0o600

    def test_rlimit_fsize_enospc(self, k, proc):
        proc.setrlimit(RLIMIT_FSIZE, 4, 4)
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/cap", O_CREAT | O_RDWR,
                    0o644)
        with pytest.raises(KernelError) as ei:
            k.call(proc, "write", fd, b"too big for the cap")
        assert ei.value.errno == ENOSPC


class TestSeekAndP:
    def test_lseek_set_cur_end(self, k, proc):
        k.vfs.write_file("/tmp/s", b"0123456789")
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/s", O_RDONLY, 0)
        assert k.call(proc, "lseek", fd, 4, 0) == 4
        assert k.call(proc, "lseek", fd, 2, 1) == 6
        assert k.call(proc, "lseek", fd, -1, 2) == 9
        assert k.call(proc, "read", fd, 10) == b"9"

    def test_lseek_negative_einval(self, k, proc):
        k.vfs.write_file("/tmp/s2", b"x")
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/s2", O_RDONLY, 0)
        with pytest.raises(KernelError) as ei:
            k.call(proc, "lseek", fd, -5, 0)
        assert ei.value.errno == EINVAL

    def test_pread_pwrite_do_not_move_offset(self, k, proc):
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/p", O_CREAT | O_RDWR, 0o644)
        k.call(proc, "pwrite64", fd, b"abcdef", 0)
        assert k.call(proc, "pread64", fd, 3, 2) == b"cde"
        assert k.call(proc, "lseek", fd, 0, 1) == 0  # offset unchanged

    def test_pread_on_pipe_espipe(self, k, proc):
        r, w = k.call(proc, "pipe2", 0)
        with pytest.raises(KernelError) as ei:
            k.call(proc, "pread64", r, 1, 0)
        assert ei.value.errno == ESPIPE

    def test_sparse_write_zero_fills(self, k, proc):
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/sp", O_CREAT | O_RDWR,
                    0o644)
        k.call(proc, "pwrite64", fd, b"z", 8)
        assert k.vfs.read_file("/tmp/sp") == b"\x00" * 8 + b"z"


class TestDupFcntl:
    def test_dup_shares_offset(self, k, proc):
        k.vfs.write_file("/tmp/f", b"abcdef")
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/f", O_RDONLY, 0)
        fd2 = k.call(proc, "dup", fd)
        assert k.call(proc, "read", fd, 3) == b"abc"
        assert k.call(proc, "read", fd2, 3) == b"def"  # shared description

    def test_dup2_replaces(self, k, proc):
        k.vfs.write_file("/tmp/g", b"g")
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/g", O_RDONLY, 0)
        k.call(proc, "dup2", fd, 0)  # replace stdin
        assert k.call(proc, "read", 0, 1) == b"g"

    def test_dup3_equal_fds_einval(self, k, proc):
        with pytest.raises(KernelError) as ei:
            k.call(proc, "dup3", 1, 1, 0)
        assert ei.value.errno == EINVAL

    def test_fcntl_dupfd_cloexec(self, k, proc):
        k.vfs.write_file("/tmp/h", b"")
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/h", O_RDONLY, 0)
        fd2 = k.call(proc, "fcntl", fd, F_DUPFD_CLOEXEC, 10)
        assert fd2 >= 10
        assert k.call(proc, "fcntl", fd2, F_GETFD) == 1

    def test_fcntl_setfl_nonblock(self, k, proc):
        r, w = k.call(proc, "pipe2", 0)
        k.call(proc, "fcntl", r, F_SETFL, O_NONBLOCK)
        assert k.call(proc, "fcntl", r, F_GETFL) & O_NONBLOCK

    def test_cloexec_closed_on_exec(self, k, proc):
        k.vfs.write_file("/bin/prog", b"#!wasm")
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/h2",
                    O_CREAT | O_CLOEXEC, 0o644)
        keep = k.call(proc, "openat", AT_FDCWD, "/tmp/h3", O_CREAT, 0o644)
        k.call(proc, "execve", "/bin/prog", ["prog"], [])
        with pytest.raises(KernelError):
            k.call(proc, "read", fd, 1)
        k.call(proc, "fstat", keep)  # survives


class TestPipes:
    def test_roundtrip(self, k, proc):
        r, w = k.call(proc, "pipe2", 0)
        k.call(proc, "write", w, b"ping")
        assert k.call(proc, "read", r, 4) == b"ping"

    def test_eof_after_writer_close(self, k, proc):
        r, w = k.call(proc, "pipe2", 0)
        k.call(proc, "write", w, b"x")
        k.call(proc, "close", w)
        assert k.call(proc, "read", r, 10) == b"x"
        assert k.call(proc, "read", r, 10) == b""  # EOF, not block

    def test_epipe_and_sigpipe(self, k, proc):
        from repro.kernel import SIGPIPE, sig_bit
        r, w = k.call(proc, "pipe2", 0)
        k.call(proc, "close", r)
        with pytest.raises(KernelError) as ei:
            k.call(proc, "write", w, b"x")
        assert ei.value.errno == 32  # EPIPE
        assert proc.pending.bits & sig_bit(SIGPIPE)

    def test_nonblocking_empty_eagain(self, k, proc):
        r, w = k.call(proc, "pipe2", O_NONBLOCK)
        with pytest.raises(KernelError) as ei:
            k.call(proc, "read", r, 1)
        assert ei.value.errno == 11  # EAGAIN

    def test_fionread(self, k, proc):
        r, w = k.call(proc, "pipe2", 0)
        k.call(proc, "write", w, b"12345")
        assert k.call(proc, "ioctl", r, 0x541B) == 5  # FIONREAD


class TestDirectories:
    def test_mkdir_getdents(self, k, proc):
        k.call(proc, "mkdirat", AT_FDCWD, "/tmp/dir", 0o755)
        k.vfs.write_file("/tmp/dir/f1", b"")
        k.vfs.write_file("/tmp/dir/f2", b"")
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/dir", O_RDONLY, 0)
        names = [e.name for _, e in k.call(proc, "getdents64", fd, 4096)]
        assert names == [".", "..", "f1", "f2"]

    def test_mkdir_exists(self, k, proc):
        with pytest.raises(KernelError) as ei:
            k.call(proc, "mkdirat", AT_FDCWD, "/tmp", 0o755)
        assert ei.value.errno == EEXIST

    def test_rmdir_nonempty(self, k, proc):
        k.vfs.mkdirs("/tmp/ne")
        k.vfs.write_file("/tmp/ne/x", b"")
        with pytest.raises(KernelError) as ei:
            k.call(proc, "unlinkat", AT_FDCWD, "/tmp/ne", 0x200)
        assert ei.value.errno == ENOTEMPTY

    def test_chdir_getcwd(self, k, proc):
        k.vfs.mkdirs("/home/user/work")
        k.call(proc, "chdir", "/home/user/work")
        assert k.call(proc, "getcwd") == "/home/user/work"
        k.call(proc, "chdir", "..")
        assert k.call(proc, "getcwd") == "/home/user"

    def test_chdir_to_file_enotdir(self, k, proc):
        k.vfs.write_file("/tmp/file", b"")
        with pytest.raises(KernelError) as ei:
            k.call(proc, "chdir", "/tmp/file")
        assert ei.value.errno == ENOTDIR

    def test_relative_paths_use_cwd(self, k, proc):
        k.call(proc, "chdir", "/tmp")
        fd = k.call(proc, "openat", AT_FDCWD, "rel.txt", O_CREAT, 0o644)
        assert k.vfs.exists("/tmp/rel.txt")

    def test_rename(self, k, proc):
        k.vfs.write_file("/tmp/old", b"data")
        k.call(proc, "renameat", AT_FDCWD, "/tmp/old", AT_FDCWD, "/tmp/new")
        assert not k.vfs.exists("/tmp/old")
        assert k.vfs.read_file("/tmp/new") == b"data"

    def test_unlink(self, k, proc):
        k.vfs.write_file("/tmp/u", b"")
        k.call(proc, "unlinkat", AT_FDCWD, "/tmp/u", 0)
        assert not k.vfs.exists("/tmp/u")


class TestLinks:
    def test_hard_link_shares_inode(self, k, proc):
        k.vfs.write_file("/tmp/orig", b"abc")
        k.call(proc, "linkat", AT_FDCWD, "/tmp/orig", AT_FDCWD, "/tmp/hl", 0)
        st1 = k.call(proc, "stat", "/tmp/orig")
        st2 = k.call(proc, "stat", "/tmp/hl")
        assert st1.st_ino == st2.st_ino
        assert st1.st_nlink == 2

    def test_symlink_follow_and_nofollow(self, k, proc):
        k.vfs.write_file("/tmp/target", b"T")
        k.call(proc, "symlinkat", "/tmp/target", AT_FDCWD, "/tmp/sl")
        assert k.call(proc, "stat", "/tmp/sl").st_size == 1
        lst = k.call(proc, "lstat", "/tmp/sl")
        assert lst.st_mode & 0o170000 == 0o120000  # S_IFLNK

    def test_readlinkat(self, k, proc):
        k.call(proc, "symlinkat", "/somewhere", AT_FDCWD, "/tmp/sl2")
        assert k.call(proc, "readlinkat", AT_FDCWD, "/tmp/sl2") == "/somewhere"

    def test_symlink_loop_eloop(self, k, proc):
        k.call(proc, "symlinkat", "/tmp/loopb", AT_FDCWD, "/tmp/loopa")
        k.call(proc, "symlinkat", "/tmp/loopa", AT_FDCWD, "/tmp/loopb")
        with pytest.raises(KernelError) as ei:
            k.call(proc, "stat", "/tmp/loopa")
        assert ei.value.errno == ELOOP


class TestProcfsAndDevices:
    def test_dev_null(self, k, proc):
        fd = k.call(proc, "openat", AT_FDCWD, "/dev/null", O_RDWR, 0)
        assert k.call(proc, "write", fd, b"discard") == 7
        assert k.call(proc, "read", fd, 10) == b""

    def test_dev_zero(self, k, proc):
        fd = k.call(proc, "openat", AT_FDCWD, "/dev/zero", O_RDONLY, 0)
        assert k.call(proc, "read", fd, 4) == b"\x00" * 4

    def test_proc_self_resolves_to_caller(self, k, proc):
        fd = k.call(proc, "openat", AT_FDCWD, "/proc/self/status",
                    O_RDONLY, 0)
        content = k.call(proc, "read", fd, 4096).decode()
        assert f"Pid:\t{proc.pid}" in content

    def test_proc_cmdline(self, k):
        proc = k.create_process(["prog", "arg1"], {})
        fd = k.call(proc, "openat", AT_FDCWD, "/proc/self/cmdline",
                    O_RDONLY, 0)
        assert k.call(proc, "read", fd, 100) == b"prog\x00arg1"

    def test_proc_self_mem_exists_at_kernel_level(self, k, proc):
        # The kernel exposes it; WALI is what blocks it (§3.6).
        fd = k.call(proc, "openat", AT_FDCWD, "/proc/self/mem", O_RDONLY, 0)
        assert k.call(proc, "read", fd, 64)

    def test_fsync_of_a_procfs_file_is_einval(self, k, proc):
        fd = k.call(proc, "openat", AT_FDCWD, "/proc/self/status",
                    O_RDONLY, 0)
        with pytest.raises(KernelError) as ei:
            k.call(proc, "fsync", fd)
        assert ei.value.errno == EINVAL

    def test_ioctl_tiocgwinsz(self, k, proc):
        rows, cols = k.call(proc, "ioctl", 0, 0x5413)
        assert (rows, cols) == (24, 80)

    def test_ioctl_on_file_enotty(self, k, proc):
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/t", O_CREAT, 0o644)
        with pytest.raises(KernelError) as ei:
            k.call(proc, "ioctl", fd, 0x5413)
        assert ei.value.errno == 25  # ENOTTY


class TestPoll:
    def test_poll_ready_pipe(self, k, proc):
        r, w = k.call(proc, "pipe2", 0)
        k.call(proc, "write", w, b"x")
        res = k.call(proc, "ppoll", [(r, 1)], 0)
        assert res == [(r, 1)]

    def test_poll_timeout_empty(self, k, proc):
        r, w = k.call(proc, "pipe2", 0)
        res = k.call(proc, "ppoll", [(r, 1)], 5_000_000)  # 5 ms
        assert res == []

    def test_poll_writable(self, k, proc):
        r, w = k.call(proc, "pipe2", 0)
        res = k.call(proc, "ppoll", [(w, 4)], 0)
        assert res == [(w, 4)]

    def test_poll_bad_fd_pollnval(self, k, proc):
        res = k.call(proc, "ppoll", [(77, 1)], 0)
        assert res == [(77, 0x20)]

    def test_poll_ignores_a_negative_fd(self, k, proc):
        # Linux skips an entry whose fd is negative: no POLLNVAL, so the
        # call sleeps out its timeout
        t0 = time.monotonic()
        assert k.call(proc, "ppoll", [(-1, 1)], 20_000_000) == []
        assert time.monotonic() - t0 >= 0.015
        r, w = k.call(proc, "pipe2", 0)
        assert k.call(proc, "ppoll", [(-1, 1), (w, 4)], 0) == [(w, 4)]

    def test_pselect(self, k, proc):
        r, w = k.call(proc, "pipe2", 0)
        k.call(proc, "write", w, b"x")
        rr, ww = k.call(proc, "pselect6", [r], [w], 0)
        assert rr == [r] and ww == [w]


class TestMetadata:
    def test_stat_fields(self, k, proc):
        k.vfs.write_file("/tmp/meta", b"12345")
        st = k.call(proc, "stat", "/tmp/meta")
        assert st.st_size == 5
        assert st.st_mode & 0o170000 == 0o100000
        assert st.st_blksize == 4096

    def test_chmod(self, k, proc):
        k.vfs.write_file("/tmp/cm", b"")
        k.call(proc, "fchmodat", AT_FDCWD, "/tmp/cm", 0o755)
        assert k.call(proc, "stat", "/tmp/cm").st_mode & 0o777 == 0o755

    def test_chown(self, k, proc):
        k.vfs.write_file("/tmp/co", b"")
        k.call(proc, "fchownat", AT_FDCWD, "/tmp/co", 42, 43, 0)
        st = k.call(proc, "stat", "/tmp/co")
        assert (st.st_uid, st.st_gid) == (42, 43)

    def test_truncate_extends_and_shrinks(self, k, proc):
        k.vfs.write_file("/tmp/tr", b"abc")
        k.call(proc, "truncate", "/tmp/tr", 6)
        assert k.vfs.read_file("/tmp/tr") == b"abc\x00\x00\x00"
        k.call(proc, "truncate", "/tmp/tr", 2)
        assert k.vfs.read_file("/tmp/tr") == b"ab"

    def test_statfs(self, k, proc):
        sf = k.call(proc, "statfs", "/tmp")
        assert sf.f_bsize == 4096

    def test_utimensat(self, k, proc):
        k.vfs.write_file("/tmp/ut", b"")
        k.call(proc, "utimensat", AT_FDCWD, "/tmp/ut", 111, 222, 0)
        st = k.call(proc, "stat", "/tmp/ut")
        assert (st.st_atime_ns, st.st_mtime_ns) == (111, 222)

    def test_writev_readv(self, k, proc):
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/v", O_CREAT | O_RDWR,
                    0o644)
        assert k.call(proc, "writev", fd, [b"ab", b"cd", b"ef"]) == 6
        k.call(proc, "lseek", fd, 0, 0)
        assert k.call(proc, "readv", fd, [2, 4]) == b"abcdef"

    def test_memfd_create(self, k, proc):
        fd = k.call(proc, "memfd_create", "buf", 0)
        k.call(proc, "write", fd, b"anon")
        k.call(proc, "lseek", fd, 0, 0)
        assert k.call(proc, "read", fd, 4) == b"anon"

    def test_sendfile(self, k, proc):
        k.vfs.write_file("/tmp/src", b"payload")
        src = k.call(proc, "openat", AT_FDCWD, "/tmp/src", O_RDONLY, 0)
        dst = k.call(proc, "openat", AT_FDCWD, "/tmp/dst", O_CREAT | O_WRONLY,
                     0o644)
        assert k.call(proc, "sendfile", dst, src, 0, 7) == 7
        assert k.vfs.read_file("/tmp/dst") == b"payload"

    def test_sendfile_from_a_write_only_fd_is_ebadf(self, k, proc):
        k.vfs.write_file("/tmp/wo", b"secret")
        src = k.call(proc, "openat", AT_FDCWD, "/tmp/wo", O_WRONLY, 0)
        dst = k.call(proc, "openat", AT_FDCWD, "/tmp/dst", O_CREAT | O_WRONLY,
                     0o644)
        for offset in (None, 0):
            with pytest.raises(KernelError) as ei:
                k.call(proc, "sendfile", dst, src, offset, 6)
            assert ei.value.errno == EBADF
        assert k.vfs.read_file("/tmp/dst") == b""

    def test_ftruncate_needs_an_fd_open_for_writing(self, k, proc):
        k.vfs.write_file("/tmp/ro", b"hello world")
        fd = k.call(proc, "openat", AT_FDCWD, "/tmp/ro", O_RDONLY, 0)
        with pytest.raises(KernelError) as ei:
            k.call(proc, "ftruncate", fd, 2)
        assert ei.value.errno == EINVAL
        assert k.vfs.read_file("/tmp/ro") == b"hello world"
