"""WASI preview1 as a layer over WALI (the paper's §4.1 result).

:class:`WasiHost` holds the API logic (argument marshalling, the
capability sandbox, WASI struct encoding) and reaches the kernel **only**
through the WALI import namespace it is given: ``SYS_<name>`` for
syscalls and the §3.4 support calls for argv/env.  The same code would
run on any engine that exposes WALI, outside the engine TCB.  Its scratch
memory is allocated *through WALI mmap* inside the guest's linear memory,
exactly like a compiled-to-Wasm libuvwasi would.

The layer keeps no counters of its own: every syscall it makes is counted
by the WALI host's cells and the kernel's ``syscall.*`` cells.

The capability model is enforced here: preopened directories, no absolute
paths, no ``..`` escape (``ENOTCAPABLE``).
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

from ..wasm.errors import GuestExit
from ..wasm.interp import HostFunc
from . import spec
from .spec import FUNCTIONS, MODULE, wasi_errno


class WasiHost:
    """The WASI preview1 API over a WALI import namespace.

    ``wali_ns`` maps WALI import names to host functions; ``memory_ref``
    returns the guest memory those functions act on.
    """

    SCRATCH_SIZE = 65536

    def __init__(self, wali_ns: Dict[str, HostFunc],
                 memory_ref: Callable[[], object],
                 preopens: Optional[Dict] = None):
        self.wali = wali_ns
        self._memory_ref = memory_ref
        self.preopens: Dict[int, str] = {}
        self._want_preopens = preopens or {"/": "/"}
        self._scratch = 0
        self._initialised = False

    # ------------------------------------------------------------------
    # lazy init: allocate scratch + preopens through WALI
    # ------------------------------------------------------------------

    def _ensure_init(self):
        if self._initialised:
            return
        self._initialised = True
        # scratch buffer inside guest linear memory, via WALI mmap —
        # the adapter sandboxes itself exactly like guest code would.
        r = self._raw("mmap", 0, self.SCRATCH_SIZE, 3, 0x22, -1, 0)
        if r < 0:
            raise RuntimeError("WASI adapter could not allocate scratch")
        self._scratch = r
        for guest_path in self._want_preopens.values():
            self.mem.write(self._scratch, guest_path.encode() + b"\x00")
            fd = self._raw("openat", -100, self._scratch,
                           0o200000, 0)  # O_DIRECTORY
            if fd >= 0:
                self.preopens[fd] = guest_path

    # ------------------------------------------------------------------
    # memory helpers
    # ------------------------------------------------------------------

    @property
    def mem(self):
        return self._memory_ref()

    def _read_path(self, ptr: int, length: int) -> str:
        return self.mem.read_bytes(ptr, length).decode("utf-8",
                                                       "surrogateescape")

    # ------------------------------------------------------------------
    # capability sandbox
    # ------------------------------------------------------------------

    def _check_caps(self, dirfd: int, path: str) -> None:
        if path.startswith("/"):
            raise _WasiErr(spec.ENOTCAPABLE)
        depth = 0
        for comp in path.split("/"):
            if comp == "..":
                depth -= 1
            elif comp and comp != ".":
                depth += 1
            if depth < 0:
                raise _WasiErr(spec.ENOTCAPABLE)

    # ------------------------------------------------------------------
    # import object
    # ------------------------------------------------------------------

    def imports(self) -> dict:
        ns = {}
        for name, ft in FUNCTIONS.items():
            ns[name] = HostFunc(ft, self._wrap(getattr(self, name)), name)
        return {MODULE: ns}

    def _wrap(self, method):
        def call(*args):
            self._ensure_init()
            try:
                res = method(*args)
                return spec.ESUCCESS if res is None else res
            except _WasiErr as exc:
                return exc.errno
        return call

    def _raw(self, name: str, *args) -> int:
        """``SYS_<name>`` through WALI: the Linux result or -errno."""
        return self.wali[f"SYS_{name}"].fn(*args)

    def _sys(self, name: str, *args) -> int:
        """:meth:`_raw`; negative results raise the mapped WASI errno."""
        r = self._raw(name, *args)
        if r < 0:
            raise _WasiErr(wasi_errno(-r))
        return r

    # ------------------------------------------------------------------
    # args / environ
    # ------------------------------------------------------------------

    def _strings(self, count: str, copy: str) -> List[bytes]:
        """argv or env through the WALI support calls ``count``/``copy``."""
        out = []
        for i in range(self.wali[count].fn()):
            ln = self.wali[copy].fn(self._scratch, i)
            out.append(self.mem.read_bytes(self._scratch, max(ln - 1, 0)))
        return out

    def _sizes_get(self, strings: List[bytes], count_ptr, size_ptr):
        self.mem.store_i32(count_ptr, len(strings))
        self.mem.store_i32(size_ptr, sum(len(s) + 1 for s in strings))

    def _strings_get(self, strings: List[bytes], ptrs, buf_ptr):
        off = buf_ptr
        for i, s in enumerate(strings):
            self.mem.store_i32(ptrs + 4 * i, off)
            self.mem.write(off, s + b"\x00")
            off += len(s) + 1

    def args_sizes_get(self, argc_ptr, size_ptr):
        self._sizes_get(self._strings("get_argc", "copy_argv"), argc_ptr,
                        size_ptr)

    def args_get(self, argv_ptr, buf_ptr):
        self._strings_get(self._strings("get_argc", "copy_argv"), argv_ptr,
                          buf_ptr)

    def environ_sizes_get(self, count_ptr, size_ptr):
        self._sizes_get(self._strings("get_envc", "copy_env"), count_ptr,
                        size_ptr)

    def environ_get(self, env_ptr, buf_ptr):
        self._strings_get(self._strings("get_envc", "copy_env"), env_ptr,
                          buf_ptr)

    # ------------------------------------------------------------------
    # clocks / random / yield / exit
    # ------------------------------------------------------------------

    def clock_time_get(self, clock_id, precision, time_ptr):
        self._sys("clock_gettime", clock_id, self._scratch)
        sec = self.mem.load_i64(self._scratch)
        nsec = self.mem.load_i64(self._scratch + 8)
        self.mem.store_i64(time_ptr, sec * 10**9 + nsec)

    def random_get(self, buf, length):
        self._sys("getrandom", buf, length, 0)

    def sched_yield(self):
        self._sys("sched_yield")

    def proc_exit(self, code):
        self._raw("exit_group", code)
        raise GuestExit(code)

    # ------------------------------------------------------------------
    # fd operations
    # ------------------------------------------------------------------

    def fd_close(self, fd):
        self._sys("close", fd)
        self.preopens.pop(fd, None)

    def fd_datasync(self, fd):
        self._sys("fdatasync", fd)

    def fd_sync(self, fd):
        self._sys("fsync", fd)

    def fd_read(self, fd, iovs, iovs_len, nread_ptr):
        n = self._sys("readv", fd, iovs, iovs_len)
        self.mem.store_i32(nread_ptr, n)

    def fd_write(self, fd, iovs, iovs_len, nwritten_ptr):
        n = self._sys("writev", fd, iovs, iovs_len)
        self.mem.store_i32(nwritten_ptr, n)

    def fd_pread(self, fd, iovs, iovs_len, offset, nread_ptr):
        total = 0
        for i in range(iovs_len):
            base = self.mem.load_i32(iovs + 8 * i)
            length = self.mem.load_i32(iovs + 8 * i + 4)
            n = self._sys("pread64", fd, base, length, offset + total)
            total += n
            if n < length:
                break
        self.mem.store_i32(nread_ptr, total)

    def fd_pwrite(self, fd, iovs, iovs_len, offset, nwritten_ptr):
        total = 0
        for i in range(iovs_len):
            base = self.mem.load_i32(iovs + 8 * i)
            length = self.mem.load_i32(iovs + 8 * i + 4)
            total += self._sys("pwrite64", fd, base, length, offset + total)
        self.mem.store_i32(nwritten_ptr, total)

    def fd_seek(self, fd, offset, whence, newoffset_ptr):
        pos = self._sys("lseek", fd, offset, whence)
        self.mem.store_i64(newoffset_ptr, pos)

    def fd_tell(self, fd, offset_ptr):
        pos = self._sys("lseek", fd, 0, spec.WHENCE_CUR)
        self.mem.store_i64(offset_ptr, pos)

    def fd_fdstat_get(self, fd, buf):
        self._sys("fstat", fd, self._scratch)
        from ..wali.layout import GUEST_LAYOUT
        st = GUEST_LAYOUT.decode_stat(
            self.mem.read_bytes(self._scratch, GUEST_LAYOUT.stat_size))
        flags = self._sys("fcntl", fd, 3, 0)  # F_GETFL
        fdflags = 0
        if flags & 0o2000:
            fdflags |= spec.FDFLAGS_APPEND
        if flags & 0o4000:
            fdflags |= spec.FDFLAGS_NONBLOCK
        self.mem.write(buf, struct.pack(
            "<BxHxxxxQQ", spec.filetype_of_mode(st.st_mode), fdflags,
            spec.RIGHTS_ALL, spec.RIGHTS_ALL))

    def fd_fdstat_set_flags(self, fd, fdflags):
        flags = 0
        if fdflags & spec.FDFLAGS_APPEND:
            flags |= 0o2000
        if fdflags & spec.FDFLAGS_NONBLOCK:
            flags |= 0o4000
        self._sys("fcntl", fd, 4, flags)  # F_SETFL

    def _filestat_bytes(self, stat_scratch: int) -> bytes:
        from ..wali.layout import GUEST_LAYOUT
        st = GUEST_LAYOUT.decode_stat(
            self.mem.read_bytes(stat_scratch, GUEST_LAYOUT.stat_size))
        return struct.pack(
            "<QQBxxxxxxxQQQQQ", st.st_dev, st.st_ino,
            spec.filetype_of_mode(st.st_mode), st.st_nlink, st.st_size,
            st.st_atime_ns, st.st_mtime_ns, st.st_ctime_ns)

    def fd_filestat_get(self, fd, buf):
        self._sys("fstat", fd, self._scratch)
        self.mem.write(buf, self._filestat_bytes(self._scratch))

    def fd_filestat_set_size(self, fd, size):
        self._sys("ftruncate", fd, size)

    def fd_prestat_get(self, fd, buf):
        if fd not in self.preopens:
            raise _WasiErr(spec.EBADF)
        name = self.preopens[fd].encode()
        self.mem.write(buf, struct.pack("<BxxxI", 0, len(name)))

    def fd_prestat_dir_name(self, fd, path_ptr, path_len):
        if fd not in self.preopens:
            raise _WasiErr(spec.EBADF)
        name = self.preopens[fd].encode()[:path_len]
        self.mem.write(path_ptr, name)

    def fd_readdir(self, fd, buf, buf_len, cookie, bufused_ptr):
        # the kernel's directory offset counts entries, so a cookie is an
        # offset: seek there, then convert the dirent64 stream to WASI
        # dirents until buf is full.  As in uvwasi, the last one is cut
        # at buf_len: a short buffer means the directory has ended.
        self._sys("lseek", fd, cookie, spec.WHENCE_SET)
        out = bytearray()
        while len(out) < buf_len:
            n = self._sys("getdents64", fd, self._scratch,
                          self.SCRATCH_SIZE // 2)
            if n == 0:
                break
            raw = self.mem.read_bytes(self._scratch, n)
            off = 0
            while off < n:
                ino, _doff, reclen, dtype = struct.unpack_from(
                    "<QQHB", raw, off)
                name = raw[off + 19:raw.index(b"\x00", off + 19)]
                off += reclen
                cookie += 1
                out += struct.pack("<QQIBxxx", cookie, ino, len(name),
                                   _wasi_dtype(dtype)) + name
        out = out[:buf_len]
        self.mem.write(buf, bytes(out))
        self.mem.store_i32(bufused_ptr, len(out))

    def fd_renumber(self, from_fd, to_fd):
        self._sys("dup2", from_fd, to_fd)  # dup2(fd, fd) only checks fd
        if from_fd == to_fd:
            return
        self._sys("close", from_fd)
        self.preopens.pop(to_fd, None)
        if from_fd in self.preopens:
            self.preopens[to_fd] = self.preopens.pop(from_fd)

    # ------------------------------------------------------------------
    # path operations
    # ------------------------------------------------------------------

    def _path_arg(self, dirfd, path_ptr, path_len) -> Tuple[int, int]:
        path = self._read_path(path_ptr, path_len)
        self._check_caps(dirfd, path)
        # NUL-terminate in scratch (offset past the stat area)
        addr = self._scratch + 1024
        self.mem.write(addr, path.encode() + b"\x00")
        return dirfd, addr

    def path_open(self, dirfd, lookup_flags, path_ptr, path_len, oflags,
                  rights_base, rights_inherit, fdflags, fd_ptr):
        dirfd, path_addr = self._path_arg(dirfd, path_ptr, path_len)
        flags = 0
        if oflags & spec.OFLAGS_CREAT:
            flags |= 0o100
        if oflags & spec.OFLAGS_EXCL:
            flags |= 0o200
        if oflags & spec.OFLAGS_TRUNC:
            flags |= 0o1000
        if oflags & spec.OFLAGS_DIRECTORY:
            flags |= 0o200000
        if fdflags & spec.FDFLAGS_APPEND:
            flags |= 0o2000
        if fdflags & spec.FDFLAGS_NONBLOCK:
            flags |= 0o4000
        readable = bool(rights_base & spec.RIGHTS_FD_READ)
        writable = bool(rights_base & spec.RIGHTS_FD_WRITE) and \
            not oflags & spec.OFLAGS_DIRECTORY
        if readable and writable:
            flags |= 0o2
        elif writable:
            flags |= 0o1
        fd = self._sys("openat", dirfd, path_addr, flags, 0o644)
        self.mem.store_i32(fd_ptr, fd)

    def path_filestat_get(self, dirfd, lookup_flags, path_ptr, path_len,
                          buf):
        dirfd, path_addr = self._path_arg(dirfd, path_ptr, path_len)
        at_flags = 0
        if not lookup_flags & spec.LOOKUPFLAGS_SYMLINK_FOLLOW:
            at_flags |= 0x100  # AT_SYMLINK_NOFOLLOW
        self._sys("newfstatat", dirfd, path_addr, self._scratch, at_flags)
        self.mem.write(buf, self._filestat_bytes(self._scratch))

    def path_create_directory(self, dirfd, path_ptr, path_len):
        dirfd, path_addr = self._path_arg(dirfd, path_ptr, path_len)
        self._sys("mkdirat", dirfd, path_addr, 0o755)

    def path_remove_directory(self, dirfd, path_ptr, path_len):
        dirfd, path_addr = self._path_arg(dirfd, path_ptr, path_len)
        self._sys("unlinkat", dirfd, path_addr, 0x200)  # AT_REMOVEDIR

    def path_unlink_file(self, dirfd, path_ptr, path_len):
        dirfd, path_addr = self._path_arg(dirfd, path_ptr, path_len)
        self._sys("unlinkat", dirfd, path_addr, 0)

    def path_rename(self, old_dirfd, old_ptr, old_len, new_dirfd, new_ptr,
                    new_len):
        old_dirfd, old_addr = self._path_arg(old_dirfd, old_ptr, old_len)
        new_path = self._read_path(new_ptr, new_len)
        self._check_caps(new_dirfd, new_path)
        new_addr = self._scratch + 2048
        self.mem.write(new_addr, new_path.encode() + b"\x00")
        self._sys("renameat", old_dirfd, old_addr, new_dirfd, new_addr)

    def path_symlink(self, target_ptr, target_len, dirfd, path_ptr,
                     path_len):
        target = self._read_path(target_ptr, target_len)
        dirfd, path_addr = self._path_arg(dirfd, path_ptr, path_len)
        target_addr = self._scratch + 2048
        self.mem.write(target_addr, target.encode() + b"\x00")
        self._sys("symlinkat", target_addr, dirfd, path_addr)

    def path_readlink(self, dirfd, path_ptr, path_len, buf, buf_len,
                      nread_ptr):
        dirfd, path_addr = self._path_arg(dirfd, path_ptr, path_len)
        n = self._sys("readlinkat", dirfd, path_addr, buf, buf_len)
        self.mem.store_i32(nread_ptr, n)


class _WasiErr(Exception):
    def __init__(self, errno: int):
        self.errno = errno
        super().__init__(f"wasi errno {errno}")


def _wasi_dtype(linux_dtype: int) -> int:
    return {4: spec.FILETYPE_DIRECTORY, 8: spec.FILETYPE_REGULAR_FILE,
            10: spec.FILETYPE_SYMBOLIC_LINK,
            2: spec.FILETYPE_CHARACTER_DEVICE}.get(
                linux_dtype, spec.FILETYPE_UNKNOWN)
