"""WASI preview1 surface: function signatures, errno space, rights.

WASI is the W3C capability-based interface the paper contrasts with WALI.
This package implements it once, as a layer over the WALI import surface
(:mod:`repro.wasi.host`, the paper's §4.1 ``libuvwasi``-over-WALI result):
any engine that exposes WALI can host it, outside the engine TCB.

WASI has its own errno numbering (it is not Linux errno!); the table below
maps between them.
"""

from __future__ import annotations

from typing import Dict

from ..kernel import errno as E
from ..wasm.types import I32, I64, FuncType

MODULE = "wasi_snapshot_preview1"

# ---- WASI errno space (subset) ----
ESUCCESS = 0
E2BIG = 1
EACCES = 2
EAGAIN = 6
EBADF = 8
EEXIST = 20
EFAULT = 21
EINVAL = 28
EIO = 29
EISDIR = 31
ELOOP = 32
ENOENT = 44
ENOMEM = 48
ENOSPC = 51
ENOSYS = 52
ENOTDIR = 54
ENOTEMPTY = 55
ENOTSUP = 58
EPERM = 63
EPIPE = 64
ERANGE = 68
ESPIPE = 70
ENOTCAPABLE = 76

_LINUX_TO_WASI: Dict[int, int] = {
    E.E2BIG: E2BIG, E.EACCES: EACCES, E.EAGAIN: EAGAIN, E.EBADF: EBADF,
    E.EEXIST: EEXIST, E.EFAULT: EFAULT, E.EINVAL: EINVAL, E.EIO: EIO,
    E.EISDIR: EISDIR, E.ELOOP: ELOOP, E.ENOENT: ENOENT, E.ENOMEM: ENOMEM,
    E.ENOSPC: ENOSPC, E.ENOSYS: ENOSYS, E.ENOTDIR: ENOTDIR,
    E.ENOTEMPTY: ENOTEMPTY, E.EPERM: EPERM, E.EPIPE: EPIPE,
    E.ERANGE: ERANGE, E.ESPIPE: ESPIPE,
}


def wasi_errno(linux_errno: int) -> int:
    return _LINUX_TO_WASI.get(linux_errno, EINVAL)


# ---- filetype ----
FILETYPE_UNKNOWN = 0
FILETYPE_BLOCK_DEVICE = 1
FILETYPE_CHARACTER_DEVICE = 2
FILETYPE_DIRECTORY = 3
FILETYPE_REGULAR_FILE = 4
FILETYPE_SOCKET_STREAM = 6
FILETYPE_SYMBOLIC_LINK = 7

# ---- open flags (oflags) ----
OFLAGS_CREAT = 1
OFLAGS_DIRECTORY = 2
OFLAGS_EXCL = 4
OFLAGS_TRUNC = 8

# fdflags
FDFLAGS_APPEND = 1
FDFLAGS_NONBLOCK = 4

# rights (subset)
RIGHTS_FD_READ = 1 << 1
RIGHTS_FD_WRITE = 1 << 6
RIGHTS_PATH_OPEN = 1 << 13
RIGHTS_ALL = (1 << 30) - 1

# lookupflags
LOOKUPFLAGS_SYMLINK_FOLLOW = 1

# whence
WHENCE_SET, WHENCE_CUR, WHENCE_END = 0, 1, 2

# clock ids
CLOCKID_REALTIME = 0
CLOCKID_MONOTONIC = 1


def _ft(params: str, has_result: bool = True) -> FuncType:
    types = tuple(I64 if c == "l" else I32 for c in params)
    return FuncType(types, (I32,) if has_result else ())


# WASI preview1 functions we model: name -> FuncType
FUNCTIONS: Dict[str, FuncType] = {
    "args_sizes_get": _ft("ii"),
    "args_get": _ft("ii"),
    "environ_sizes_get": _ft("ii"),
    "environ_get": _ft("ii"),
    "clock_time_get": _ft("ili"),
    "fd_close": _ft("i"),
    "fd_datasync": _ft("i"),
    "fd_sync": _ft("i"),
    "fd_fdstat_get": _ft("ii"),
    "fd_fdstat_set_flags": _ft("ii"),
    "fd_filestat_get": _ft("ii"),
    "fd_filestat_set_size": _ft("il"),
    "fd_prestat_get": _ft("ii"),
    "fd_prestat_dir_name": _ft("iii"),
    "fd_read": _ft("iiii"),
    "fd_write": _ft("iiii"),
    "fd_pread": _ft("iiili"),
    "fd_pwrite": _ft("iiili"),
    "fd_seek": _ft("ilii"),
    "fd_tell": _ft("ii"),
    "fd_readdir": _ft("iiili"),
    "fd_renumber": _ft("ii"),
    "path_open": _ft("iiiiillii"),
    "path_filestat_get": _ft("iiiii"),
    "path_create_directory": _ft("iii"),
    "path_remove_directory": _ft("iii"),
    "path_unlink_file": _ft("iii"),
    "path_rename": _ft("iiiiii"),
    "path_symlink": _ft("iiiii"),
    "path_readlink": _ft("iiiiii"),
    "proc_exit": FuncType((I32,), ()),
    "random_get": _ft("ii"),
    "sched_yield": _ft(""),
}


# WASI filestat layout: dev u64, ino u64, filetype u8(+pad to 8), nlink u64,
# size u64, atim u64, mtim u64, ctim u64  (64 bytes)
FILESTAT_SIZE = 64


def filetype_of_mode(mode: int) -> int:
    kind = mode & 0o170000
    return {
        0o100000: FILETYPE_REGULAR_FILE,
        0o040000: FILETYPE_DIRECTORY,
        0o120000: FILETYPE_SYMBOLIC_LINK,
        0o020000: FILETYPE_CHARACTER_DEVICE,
        0o140000: FILETYPE_SOCKET_STREAM,
    }.get(kind, FILETYPE_UNKNOWN)
