"""The WALI interface specification: name-bound syscalls with static types.

WALI exposes each syscall as a Wasm import ``wali.SYS_<name>`` with a fixed
signature (§3.5).  The virtual syscall set is the *union* across supported
host ISAs; an implementation traps if it cannot faithfully execute a call on
the current host.  Name binding (instead of numbers) is what makes binaries
ISA-agnostic and statically auditable: the import section enumerates every
syscall a binary could ever make (§3.6).

Each syscall's arguments are spelled as a string of *kind* letters, one per
Wasm parameter:

* ``i``: i32, passed signed (fds, flags, pids);
* ``u``: i32, passed unsigned (modes, uids/gids, sizes, masks, addresses);
* ``l``: i64, passed signed;
* ``p``: i32 pointer to a NUL-terminated string (paths, names);
* ``_``: i32 the kernel does not take.

``l`` is the only i64 kind.  All syscalls return ``i64`` carrying the Linux
convention (result or ``-errno``).  The kinds are what
:class:`repro.wali.host.WaliHost` generates a handler from when it has no
hand-written one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from ..kernel.arch import ARCH_SYSCALLS, ARCHES, union_syscalls
from ..wasm.types import I32, I64, FuncType

MODULE = "wali"

CAT_FS = "fs"
CAT_PROC = "process"
CAT_SIG = "signal"
CAT_MM = "memory"
CAT_NET = "net"
CAT_MISC = "misc"


@dataclass(frozen=True)
class SyscallSpec:
    name: str
    params: str            # one kind letter per argument (module docstring)
    category: str
    stateful: bool = False  # needs engine-side state (mmap pool, sigtable...)

    @property
    def import_name(self) -> str:
        return f"SYS_{self.name}"

    @property
    def functype(self) -> FuncType:
        types = tuple(I64 if c == "l" else I32 for c in self.params)
        return FuncType(types, (I64,))


def _build() -> Dict[str, SyscallSpec]:
    table = {}

    def add(category: str, entries):
        for entry in entries:
            stateful = False
            if len(entry) == 3:
                name, params, stateful = entry
            else:
                name, params = entry
            table[name] = SyscallSpec(name, params, category, stateful)

    add(CAT_FS, [
        ("read", "iuu"), ("write", "iuu"), ("open", "piu"),
        ("openat", "ipiu"), ("close", "i"), ("lseek", "ili"),
        ("pread64", "iuul"), ("pwrite64", "iuul"), ("readv", "iuu"),
        ("writev", "iuu"), ("access", "pu"), ("faccessat", "ipu_"),
        ("faccessat2", "ipu_"), ("pipe", "u"), ("pipe2", "ui"),
        ("dup", "i"), ("dup2", "ii"), ("dup3", "iii"), ("fcntl", "iii"),
        ("fstat", "iu"), ("stat", "pu"), ("lstat", "pu"),
        ("newfstatat", "ipui"), ("statx", "ipi_u"), ("getdents64", "iuu"),
        ("getcwd", "uu"), ("chdir", "p"), ("fchdir", "i"), ("mkdir", "pu"),
        ("mkdirat", "ipu"), ("rmdir", "p"), ("unlink", "p"),
        ("unlinkat", "ipu"), ("rename", "pp"), ("renameat", "ipip"),
        ("renameat2", "ipipu"), ("link", "pp"), ("linkat", "ipipu"),
        ("symlink", "pp"), ("symlinkat", "pip"), ("readlink", "puu"),
        ("readlinkat", "ipuu"), ("chmod", "pu"), ("fchmod", "ii"),
        ("fchmodat", "ipu"), ("chown", "puu"), ("fchown", "iuu"),
        ("lchown", "puu"), ("fchownat", "ipuuu"), ("truncate", "pl"),
        ("ftruncate", "il"), ("umask", "i"), ("utimensat", "ipui"),
        ("sync", ""), ("fsync", "i"), ("fdatasync", "i"), ("syncfs", "i"),
        ("sync_file_range", "illi"), ("flock", "ii"),
        ("sendfile", "iiuu"), ("statfs", "pu"), ("fstatfs", "iu"),
        ("ioctl", "iuu"), ("poll", "uui"), ("ppoll", "uuu_"),
        ("select", "iuuuu"), ("pselect6", "iuuuu_"),
        ("fadvise64", "illi"), ("readahead", "ili"),
        ("memfd_create", "pu"),
        # filesystem event notification (readiness flows through
        # epoll/ppoll/io_uring like every other waitqueue source)
        ("inotify_init1", "i"), ("inotify_add_watch", "ipu"),
        ("inotify_rm_watch", "ii"),
    ])

    add(CAT_PROC, [
        ("clone", "iuuu", True), ("clone3", "iuuu", True),
        ("fork", "", True), ("vfork", "", True), ("execve", "puu", True),
        ("exit", "i"), ("exit_group", "i"), ("wait4", "iuiu"),
        ("kill", "ii"), ("tgkill", "iii"), ("tkill", "ii"),
        ("getpid", ""), ("gettid", ""), ("getppid", ""), ("getuid", ""),
        ("geteuid", ""), ("getgid", ""), ("getegid", ""), ("setuid", "i"),
        ("setgid", "i"), ("setpgid", "ii"), ("getpgid", "i"),
        ("getpgrp", ""), ("setsid", ""), ("getsid", "i"),
        ("prlimit64", "iuuu"), ("getrlimit", "uu"), ("setrlimit", "uu"),
        ("getrusage", "iu"), ("times", "u"), ("sched_yield", ""),
        ("sched_getaffinity", "iuu"), ("sched_setaffinity", "iuu"),
        ("getpriority", "ii"), ("setpriority", "iii"), ("nice", "i"),
        ("prctl", "ii___"),
        ("arch_prctl", "ii"), ("set_tid_address", "i"),
        ("set_robust_list", "ii"), ("futex", "uiiu__"),
        ("getrandom", "uuu"),
    ])

    add(CAT_SIG, [
        ("rt_sigaction", "iuu_", True), ("rt_sigprocmask", "iuu_"),
        ("rt_sigpending", "u_"), ("rt_sigsuspend", "u_"),
        ("rt_sigreturn", ""), ("rt_sigtimedwait", "uuu_"),
        ("sigaltstack", "__"), ("pause", ""), ("alarm", "u"),
        ("setitimer", "iuu"), ("getitimer", "iu"),
        # fd-based synchronous signal consumption (vs sigvirt delivery)
        ("signalfd4", "iu_u"),
    ])

    add(CAT_MM, [
        ("mmap", "uuuiil", True), ("munmap", "uu", True),
        ("mremap", "uuui_", True), ("mprotect", "uuu"), ("msync", "uuu"),
        ("madvise", "iii"), ("mincore", "uuu"), ("brk", "u"),
    ])

    add(CAT_NET, [
        ("socket", "uuu"), ("bind", "iu_"), ("listen", "ii"),
        ("accept", "iuu"), ("accept4", "iuui"), ("connect", "iu_"),
        ("sendto", "iuu_uu"), ("recvfrom", "iuu_uu"), ("sendmsg", "iu_"),
        ("recvmsg", "iu_"), ("shutdown", "ii"), ("socketpair", "uu_u"),
        ("setsockopt", "iiiuu"), ("getsockopt", "iiiuu"),
        ("getsockname", "iuu"), ("getpeername", "iuu"),
    ])

    add(CAT_MISC, [
        ("clock_gettime", "iu"), ("clock_getres", "iu"),
        ("clock_nanosleep", "iiu_"), ("nanosleep", "u_"),
        ("gettimeofday", "u_"), ("uname", "u"), ("sysinfo", "u"),
        ("syslog", "i__"), ("chroot", "p"), ("eventfd2", "ii"),
        ("epoll_create1", "i"), ("epoll_create", "i"),
        ("epoll_ctl", "iiiu"), ("epoll_pwait", "iuui__"),
        ("epoll_wait", "iuui"), ("timerfd_create", "ii"),
        ("timerfd_settime", "iiuu"), ("timerfd_gettime", "iu"),
        # batched I/O: submission/completion rings (ring memory is
        # registered via io_uring_register; one enter drains a batch)
        ("io_uring_setup", "uu"), ("io_uring_enter", "iuuuu_"),
        ("io_uring_register", "iuuu"),
        # profiling: perf events behind fds (sampling + counting)
        ("perf_event_open", "uiiiu"),
    ])

    return table


SYSCALLS: Dict[str, SyscallSpec] = _build()


# WALI support methods for external parameters (§3.4): not syscalls, but part
# of the interface.  (name, params, results)
SUPPORT_CALLS: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("get_argc", (), (I32,)),
    ("get_argv_len", (I32,), (I32,)),
    ("copy_argv", (I32, I32), (I32,)),
    ("get_envc", (), (I32,)),
    ("get_env_len", (I32,), (I32,)),
    ("copy_env", (I32, I32), (I32,)),
)


def spec_names() -> FrozenSet[str]:
    return frozenset(SYSCALLS)


def coverage_report() -> dict:
    """How much of each ISA's syscall surface the WALI spec covers."""
    union = union_syscalls()
    spec = spec_names()
    return {
        "spec_size": len(spec),
        "union_size": len(union),
        "in_union": len(spec & union),
        "per_arch": {
            arch: len(spec & frozenset(ARCH_SYSCALLS[arch]))
            for arch in ARCHES
        },
    }
