"""ISA-portable struct layouts and per-ISA ABI conversion (§3.2, §3.5).

Most WALI syscalls are zero-copy: pointer arguments are translated into the
Wasm linear memory and handed to the kernel as views.  A minority (<10%)
carry *structured* arguments whose byte-level layout differs across host
ISAs (``kstat`` is the canonical example: x86-64 and aarch64 order the fields
differently).  WALI defines one dedicated portable representation that the
guest libc compiles against, and the engine converts at the syscall boundary.

``Layout`` encodes/decodes those structures.  The ``wali`` layout is the
portable one used by guests; ``x86_64``/``aarch64``/``riscv64`` layouts model
the host side.  The virtual kernel hands the host an ISA-independent
``Stat``, so the host packs it straight into the guest layout;
:meth:`Layout.convert_stat` is the §3.5 host-to-WALI conversion, kept as a
tested reference that yields the same bytes.
"""

from __future__ import annotations

import operator
import struct
from typing import Tuple

from ..kernel.calls.fs import Stat, StatFS
from ..kernel.calls.misc import SysInfo, UtsName
from ..kernel.process import Rusage

WALI = "wali"

# field lists: (name, struct format char, size)
# the portable WALI kstat: fixed field order, 64-bit everything that varies
_WALI_STAT_FIELDS = [
    ("st_dev", "Q"), ("st_ino", "Q"), ("st_mode", "Q"), ("st_nlink", "Q"),
    ("st_uid", "Q"), ("st_gid", "Q"), ("st_rdev", "Q"), ("st_size", "q"),
    ("st_blksize", "q"), ("st_blocks", "q"),
    ("st_atime_s", "q"), ("st_atime_n", "q"),
    ("st_mtime_s", "q"), ("st_mtime_n", "q"),
    ("st_ctime_s", "q"), ("st_ctime_n", "q"),
]

# x86_64 struct stat (144 bytes)
_X86_STAT_FIELDS = [
    ("st_dev", "Q"), ("st_ino", "Q"), ("st_nlink", "Q"), ("st_mode", "I"),
    ("st_uid", "I"), ("st_gid", "I"), ("_pad0", "I"), ("st_rdev", "Q"),
    ("st_size", "q"), ("st_blksize", "q"), ("st_blocks", "q"),
    ("st_atime_s", "q"), ("st_atime_n", "q"),
    ("st_mtime_s", "q"), ("st_mtime_n", "q"),
    ("st_ctime_s", "q"), ("st_ctime_n", "q"),
    ("_unused0", "q"), ("_unused1", "q"), ("_unused2", "q"),
]

# aarch64/riscv64 struct stat (128 bytes): mode/nlink swapped and narrower
_ARM_STAT_FIELDS = [
    ("st_dev", "Q"), ("st_ino", "Q"), ("st_mode", "I"), ("st_nlink", "I"),
    ("st_uid", "I"), ("st_gid", "I"), ("st_rdev", "Q"), ("_pad0", "Q"),
    ("st_size", "q"), ("st_blksize", "i"), ("_pad1", "i"), ("st_blocks", "q"),
    ("st_atime_s", "q"), ("st_atime_n", "q"),
    ("st_mtime_s", "q"), ("st_mtime_n", "q"),
    ("st_ctime_s", "q"), ("st_ctime_n", "q"),
    ("_unused0", "I"), ("_unused1", "I"),
]

_STAT_FIELDS = {
    WALI: _WALI_STAT_FIELDS,
    "x86_64": _X86_STAT_FIELDS,
    "aarch64": _ARM_STAT_FIELDS,
    "riscv64": _ARM_STAT_FIELDS,
}


# every kstat value in the portable order; padding fields take the 0 that
# encode_stat appends after them
_STAT_VALUES = [name for name, _ in _WALI_STAT_FIELDS]


class Layout:
    """Struct codec for one target representation."""

    def __init__(self, arch: str = WALI):
        if arch not in _STAT_FIELDS:
            raise ValueError(f"unknown layout arch {arch!r}")
        self.arch = arch
        fields = _STAT_FIELDS[arch]
        self._stat_names = [name for name, _ in fields]
        self._stat = struct.Struct("<" + "".join(f for _, f in fields))
        self._stat_pick = operator.itemgetter(*(
            _STAT_VALUES.index(name) if name in _STAT_VALUES
            else len(_STAT_VALUES) for name in self._stat_names))

    # ---- kstat ----

    @property
    def stat_size(self) -> int:
        return self._stat.size

    def encode_stat(self, st: Stat) -> bytes:
        return self._stat.pack(*self._stat_pick((
            st.st_dev, st.st_ino, st.st_mode, st.st_nlink, st.st_uid,
            st.st_gid, st.st_rdev, st.st_size, st.st_blksize, st.st_blocks,
            *divmod(st.st_atime_ns, 10**9), *divmod(st.st_mtime_ns, 10**9),
            *divmod(st.st_ctime_ns, 10**9), 0)))

    def decode_stat(self, data: bytes) -> Stat:
        v = dict(zip(self._stat_names, self._stat.unpack_from(data)))
        return Stat(
            st_dev=v["st_dev"], st_ino=v["st_ino"], st_mode=v["st_mode"],
            st_nlink=v["st_nlink"], st_uid=v["st_uid"], st_gid=v["st_gid"],
            st_rdev=v["st_rdev"], st_size=v["st_size"],
            st_blksize=v["st_blksize"], st_blocks=v["st_blocks"],
            st_atime_ns=v["st_atime_s"] * 10**9 + v["st_atime_n"],
            st_mtime_ns=v["st_mtime_s"] * 10**9 + v["st_mtime_n"],
            st_ctime_ns=v["st_ctime_s"] * 10**9 + v["st_ctime_n"])

    def convert_stat(self, data: bytes, to: "Layout") -> bytes:
        """ISA conversion used at syscall boundaries (§3.5)."""
        return to.encode_stat(self.decode_stat(data))

    # ---- scalar pairs & small records (identical across our targets,
    # wasm32 pointer width where pointers appear) ----

    IOVEC_SIZE = 8  # {u32 iov_base, u32 iov_len} in wasm32

    @staticmethod
    def decode_iovec(data: bytes) -> Tuple[int, int]:
        return struct.unpack_from("<II", data)

    TIMESPEC_SIZE = 16

    @staticmethod
    def encode_timespec(ns: int) -> bytes:
        return struct.pack("<qq", ns // 10**9, ns % 10**9)

    @staticmethod
    def decode_timespec(data: bytes) -> int:
        sec, nsec = struct.unpack_from("<qq", data)
        return sec * 10**9 + nsec

    TIMEVAL_SIZE = 16

    @staticmethod
    def encode_timeval(sec: int, usec: int) -> bytes:
        return struct.pack("<qq", sec, usec)

    # itimerspec: {timespec interval, timespec value}
    ITIMERSPEC_SIZE = 32

    @staticmethod
    def encode_itimerspec(interval_ns: int, value_ns: int) -> bytes:
        return Layout.encode_timespec(interval_ns) + \
            Layout.encode_timespec(value_ns)

    @staticmethod
    def decode_itimerspec(data: bytes) -> Tuple[int, int]:
        return Layout.decode_timespec(data[:16]), \
            Layout.decode_timespec(data[16:32])

    # epoll_event (packed, like the x86_64 ABI): {u32 events, u64 data}
    EPOLL_EVENT_SIZE = 12

    @staticmethod
    def encode_epoll_event(events: int, data: int) -> bytes:
        return struct.pack("<I", events & 0xFFFFFFFF) + \
            struct.pack("<Q", data & 0xFFFFFFFFFFFFFFFF)

    @staticmethod
    def decode_epoll_event(data: bytes) -> Tuple[int, int]:
        events = struct.unpack_from("<I", data)[0]
        datum = struct.unpack_from("<Q", data, 4)[0]
        return events, datum

    # io_uring shared-ring layout.  The guest allocates one contiguous
    # region — header, then the SQ array, then the CQ array — and hands
    # its base to the engine via io_uring_register; head/tail counters
    # live in the header so the guest queues SQEs and reaps CQEs without
    # a crossing per entry.
    #
    # header (32 bytes):
    #   0 sq_head  4 sq_tail  8 sq_entries  12 cq_head  16 cq_tail
    #   20 cq_entries  24 cq_overflow  28 flags
    # flags mirrors kernel ring state: bit 0 IORING_SQ_CQ_OVERFLOW
    # (backlogged completions pending), bit 1 IORING_SQ_NEED_WAKEUP
    # (the SQPOLL poller idled out; kick via IORING_ENTER_SQ_WAKEUP)
    URING_HDR_SIZE = 32
    URING_SQ_HEAD = 0
    URING_SQ_TAIL = 4
    URING_CQ_HEAD = 12
    URING_CQ_TAIL = 16
    URING_CQ_OVERFLOW = 24
    URING_FLAGS = 28

    # io_uring_setup params (struct io_uring_params analog): the engine
    # writes back {u32 sq_entries, u32 cq_entries} and reads
    # {u32 flags, u32 sq_thread_idle_ms} that the guest filled in
    URING_PARAMS_FLAGS = 8
    URING_PARAMS_IDLE = 12
    URING_PARAMS_SIZE = 16

    # sqe (32 bytes): {u8 opcode, u8 flags, u16 pad, i32 fd, u32 addr,
    #                  u32 len, u64 off, u64 user_data}
    URING_SQE_SIZE = 32

    @staticmethod
    def decode_uring_sqe(data: bytes):
        """(opcode, flags, fd, addr, length, off, user_data)."""
        opcode, flags, _pad, fd, addr, length, off, user_data = \
            struct.unpack_from("<BBHiIIQQ", data)
        return opcode, flags, fd, addr, length, off, user_data

    @staticmethod
    def encode_uring_sqe(opcode: int, flags: int, fd: int, addr: int,
                         length: int, off: int, user_data: int) -> bytes:
        return struct.pack("<BBHiIIQQ", opcode & 0xFF, flags & 0xFF, 0,
                           fd, addr & 0xFFFFFFFF, length & 0xFFFFFFFF,
                           off & 0xFFFFFFFFFFFFFFFF,
                           user_data & 0xFFFFFFFFFFFFFFFF)

    # cqe (16 bytes): {u64 user_data, i32 res, u32 flags}
    URING_CQE_SIZE = 16

    @staticmethod
    def encode_uring_cqe(user_data: int, res: int, flags: int = 0) -> bytes:
        return struct.pack("<QiI", user_data & 0xFFFFFFFFFFFFFFFF, res,
                           flags & 0xFFFFFFFF)

    @staticmethod
    def decode_uring_cqe(data: bytes) -> Tuple[int, int, int]:
        return struct.unpack_from("<QiI", data)

    # inotify_event: {i32 wd, u32 mask, u32 cookie, u32 len, name[len]}
    # (len includes the NUL padding to a 16-byte multiple, like Linux)
    INOTIFY_EVENT_HDR = 16

    @staticmethod
    def decode_inotify_event(data: bytes, off: int = 0):
        """One record at ``off``: ``(wd, mask, cookie, name, next_off)``."""
        wd, mask, cookie, name_len = struct.unpack_from("<iIII", data, off)
        start = off + Layout.INOTIFY_EVENT_HDR
        name = bytes(data[start:start + name_len]).split(b"\x00", 1)[0]
        return wd, mask, cookie, name.decode(), start + name_len

    # signalfd_siginfo (128 bytes, leading fields):
    # {u32 signo, i32 errno, i32 code, u32 pid, u32 uid, ...pad}
    SIGNALFD_SIGINFO_SIZE = 128

    @staticmethod
    def decode_signalfd_siginfo(data: bytes):
        """``(ssi_signo, ssi_code, ssi_pid, ssi_uid)``."""
        signo, _errno, code, pid, uid = struct.unpack_from("<IiiII", data)
        return signo, code, pid, uid

    # perf_event_attr (compact repro form, 24 bytes): {u32 type,
    # u32 config_ptr (NUL-terminated name in guest memory), u64
    # sample_freq, u32 ring_capacity, u32 disabled}
    PERF_ATTR_SIZE = 24

    @staticmethod
    def decode_perf_attr(data: bytes):
        """``(type, config_ptr, sample_freq, ring_capacity, disabled)``."""
        return struct.unpack_from("<IIQII", data)

    @staticmethod
    def encode_perf_attr(type: int, config_ptr: int, sample_freq: int,
                         ring_capacity: int = 0,
                         disabled: int = 0) -> bytes:
        return struct.pack("<IIQII", type & 0xFFFFFFFF,
                           config_ptr & 0xFFFFFFFF, sample_freq,
                           ring_capacity & 0xFFFFFFFF,
                           disabled & 0xFFFFFFFF)

    # ksigaction (portable WALI form): {u32 handler, u32 flags, u64 mask}
    SIGACTION_SIZE = 16

    @staticmethod
    def encode_sigaction(handler: int, flags: int, mask: int) -> bytes:
        return struct.pack("<IIQ", handler & 0xFFFFFFFF, flags & 0xFFFFFFFF,
                           mask)

    @staticmethod
    def decode_sigaction(data: bytes) -> Tuple[int, int, int]:
        return struct.unpack_from("<IIQ", data)

    # sockaddr_in: {u16 family, u16 port(BE), u32 addr(BE), 8 pad}
    SOCKADDR_IN_SIZE = 16

    @staticmethod
    def encode_sockaddr(addr: Tuple[str, int], family: int = 2) -> bytes:
        host, port = addr
        parts = [int(p) for p in (host or "0.0.0.0").split(".")] \
            if host and host[0].isdigit() else [0, 0, 0, 0]
        ip = bytes(parts[:4] + [0] * (4 - len(parts)))
        return struct.pack("<HH", family, ((port & 0xFF) << 8) |
                           ((port >> 8) & 0xFF)) + ip + b"\x00" * 8

    @staticmethod
    def decode_sockaddr(data: bytes) -> Tuple[int, Tuple[str, int]]:
        family, port_be = struct.unpack_from("<HH", data)
        port = ((port_be & 0xFF) << 8) | ((port_be >> 8) & 0xFF)
        ip = ".".join(str(b) for b in data[4:8])
        return family, (ip, port)

    # linux_dirent64: {u64 ino, u64 off, u16 reclen, u8 type, name...}
    @staticmethod
    def encode_dirents(entries) -> bytes:
        """``(d_off, DirEntry)`` pairs as linux_dirent64 records."""
        out = bytearray()
        for off, e in entries:
            rec = struct.pack("<QQHB", e.ino, off, e.reclen, e.d_type) + \
                e.name.encode() + b"\x00"
            out += rec.ljust(e.reclen, b"\x00")
        return bytes(out)

    # rlimit64: {u64 cur, u64 max}
    RLIMIT_SIZE = 16

    @staticmethod
    def encode_rlimit(cur: int, maxv: int) -> bytes:
        return struct.pack("<QQ", cur, maxv)

    @staticmethod
    def decode_rlimit(data: bytes) -> Tuple[int, int]:
        return struct.unpack_from("<QQ", data)

    # utsname: 6 fixed 65-byte fields
    UTSNAME_SIZE = 65 * 6

    @staticmethod
    def encode_utsname(u: UtsName) -> bytes:
        out = bytearray()
        for s in (u.sysname, u.nodename, u.release, u.version, u.machine,
                  u.domainname):
            b = s.encode()[:64]
            out += b + b"\x00" * (65 - len(b))
        return bytes(out)

    # rusage (abridged linux layout: two timevals + 14 longs)
    RUSAGE_SIZE = 16 * 2 + 14 * 8

    @staticmethod
    def encode_rusage(ru: Rusage) -> bytes:
        def tv(ns):
            return struct.pack("<qq", ns // 10**9, (ns % 10**9) // 1000)

        longs = [ru.maxrss_kb, 0, 0, 0, ru.minflt, ru.majflt, 0, 0, 0, 0, 0,
                 ru.nvcsw, ru.nivcsw, 0]
        return tv(ru.utime_ns) + tv(ru.stime_ns) + struct.pack(
            "<14q", *longs)

    # pollfd: {i32 fd, i16 events, i16 revents}
    POLLFD_SIZE = 8

    @staticmethod
    def decode_pollfd(data: bytes) -> Tuple[int, int]:
        fd, events, _ = struct.unpack_from("<ihh", data)
        return fd, events

    @staticmethod
    def encode_pollfd(fd: int, events: int, revents: int) -> bytes:
        return struct.pack("<ihh", fd, events, revents)

    # statfs64 (abridged)
    STATFS_SIZE = 15 * 8

    @staticmethod
    def encode_statfs(sf: StatFS) -> bytes:
        return struct.pack(
            "<15q", sf.f_type, sf.f_bsize, sf.f_blocks, sf.f_bfree,
            sf.f_bavail, sf.f_files, sf.f_ffree, 0, sf.f_namelen, sf.f_bsize,
            0, 0, 0, 0, 0)

    # sysinfo (abridged linux layout)
    SYSINFO_SIZE = 14 * 8

    @staticmethod
    def encode_sysinfo(si: SysInfo) -> bytes:
        return struct.pack(
            "<14q", si.uptime_s, *si.loads, si.totalram, si.freeram, 0, 0,
            0, 0, si.procs, 0, 0, si.mem_unit)

    # tms: 4 clock_t
    TMS_SIZE = 32

    @staticmethod
    def encode_tms(u: int, s: int, cu: int, cs: int) -> bytes:
        return struct.pack("<4q", u, s, cu, cs)


GUEST_LAYOUT = Layout(WALI)
