"""The WALI host functions: ~150 name-bound syscalls over the kernel.

Implementation shape mirrors the paper:

* Most syscalls are **generated passthroughs** (§5: >85%): every
  ``SyscallSpec`` in :mod:`repro.wali.spec` spells its arguments as kinds
  (signed/unsigned i32, i64, string pointer, unused), and
  :meth:`WaliHost.imports` builds the handler of every spec entry without a
  ``w_<name>`` method from those kinds, once, with one converter per
  argument position.  Only calls that touch guest memory beyond a string,
  that need engine state (mmap pool, sigtable, process model), or that
  alias another call get explicit ``w_`` handlers — and most of those are
  under 10 lines (Table 2's LOC column is measured from this file).
* A host serves one **image**: a fresh host per image (load, fork and
  thread children, each ``execve``), and it binds exactly the image's
  ``wali`` imports, so a process sees only the syscalls its import
  section names (§3.6).  Only a host with no image (WASI-over-WALI, test
  and benchmark harnesses that call the imports directly) binds every
  name.
* Pointer arguments undergo **address-space translation** (§3.2): a bounds
  check against linear memory, then a zero-copy ``memoryview`` where
  possible; struct-typed arguments (<10% of calls) go through the
  :mod:`repro.wali.layout` codecs.
* Every handler converts :class:`KernelError` to the Linux ``-errno``
  convention, and accounts its own time separately from kernel time
  (Fig. 7 / Table 2 instrumentation): :meth:`WaliHost._instrument` is the
  WALI layer's one accounting writer.  It keeps one ``[calls, wali_ns]``
  cell per syscall name in the process's ``WaliProcess.cells``, where
  ``wali_ns`` is the handler's wall time minus the kernel time the calling
  thread spent inside it.  The cells outlive every image the process runs;
  ``call_counts``, ``call_wali_ns``, ``struct_copy_calls``,
  ``wali_time_ns`` and :meth:`WaliHost.stats` are views of them.  The
  translation counters ``zero_copy_calls`` and ``fixed_elides`` live next
  to the cells, on the process, for the same reason.
* A crossing is **one frame per layer**: compiled guest code calls the
  ``HostFunc.fn`` that :meth:`WaliHost._instrument` built (with no policy
  test when the runtime has no policy), the handler calls ``Kernel.call``
  through ``WaliHost.k`` (a ``functools.partial`` built once per host),
  and the generated handlers and the hot ``read``/``write``/``pread64``/
  ``pwrite64`` convert signs inline.  ``tests/test_crossing_cost.py``
  pins the Python calls per crossing.
"""

from __future__ import annotations

import functools
import inspect
import struct
import time as _time
from typing import List, Optional

from ..kernel.errno import EFAULT, EINVAL, ERANGE, KernelError
from ..kernel.fdtable import OpenFile
from ..kernel.uring import (
    IORING_CQE_F_BUFFER, IORING_ENTER_GETEVENTS, IORING_ENTER_TIMEOUT_MS,
    IORING_OP_SEND, IORING_OP_WRITE, IORING_REGISTER_BUFFERS,
    IORING_REGISTER_RING, IORING_SETUP_SQPOLL, IORING_SQ_CQ_OVERFLOW,
    IORING_SQ_NEED_WAKEUP, IOSQE_FIXED_BUFFER, SQE,
)
from ..kernel.process import CLONE_VM
from ..kernel.signals import SigAction
from ..wasm.errors import GuestExit
from ..wasm.interp import HostFunc
from ..wasm.types import FuncType, signed32, signed64
from .layout import GUEST_LAYOUT, Layout
from .security import OPEN_LIKE, check_path, deny_sigreturn, sanitize_prot
from .spec import MODULE, SUPPORT_CALLS, SYSCALLS

# process-model calls whose cost is engine work (instance duplication for
# fork, execution-environment setup for threads, image replacement for
# execve) rather than interface translation — Fig. 7 attributes this to the
# engine/app share, exactly as the paper does for WAMR's thread manager.
ENGINE_COST_CALLS = frozenset({"fork", "vfork", "clone", "clone3", "execve"})

# calls that perform struct layout conversion (the <10% copy path, §3.2)
STRUCT_CALLS = frozenset({
    "fstat", "stat", "lstat", "newfstatat", "statx", "rt_sigaction",
    "getrusage", "uname", "sysinfo", "statfs", "fstatfs", "times",
    "prlimit64", "getrlimit", "setrlimit", "clock_gettime", "gettimeofday",
    "nanosleep", "clock_nanosleep", "getdents64", "wait4", "bind", "connect",
    "accept", "accept4", "getsockname", "getpeername", "sendto", "recvfrom",
    "sendmsg", "recvmsg", "poll", "ppoll", "select", "pselect6", "utimensat",
    "epoll_ctl", "epoll_pwait", "epoll_wait", "timerfd_settime",
    "timerfd_gettime", "io_uring_setup", "io_uring_enter",
    "io_uring_register", "signalfd4", "perf_event_open",
})

_WINSIZE = struct.Struct("<HHHH")

# Linux's per-call getrandom(2) maximum (INT_MAX >> 6)
_GETRANDOM_MAX = 33554431

# how each argument kind (spec.py) reaches the kernel: a Python expression
# over the raw Wasm value; ``_`` arguments are dropped
_KIND_EXPR = {"i": "(({} & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000",
              "u": "{}",
              "l": "(({} & 0xFFFFFFFFFFFFFFFF) ^ 0x8000000000000000)"
                   " - 0x8000000000000000",
              "p": "path_arg(name, {})"}

# what a host can bind, by import name: the spec entries and the support
# calls; a host with no image binds all of them
_SPECS = {spec.import_name: spec for spec in SYSCALLS.values()}
_SUPPORT_TYPES = {name: FuncType(params, results)
                  for name, params, results in SUPPORT_CALLS}
_BINDABLE = (*_SPECS, *_SUPPORT_TYPES)


class WaliHost:
    """Host-function provider for one image of a WALI process."""

    def __init__(self, runtime, wp, image=None):
        self.rt = runtime
        self.wp = wp
        self.kernel = runtime.kernel
        self.proc = wp.proc
        self.policy = runtime.policy
        # the module whose ``wali`` imports this host binds; None binds all
        self.image = image
        # ``k(name, *args)``: the kernel entry of every handler
        self.k = functools.partial(self.kernel.call, self.proc)

    # ------------------------------------------------------------------
    # translation helpers (§3.2 address-space translation)
    # ------------------------------------------------------------------

    @property
    def mem(self):
        return self.wp.instance.memory

    def cstr(self, ptr: int) -> str:
        if ptr == 0:
            raise KernelError(EFAULT, "NULL path")
        return self.mem.read_cstr(ptr).decode("utf-8", "surrogateescape")

    def path_arg(self, name: str, ptr: int) -> str:
        path = self.cstr(ptr)
        if name in OPEN_LIKE:
            check_path(self._absolute(path))
        return path

    def _absolute(self, path: str) -> str:
        if path.startswith("/"):
            return path
        cwd = self.kernel.vfs.path_of(self.proc.cwd or self.kernel.vfs.root)
        return (cwd.rstrip("/") + "/" + path)

    def view(self, ptr: int, length: int):
        """Zero-copy translated view of guest memory."""
        self.wp.zero_copy_calls += 1
        return self.wp.instance.memory.read(ptr, length)

    def copy_out(self, ptr: int, data: bytes) -> None:
        self.wp.instance.memory.write(ptr, data)

    def u32_list(self, ptr: int) -> List[int]:
        """Read a NULL-terminated array of u32 pointers (argv/envp style)."""
        out = []
        while True:
            v = self.mem.load_i32(ptr)
            if v == 0:
                return out
            out.append(v)
            ptr += 4

    def iovecs(self, iov_ptr: int, iovcnt: int):
        out = []
        for i in range(iovcnt):
            base, length = Layout.decode_iovec(
                self.mem.read_bytes(iov_ptr + 8 * i, 8))
            out.append((base, length))
        return out

    def timespec_at(self, ptr: int) -> Optional[int]:
        if ptr == 0:
            return None
        return Layout.decode_timespec(self.mem.read_bytes(ptr, 16))

    # ------------------------------------------------------------------
    # import-object construction
    # ------------------------------------------------------------------

    def imports(self) -> dict:
        """Build the ``{"wali": {...}}`` import namespace: one ``HostFunc``
        per ``wali`` import of the image, or per WALI name with no image.
        A name the spec lacks stays unbound, so linking it fails."""
        if self.image is None:
            names = _BINDABLE
        else:
            names = [im.name for im in self.image.imports
                     if im.module == MODULE]
        ns = {}
        for name in names:
            spec = _SPECS.get(name)
            if spec is not None:
                method = getattr(self, f"w_{spec.name}", None) or \
                    _handler_factory(spec.params)(self.k, self.path_arg,
                                                  spec.name)
                ns[name] = HostFunc(spec.functype,
                                    self._instrument(spec.name, method), name)
            elif name in _SUPPORT_TYPES:
                ns[name] = HostFunc(_SUPPORT_TYPES[name],
                                    getattr(self, f"sup_{name}"), name)
        return {MODULE: ns}

    def _instrument(self, name: str, method):
        """Wrap a handler with errno conversion + time split accounting.

        The interposition point (§6): under a policy, which may deny
        (trap) or inject errno faults, the policy check runs first inside
        the handler; with none, the handler has no policy test."""
        cell = self.wp.cells.setdefault(name, [0, 0])
        rusage = self.proc.rusage
        if self.policy is not None:
            check, handler = self.policy.check, method

            def method(*raw):
                check(name)
                return handler(*raw)

        def call(*raw):
            t0 = _time.perf_counter_ns()
            k0 = rusage.stime_ns
            try:
                res = method(*raw)
                return 0 if res is None else res
            except KernelError as exc:
                return -exc.errno
            finally:
                cell[0] += 1
                dt = _time.perf_counter_ns() - t0 - (rusage.stime_ns - k0)
                if dt > 0:
                    cell[1] += dt

        return call

    # ------------------------------------------------------------------
    # explicit handlers: file I/O
    # ------------------------------------------------------------------

    # the hot handlers convert signs inline, as the generated ones do
    def w_read(self, fd, buf, count):
        data = self.k("read", ((fd & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000,
                      ((count & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000)
        self.copy_out(buf, data)
        return len(data)

    def w_write(self, fd, buf, count):
        return self.k("write",
                      ((fd & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000,
                      self.view(buf, count))

    def w_pread64(self, fd, buf, count, offset):
        data = self.k("pread64",
                      ((fd & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000, count,
                      ((offset & 0xFFFFFFFFFFFFFFFF) ^ 0x8000000000000000)
                      - 0x8000000000000000)
        self.copy_out(buf, data)
        return len(data)

    def w_pwrite64(self, fd, buf, count, offset):
        return self.k("pwrite64",
                      ((fd & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000,
                      self.view(buf, count),
                      ((offset & 0xFFFFFFFFFFFFFFFF) ^ 0x8000000000000000)
                      - 0x8000000000000000)

    def w_readv(self, fd, iov, iovcnt):
        vecs = self.iovecs(iov, iovcnt)
        data = self.k("readv", signed32(fd), [n for _, n in vecs])
        off = 0
        for base, length in vecs:
            chunk = data[off:off + length]
            self.copy_out(base, chunk)
            off += len(chunk)
            if off >= len(data):
                break
        return len(data)

    def w_writev(self, fd, iov, iovcnt):
        vecs = self.iovecs(iov, iovcnt)
        return self.k("writev", signed32(fd),
                      [self.view(b, n) for b, n in vecs])

    def w_sendfile(self, out_fd, in_fd, off_ptr, count):
        offset = self.mem.load_i64(off_ptr) if off_ptr else None
        return self.k("sendfile", signed32(out_fd), signed32(in_fd), offset,
                      count)

    def w_ioctl(self, fd, request, arg):
        res = self.k("ioctl", signed32(fd), request, arg)
        if isinstance(res, tuple):  # TIOCGWINSZ
            rows, cols = res
            self.copy_out(arg, _WINSIZE.pack(rows, cols, 0, 0))
            return 0
        if request == 0x541B and arg:  # FIONREAD writes through the pointer
            self.mem.store_i32(arg, res)
            return 0
        return res

    def w_pipe(self, fds_ptr):
        r, w = self.k("pipe2", 0)
        self.copy_out(fds_ptr, struct.pack("<ii", r, w))
        return 0

    def w_pipe2(self, fds_ptr, flags):
        r, w = self.k("pipe2", signed32(flags))
        self.copy_out(fds_ptr, struct.pack("<ii", r, w))
        return 0

    # ---- paths & metadata ----

    def w_faccessat2(self, dirfd, path, mode, flags):
        return self.k("faccessat", signed32(dirfd),
                      self.path_arg("faccessat2", path), mode)

    def _stat_out(self, st, buf):
        # kstat packed straight into the portable WALI layout (§3.5)
        self.copy_out(buf, GUEST_LAYOUT.encode_stat(st))
        return 0

    def w_fstat(self, fd, buf):
        return self._stat_out(self.k("fstat", signed32(fd)), buf)

    def w_stat(self, path, buf):
        return self._stat_out(
            self.k("stat", self.path_arg("stat", path)), buf)

    def w_lstat(self, path, buf):
        return self._stat_out(
            self.k("lstat", self.path_arg("lstat", path)), buf)

    def w_newfstatat(self, dirfd, path, buf, flags):
        st = self.k("newfstatat", signed32(dirfd),
                    self.path_arg("newfstatat", path), signed32(flags))
        return self._stat_out(st, buf)

    def w_statx(self, dirfd, path, flags, mask, buf):
        st = self.k("statx", signed32(dirfd),
                    self.path_arg("statx", path), signed32(flags))
        return self._stat_out(st, buf)

    def w_statfs(self, path, buf):
        sf = self.k("statfs", self.cstr(path))
        self.copy_out(buf, Layout.encode_statfs(sf))
        return 0

    def w_fstatfs(self, fd, buf):
        sf = self.k("fstatfs", signed32(fd))
        self.copy_out(buf, Layout.encode_statfs(sf))
        return 0

    def w_getdents64(self, fd, dirp, count):
        data = Layout.encode_dirents(self.k("getdents64", signed32(fd), count))
        self.copy_out(dirp, data)
        return len(data)

    def w_getcwd(self, buf, size):
        cwd = self.k("getcwd").encode()
        if len(cwd) + 1 > size:
            return -ERANGE
        self.mem.write_cstr(buf, cwd)
        return len(cwd) + 1

    def w_readlink(self, path, buf, size):
        target = self.k("readlink",
                        self.path_arg("readlink", path)).encode()
        out = target[:size]
        self.copy_out(buf, out)
        return len(out)

    def w_readlinkat(self, dirfd, path, buf, size):
        target = self.k("readlinkat", signed32(dirfd),
                        self.path_arg("readlinkat", path)).encode()
        out = target[:size]
        self.copy_out(buf, out)
        return len(out)

    def w_utimensat(self, dirfd, path, times_ptr, flags):
        if times_ptr:
            atime = Layout.decode_timespec(self.mem.read_bytes(times_ptr, 16))
            mtime = Layout.decode_timespec(
                self.mem.read_bytes(times_ptr + 16, 16))
        else:
            # NULL times = "now" on the VFS logical clock (wall-clock
            # stamps here would break the determinism-rerun guarantee)
            from ..kernel.vfs import vfs_now_ns
            atime = mtime = vfs_now_ns()
        path_s = self.cstr(path) if path else ""
        return self.k("utimensat", signed32(dirfd), path_s, atime, mtime,
                      flags)

    # ---- poll/select ----

    def w_poll(self, fds_ptr, nfds, timeout_ms):
        return self._poll_common(fds_ptr, nfds,
                                 None if signed32(timeout_ms) < 0
                                 else signed32(timeout_ms) * 1_000_000)

    def w_ppoll(self, fds_ptr, nfds, ts_ptr, sigmask_ptr):
        return self._poll_common(fds_ptr, nfds, self.timespec_at(ts_ptr))

    def _poll_common(self, fds_ptr, nfds, timeout_ns):
        req = []
        for i in range(nfds):
            fd, events = Layout.decode_pollfd(
                self.mem.read_bytes(fds_ptr + 8 * i, 8))
            req.append((fd, events))
        ready = self.k("ppoll", req, timeout_ns)
        # the kernel lists ready entries in request order.  An entry's
        # revents lie within its events | POLLERR | POLLHUP | POLLNVAL, so
        # an earlier entry for the same fd that did not fire cannot claim
        # a later entry's revents: matching in order is exact.
        j = 0
        for i, (fd, events) in enumerate(req):
            revents = 0
            if j < len(ready) and ready[j][0] == fd and \
                    not ready[j][1] & ~(events | 0x38):
                revents = ready[j][1]
                j += 1
            self.copy_out(fds_ptr + 8 * i,
                          Layout.encode_pollfd(fd, events, revents))
        return len(ready)

    def w_select(self, n, rfds, wfds, efds, tv_ptr):
        timeout_ns = None
        if tv_ptr:
            sec, usec = struct.unpack_from(
                "<qq", self.mem.read_bytes(tv_ptr, 16))
            timeout_ns = sec * 10**9 + usec * 1000
        return self._select_common(n, rfds, wfds, efds, timeout_ns)

    def w_pselect6(self, n, rfds, wfds, efds, ts_ptr, sigmask):
        return self._select_common(n, rfds, wfds, efds,
                                   self.timespec_at(ts_ptr))

    def _select_common(self, n, rfds_ptr, wfds_ptr, efds_ptr, timeout_ns):
        def read_set(ptr):
            if not ptr:
                return []
            nbytes = (n + 7) // 8
            bits = int.from_bytes(self.mem.read_bytes(ptr, nbytes), "little")
            return [fd for fd in range(n) if bits & (1 << fd)]

        def write_set(ptr, fds):
            if not ptr:
                return
            nbytes = (n + 7) // 8
            bits = 0
            for fd in fds:
                bits |= 1 << fd
            self.copy_out(ptr, bits.to_bytes(nbytes, "little"))

        r_ready, w_ready = self.k("pselect6", read_set(rfds_ptr),
                                  read_set(wfds_ptr), timeout_ns)
        write_set(rfds_ptr, r_ready)
        write_set(wfds_ptr, w_ready)
        write_set(efds_ptr, [])
        return len(r_ready) + len(w_ready)

    # ---- epoll / timerfd (event subsystem) ----

    def w_epoll_ctl(self, epfd, op, fd, event_ptr):
        events, data = 0, None
        if event_ptr:
            events, data = Layout.decode_epoll_event(
                self.mem.read_bytes(event_ptr, Layout.EPOLL_EVENT_SIZE))
        return self.k("epoll_ctl", signed32(epfd), op, signed32(fd),
                      events, data)

    def _epoll_wait_out(self, epfd, events_ptr, maxevents, timeout_ns):
        ready = self.k("epoll_pwait", signed32(epfd), maxevents,
                       timeout_ns)
        for i, (data, revents) in enumerate(ready):
            self.copy_out(events_ptr + i * Layout.EPOLL_EVENT_SIZE,
                          Layout.encode_epoll_event(revents, data))
        return len(ready)

    def w_epoll_pwait(self, epfd, events_ptr, maxevents, timeout_ms,
                      sigmask_ptr, sigsetsize):
        timeout_ns = None if signed32(timeout_ms) < 0 \
            else signed32(timeout_ms) * 1_000_000
        return self._epoll_wait_out(epfd, events_ptr, maxevents, timeout_ns)

    def w_epoll_wait(self, epfd, events_ptr, maxevents, timeout_ms):
        return self.w_epoll_pwait(epfd, events_ptr, maxevents, timeout_ms,
                                  0, 0)

    def w_timerfd_settime(self, fd, flags, new_ptr, old_ptr):
        if not new_ptr:
            return -EINVAL
        interval_ns, value_ns = Layout.decode_itimerspec(
            self.mem.read_bytes(new_ptr, Layout.ITIMERSPEC_SIZE))
        old_value, old_interval = self.k(
            "timerfd_settime", signed32(fd), flags, value_ns, interval_ns)
        if old_ptr:
            self.copy_out(old_ptr,
                          Layout.encode_itimerspec(old_interval, old_value))
        return 0

    def w_timerfd_gettime(self, fd, curr_ptr):
        value_ns, interval_ns = self.k("timerfd_gettime", signed32(fd))
        if curr_ptr:
            self.copy_out(curr_ptr,
                          Layout.encode_itimerspec(interval_ns, value_ns))
        return 0

    # ---- inotify / signalfd (readiness front-ends) ----

    def w_signalfd4(self, fd, mask_ptr, sizemask, flags):
        mask = self.mem.load_i64(mask_ptr) if mask_ptr else 0
        return self.k("signalfd4", signed32(fd), mask, flags)

    # ---- perf events: the profiling fd surface ----

    def w_perf_event_open(self, attr_ptr, pid, cpu, group_fd, flags):
        from ..kernel.perf import PerfAttr
        if attr_ptr == 0:
            raise KernelError(EFAULT, "NULL perf attr")
        type_, config_ptr, freq, capacity, disabled = \
            Layout.decode_perf_attr(
                self.mem.read_bytes(attr_ptr, Layout.PERF_ATTR_SIZE))
        config = self.cstr(config_ptr) if config_ptr else ""
        attr = PerfAttr(type=type_, config=config, sample_freq=freq,
                        ring_capacity=capacity, disabled=bool(disabled))
        return self.k("perf_event_open", attr, signed32(pid), signed32(cpu),
                      signed32(group_fd), flags)

    # ---- io_uring: batched submission/completion crossings ----

    def _u32(self, ptr: int) -> int:
        return struct.unpack_from("<I", self.mem.read_bytes(ptr, 4))[0]

    def _put_u32(self, ptr: int, value: int) -> None:
        self.copy_out(ptr, struct.pack("<I", value & 0xFFFFFFFF))

    def _ring(self, fd: int):
        file = self.proc.fdtable.get(fd)
        if file.kind != OpenFile.KIND_URING:
            raise KernelError(EINVAL, f"fd {fd} is not an io_uring fd")
        return file.obj

    def w_io_uring_setup(self, entries, params_ptr):
        setup_flags = idle_ms = 0
        if params_ptr:
            setup_flags = self._u32(params_ptr + Layout.URING_PARAMS_FLAGS)
            idle_ms = self._u32(params_ptr + Layout.URING_PARAMS_IDLE)
        fd = self.k("io_uring_setup", entries, setup_flags,
                    float(idle_ms) if idle_ms else None)
        if params_ptr:
            ring = self._ring(fd)
            self.copy_out(params_ptr, struct.pack("<II", ring.sq_entries,
                                                  ring.cq_entries))
        return fd

    def w_io_uring_register(self, fd, opcode, arg, nr_args):
        fd = signed32(fd)
        if opcode == IORING_REGISTER_BUFFERS:
            # decode + bounds-check the guest iovec table exactly ONCE —
            # fixed-buffer SQEs/CQEs then skip per-entry translation
            table = []
            for i in range(nr_args):
                base, length = Layout.decode_iovec(self.mem.read_bytes(
                    arg + i * Layout.IOVEC_SIZE, Layout.IOVEC_SIZE))
                if length:
                    self.mem.read_bytes(base, length)
                table.append((base, length))
            return self.k("io_uring_register", fd, opcode, table, nr_args)
        res = self.k("io_uring_register", fd, opcode, arg, nr_args)
        if opcode == IORING_REGISTER_RING:
            ring = self._ring(fd)
            size = Layout.URING_HDR_SIZE + \
                ring.sq_entries * Layout.URING_SQE_SIZE + \
                ring.cq_entries * Layout.URING_CQE_SIZE
            self.mem.read_bytes(arg, size)  # bounds-check the whole region
            ring.guest_base = arg
            if ring.setup_flags & IORING_SETUP_SQPOLL:
                # the poller drains the guest SQ ring and flushes the
                # guest CQ ring through these hooks — no crossing needed
                ring.sq_drain_hook = \
                    lambda maxb: self._consume_sq(ring, maxb)
                ring.sq_peek_hook = lambda: self._guest_sq_pending(ring)
                ring.cq_flush_hook = lambda: self._publish_cqes(ring)
                ring.header_flags_hook = \
                    lambda: self._write_ring_flags(ring)
                ring.cq_avail_hook = \
                    lambda: self._guest_cq_occupancy(ring)
        return res

    def _guest_sq_pending(self, ring) -> int:
        base = ring.guest_base
        if base is None:
            return 0
        return (self._u32(base + Layout.URING_SQ_TAIL)
                - self._u32(base + Layout.URING_SQ_HEAD)) & 0xFFFFFFFF

    def _guest_cq_occupancy(self, ring) -> int:
        base = ring.guest_base
        if base is None:
            return 0
        with ring._publish_lock:  # order against an in-flight flush
            return (self._u32(base + Layout.URING_CQ_TAIL)
                    - self._u32(base + Layout.URING_CQ_HEAD)) & 0xFFFFFFFF

    def _consume_sq(self, ring, limit: int) -> List[SQE]:
        """Decode up to ``limit`` SQEs from the guest SQ ring and advance
        SQ_HEAD (called from ``enter`` or, for SQPOLL, the poller)."""
        base = ring.guest_base
        sqn = ring.sq_entries
        sq_base = base + Layout.URING_HDR_SIZE
        sq_head = self._u32(base + Layout.URING_SQ_HEAD)
        sq_tail = self._u32(base + Layout.URING_SQ_TAIL)
        n = min(limit, (sq_tail - sq_head) & 0xFFFFFFFF, sqn)
        sqes = []
        for i in range(n):
            raw = self.mem.read_bytes(
                sq_base + ((sq_head + i) % sqn) * Layout.URING_SQE_SIZE,
                Layout.URING_SQE_SIZE)
            opcode, sflags, sfd, addr, length, off, user_data = \
                Layout.decode_uring_sqe(raw)
            sqe = SQE(opcode, fd=sfd, addr=addr, length=length, off=off,
                      user_data=user_data, flags=sflags)
            if opcode in (IORING_OP_WRITE, IORING_OP_SEND) and length:
                if sflags & IOSQE_FIXED_BUFFER:
                    # payload lives in a registered slot: read it through
                    # the pre-translated table, no per-SQE translation
                    slot = ring._fixed_slot(addr)
                    if slot is not None:
                        sqe.data = bytes(self.mem.read_bytes(
                            slot[0], min(length, slot[1])))
                        self.wp.fixed_elides += 1
                    # a bad index falls through: the kernel op EINVALs
                else:
                    # outbound payloads are snapshot at submission (§3.2
                    # address-space translation happens exactly once)
                    sqe.data = bytes(self.view(addr, length))
            sqes.append(sqe)
        if n:
            self._put_u32(base + Layout.URING_SQ_HEAD, sq_head + n)
        return sqes

    def _write_cqes(self, ring, cqes) -> None:
        """Publish reaped CQEs into the guest CQ ring + refresh header."""
        base = ring.guest_base
        cqn = ring.cq_entries
        cq_base = base + Layout.URING_HDR_SIZE + \
            ring.sq_entries * Layout.URING_SQE_SIZE
        cq_tail = self._u32(base + Layout.URING_CQ_TAIL)
        for i, cqe in enumerate(cqes):
            if cqe.data is not None:
                if cqe.flags & IORING_CQE_F_BUFFER:
                    # registered slot: cqe.addr was translated at
                    # register time, so this lands without per-CQE work
                    self.mem.write(cqe.addr, cqe.data)
                    self.wp.fixed_elides += 1
                elif cqe.addr:
                    self.copy_out(cqe.addr, cqe.data)
            self.copy_out(
                cq_base + ((cq_tail + i) % cqn) * Layout.URING_CQE_SIZE,
                Layout.encode_uring_cqe(cqe.user_data, cqe.res, cqe.flags))
        if cqes:
            self._put_u32(base + Layout.URING_CQ_TAIL, cq_tail + len(cqes))
        self._put_u32(base + Layout.URING_CQ_OVERFLOW, ring.overflow)
        self._write_ring_flags(ring)

    def _write_ring_flags(self, ring) -> None:
        base = ring.guest_base
        if base is None:
            return
        flags = 0
        if ring.overflow_pending:
            flags |= IORING_SQ_CQ_OVERFLOW
        if ring.sq_need_wakeup:
            flags |= IORING_SQ_NEED_WAKEUP
        self._put_u32(base + Layout.URING_FLAGS, flags)

    def _publish_cqes(self, ring) -> int:
        """Flush kernel completions into whatever room the guest CQ ring
        has (SQPOLL path: the poller calls this with zero crossings)."""
        base = ring.guest_base
        if base is None:
            return 0
        with ring._publish_lock:
            cq_head = self._u32(base + Layout.URING_CQ_HEAD)
            cq_tail = self._u32(base + Layout.URING_CQ_TAIL)
            room = ring.cq_entries - ((cq_tail - cq_head) & 0xFFFFFFFF)
            cqes = ring.reap(room) if room > 0 else []
            self._write_cqes(ring, cqes)
            return len(cqes)

    def w_io_uring_enter(self, fd, to_submit, min_complete, flags, sig,
                         sigsz):
        """One crossing: consume SQEs from the guest SQ ring, run them,
        then publish every available completion into the guest CQ ring.

        ``sig`` is reinterpreted as a relative timeout in milliseconds
        when ``IORING_ENTER_TIMEOUT_MS`` is set (the EXT_ARG analog: our
        guests never pass sigsets here).

        SQPOLL rings never submit through here — the poller owns the SQ
        ring.  The crossing only kicks an idled poller
        (``IORING_ENTER_SQ_WAKEUP``) and/or blocks for completions
        (``IORING_ENTER_GETEVENTS``), then flushes the guest CQ ring.
        """
        fd = signed32(fd)
        ring = self._ring(fd)
        base = ring.guest_base
        if base is None:
            raise KernelError(EINVAL, "ring memory is not registered")
        timeout_ns = None
        if flags & IORING_ENTER_TIMEOUT_MS and sig > 0:
            timeout_ns = sig * 1_000_000
        min_c = min_complete if flags & IORING_ENTER_GETEVENTS else 0
        if ring.setup_flags & IORING_SETUP_SQPOLL:
            self.k("io_uring_enter", fd, (), min_c, timeout_ns, 0, flags)
            self._publish_cqes(ring)
            return 0
        sqes = self._consume_sq(ring, to_submit)
        # only reap what the guest CQ ring can absorb; the rest stays in
        # the kernel backlog (CQ-overflow semantics)
        with ring._publish_lock:
            cq_head = self._u32(base + Layout.URING_CQ_HEAD)
            cq_tail = self._u32(base + Layout.URING_CQ_TAIL)
            room = ring.cq_entries - ((cq_tail - cq_head) & 0xFFFFFFFF)
        submitted, cqes = self.k("io_uring_enter", fd, sqes, min_c,
                                 timeout_ns, max(room, 0), flags)
        with ring._publish_lock:
            self._write_cqes(ring, cqes)
        return submitted

    # ------------------------------------------------------------------
    # memory management (§3.2) — stateful: the mmap pool
    # ------------------------------------------------------------------

    def w_mmap(self, addr, length, prot, flags, fd, offset):
        prot = sanitize_prot(prot)
        res = self.k("mmap", addr, length, prot, signed32(flags),
                     signed32(fd), signed64(offset))
        size = (length + 4095) & ~4095
        self.mem.fill(res.addr, 0, size)  # fresh mappings are zeroed
        if res.populate is not None:
            self.copy_out(res.addr, res.populate)
        return res.addr

    def w_munmap(self, addr, length):
        mem = self.mem
        return self.k("munmap", addr, length,
                      mem_reader=lambda a, n: bytes(mem.read(a, n)))

    def w_mremap(self, old_addr, old_size, new_size, flags, new_addr):
        new, moved = self.k("mremap", old_addr, old_size, new_size,
                            signed32(flags))
        if moved:
            size = (new_size + 4095) & ~4095
            self.mem.fill(new, 0, size)
            self.mem.copy(new, old_addr, min(old_size, new_size))
        return new

    def w_mprotect(self, addr, length, prot):
        return self.k("mprotect", addr, length, sanitize_prot(prot))

    def w_msync(self, addr, length, flags):
        mem = self.mem
        return self.k("msync", addr, length, flags,
                      mem_reader=lambda a, n: bytes(mem.read(a, n)))

    def w_mincore(self, addr, length, vec):
        self.mem.check(vec, (length + 4095) // 4096)  # one byte per page
        self.copy_out(vec, self.k("mincore", addr, length))
        return 0

    # ------------------------------------------------------------------
    # signals (§3.3) — stateful: the virtual sigtable
    # ------------------------------------------------------------------

    def w_rt_sigaction(self, sig, act_ptr, oldact_ptr, sigsetsize):
        # the virtual sigtable registration *and* the native registration
        # both happen here, as in the paper's Fig. 5 sequence
        if act_ptr:
            handler, flags, mask = Layout.decode_sigaction(
                self.mem.read_bytes(act_ptr, 16))
            old = self.k("rt_sigaction", sig,
                         SigAction(handler, mask, flags))
        else:
            old = self.k("rt_sigaction", sig, None)
        if oldact_ptr:
            self.copy_out(oldact_ptr, Layout.encode_sigaction(
                old.handler if old.handler >= 0 else 0, old.flags, old.mask))
        return 0

    def w_rt_sigprocmask(self, how, set_ptr, oldset_ptr, size):
        new_mask = self.mem.load_i64(set_ptr) if set_ptr else None
        old = self.k("rt_sigprocmask", how, new_mask)
        if oldset_ptr:
            self.mem.store_i64(oldset_ptr, old)
        # §3.3: poll immediately so newly-unblocked pending signals run
        # before guest code resumes.
        self.wp.poll_now()
        return 0

    def w_rt_sigpending(self, set_ptr, size):
        self.mem.store_i64(set_ptr, self.k("rt_sigpending"))
        return 0

    def w_rt_sigsuspend(self, mask_ptr, size):
        return self.k("rt_sigsuspend", self.mem.load_i64(mask_ptr))

    def w_rt_sigreturn(self):
        deny_sigreturn()

    def w_rt_sigtimedwait(self, set_ptr, info_ptr, timeout_ptr, size):
        mask = self.mem.load_i64(set_ptr)
        return self.k("rt_sigtimedwait", mask,
                      self.timespec_at(timeout_ptr))

    def w_setitimer(self, which, new_ptr, old_ptr):
        value_ns = 0
        if new_ptr:
            # itimerval: interval timeval + value timeval
            sec, usec = struct.unpack_from(
                "<qq", self.mem.read_bytes(new_ptr + 16, 16))
            value_ns = sec * 10**9 + usec * 1000
        return self.k("setitimer", which, 0, value_ns)

    # ------------------------------------------------------------------
    # process model (§3.1) — stateful: instance-per-thread / fork
    # ------------------------------------------------------------------

    def w_clone(self, flags, stack, fn, arg):
        if flags & CLONE_VM:
            return self.rt.spawn_thread(self.wp, signed32(flags), fn, arg)
        return self.rt.fork(self.wp, signed32(flags))

    def w_clone3(self, flags, stack, fn, arg):
        return self.w_clone(flags, stack, fn, arg)

    def w_fork(self):
        return self.rt.fork(self.wp)

    def w_vfork(self):
        return self.rt.fork(self.wp)

    def w_execve(self, path_ptr, argv_ptr, envp_ptr):
        path = self.cstr(path_ptr)
        argv = [self.cstr(p) for p in self.u32_list(argv_ptr)] \
            if argv_ptr else []
        envp = [self.cstr(p) for p in self.u32_list(envp_ptr)] \
            if envp_ptr else []
        return self.rt.execve(self.wp, path, argv, envp)

    def w_exit(self, status):
        if self.proc.is_thread:
            self.k("exit", status)
            raise GuestExit(status)
        return self.w_exit_group(status)

    def w_exit_group(self, status):
        self.k("exit_group", status)
        raise GuestExit(status)

    def w_wait4(self, pid, status_ptr, options, rusage_ptr):
        cpid, status, rusage = self.k("wait4", signed32(pid),
                                      signed32(options))
        if cpid:
            self.rt.release(cpid)   # the kernel reaped it
        if status_ptr and cpid:
            self.mem.store_i32(status_ptr, status)
        if rusage_ptr and rusage is not None:
            self.copy_out(rusage_ptr, Layout.encode_rusage(rusage))
        return cpid

    def w_futex(self, uaddr, op, val, timeout_ptr, uaddr2, val3):
        current = self.mem.load_i32(uaddr)
        return self.k("futex", uaddr, op, val, current,
                      self.timespec_at(timeout_ptr))

    def w_getrandom(self, buf, length, flags):
        length = min(length, _GETRANDOM_MAX)
        self.mem.check(buf, length)  # trap before the kernel draws a byte
        data = self.k("getrandom", length, flags)
        self.copy_out(buf, data)
        return len(data)

    def w_prlimit64(self, pid, resource, new_ptr, old_ptr):
        new_limit = None
        if new_ptr:
            new_limit = Layout.decode_rlimit(self.mem.read_bytes(new_ptr, 16))
        cur, maxv = self.k("prlimit64", signed32(pid), resource, new_limit)
        if old_ptr:
            self.copy_out(old_ptr, Layout.encode_rlimit(cur, maxv))
        return 0

    def w_getrlimit(self, resource, ptr):
        cur, maxv = self.k("getrlimit", resource)
        self.copy_out(ptr, Layout.encode_rlimit(cur, maxv))
        return 0

    def w_setrlimit(self, resource, ptr):
        cur, maxv = Layout.decode_rlimit(self.mem.read_bytes(ptr, 16))
        return self.k("setrlimit", resource, cur, maxv)

    def w_getrusage(self, who, ptr):
        ru = self.k("getrusage", signed32(who))
        self.copy_out(ptr, Layout.encode_rusage(ru))
        return 0

    def w_times(self, ptr):
        u, s, cu, cs = self.k("times")
        if ptr:
            self.copy_out(ptr, Layout.encode_tms(u, s, cu, cs))
        return u + s

    def w_sched_getaffinity(self, pid, size, mask_ptr):
        mask = self.k("sched_getaffinity", signed32(pid))
        n = min(size, 8)
        self.copy_out(mask_ptr, mask.to_bytes(8, "little")[:n])
        return n

    def w_sched_setaffinity(self, pid, size, mask_ptr):
        mask = self.mem.read_bytes(mask_ptr, min(size, 8))
        return self.k("sched_setaffinity", signed32(pid),
                      int.from_bytes(mask, "little"))

    # ------------------------------------------------------------------
    # sockets
    # ------------------------------------------------------------------

    def _addr_in(self, ptr, length):
        family, addr = Layout.decode_sockaddr(self.mem.read_bytes(ptr, 8))
        return addr

    def _addr_out(self, ptr, len_ptr, addr):
        if not ptr:
            return
        data = Layout.encode_sockaddr(addr)
        self.copy_out(ptr, data)
        if len_ptr:
            self.mem.store_i32(len_ptr, len(data))

    def w_bind(self, fd, addr_ptr, addrlen):
        return self.k("bind", signed32(fd), self._addr_in(addr_ptr, addrlen))

    def w_connect(self, fd, addr_ptr, addrlen):
        return self.k("connect", signed32(fd),
                      self._addr_in(addr_ptr, addrlen))

    def w_accept4(self, fd, addr_ptr, len_ptr, flags):
        conn = self.k("accept4", signed32(fd), flags)
        if addr_ptr:
            sock = self.proc.fdtable.get(conn).sock
            self._addr_out(addr_ptr, len_ptr, sock.peer_addr or ("", 0))
        return conn

    def w_accept(self, fd, addr_ptr, len_ptr):
        return self.w_accept4(fd, addr_ptr, len_ptr, 0)

    def w_sendto(self, fd, buf, length, flags, addr_ptr, addrlen):
        addr = self._addr_in(addr_ptr, addrlen) if addr_ptr else None
        return self.k("sendto", signed32(fd), self.view(buf, length), addr)

    def w_recvfrom(self, fd, buf, length, flags, addr_ptr, len_ptr):
        data, src = self.k("recvfrom", signed32(fd), length)
        self.copy_out(buf, data)
        self._addr_out(addr_ptr, len_ptr, src)
        return len(data)

    def w_sendmsg(self, fd, msg_ptr, flags):
        name_ptr, _namelen, iov_ptr, iovlen = struct.unpack_from(
            "<IIII", self.mem.read_bytes(msg_ptr, 16))
        vecs = self.iovecs(iov_ptr, iovlen)
        addr = self._addr_in(name_ptr, 16) if name_ptr else None
        return self.k("sendmsg", signed32(fd),
                      [self.view(b, n) for b, n in vecs], addr)

    def w_recvmsg(self, fd, msg_ptr, flags):
        name_ptr, _namelen, iov_ptr, iovlen = struct.unpack_from(
            "<IIII", self.mem.read_bytes(msg_ptr, 16))
        vecs = self.iovecs(iov_ptr, iovlen)
        data, src = self.k("recvmsg", signed32(fd),
                           sum(n for _, n in vecs))
        off = 0
        for base, length in vecs:
            chunk = data[off:off + length]
            self.copy_out(base, chunk)
            off += len(chunk)
            if off >= len(data):
                break
        if name_ptr:
            self._addr_out(name_ptr, 0, src)
        return len(data)

    def w_socketpair(self, family, type_, protocol, fds_ptr):
        a, b = self.k("socketpair", family, type_)
        self.copy_out(fds_ptr, struct.pack("<ii", a, b))
        return 0

    def w_setsockopt(self, fd, level, optname, val_ptr, optlen):
        value = self.mem.load_i32(val_ptr) if val_ptr and optlen >= 4 else 0
        return self.k("setsockopt", signed32(fd), level, optname, value)

    def w_getsockopt(self, fd, level, optname, val_ptr, len_ptr):
        value = self.k("getsockopt", signed32(fd), level, optname)
        if val_ptr:
            self.mem.store_i32(val_ptr, value)
        if len_ptr:
            self.mem.store_i32(len_ptr, 4)
        return 0

    def w_getsockname(self, fd, addr_ptr, len_ptr):
        self._addr_out(addr_ptr, len_ptr, self.k("getsockname", signed32(fd)))
        return 0

    def w_getpeername(self, fd, addr_ptr, len_ptr):
        self._addr_out(addr_ptr, len_ptr, self.k("getpeername", signed32(fd)))
        return 0

    # ------------------------------------------------------------------
    # time & misc
    # ------------------------------------------------------------------

    def w_clock_gettime(self, clock_id, ts_ptr):
        ns = self.k("clock_gettime", clock_id)
        self.copy_out(ts_ptr, Layout.encode_timespec(ns))
        return 0

    def w_clock_getres(self, clock_id, res_ptr):
        ns = self.k("clock_getres", signed32(clock_id))
        if res_ptr:
            self.copy_out(res_ptr, Layout.encode_timespec(ns))
        return 0

    def w_gettimeofday(self, tv_ptr, tz_ptr):
        sec, usec = self.k("gettimeofday")
        if tv_ptr:
            self.copy_out(tv_ptr, Layout.encode_timeval(sec, usec))
        return 0

    def w_nanosleep(self, req_ptr, rem_ptr):
        ns = self.timespec_at(req_ptr)
        if ns is None:
            return -EINVAL
        return self.k("nanosleep", ns)

    def w_clock_nanosleep(self, clock_id, flags, req_ptr, rem_ptr):
        ns = self.timespec_at(req_ptr)
        if ns is None:
            return -EINVAL
        return self.k("clock_nanosleep", clock_id, flags, ns)

    def w_uname(self, buf):
        self.copy_out(buf, Layout.encode_utsname(self.k("uname")))
        return 0

    def w_sysinfo(self, buf):
        self.copy_out(buf, Layout.encode_sysinfo(self.k("sysinfo")))
        return 0

    # ------------------------------------------------------------------
    # WALI support methods (§3.4 external parameters)
    # ------------------------------------------------------------------

    def sup_get_argc(self):
        return len(self.proc.argv)

    def sup_get_argv_len(self, i):
        if i >= len(self.proc.argv):
            return 0
        return len(self.proc.argv[i].encode()) + 1

    def sup_copy_argv(self, buf, i):
        if i >= len(self.proc.argv):
            return 0
        data = self.proc.argv[i].encode()
        self.mem.write_cstr(buf, data)
        return len(data) + 1

    def sup_get_envc(self):
        return len(self.proc.environ)

    def _env_items(self):
        return [f"{k}={v}" for k, v in self.proc.environ.items()]

    def sup_get_env_len(self, i):
        items = self._env_items()
        if i >= len(items):
            return 0
        return len(items[i].encode()) + 1

    def sup_copy_env(self, buf, i):
        items = self._env_items()
        if i >= len(items):
            return 0
        data = items[i].encode()
        self.mem.write_cstr(buf, data)
        return len(data) + 1

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        wp = self.wp
        counts = wp.call_counts
        return {
            "calls": sum(counts.values()),
            "unique_syscalls": len(counts),
            "zero_copy_translations": wp.zero_copy_calls,
            "struct_copy_calls": wp.struct_copy_calls,
            "fixed_buffer_elides": wp.fixed_elides,
            "wali_time_ns": wp.wali_time_ns,
        }


@functools.lru_cache(maxsize=None)
def _handler_factory(kinds: str):
    """``make(k, path_arg, name)``, which builds a handler for argument
    ``kinds`` that calls ``k(name, ...)``.

    The source is generated once per distinct kinds string, so every
    argument's converter is fixed before the first call and a call runs
    no loop over its arguments: ``"iu_"`` becomes ``lambda a0, a1, a2:
    k(name, ((a0 & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000, a1)``.  The
    sign conversion masks first: WASI-over-WALI passes plain negative
    ints such as ``AT_FDCWD``."""
    params = [f"a{i}" for i in range(len(kinds))]
    args = "".join(f", {_KIND_EXPR[kind].format(a)}"
                   for kind, a in zip(kinds, params) if kind != "_")
    return eval(f"lambda k, path_arg, name: "
                f"lambda {', '.join(params)}: k(name{args})", {})


# generated, not written (the paper's >85% story): every spec entry
# without a hand-written ``w_`` handler
AUTO_PASSTHROUGH = frozenset(
    name for name in SYSCALLS if not hasattr(WaliHost, f"w_{name}"))


def handler_loc(name: str) -> int:
    """Lines of code of a handler (Table 2's LOC column): explicit handlers
    are measured from source; generated passthroughs count as 1."""
    if name not in SYSCALLS:
        return 0
    if name in AUTO_PASSTHROUGH:
        return 1
    src = inspect.getsource(getattr(WaliHost, f"w_{name}"))
    return sum(1 for line in src.splitlines()
               if line.strip() and not line.strip().startswith("#"))


def implemented_names():
    """Every spec entry has a handler, written or generated."""
    return sorted(SYSCALLS)
