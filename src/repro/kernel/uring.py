"""io_uring-style submission/completion rings: batched syscall crossings.

The paper's Fig. 7 / Table 2 breakdown shows that for syscall-dense
workloads the dominant per-call cost is the *crossing itself* — argument
translation at the WALI boundary plus dispatch — not the kernel work
behind it.  The epoll subsystem (PR 1) already made *finding* ready fds
O(ready), but an event-loop server still pays one crossing per
``epoll_pwait`` **plus** one per ``read``/``write``/``accept`` the
readiness unblocks: at N ops per wakeup that is N+1 crossings where the
kernel work would fit in one.

This module moves the batching boundary the way ``io_uring`` does:

* the guest queues **submission queue entries** (SQEs) describing I/O it
  wants done — no crossing per op;
* one ``io_uring_enter`` crossing hands the whole batch to the kernel;
* ops that would block are **parked on the readiness waitqueues** from
  :mod:`repro.kernel.eventpoll` — the same wakeups that drive epoll —
  and complete when readiness fires;
* finished ops surface as **completion queue entries** (CQEs) that the
  guest reaps in bulk (through its shared ring memory, again without a
  crossing per op).

So the crossing cost is amortized over the batch: where the epoll loop
pays ``1 + ops`` crossings per wakeup, the ring loop pays ``1`` — the
interface co-design argument (cut boundary traffic, not per-side work)
applied to the guest↔host syscall boundary.

On top of the batch, three follow-ups push the remaining per-op costs
toward zero:

* **multishot accept/recv** (Linux 5.19 semantics): one armed SQE posts
  a CQE per arrival, flagged ``IORING_CQE_F_MORE``; the op stays armed
  until an error/EOF posts a final CQE *without* the MORE flag.  One
  SQE amortizes over the connection's whole lifetime instead of one SQE
  per arrival.
* **registered buffers**: ``io_uring_register(IORING_REGISTER_BUFFERS)``
  validates and translates a guest buffer table exactly once;
  ``READ_FIXED`` (or RECV with ``IOSQE_FIXED_BUFFER``) then completes
  into a registered slot, and the WALI host skips the per-SQE address
  translation — the paper's crossing-cost argument applied to memory.
* **SQPOLL** (:class:`SQPoller`): a kernel-side submission poller —
  a real scheduler entity that contends for CPU slots like any guest
  task — drains the shared-memory SQ ring so a loaded guest submits
  with *zero* ``enter`` crossings.  The poller parks after
  ``sq_thread_idle`` without work (publishing ``IORING_SQ_NEED_WAKEUP``
  in the shared header) and is re-kicked by one
  ``io_uring_enter(IORING_ENTER_SQ_WAKEUP)`` crossing.

Semantics modeled after Linux:

* **CQ overflow**: when the CQ ring is full, completions accumulate in a
  kernel-side backlog (nothing is dropped), the overflow counter ticks,
  and the ``IORING_SQ_CQ_OVERFLOW`` flag is raised until the backlog
  drains into freed CQ slots.
* **``IOSQE_IO_LINK``**: an SQE carrying the link flag chains to its
  successor; a link starts only after its predecessor completes
  successfully, and a failed op (res < 0) cancels the rest of the chain
  with ``-ECANCELED``.  Multishot ops refuse to link (``-EINVAL``, like
  Linux).
* **single completion per arrival**: a parked op completes exactly once
  per readiness edge that satisfies it — no spurious duplicates across
  subsequent ``io_uring_enter`` calls (the ET-style discipline).
* **one data CQE in flight per multishot recv**: a multishot recv posts
  its next data CQE only after the previous one was reaped, so the
  guest-side buffer (one registered slot per armed op) is never
  overwritten under the consumer.  Protocols with more than one
  in-flight message per fd want a provide-buffers ring (future work).

Files are resolved once at first submission and pinned for the life of
the op (like the kernel's per-op file reference), so an fd closed — or
closed and reused — mid-flight cannot redirect a parked op.

Locking: wakers (``_Parked``/timer expiry) only mark-and-queue under
``ring._lock``; the actual I/O step re-runs on a syscall-side (or
SQPOLL) thread under ``_process_lock``, so a chain is never advanced by
two threads at once and timer expiry can never race an ``_advance``.
"""

from __future__ import annotations

import threading
import time as _time
from collections import deque
from functools import partial
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from .errno import (
    EAGAIN, EBADF, ECANCELED, EINVAL, ENOTSOCK, ETIME, KernelError,
)
from .eventpoll import (
    EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP, FileOps, WaitQueue,
)
from .net import HostSocket, Socket
from .timer import KTimer
from .trace import KernelTrace

# opcodes (a compact subset of the Linux set)
IORING_OP_NOP = 0
IORING_OP_READ = 1
IORING_OP_WRITE = 2
IORING_OP_ACCEPT = 3
IORING_OP_SEND = 4
IORING_OP_RECV = 5
IORING_OP_POLL_ADD = 6
IORING_OP_TIMEOUT = 7
IORING_OP_FSYNC = 8
IORING_OP_READ_FIXED = 9   # like READ, but sqe.addr indexes the buffer table

# fsync flags (carried in sqe.off, like the timeout duration)
IORING_FSYNC_DATASYNC = 1

# multishot arming flags (carried in sqe.off, like POLL_ADD's event mask)
IORING_ACCEPT_MULTISHOT = 1
IORING_RECV_MULTISHOT = 2

# sqe flags (Linux bit positions)
IOSQE_IO_LINK = 1 << 2
# suppress the CQE of a successful op (failures always complete): spares
# the guest from reaping completions it would ignore (fire-and-forget
# sends), shrinking CQ traffic
IOSQE_CQE_SKIP_SUCCESS = 1 << 6
# sqe.addr is an index into the registered buffer table, not a pointer
IOSQE_FIXED_BUFFER = 1 << 7

# cqe flags
IORING_CQE_F_BUFFER = 1        # completion used a registered slot ...
IORING_CQE_BUFFER_SHIFT = 16   # ... whose index is (flags >> 16)
IORING_CQE_F_MORE = 2          # multishot: the armed SQE will post more

# io_uring_enter flags
IORING_ENTER_GETEVENTS = 1
IORING_ENTER_SQ_WAKEUP = 2     # re-kick a parked SQPOLL poller
# our EXT_ARG analog: when set, the ``sig`` argument carries a relative
# timeout in milliseconds for the min_complete wait
IORING_ENTER_TIMEOUT_MS = 1 << 4

# io_uring_setup flags
IORING_SETUP_SQPOLL = 2

# io_uring_register opcodes
IORING_REGISTER_RING = 0
IORING_REGISTER_BUFFERS = 1

# ring-header flags mirrored to the guest
IORING_SQ_CQ_OVERFLOW = 1
IORING_SQ_NEED_WAKEUP = 2

URING_MAX_ENTRIES = 4096
URING_MAX_REG_BUFFERS = 65536

_READ_WAKE = EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP
_WRITE_WAKE = EPOLLOUT | EPOLLHUP | EPOLLERR

_RETRY = object()  # _park sentinel: subscribed, re-check the op once

_FD_OPS = frozenset({
    IORING_OP_READ, IORING_OP_WRITE, IORING_OP_ACCEPT, IORING_OP_SEND,
    IORING_OP_RECV, IORING_OP_POLL_ADD, IORING_OP_FSYNC,
    IORING_OP_READ_FIXED,
})

# SQPOLL pacing: the brief doze between empty polls inside the idle
# window (keeps the poller responsive without burning a host CPU), and
# the long park once NEED_WAKEUP is published (the kick wakes it early)
_SQPOLL_DOZE_S = 0.0002
_SQPOLL_PARK_S = 0.05


class SQE:
    """One submission: an operation the guest wants performed."""

    __slots__ = ("opcode", "fd", "addr", "length", "off", "user_data",
                 "flags", "data", "_file")

    def __init__(self, opcode: int, fd: int = -1, addr: int = 0,
                 length: int = 0, off: int = 0, user_data: int = 0,
                 flags: int = 0, data: Optional[bytes] = None):
        self.opcode = opcode
        self.fd = fd
        self.addr = addr          # guest buffer pointer (opaque up here)
        self.length = length
        self.off = off            # POLL_ADD events / TIMEOUT ns / multishot
        self.user_data = user_data
        self.flags = flags
        self.data = data          # WRITE/SEND payload, snapshot at submit
        self._file = None         # pinned open-file description


class CQE:
    """One completion: result + the submitter's user_data cookie."""

    __slots__ = ("user_data", "res", "flags", "data", "addr", "src")

    def __init__(self, user_data: int, res: int, flags: int = 0,
                 data: Optional[bytes] = None, addr: int = 0, src=None):
        self.user_data = user_data
        self.res = res
        self.flags = flags
        self.data = data          # READ/RECV payload (host copies to addr)
        self.addr = addr
        self.src = src            # multishot source chain (reap re-arms it)

    def __repr__(self) -> str:
        return f"CQE(user_data={self.user_data}, res={self.res})"


class _Chain:
    """A linked run of SQEs; unlinked SQEs are chains of length one."""

    __slots__ = ("kernel", "proc", "sqes", "parked", "timer", "queued",
                 "done", "expired", "gate", "held")

    def __init__(self, kernel, proc, sqes: List[SQE]):
        self.kernel = kernel
        self.proc = proc
        self.sqes = sqes
        self.parked: Optional["_Parked"] = None
        self.timer: Optional[KTimer] = None  # armed, expiry not yet run
        self.queued = False   # already on the ready list
        self.done = False
        self.expired = False  # armed timer fired; complete on next advance
        self.gate = False     # multishot data CQE posted but not yet reaped
        self.held = None      # head op's outcome, posted once the disk is done


class _Parked:
    """Waitqueue subscriber re-arming a blocked chain on readiness.

    The callback only records that the chain should be retried (under
    ``ring._lock`` — the check-then-set must be atomic against
    ``_process_ready`` popping on a syscall thread) and kicks the ring's
    waitqueue; the actual I/O step re-runs on a syscall-side thread
    (``_process_ready``), never on the waker's thread, so wakers keep
    their cheap-and-non-blocking contract.
    """

    __slots__ = ("ring", "chain", "wq", "mask")

    def __init__(self, ring: "IoURing", chain: _Chain, wq: WaitQueue,
                 mask: int):
        self.ring = ring
        self.chain = chain
        self.wq = wq
        self.mask = mask

    def __call__(self, events: int) -> None:
        if not (events & self.mask):
            return
        ring, chain = self.ring, self.chain
        with ring._lock:
            if chain.queued or chain.done:
                return
            chain.queued = True
            ring._ready.append(chain)
        ring.wq.wake(EPOLLIN)

    def detach(self) -> None:
        self.wq.unsubscribe(self)


class IoURing(FileOps):
    """One submission/completion ring pair (the object behind the fd;
    it has no read or write)."""

    def __init__(self, sq_entries: int = 128,
                 cq_entries: Optional[int] = None, trace=None,
                 setup_flags: int = 0):
        if sq_entries <= 0 or sq_entries > URING_MAX_ENTRIES:
            raise KernelError(EINVAL, f"ring entries {sq_entries}")
        size = 1
        while size < sq_entries:
            size <<= 1
        self.sq_entries = size
        self.cq_entries = cq_entries or size * 2
        self.setup_flags = setup_flags
        self.cq: Deque[CQE] = deque()
        self.cq_backlog: Deque[CQE] = deque()   # overflow parking lot
        self.overflow = 0                        # CQEs that ever overflowed
        self.submitted = 0
        self.completed = 0
        self.wq = WaitQueue()                    # ring fds are pollable
        self._lock = threading.Lock()
        # serializes chain advancement: submit / _process_ready run the
        # I/O steps under it so a chain is never advanced by two threads
        # at once (reentrant: POLL_ADD on one's own ring fd re-enters)
        self._process_lock = threading.RLock()
        self._ready: Deque[_Chain] = deque()
        self._chains: List[_Chain] = []
        self.registrations = {}
        self.guest_base: Optional[int] = None    # set by the WALI host
        # registered buffer table: (addr, len) per slot, validated once
        self.buf_table: Optional[List[Tuple[int, int]]] = None
        self.closed = False
        # --- SQPOLL state ---
        # the kernel-level shared submission queue: appending here is the
        # in-process analog of a guest storing SQEs into shared ring
        # memory (no syscall crossing); the poller drains it
        self.sq_queue: Deque[SQE] = deque()
        self.sq_wq = WaitQueue()                 # poller kick channel
        self.sq_need_wakeup = False
        self.sqpoll: Optional["SQPoller"] = None
        self.kernel = None                       # set by io_uring_setup
        self.owner = None                        # proc whose fds SQEs name
        # WALI-host hooks (installed at IORING_REGISTER_RING for SQPOLL
        # rings): drain the guest SQ ring / publish CQEs to the guest CQ
        # ring / mirror header flags — all without an enter crossing
        self.sq_drain_hook: Optional[Callable[[int], List[SQE]]] = None
        self.sq_peek_hook: Optional[Callable[[], int]] = None
        self.cq_flush_hook: Optional[Callable[[], int]] = None
        self.header_flags_hook: Optional[Callable[[], None]] = None
        # completions already published into the guest CQ ring (and not
        # yet reaped there) — SQPOLL blocking-enter waits count them too,
        # since the poller may flush a CQE guest-side before the waiter's
        # scan runs
        self.cq_avail_hook: Optional[Callable[[], int]] = None
        self._publish_lock = threading.Lock()
        # kernel observability (kernel/trace.py)
        self.trace = trace or KernelTrace()
        self.counters = self.trace.counters

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(self, kernel, proc, sqes: List[SQE]) -> int:
        """Run a batch of SQEs; ops that would block park on waitqueues."""
        if self.closed:
            raise KernelError(EBADF, "ring is closed")
        if len(sqes) > self.sq_entries:
            raise KernelError(
                EINVAL, f"batch of {len(sqes)} exceeds the SQ ring "
                        f"({self.sq_entries} entries)")
        self.counters.inc("uring.submitted", len(sqes))
        self.trace.emit("uring_submit", pid=proc.pid, arg=len(sqes))
        with self._process_lock:
            self._chains = [c for c in self._chains if not c.done]
            for chain_sqes in _split_chains(sqes):
                chain = _Chain(kernel, proc, chain_sqes)
                self._chains.append(chain)
                self._advance(chain)
        self.submitted += len(sqes)
        return len(sqes)

    def register_buffers(self, entries: Sequence[Tuple[int, int]]) -> int:
        """Install the registered buffer table: one (addr, len) per slot.

        Validation (and, at the WALI layer, address translation) happens
        exactly once here; READ_FIXED / fixed-buffer RECV then complete
        into slots with no per-SQE translation.
        """
        table: List[Tuple[int, int]] = []
        for entry in entries:
            try:
                addr, length = entry
            except (TypeError, ValueError):
                raise KernelError(EINVAL, "buffer table entry shape")
            if length <= 0:
                raise KernelError(EINVAL, "zero-length registered buffer")
            table.append((int(addr), int(length)))
        if not table or len(table) > URING_MAX_REG_BUFFERS:
            raise KernelError(EINVAL, f"buffer table size {len(table)}")
        self.buf_table = table
        self.counters.inc("uring.buffers_registered", len(table))
        self.trace.emit("uring_register", arg=len(table))
        return len(table)

    def _fixed_slot(self, idx: int) -> Optional[Tuple[int, int]]:
        table = self.buf_table
        if table is None or not 0 <= idx < len(table):
            return None
        return table[idx]

    def _advance(self, chain: _Chain) -> None:
        """Run the chain head; on success keep going, on park stop.

        Device time an op accrues on the running thread (a cold read, a
        write-through, an fsync) is taken off the thread and reserved on
        the disk's busy timeline, and the op's CQE posts when the
        reservation ends: no op parks the thread that runs it, whether
        that is an ``io_uring_enter`` caller or the SQPOLL poller.
        """
        blockdev = chain.kernel.blockdev
        tls = blockdev.tls
        while chain.sqes:
            sqe = chain.sqes[0]
            outcome = chain.held
            if outcome is not None:
                if not chain.expired:
                    return  # the device is still busy with the op
                chain.expired = False
                chain.held = None
            else:
                before = tls.pending
                outcome = self._try_op(chain, sqe)
                if tls.pending > before:
                    end = blockdev.reserve(tls.pending - before)
                    tls.pending = before
                    if type(outcome) is tuple:
                        chain.held = outcome
                        chain.timer = KTimer(partial(self._timer_fire, chain))
                        chain.timer.settime(end, absolute=True)
                        return
                if outcome is _RETRY:
                    continue  # just subscribed: re-check once (lost edge)
                if outcome is None:
                    return  # parked: readiness will re-queue the chain
            if chain.parked is not None:
                chain.parked.detach()
                chain.parked = None
            chain.sqes.pop(0)
            res, data, addr, cflags = outcome
            if res < 0 or not (sqe.flags & IOSQE_CQE_SKIP_SUCCESS):
                self._complete(CQE(sqe.user_data, res, flags=cflags,
                                   data=data, addr=addr))
            if res < 0 and chain.sqes:
                # a failed link short-circuits the rest of the chain
                for rest in chain.sqes:
                    self.counters.inc("uring.link_cancel")
                    self._complete(CQE(rest.user_data, -ECANCELED))
                chain.sqes = []
        chain.done = True

    def _try_op(self, chain: _Chain, sqe: SQE):
        """One non-blocking attempt.

        Returns ``(res, data, addr, cqe_flags)`` when the op finished,
        ``None`` when it parked (readiness or a timer will re-queue the
        chain), or ``_RETRY`` right after a waitqueue subscription.  The
        I/O itself is the syscalls' own step (``OpenFile.read``/
        ``write``/``fsync``, ``Kernel.accept_step``), so access modes,
        write-through and accept flags behave as they do for the
        syscalls.
        """
        op = sqe.opcode
        if op == IORING_OP_NOP:
            return 0, None, 0, 0
        if op == IORING_OP_TIMEOUT:
            if sqe.off <= 0:
                return -ETIME, None, 0, 0
            if chain.expired:
                chain.expired = False
                return -ETIME, None, 0, 0
            if chain.timer is None:
                chain.timer = KTimer(partial(self._timer_fire, chain))
                chain.timer.settime(sqe.off)
            return None
        if op not in _FD_OPS:
            return -EINVAL, None, 0, 0
        file = sqe._file
        if file is None:
            try:
                file = chain.proc.fdtable.get(sqe.fd)
            except KernelError as exc:
                return -exc.errno, None, 0, 0
            sqe._file = file  # pin: a close/reuse cannot redirect the op
        if op == IORING_OP_POLL_ADD:
            events = (sqe.off & 0xFFFFFFFF) or EPOLLIN
            mask = file.poll_events() & (events | EPOLLERR | EPOLLHUP)
            if mask:
                return mask, None, 0, 0
            return self._park(chain, file, events | EPOLLERR | EPOLLHUP)
        try:
            if op == IORING_OP_ACCEPT:
                return self._try_accept(chain, sqe, file)
            if op == IORING_OP_FSYNC:
                return file.fsync(bool(sqe.off & IORING_FSYNC_DATASYNC)), \
                    None, 0, 0
            if op == IORING_OP_WRITE or op == IORING_OP_SEND:
                if sqe.flags & IOSQE_FIXED_BUFFER \
                        and self._fixed_slot(sqe.addr) is None:
                    return -EINVAL, None, 0, 0
                # EPIPE surfaces as -EPIPE without SIGPIPE, like
                # io_uring's MSG_NOSIGNAL-style sends
                return file.write(sqe.data or b""), None, 0, 0
            return self._try_read(chain, sqe, file)
        except KernelError as exc:
            if exc.errno == EAGAIN:
                return self._park(chain, file, _WRITE_WAKE
                                  if op == IORING_OP_WRITE
                                  or op == IORING_OP_SEND else _READ_WAKE)
            # terminal: errors complete without the MORE flag, ending a
            # multishot sequence (Linux semantics)
            return -exc.errno, None, 0, 0

    def _try_read(self, chain: _Chain, sqe: SQE, file):
        """READ / RECV / READ_FIXED, single-shot or multishot."""
        addr, length, cflags = sqe.addr, sqe.length, 0
        fixed = (sqe.opcode == IORING_OP_READ_FIXED
                 or sqe.flags & IOSQE_FIXED_BUFFER)
        if fixed:
            slot = self._fixed_slot(sqe.addr)
            if slot is None:
                return -EINVAL, None, 0, 0
            addr, slot_len = slot
            length = min(length, slot_len) if length else slot_len
            cflags = (IORING_CQE_F_BUFFER
                      | (sqe.addr << IORING_CQE_BUFFER_SHIFT))
        multishot = (sqe.opcode == IORING_OP_RECV
                     and sqe.off & IORING_RECV_MULTISHOT)
        if multishot and (sqe.flags & IOSQE_IO_LINK or len(chain.sqes) > 1):
            return -EINVAL, None, 0, 0  # multishot refuses to link (Linux)
        if multishot and chain.gate:
            # one unreaped data CQE per armed op: the completion target
            # (a single slot) is in use until the guest reaps it
            return None
        data = file.read(length)
        if fixed:
            self.counters.inc("uring.fixed_completions")
        if not multishot:
            return len(data), bytes(data), addr, cflags
        if not data:
            return 0, None, 0, 0  # EOF: terminal CQE without F_MORE
        chain.gate = True
        self._multishot_cqe(chain, sqe, len(data), data=bytes(data),
                            addr=addr, extra=cflags, gated=True)
        if chain.parked is None:
            return self._park(chain, file, _READ_WAKE)
        return None

    def _try_accept(self, chain: _Chain, sqe: SQE, file):
        """ACCEPT (``sqe.length`` carries accept4's flags); multishot
        drains every pending arrival, one CQE each, all flagged MORE."""
        if not isinstance(file.obj, (Socket, HostSocket)):
            return -ENOTSOCK, None, 0, 0
        multishot = sqe.off & IORING_ACCEPT_MULTISHOT
        if multishot and (sqe.flags & IOSQE_IO_LINK or len(chain.sqes) > 1):
            return -EINVAL, None, 0, 0
        while True:
            nfd = chain.kernel.accept_step(chain.proc, file, sqe.length)
            if not multishot:
                return nfd, None, 0, 0
            self._multishot_cqe(chain, sqe, nfd)

    def _multishot_cqe(self, chain: _Chain, sqe: SQE, res: int,
                       data: Optional[bytes] = None, addr: int = 0,
                       extra: int = 0, gated: bool = False) -> None:
        self.counters.inc("uring.multishot_cqes")
        self.trace.emit("uring_multishot", pid=chain.proc.pid, arg=res)
        self._complete(CQE(sqe.user_data, res,
                           flags=IORING_CQE_F_MORE | extra, data=data,
                           addr=addr, src=chain if gated else None))

    def _park(self, chain: _Chain, file, mask: int):
        wq = file.obj.wq if file.obj is not None else None
        if wq is None:
            return -EAGAIN, None, 0, 0  # unpollable: would-block surfaces
        if chain.parked is None:
            parked = _Parked(self, chain, wq, mask)
            chain.parked = parked
            wq.subscribe(parked)
            # readiness may have raced the subscription: re-check once
            # inline so the edge is never lost
            return _RETRY
        chain.parked.mask = mask
        return None

    def _timer_fire(self, chain: _Chain) -> None:
        """The chain's :class:`KTimer` callback: mark-and-queue under the
        ring lock only.  It runs outside the timer's lock, so ``close``
        may cancel the timer while holding the ring lock.  The completion
        itself — CQE content, link cancellation, ordering against reaps —
        runs on a syscall-side thread in ``_process_ready``, so expiry can
        never race a concurrent ``_advance`` and CQE order stays
        deterministic."""
        with self._lock:
            if self.closed or chain.done:
                return
            chain.expired = True
            chain.timer = None
            if not chain.queued:
                chain.queued = True
                self._ready.append(chain)
        self.wq.wake(EPOLLIN)

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------

    def _complete(self, cqe: CQE) -> None:
        overflowed = False
        with self._lock:
            if len(self.cq) < self.cq_entries:
                self.cq.append(cqe)
            else:
                self.cq_backlog.append(cqe)
                self.overflow += 1
                overflowed = True
            self.completed += 1
        self.counters.inc("uring.completed")
        self.trace.emit("uring_complete", arg=cqe.res)
        if overflowed:
            self.counters.inc("uring.cq_overflow")
            self.trace.emit("uring_overflow", arg=cqe.user_data)
        self.wq.wake(EPOLLIN)

    def _process_ready(self) -> None:
        """Retry chains whose readiness fired (runs on a syscall thread)."""
        if not self._ready:
            return
        with self._process_lock:
            while True:
                with self._lock:
                    if not self._ready:
                        return
                    chain = self._ready.popleft()
                    chain.queued = False
                if self.closed or chain.done:
                    continue
                self._advance(chain)

    def cq_ready(self) -> int:
        self._process_ready()
        return len(self.cq) + len(self.cq_backlog)

    def reap(self, maxn: int) -> List[CQE]:
        """Pop up to ``maxn`` CQEs; backlogged overflow refills the ring.

        Reaping a gated multishot CQE re-queues its source chain: the
        guest has consumed the slot, so the op may post its next arrival.
        """
        self._process_ready()
        out: List[CQE] = []
        with self._lock:
            while len(out) < maxn and (self.cq or self.cq_backlog):
                cqe = (self.cq.popleft() if self.cq
                       else self.cq_backlog.popleft())
                out.append(cqe)
                src = cqe.src
                if src is not None and not src.done:
                    src.gate = False
                    if not src.queued:
                        src.queued = True
                        self._ready.append(src)
            while self.cq_backlog and len(self.cq) < self.cq_entries:
                self.cq.append(self.cq_backlog.popleft())
        return out

    @property
    def overflow_pending(self) -> bool:
        return bool(self.cq_backlog)

    def poll_events(self) -> int:
        self._process_ready()
        return EPOLLIN if (self.cq or self.cq_backlog) else 0

    # ------------------------------------------------------------------
    # SQPOLL plumbing
    # ------------------------------------------------------------------

    def sq_pending(self) -> int:
        """SQEs queued but not yet consumed (shared queue + guest ring)."""
        n = len(self.sq_queue)
        if self.sq_peek_hook is not None:
            n += self.sq_peek_hook()
        return n

    def sqpoll_drain(self, max_batch: int = 128) -> int:
        """Consume pending SQEs (guest ring first, then the kernel-level
        shared queue) and submit them on behalf of the ring's owner.
        Called by the poller — never by an ``enter`` crossing."""
        sqes: List[SQE] = []
        hook = self.sq_drain_hook
        if hook is not None:
            sqes.extend(hook(max_batch))
        while self.sq_queue and len(sqes) < max_batch:
            sqes.append(self.sq_queue.popleft())
        if not sqes:
            return 0
        self.counters.inc("uring.sqpoll_submitted", len(sqes))
        for i in range(0, len(sqes), self.sq_entries):
            try:
                self.submit(self.kernel, self.owner,
                            sqes[i:i + self.sq_entries])
            except KernelError:
                if self.closed:
                    break  # closed mid-drain: the ring is going away
                raise
        return len(sqes)

    def set_need_wakeup(self, value: bool) -> None:
        self.sq_need_wakeup = value
        hook = self.header_flags_hook
        if hook is not None:
            hook()  # mirror IORING_SQ_NEED_WAKEUP into the guest header

    def sqpoll_kick(self) -> None:
        """IORING_ENTER_SQ_WAKEUP: one crossing re-arms a parked poller."""
        self.counters.inc("uring.sqpoll_wakeups")
        self.trace.emit("uring_sqpoll_wake")
        self.set_need_wakeup(False)
        self.sq_wq.wake(EPOLLIN)

    def close(self) -> None:
        self.closed = True
        if self.sqpoll is not None:
            self.sqpoll.request_stop()
        with self._lock:
            for chain in self._chains:
                chain.done = True
                if chain.timer is not None:
                    chain.timer.cancel()
                    chain.timer = None
            chains, self._chains = self._chains, []
            self._ready.clear()
        for chain in chains:
            if chain.parked is not None:
                chain.parked.detach()
                chain.parked = None
        self.sq_wq.wake(EPOLLHUP)
        self.wq.wake(EPOLLHUP)


class SQPoller:
    """The SQPOLL submission poller: a kernel task draining the SQ ring.

    Modeled on Linux's ``iou-sqp`` kthread, scheduled like
    :class:`~repro.kernel.sched.BackgroundSpinners` drives its guests: a
    real kernel process (visible in ``/proc``, owning a
    :class:`SchedEntity`) whose host thread brackets every drain pass in
    ``syscall_enter``/``syscall_exit`` — so the poller *contends for CPU
    slots under CFS like any guest task* and is preempted at pass
    boundaries when it exhausts its slice.

    While work arrives the poller loops at full tilt (zero ``enter``
    crossings per submission).  After ``sq_thread_idle`` without work it
    publishes ``IORING_SQ_NEED_WAKEUP`` and parks; the guest notices the
    flag in the shared header and pays one
    ``io_uring_enter(IORING_ENTER_SQ_WAKEUP)`` crossing to re-kick it.
    """

    def __init__(self, kernel, ring: IoURing, idle_ms: float = 1.0,
                 batch: int = 128):
        self.kernel = kernel
        self.ring = ring
        self.idle_ns = max(int(idle_ms * 1e6), 1)
        self.batch = batch
        self.polls = 0
        self.proc = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def start(self) -> "SQPoller":
        self.proc = self.kernel.create_process(["iou-sqp"], stdio=False)
        self._thread = threading.Thread(
            target=self._run, name=f"iou-sqp-{self.proc.pid}", daemon=True)
        self._thread.start()
        return self

    def request_stop(self) -> None:
        """Ask the poller to exit (non-blocking; safe from ring.close)."""
        self._stop.set()
        self.ring.sq_wq.wake(EPOLLIN)

    def stop(self, timeout: float = 5.0) -> None:
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    @property
    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _run(self) -> None:
        kern, ring, proc = self.kernel, self.ring, self.proc
        sched = kern.sched
        counters = ring.counters
        # wake on submissions (kicks) and on completions (to flush CQEs
        # into the guest ring without waiting out the doze)
        ring.sq_wq.subscribe(proc.kick)
        ring.wq.subscribe(proc.kick)
        idle_since: Optional[int] = None
        try:
            while not self._stop.is_set() and not ring.closed:
                sched.syscall_enter(proc)  # contend for a CPU slot
                try:
                    n = ring.sqpoll_drain(self.batch)
                    ring.cq_ready()  # run completions for woken chains
                    if ring.cq_flush_hook is not None:
                        ring.cq_flush_hook()
                finally:
                    sched.syscall_exit(proc)
                self.polls += 1
                counters.inc("uring.sqpoll_polls")
                if n:
                    idle_since = None
                    continue
                now = _time.monotonic_ns()
                if idle_since is None:
                    idle_since = now
                if now - idle_since < self.idle_ns:
                    # inside the idle window: brief doze, stay armed
                    sched.sleep(proc, _SQPOLL_DOZE_S)
                    continue
                # sq_thread_idle elapsed: publish NEED_WAKEUP and park.
                # Re-check for work *after* raising the flag — a guest
                # that queued just before the flag went up saw it clear
                # and will not kick, so we must not sleep on its SQEs.
                ring.set_need_wakeup(True)
                counters.inc("uring.sqpoll_idles")
                ring.trace.emit("uring_sqpoll_park", pid=proc.pid,
                                arg=self.polls)
                if ring.sq_pending() == 0 and not self._stop.is_set() \
                        and not ring.closed:
                    sched.sleep(proc, _SQPOLL_PARK_S)
                ring.set_need_wakeup(False)
                idle_since = None
        finally:
            ring.sq_wq.unsubscribe(proc.kick)
            ring.wq.unsubscribe(proc.kick)
            try:
                kern.call(proc, "exit", 0)
            except Exception:
                pass


def _split_chains(sqes: List[SQE]) -> List[List[SQE]]:
    """Group a submission batch into IOSQE_IO_LINK chains."""
    chains: List[List[SQE]] = []
    current: List[SQE] = []
    for sqe in sqes:
        current.append(sqe)
        if not (sqe.flags & IOSQE_IO_LINK):
            chains.append(current)
            current = []
    if current:
        chains.append(current)  # a trailing link flag ends its chain
    return chains
