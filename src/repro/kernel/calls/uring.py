"""io_uring syscalls: setup, batched enter, registration.

These sit on :mod:`repro.kernel.uring`: one ``io_uring_enter`` call
submits a whole batch of operations and (optionally) blocks until a
minimum number of completions is available — the batched alternative to
one kernel crossing per ``read``/``write``/``accept``.  A ring set up
with ``IORING_SETUP_SQPOLL`` additionally gets a kernel-side submission
poller, so a loaded guest submits with *zero* enter crossings and only
pays one ``IORING_ENTER_SQ_WAKEUP`` crossing to revive an idled poller.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errno import EINVAL, KernelError
from ..fdtable import OpenFile
from ..process import Process
from ..uring import (
    CQE, IORING_ENTER_SQ_WAKEUP, IORING_REGISTER_BUFFERS,
    IORING_REGISTER_RING, IORING_SETUP_SQPOLL, IoURing, SQE, SQPoller,
)
from ..vfs import O_RDWR


class URingCalls:
    """Mixin with io_uring syscalls; mixed into :class:`Kernel`."""

    def sys_io_uring_setup(self, proc: Process, entries: int,
                           flags: int = 0,
                           sq_thread_idle_ms: Optional[float] = None) -> int:
        ring = IoURing(entries, trace=self.trace, setup_flags=flags)
        ring.kernel = self
        ring.owner = proc  # SQPOLL submissions resolve fds in this table
        file = OpenFile(O_RDWR, obj=ring,
                        path="anon_inode:[io_uring]")
        fd = proc.fdtable.install(file)
        if flags & IORING_SETUP_SQPOLL:
            idle = sq_thread_idle_ms if sq_thread_idle_ms else 1.0
            ring.sqpoll = SQPoller(self, ring, idle_ms=idle).start()
        return fd

    def sys_io_uring_enter(self, proc: Process, fd: int,
                           sqes: Sequence[SQE] = (),
                           min_complete: int = 0,
                           timeout_ns: Optional[int] = None,
                           max_cqes: Optional[int] = None,
                           flags: int = 0,
                           ) -> Tuple[int, List[CQE]]:
        """Submit ``sqes``, wait for ``min_complete`` completions, reap.

        Returns ``(submitted, cqes)`` with at most ``max_cqes`` entries
        reaped (default: the CQ ring size).  A timeout returns whatever
        completed; a deliverable signal interrupts with ``EINTR``.
        """
        ring = proc.fdtable.get_obj(fd, IoURing)
        if min_complete > ring.cq_entries:
            # Linux's bound: more completions than the CQ ring can hold
            # can never arrive in one wait — reject instead of hanging
            raise KernelError(
                EINVAL, f"min_complete {min_complete} exceeds the CQ ring "
                        f"({ring.cq_entries} entries)")
        if flags & IORING_ENTER_SQ_WAKEUP:
            ring.sqpoll_kick()
        submitted = ring.submit(self, proc, list(sqes)) if sqes else 0

        def _avail() -> int:
            # kernel-side first, then guest-published: a CQE moving from
            # the kernel CQ into the guest ring (SQPOLL flush) is counted
            # on whichever side it lands — never missed in between
            n = ring.cq_ready()
            hook = ring.cq_avail_hook
            if hook is not None:
                n += hook()
            return n

        if min_complete > 0 and _avail() < min_complete:
            self.wait_event(
                proc, lambda: True if _avail() >= min_complete else None,
                (ring.wq,), timeout_ns)
        limit = ring.cq_entries if max_cqes is None else max(0, max_cqes)
        return submitted, ring.reap(limit)

    def sys_io_uring_register(self, proc: Process, fd: int, opcode: int,
                              value=0, nr_args: int = 0) -> int:
        ring = proc.fdtable.get_obj(fd, IoURing)
        if opcode == IORING_REGISTER_RING:
            ring.registrations[opcode] = value
            return 0
        if opcode == IORING_REGISTER_BUFFERS:
            # value: sequence of (addr, len) — the WALI host decodes and
            # bounds-checks the guest iovec table before calling down
            return ring.register_buffers(value)
        # unsupported registrations must fail loudly so guests can
        # fall back, not silently believe they took effect
        raise KernelError(EINVAL, f"io_uring_register opcode {opcode}")
