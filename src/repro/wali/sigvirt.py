"""Virtual signal handling: the engine side of §3.3.

The kernel generates signals (pending bit-vector + queue per process); this
layer owns the **virtual sigtable** mapping each signal to a guest funcref,
and delivers at safepoints: the machine's ``poll`` hook drains deliverable
pending signals and *re-enters* the guest to run handlers.

Delivery guarantees implemented here (per the paper):

* blocked signals stay pending until unmasked — the host ``rt_sigprocmask``
  wrapper polls immediately after unblocking, so signals unblocked inside a
  critical section run before guest code resumes;
* unless SA_NODEFER, the signal is masked during its own handler (nested
  identical signals are deferred via the mask, using a stack of saved masks);
* SIG_IGN drops, SIG_DFL performs the kernel default action (terminate /
  ignore); SIGKILL/SIGSTOP never reach guest handlers.
"""

from __future__ import annotations


from ..kernel.errno import EINVAL, KernelError
from ..kernel.process import Process
from ..kernel.signals import (
    DFL_CONT, DFL_IGN, DFL_STOP, SA_NODEFER, SIG_DFL, SIG_IGN, SIGKILL,
    SIGSTOP, SigAction, default_action, sig_bit,
)
from ..wasm.errors import GuestExit, TrapIndirectCall


class VirtualSigTable:
    """Engine-resident signal state for one WALI process (<1 KiB, §3.3)."""

    def __init__(self, proc: Process):
        self.proc = proc
        # deferral stack: masks saved while handlers run
        self._mask_stack: list = []
        self.delivered_count = 0
        self.handler_depth = 0

    # ---- registration (step 1) ----

    def register(self, sig: int, handler_token: int, flags: int,
                 mask: int) -> SigAction:
        """Record the guest funcref for ``sig``; returns the old action.

        The kernel-side disposition stores the token so fork/exec semantics
        (inheritance, reset-on-exec) come from the kernel for free.
        """
        new = SigAction(handler=handler_token, mask=mask, flags=flags)
        if sig in (SIGKILL, SIGSTOP):
            raise KernelError(EINVAL, "cannot catch SIGKILL/SIGSTOP")
        return self.proc.dispositions.set(sig, new)

    def current(self, sig: int) -> SigAction:
        return self.proc.dispositions.get(sig)

    # ---- delivery + handler execution (steps 3-4) ----

    def make_poll_hook(self, machine, table):
        """Build the safepoint hook for ``machine`` (§3.3 ``sig_poll``).

        ``table`` is the instance funcref table used to resolve handler
        tokens; resolution happens at delivery time so re-registration in a
        handler takes effect immediately.  The machine's poll gate is
        ``proc.pending``, so safepoints call the hook only while some
        signal is pending.
        """
        proc = self.proc

        def poll():
            # fast path, in this frame: nothing pending and unblocked
            if not proc.pending.bits & ~proc.blocked_mask:
                return
            self.drain(machine, table)

        return poll

    def drain(self, machine, table) -> None:
        while True:
            sig = self.proc.pending.take(self.proc.blocked_mask)
            if sig is None:
                return
            self.deliver_one(machine, table, sig)

    def deliver_one(self, machine, table, sig: int) -> None:
        proc = self.proc
        act = proc.dispositions.get(sig)
        handler = act.handler
        if handler == SIG_IGN:
            return
        if handler == SIG_DFL:
            self._default_action(sig)
            return
        # guest handler: resolve funcref and re-enter the machine
        if table is None or handler >= len(table.elems) or \
                table.elems[handler] is None:
            raise TrapIndirectCall(f"signal {sig}: bad handler funcref "
                                   f"{handler}")
        func = table.elems[handler]
        saved_mask = proc.blocked_mask
        self._mask_stack.append(saved_mask)
        proc.blocked_mask |= act.mask
        if not act.flags & SA_NODEFER:
            proc.blocked_mask |= sig_bit(sig)
        self.handler_depth += 1
        try:
            machine.reenter(func, [sig])
            self.delivered_count += 1
        finally:
            self.handler_depth -= 1
            proc.blocked_mask = self._mask_stack.pop()

    def _default_action(self, sig: int) -> None:
        action = default_action(sig)
        if action in (DFL_IGN, DFL_CONT):
            return
        if action == DFL_STOP:
            return  # job control stop is a no-op in this model
        # DFL_TERM / DFL_CORE: terminate the guest like the kernel would
        raise GuestExit(128 + sig)
