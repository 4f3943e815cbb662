"""Signal syscalls: registration, masking, suspension.

Handler execution lives in the WALI layer (§3.3 step 4); here the kernel
stores dispositions (opaque handler tokens), manages pending state, and
implements the mask algebra.
"""

from __future__ import annotations

from typing import Optional

from ..errno import EAGAIN, EINVAL, EPERM, KernelError
from ..process import Process
from ..signals import (
    SIG_BLOCK, SIG_SETMASK, SIG_UNBLOCK, SIGKILL, SIGSTOP, SigAction,
    check_signum, sig_bit,
)


class SigCalls:
    """Mixin with signal syscalls; mixed into :class:`Kernel`."""

    def sys_rt_sigaction(self, proc: Process, sig: int,
                         new_action: Optional[SigAction]) -> SigAction:
        check_signum(sig)
        if sig in (SIGKILL, SIGSTOP) and new_action is not None:
            raise KernelError(EINVAL, "cannot catch SIGKILL/SIGSTOP")
        if new_action is None:
            return proc.dispositions.get(sig)
        return proc.dispositions.set(sig, new_action)

    def sys_rt_sigprocmask(self, proc: Process, how: int,
                           new_mask: Optional[int]) -> int:
        old = proc.blocked_mask
        if new_mask is not None:
            never_blockable = sig_bit(SIGKILL) | sig_bit(SIGSTOP)
            new_mask &= ~never_blockable
            if how == SIG_BLOCK:
                proc.blocked_mask |= new_mask
            elif how == SIG_UNBLOCK:
                proc.blocked_mask &= ~new_mask
            elif how == SIG_SETMASK:
                proc.blocked_mask = new_mask
            else:
                raise KernelError(EINVAL, f"how {how}")
        return old

    def sys_rt_sigpending(self, proc: Process) -> int:
        return proc.pending.bits

    def sys_rt_sigsuspend(self, proc: Process, mask: int) -> int:
        """Replace the mask and sleep until a deliverable signal arrives;
        always returns EINTR (via the blocking machinery)."""
        saved = proc.blocked_mask
        proc.blocked_mask = mask & ~(sig_bit(SIGKILL) | sig_bit(SIGSTOP))
        try:
            self.wait_event(proc, lambda: None)  # only a signal wakes us
        finally:
            proc.blocked_mask = saved
        return 0  # unreachable: wait_event raises EINTR on signal

    def sys_pause(self, proc: Process) -> int:
        self.wait_event(proc, lambda: None)
        return 0  # unreachable

    def sys_sigaltstack(self, proc: Process, ss=None) -> int:
        # Wasm guests have a virtualised stack; altstacks are meaningless
        # but the call must succeed for libc initialisation.
        return 0

    def sys_rt_sigreturn(self, proc: Process) -> int:
        """§3.6 pitfall 4: sigreturn is an attack gadget (SROP); WALI manages
        handler frames inside the engine, so a direct call is prohibited."""
        raise KernelError(EPERM, "sigreturn is engine-managed under WALI")

    def sys_rt_sigtimedwait(self, proc: Process, setmask: int,
                            timeout_ns: Optional[int] = None) -> int:
        def scan():
            for i, sig in enumerate(proc.pending.queue):
                if setmask & sig_bit(sig):
                    del proc.pending.queue[i]
                    proc.pending.bits &= ~sig_bit(sig)
                    return sig
            return None

        sig = self.wait_event(proc, scan, timeout_ns=timeout_ns)
        if sig is None:
            raise KernelError(EAGAIN, "sigtimedwait timeout")
        return sig
