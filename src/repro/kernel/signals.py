"""Signal machinery: numbers, dispositions, pending state, masks, signalfd.

The kernel side of the paper's §3.3: generation marks a signal pending on the
target process (bit-vector + queue); delivery happens when the WALI engine
polls at a safepoint and the signal is not blocked by the thread mask.

:class:`SignalFD` is the file-descriptor front-end (``signalfd4``): it
drains pending signals that fall inside its mask as ``signalfd_siginfo``
records, and publishes readiness on a waitqueue so signal arrival flows
through ``epoll_pwait``/``ppoll``/``io_uring`` like any other event
source — the synchronous alternative to sigvirt's safepoint delivery.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from .errno import EAGAIN, EINVAL, KernelError
from .eventpoll import EPOLLHUP, EPOLLIN, FileOps, WaitQueue

# signal numbers (x86-64/generic)
SIGHUP = 1
SIGINT = 2
SIGQUIT = 3
SIGILL = 4
SIGTRAP = 5
SIGABRT = 6
SIGBUS = 7
SIGFPE = 8
SIGKILL = 9
SIGUSR1 = 10
SIGSEGV = 11
SIGUSR2 = 12
SIGPIPE = 13
SIGALRM = 14
SIGTERM = 15
SIGSTKFLT = 16
SIGCHLD = 17
SIGCONT = 18
SIGSTOP = 19
SIGTSTP = 20
SIGTTIN = 21
SIGTTOU = 22
SIGURG = 23
SIGXCPU = 24
SIGXFSZ = 25
SIGVTALRM = 26
SIGPROF = 27
SIGWINCH = 28
SIGIO = 29
SIGPWR = 30
SIGSYS = 31
NSIG = 64

SIGNAL_NAMES = {
    v: k for k, v in list(globals().items())
    if k.startswith("SIG") and not k.startswith("SIG_") and isinstance(v, int)
}

# sigaction special handler values
SIG_DFL = 0
SIG_IGN = 1
SIG_ERR = -1

# sa_flags
SA_NOCLDSTOP = 0x00000001
SA_NOCLDWAIT = 0x00000002
SA_SIGINFO = 0x00000004
SA_RESTART = 0x10000000
SA_NODEFER = 0x40000000
SA_RESETHAND = 0x80000000
SA_RESTORER = 0x04000000

# rt_sigprocmask how
SIG_BLOCK = 0
SIG_UNBLOCK = 1
SIG_SETMASK = 2

# default dispositions
DFL_TERM = "terminate"
DFL_IGN = "ignore"
DFL_CORE = "core"
DFL_STOP = "stop"
DFL_CONT = "continue"

_DEFAULTS = {
    SIGCHLD: DFL_IGN, SIGURG: DFL_IGN, SIGWINCH: DFL_IGN, SIGCONT: DFL_CONT,
    SIGSTOP: DFL_STOP, SIGTSTP: DFL_STOP, SIGTTIN: DFL_STOP, SIGTTOU: DFL_STOP,
    SIGQUIT: DFL_CORE, SIGILL: DFL_CORE, SIGABRT: DFL_CORE, SIGFPE: DFL_CORE,
    SIGSEGV: DFL_CORE, SIGBUS: DFL_CORE, SIGSYS: DFL_CORE, SIGTRAP: DFL_CORE,
    SIGXCPU: DFL_CORE, SIGXFSZ: DFL_CORE,
}


def default_action(sig: int) -> str:
    return _DEFAULTS.get(sig, DFL_TERM)


def sig_bit(sig: int) -> int:
    return 1 << (sig - 1)


def check_signum(sig: int) -> None:
    if sig < 1 or sig > NSIG:
        raise KernelError(EINVAL, f"signal {sig}")


class SigAction:
    """One registered disposition (kernel view: an opaque handler token)."""

    __slots__ = ("handler", "mask", "flags")

    def __init__(self, handler: int = SIG_DFL, mask: int = 0, flags: int = 0):
        self.handler = handler  # SIG_DFL / SIG_IGN / guest funcref token
        self.mask = mask
        self.flags = flags

    def copy(self) -> "SigAction":
        return SigAction(self.handler, self.mask, self.flags)


class SigDispositions:
    """The sigaction table, shared by CLONE_SIGHAND threads."""

    def __init__(self):
        self.actions: Dict[int, SigAction] = {}

    def get(self, sig: int) -> SigAction:
        act = self.actions.get(sig)
        return act if act is not None else SigAction()

    def set(self, sig: int, act: SigAction) -> SigAction:
        old = self.get(sig)
        self.actions[sig] = act
        return old

    def reset_on_exec(self) -> None:
        """execve resets caught signals to default; ignored stay ignored."""
        for sig, act in list(self.actions.items()):
            if act.handler not in (SIG_DFL, SIG_IGN):
                self.actions[sig] = SigAction(SIG_DFL)

    def copy(self) -> "SigDispositions":
        d = SigDispositions()
        d.actions = {s: a.copy() for s, a in self.actions.items()}
        return d


class PendingSignals:
    """Per-process pending set: bit-vector + FIFO queue (§3.3 step 2)."""

    def __init__(self):
        self.bits = 0
        self.queue: List[int] = []
        # sender bookkeeping for siginfo consumers (signalfd): sig ->
        # (pid, uid) of the most recent generator
        self.info: Dict[int, Tuple[int, int]] = {}

    def generate(self, sig: int, sender_pid: int = 0,
                 sender_uid: int = 0) -> None:
        if not self.bits & sig_bit(sig):
            # merged standard signals keep the *first* generator's
            # identity (later senders coalesce into the pending bit)
            self.info[sig] = (sender_pid, sender_uid)
            self.bits |= sig_bit(sig)
            self.queue.append(sig)

    def take(self, blocked_mask: int) -> Optional[int]:
        """Pop the first pending signal not blocked, or None."""
        return self.take_in(~blocked_mask)

    def take_in(self, accept_mask: int) -> Optional[int]:
        """Pop the first pending signal whose bit is in ``accept_mask``."""
        for i, sig in enumerate(self.queue):
            if accept_mask & sig_bit(sig):
                del self.queue[i]
                self.bits &= ~sig_bit(sig)
                return sig
        return None

    def any_deliverable(self, blocked_mask: int) -> bool:
        return bool(self.bits & ~blocked_mask)

    def clear(self) -> None:
        self.bits = 0
        self.queue.clear()

    def copy(self) -> "PendingSignals":
        p = PendingSignals()
        p.bits = self.bits
        p.queue = list(self.queue)
        p.info = dict(self.info)
        return p


# ---------------------------------------------------------------------------
# signalfd: the fd front-end over the pending set
# ---------------------------------------------------------------------------

# signalfd4 flags (mirror O_NONBLOCK / O_CLOEXEC like Linux)
SFD_CLOEXEC = 0o2000000
SFD_NONBLOCK = 0o0004000

SIGNALFD_SIGINFO_SIZE = 128  # sizeof(struct signalfd_siginfo)

SI_USER = 0  # ssi_code: sent by kill()


def encode_siginfo(signo: int, code: int = SI_USER, pid: int = 0,
                   uid: int = 0) -> bytes:
    """One ``signalfd_siginfo`` wire record (leading fields + zero pad):
    ``{u32 ssi_signo, i32 ssi_errno, i32 ssi_code, u32 ssi_pid,
    u32 ssi_uid, ...}`` padded to 128 bytes."""
    return struct.pack("<IiiII", signo, 0, code, pid, uid).ljust(
        SIGNALFD_SIGINFO_SIZE, b"\x00")


def decode_siginfo(data: bytes) -> Tuple[int, int, int, int]:
    """``(signo, code, pid, uid)`` from one siginfo record."""
    signo, _errno, code, pid, uid = struct.unpack_from("<IiiII", data)
    return signo, code, pid, uid


class SignalFD(FileOps):
    """The signalfd object: reads drain pending signals in its mask.

    The caller blocks the signals it hands to a signalfd (the standard
    usage), so default delivery does not race the fd; reads then consume
    them from the pending queue as ``signalfd_siginfo`` records.  Signal
    generation wakes the waitqueue, so the fd is epollable like every
    other readiness source.
    """

    seekable = True

    def __init__(self, proc, mask: int):
        self.proc = proc
        self.mask = self._sanitize(mask)
        self.wq = WaitQueue()
        proc.signalfds.append(self)

    @staticmethod
    def _sanitize(mask: int) -> int:
        # SIGKILL/SIGSTOP are silently ignored in the mask, like Linux
        return mask & ~(sig_bit(SIGKILL) | sig_bit(SIGSTOP))

    def set_mask(self, mask: int) -> None:
        self.mask = self._sanitize(mask)
        if self.proc.pending.bits & self.mask:
            self.wq.wake(EPOLLIN)

    def signal_generated(self, sig: int) -> None:
        if sig_bit(sig) & self.mask:
            self.wq.wake(EPOLLIN)

    def read_step(self, length: int) -> bytes:
        if length < SIGNALFD_SIGINFO_SIZE:
            raise KernelError(EINVAL, "buffer smaller than siginfo")
        out = bytearray()
        while len(out) + SIGNALFD_SIGINFO_SIZE <= length:
            sig = self.proc.pending.take_in(self.mask)
            if sig is None:
                break
            pid, uid = self.proc.pending.info.get(sig, (0, 0))
            out += encode_siginfo(sig, SI_USER, pid, uid)
        if not out:
            raise KernelError(EAGAIN, "no signals pending in the mask")
        return bytes(out)

    def poll_events(self) -> int:
        return EPOLLIN if self.proc.pending.bits & self.mask else 0

    def close(self) -> None:
        try:
            self.proc.signalfds.remove(self)
        except ValueError:
            pass
        self.wq.wake(EPOLLHUP)
