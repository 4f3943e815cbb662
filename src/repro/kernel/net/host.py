"""Host backend: the guest's socket syscalls hit real host sockets.

Maps the :class:`~.base.NetBackend` API onto Python's :mod:`socket`
module, so a WALI guest can talk to processes *outside* the simulated
kernel (or to another kernel instance on the same host).  Readiness is
**epoll-native**: every live host socket is registered with a real
:mod:`selectors` selector (epoll on Linux) and a single poller thread
blocks in ``select`` — a host readiness edge wakes the corresponding
:class:`~..eventpoll.WaitQueue` immediately, with no fixed polling
cadence in the path (the old bridge re-scanned every 5 ms).

The registration follows the edge-triggered re-arm discipline: a fired
interest (``EPOLLIN``/``EPOLLOUT``) is disarmed when it wakes the
waitqueue, and re-armed when a consumer actually blocks — i.e. when a
``recv``/``send``/``accept`` step raises ``EAGAIN`` — so a socket that
stays readable or writable costs nothing while nobody is waiting on it.

**Opt-in only**: constructing this backend raises ``EPERM`` unless the
caller passes ``optin=1`` in the backend spec (``--net host:optin=1``)
or sets ``REPRO_NET_HOST=1`` in the environment.  CI and the test suite
stay hermetic by default; nothing in this repository reaches the real
network unless explicitly asked to.
"""

from __future__ import annotations

import os
import select as _select
import selectors as _selectors
import socket as _hostsocket
import threading
import time as _time
from collections import deque
from typing import Optional, Tuple

from ..errno import (
    EAGAIN, ECONNREFUSED, ECONNRESET, EINVAL, ENOTCONN, EOPNOTSUPP, EPERM,
    EPIPE, ETIMEDOUT, KernelError,
)
from ..eventpoll import (
    EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, FileOps, WaitQueue,
)
from .base import AF_INET, NetBackend, SOCK_DGRAM, SOCK_STREAM

# selector safety-net timeout: correctness never depends on it (arming
# and teardown are wake-pipe driven), it only bounds a lost-wakeup stall
_SELECT_TIMEOUT_S = 1.0


def _map_oserror(exc: OSError, fallback: int) -> KernelError:
    return KernelError(exc.errno if exc.errno else fallback,
                       str(exc))


class _HostOpts(dict):
    """Socket-option store that forwards to the real socket.

    ``sys_setsockopt`` writes ``(level, optname) -> value`` into
    ``sock.opts``; on the host backend the option must actually reach
    the wire.  The numeric levels/options in :mod:`..net.base` are the
    Linux values, so they pass straight through; options the host
    rejects stay visible to ``getsockopt`` but are otherwise inert.
    """

    def __init__(self, hs: _hostsocket.socket):
        super().__init__()
        self._hs = hs

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        try:
            level, optname = key
            self._hs.setsockopt(level, optname, value)
        except (OSError, TypeError, ValueError):
            pass


class _ArmingWaitQueue(WaitQueue):
    """A waitqueue that arms the selector interest on subscribe.

    Consumers that wait for readiness *without* first taking an EAGAIN —
    ``epoll_ctl`` registration, ``ppoll``/``pselect6`` notifiers — attach
    here; subscribing arms both directions so the next host edge reaches
    them.  (I/O steps re-arm through ``want()`` on EAGAIN as usual.)
    """

    __slots__ = ("_sock",)

    def __init__(self, sock: "HostSocket"):
        super().__init__()
        self._sock = sock

    def subscribe(self, callback) -> None:
        super().subscribe(callback)
        sock = self._sock
        if sock.state != HostSocket.ST_CLOSED:
            sock.stack.want(sock, EPOLLIN | EPOLLOUT)


class HostSocket(FileOps):
    """One real host socket behind the kernel's socket-object surface."""

    ST_NEW = "new"
    ST_BOUND = "bound"
    ST_LISTENING = "listening"
    ST_CONNECTED = "connected"
    ST_CLOSED = "closed"

    def __init__(self, backend: "HostBackend", family: int, type_: int,
                 hs: Optional[_hostsocket.socket] = None):
        self.stack = backend
        self.family = family
        self.type = type_
        self.state = self.ST_NEW
        self.addr: Optional[Tuple] = None
        self.peer_addr: Optional[Tuple] = None
        self.wq = _ArmingWaitQueue(self)
        if hs is None:
            kind = _hostsocket.SOCK_STREAM if type_ == SOCK_STREAM \
                else _hostsocket.SOCK_DGRAM
            hs = _hostsocket.socket(_hostsocket.AF_INET, kind)
            if type_ == SOCK_STREAM:
                # test servers rebind fast; mirror the common daemon setup
                hs.setsockopt(_hostsocket.SOL_SOCKET,
                              _hostsocket.SO_REUSEADDR, 1)
        self.hs = hs
        self.hs.setblocking(False)
        self.opts = _HostOpts(hs)
        backend._register(self)

    def fileno(self) -> int:
        return self.hs.fileno()

    @property
    def rbuf(self) -> bytes:
        return b""  # FIONREAD on host sockets reports 0 (kernel-side view)

    # ---- data path ----

    def recv_step(self, length: int) -> bytes:
        try:
            return self.hs.recv(length)
        except BlockingIOError:
            # ET re-arm: someone is about to block on readability
            self.stack.want(self, EPOLLIN)
            raise KernelError(EAGAIN, "host socket would block")
        except ConnectionResetError as exc:
            raise _map_oserror(exc, ECONNRESET)
        except OSError as exc:
            raise _map_oserror(exc, ENOTCONN)

    def send_step(self, data: bytes) -> int:
        try:
            return self.hs.send(bytes(data))
        except BlockingIOError:
            self.stack.want(self, EPOLLOUT)
            raise KernelError(EAGAIN, "host socket would block")
        except BrokenPipeError as exc:
            raise _map_oserror(exc, EPIPE)
        except OSError as exc:
            raise _map_oserror(exc, EPIPE)

    read_step = recv_step
    write_step = send_step

    def poll_events(self) -> int:
        if self.state == self.ST_CLOSED:
            return EPOLLIN | EPOLLHUP
        try:
            r, w, x = _select.select([self.hs], [self.hs], [self.hs], 0)
        except (OSError, ValueError):
            return EPOLLERR | EPOLLHUP
        mask = 0
        if r:
            mask |= EPOLLIN
        if w and self.state != self.ST_LISTENING:
            mask |= EPOLLOUT
        if x:
            mask |= EPOLLERR
        # a prober that found a direction not-ready is waiting for its
        # next rising edge: re-arm that selector interest (epoll/ppoll
        # watchers never take the EAGAIN path that usually re-arms)
        missing = (EPOLLIN | EPOLLOUT) & ~mask
        if missing:
            self.stack.want(self, missing)
        return mask

    # ---- lifecycle ----

    def shutdown(self, how: int) -> None:
        try:
            self.hs.shutdown(how)  # SHUT_* values match the host's
        except OSError as exc:
            raise _map_oserror(exc, ENOTCONN)

    def close(self) -> None:
        if self.state == self.ST_CLOSED:
            return
        self.state = self.ST_CLOSED
        self.stack.unregister(self)
        try:
            self.hs.close()
        except OSError:
            pass
        self.wq.wake(EPOLLIN | EPOLLOUT | EPOLLHUP)


class HostBackend(NetBackend):
    """Real host sockets behind the backend API (opt-in)."""

    name = "host"

    def __init__(self, opt_in: bool = False, bind_host: str = "127.0.0.1"):
        if not opt_in and not os.environ.get("REPRO_NET_HOST"):
            raise KernelError(
                EPERM, "host net backend is opt-in: pass --net host:optin=1 "
                       "or set REPRO_NET_HOST=1")
        super().__init__()
        self.bind_host = bind_host
        self._lock = threading.Lock()
        self._poller: Optional[threading.Thread] = None
        # interest changes posted to the poller: ("arm", sock, mask) /
        # ("drop", sock, 0); the wake pipe interrupts a blocked select
        self._ops: deque = deque()
        self._wake_w: Optional[int] = None

    # -- selector plumbing: host readiness straight into waitqueues --

    def _post(self, op: str, sock: HostSocket, mask: int) -> None:
        with self._lock:
            self._ops.append((op, sock, mask))
            if self._poller is None:
                wake_r, wake_w = os.pipe()
                os.set_blocking(wake_w, False)
                self._wake_w = wake_w
                self._poller = threading.Thread(
                    target=self._poll_loop, args=(wake_r, wake_w),
                    daemon=True, name="host-net-selector")
                self._poller.start()
                return
            # write while still holding the lock: retirement nulls and
            # closes the pipe under this same lock, so the fd can never
            # be closed (and its number recycled) out from under us
            if self._wake_w is not None:
                try:
                    os.write(self._wake_w, b"\x00")
                except (OSError, BlockingIOError):
                    pass  # pipe full: a wake is already pending

    def _register(self, sock: HostSocket) -> None:
        # fresh sockets arm both directions; fired interests re-arm via
        # want() when a consumer's I/O step hits EAGAIN
        self._post("arm", sock, EPOLLIN | EPOLLOUT)

    def unregister(self, sock) -> None:
        self._post("drop", sock, 0)

    def want(self, sock: HostSocket, mask: int) -> None:
        """Re-arm an interest: a consumer is about to block on ``mask``."""
        self._post("arm", sock, mask)

    @staticmethod
    def _set_interest(sel, interest, sock, mask, forget=False) -> None:
        """Update one socket's armed mask.  A disarmed socket (mask 0)
        stays in ``interest`` — it is still *known*, so the poller keeps
        running for it — until an explicit drop (``forget``) removes it;
        retiring on mere disarm would churn a thread + pipe per blocking
        cycle of steady request/response traffic."""
        was_registered = interest.get(sock, 0) != 0
        events = 0
        if mask & EPOLLIN:
            events |= _selectors.EVENT_READ
        if mask & EPOLLOUT and sock.state != HostSocket.ST_LISTENING:
            events |= _selectors.EVENT_WRITE
        try:
            if was_registered:
                if events:
                    sel.modify(sock, events, data=sock)
                else:
                    sel.unregister(sock)
            elif events:
                sel.register(sock, events, data=sock)
            if forget:
                interest.pop(sock, None)
            else:
                interest[sock] = mask if events else 0
        except (OSError, ValueError, KeyError):
            interest.pop(sock, None)

    def _poll_loop(self, wake_r: int, wake_w: int) -> None:
        sel = _selectors.DefaultSelector()
        sel.register(wake_r, _selectors.EVENT_READ, data=None)
        interest = {}  # sock -> armed EPOLL* mask
        try:
            while True:
                while True:
                    with self._lock:
                        if not self._ops:
                            break
                        op, sock, mask = self._ops.popleft()
                    if op == "drop" or sock.state == HostSocket.ST_CLOSED:
                        self._set_interest(sel, interest, sock, 0,
                                           forget=True)
                    else:
                        self._set_interest(sel, interest, sock,
                                           interest.get(sock, 0) | mask)
                with self._lock:
                    if not interest and not self._ops:
                        # last socket gone: retire; the next register
                        # starts a fresh poller (and a fresh pipe).  The
                        # pipe closes under the lock so no _post writer
                        # can race the close with a recycled fd number.
                        self._poller = None
                        self._wake_w = None
                        for fd in (wake_r, wake_w):
                            try:
                                os.close(fd)
                            except OSError:
                                pass
                        wake_r = wake_w = -1
                        return
                try:
                    events = sel.select(timeout=_SELECT_TIMEOUT_S)
                except (OSError, ValueError):
                    _time.sleep(0.001)
                    continue
                for key, ev in events:
                    if key.data is None:  # wake pipe: drain and re-loop
                        try:
                            os.read(wake_r, 4096)
                        except OSError:
                            pass
                        continue
                    sock = key.data
                    fired = 0
                    if ev & _selectors.EVENT_READ:
                        fired |= EPOLLIN
                    if ev & _selectors.EVENT_WRITE:
                        fired |= EPOLLOUT
                    # ET discipline: disarm what fired (consumers re-arm
                    # through want() when they block again), then wake
                    self._set_interest(sel, interest, sock,
                                       interest.get(sock, 0) & ~fired)
                    sock.wq.wake(fired)
        finally:
            try:
                sel.close()
            except OSError:
                pass
            # exceptional exit only (normal retirement already closed
            # the pipe under the lock and set both fds to -1)
            with self._lock:
                if self._poller is threading.current_thread():
                    self._poller = None  # let a future register respawn
                for fd in (wake_r, wake_w):
                    if fd >= 0:
                        if self._wake_w == fd:
                            self._wake_w = None
                        try:
                            os.close(fd)
                        except OSError:
                            pass

    # -- namespace / lifecycle --

    def socket(self, family: int, type_: int) -> HostSocket:
        if family != AF_INET:
            raise KernelError(EINVAL,
                              f"host backend supports AF_INET only "
                              f"(family {family})")
        base_type = type_ & 0xFF
        if base_type not in (SOCK_STREAM, SOCK_DGRAM):
            raise KernelError(EINVAL, f"type {type_}")
        return HostSocket(self, family, base_type)

    def bind(self, sock: HostSocket, addr: Tuple) -> None:
        host, port = addr[0] or self.bind_host, addr[1]
        try:
            sock.hs.bind((host, port))
        except OSError as exc:
            raise _map_oserror(exc, EINVAL)
        sock.addr = sock.hs.getsockname()
        sock.state = HostSocket.ST_BOUND

    def listen(self, sock: HostSocket, backlog: int) -> None:
        if sock.type != SOCK_STREAM:
            raise KernelError(EOPNOTSUPP)
        try:
            sock.hs.listen(max(backlog, 1))
        except OSError as exc:
            raise _map_oserror(exc, EINVAL)
        sock.state = HostSocket.ST_LISTENING

    def connect(self, sock: HostSocket, addr: Tuple) -> None:
        if sock.type == SOCK_DGRAM:
            sock.peer_addr = tuple(addr)
            return
        try:
            # a short blocking connect keeps sys_connect's synchronous
            # contract (the simulated backends connect instantly too)
            sock.hs.setblocking(True)
            sock.hs.settimeout(5.0)
            sock.hs.connect(tuple(addr))
        except _hostsocket.timeout as exc:
            raise _map_oserror(exc, ETIMEDOUT)
        except ConnectionRefusedError as exc:
            raise _map_oserror(exc, ECONNREFUSED)
        except OSError as exc:
            raise _map_oserror(exc, ECONNREFUSED)
        finally:
            sock.hs.setblocking(False)
        sock.peer_addr = sock.hs.getpeername()
        sock.addr = sock.hs.getsockname()
        sock.state = HostSocket.ST_CONNECTED

    def accept_step(self, listener: HostSocket) -> HostSocket:
        try:
            conn, peer = listener.hs.accept()
        except BlockingIOError:
            self.want(listener, EPOLLIN)
            raise KernelError(EAGAIN, "no pending connections")
        except OSError as exc:
            raise _map_oserror(exc, EINVAL)
        out = HostSocket(self, listener.family, SOCK_STREAM, hs=conn)
        out.state = HostSocket.ST_CONNECTED
        out.addr = conn.getsockname()
        out.peer_addr = peer
        return out

    def socketpair(self, family: int, type_: int):
        kind = _hostsocket.SOCK_STREAM if (type_ & 0xFF) == SOCK_STREAM \
            else _hostsocket.SOCK_DGRAM
        ha, hb = _hostsocket.socketpair(type=kind)
        out = []
        for hs in (ha, hb):
            s = HostSocket(self, family, type_ & 0xFF, hs=hs)
            s.state = HostSocket.ST_CONNECTED
            s.peer_addr = ("", 0)
            out.append(s)
        return out[0], out[1]

    # -- data plane --

    def sendto(self, sock: HostSocket, data: bytes,
               addr: Optional[Tuple]) -> int:
        if sock.type != SOCK_DGRAM:
            if addr is not None and sock.state == HostSocket.ST_CONNECTED:
                return sock.send_step(data)
            raise KernelError(EOPNOTSUPP)
        target = addr or sock.peer_addr
        if target is None:
            raise KernelError(ENOTCONN)
        try:
            return sock.hs.sendto(bytes(data), tuple(target))
        except BlockingIOError:
            self.want(sock, EPOLLOUT)
            raise KernelError(EAGAIN, "host socket would block")
        except OSError as exc:
            raise _map_oserror(exc, ECONNREFUSED)

    def recvfrom_step(self, sock: HostSocket,
                      length: int) -> Tuple[bytes, Tuple]:
        if sock.type != SOCK_DGRAM:
            return sock.recv_step(length), sock.peer_addr or ("", 0)
        try:
            data, src = sock.hs.recvfrom(length)
            return data, src
        except BlockingIOError:
            self.want(sock, EPOLLIN)
            raise KernelError(EAGAIN, "no datagrams")
        except OSError as exc:
            raise _map_oserror(exc, ENOTCONN)

    def stream_send(self, sock: HostSocket, data: bytes) -> int:
        return sock.send_step(data)

    def deliver_eof(self, sender, peer, mask: int) -> None:
        pass  # the host kernel propagates FIN/HUP itself

    def describe(self) -> str:
        return f"host:bind={self.bind_host}"
