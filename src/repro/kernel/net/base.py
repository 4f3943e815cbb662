"""The network backend interface and its shared socket mechanics.

The kernel's socket layer is split into two halves:

* a backend-independent :class:`Socket` object (state machine, receive
  :class:`StreamBuffer`, datagram queue, readiness waitqueue) that the
  syscall layer and fd table talk to, and
* a :class:`NetBackend` that owns the address namespace, connection
  establishment, and — crucially — the *delivery policy*: when and how
  bytes written by one endpoint become readable at the other.

``LoopbackBackend`` delivers instantly in-process (the historical
semantics), ``WanBackend`` routes every payload through a delay line with
configurable latency/jitter/bandwidth/loss, and ``HostBackend`` maps the
API onto real host sockets.  ``Kernel(net_backend=...)`` selects one.
"""

from __future__ import annotations

import struct
import threading
import time as _time
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from ..errno import EAGAIN, ENOTCONN, EPIPE, KernelError
from ..eventpoll import (
    EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP, FileOps, WaitQueue,
)
from ..trace import KernelTrace

AF_UNIX = 1
AF_INET = 2

SOCK_STREAM = 1
SOCK_DGRAM = 2
SOCK_NONBLOCK = 0o4000
SOCK_CLOEXEC = 0o2000000

SOL_SOCKET = 1
SO_REUSEADDR = 2
SO_KEEPALIVE = 9
SO_RCVBUF = 8
SO_SNDBUF = 7
IPPROTO_TCP = 6
TCP_NODELAY = 1

SHUT_RD, SHUT_WR, SHUT_RDWR = 0, 1, 2

SOCK_BUF_CAPACITY = 262144


class StreamBuffer:
    """A bounded stream receive buffer with an EOF latch.

    ``in_flight`` counts bytes a backend has accepted from the sender but
    not yet made readable (a WAN link's delay line); those bytes reserve
    capacity so the writer's flow control sees one consistent window:
    ``len(data) + in_flight <= capacity`` always holds.
    """

    __slots__ = ("data", "capacity", "eof", "in_flight")

    def __init__(self, capacity: int = SOCK_BUF_CAPACITY):
        self.data = bytearray()
        self.capacity = capacity
        self.eof = False
        self.in_flight = 0

    def space(self) -> int:
        return self.capacity - len(self.data) - self.in_flight

    def write(self, chunk: bytes) -> int:
        """Append up to the free window; returns the number accepted."""
        n = min(len(chunk), self.space())
        if n > 0:
            self.data.extend(chunk[:n])
        return n

    def read(self, length: int) -> bytes:
        out = bytes(self.data[:length])
        del self.data[:length]
        return out

    def set_eof(self) -> None:
        self.eof = True

    def __len__(self) -> int:
        return len(self.data)


class Socket(FileOps):
    """One endpoint; delivery policy is delegated to the owning backend."""

    ST_NEW = "new"
    ST_BOUND = "bound"
    ST_LISTENING = "listening"
    ST_CONNECTED = "connected"
    ST_CLOSED = "closed"

    def __init__(self, stack: "NetBackend", family: int, type_: int):
        self.stack = stack
        self.family = family
        self.type = type_
        self.state = self.ST_NEW
        self.addr: Optional[Tuple] = None        # bound address
        self.peer_addr: Optional[Tuple] = None
        self.peer: Optional["Socket"] = None
        self.rx = StreamBuffer()
        self.wr_closed = False                   # shutdown(SHUT_WR) latch
        self.backlog: List["Socket"] = []
        self.backlog_limit = 0
        self.dgrams: List[Tuple[Tuple, bytes]] = []
        self.opts: Dict[Tuple[int, int], int] = {}
        self.lock = threading.RLock()
        # readiness waitqueue: state transitions publish events here so
        # epoll/ppoll waiters wake without rescanning (kernel/eventpoll.py)
        self.wq = WaitQueue()

    @property
    def rbuf(self) -> bytearray:
        """The unread bytes (FIONREAD)."""
        return self.rx.data

    # ---- stream data path (non-blocking steps; kernel loops for blocking) ----

    def recv_step(self, length: int) -> bytes:
        with self.lock:
            if self.rx.data:
                out = self.rx.read(length)
                if self.peer is not None:
                    self.peer.wq.wake(EPOLLOUT)  # space freed for the writer
                return out
            if self.rx.eof or self.state == self.ST_CLOSED:
                return b""
            if self.state != self.ST_CONNECTED:
                raise KernelError(ENOTCONN)
            raise KernelError(EAGAIN, "socket buffer empty")

    def send_step(self, data: bytes) -> int:
        if self.wr_closed:
            raise KernelError(EPIPE, "send after shutdown(SHUT_WR)")
        return self.stack.stream_send(self, data)

    # the fd's read and write are the stream steps; ``read_step`` looks
    # ``recv_step`` up on each call, so a wrapper installed on
    # ``Socket.recv_step`` (walibench's tracer) sees reads through the fd
    read_step = property(attrgetter("recv_step"))
    write_step = send_step

    def poll_events(self) -> int:
        """Current readiness mask (EPOLL*/POLL* bits share values)."""
        if self.state == self.ST_LISTENING:
            return EPOLLIN if self.backlog else 0
        mask = 0
        if self.rx.data or self.dgrams or self.rx.eof or \
                self.state == self.ST_CLOSED:
            mask |= EPOLLIN
        peer = self.peer
        # a closed peer only reads as HUP once nothing is left on the
        # wire: a delayed link delivers data, then EOF, then hangup
        peer_gone = self.state == self.ST_CONNECTED and \
            (peer is None or peer.state == self.ST_CLOSED) and \
            not self.stack.pending_delivery(self)
        if self.state == self.ST_CONNECTED and peer is not None and \
                peer.state != self.ST_CLOSED and peer.rx.space() > 0:
            mask |= EPOLLOUT
        if self.state == self.ST_CLOSED or peer_gone:
            mask |= EPOLLHUP
        if self.rx.eof:
            mask |= EPOLLRDHUP
        return mask

    # ---- lifecycle ----

    def shutdown(self, how: int) -> None:
        if self.state != self.ST_CONNECTED:
            raise KernelError(ENOTCONN)
        if how in (SHUT_WR, SHUT_RDWR):
            self.wr_closed = True
            if self.peer is not None:
                # EOF travels the link like data (a WAN delays it behind
                # any bytes still in flight)
                self.stack.deliver_eof(self, self.peer,
                                       EPOLLIN | EPOLLRDHUP)
        if how in (SHUT_RD, SHUT_RDWR):
            with self.lock:
                self.rx.set_eof()
            self.wq.wake(EPOLLIN | EPOLLRDHUP)

    def close(self) -> None:
        if self.state == self.ST_CLOSED:
            return
        if self.state == self.ST_LISTENING:
            self.stack.unregister(self)
            for pending in self.backlog:
                with pending.lock:
                    pending.state = pending.ST_CLOSED
                pending.wq.wake(EPOLLIN | EPOLLHUP)
        if self.addr is not None and self.type == SOCK_DGRAM:
            self.stack.unregister(self)
        peer = self.peer
        self.state = self.ST_CLOSED
        self.wq.wake(EPOLLIN | EPOLLOUT | EPOLLHUP)
        if peer is not None:
            self.stack.deliver_eof(self, peer,
                                   EPOLLIN | EPOLLRDHUP | EPOLLHUP)


class PacketRecord:
    """One captured payload on its way onto the wire."""

    __slots__ = ("ts_ns", "kind", "src", "dst", "payload")

    def __init__(self, ts_ns: int, kind: str, src: Tuple, dst: Tuple,
                 payload: bytes):
        self.ts_ns = ts_ns
        self.kind = kind          # "data" | "dgram" | "eof"
        self.src = src
        self.dst = dst
        self.payload = payload

    def __repr__(self) -> str:
        return (f"PacketRecord({self.kind}, {self.src}->{self.dst}, "
                f"{len(self.payload)}B)")


class PacketTap:
    """A pcap-style capture attached to a backend's delivery hooks.

    Records every payload the moment it is committed to the wire — after
    loss (a dropped datagram never appears), before delay (a WAN's
    queued payloads show up at transmit time).  ``to_pcap`` renders a
    classic libpcap file (LINKTYPE_USER0) so captures can leave the
    process for external inspection.
    """

    def __init__(self):
        self.records: List[PacketRecord] = []

    def record(self, kind: str, src: Tuple, dst: Tuple,
               payload: bytes) -> None:
        self.records.append(PacketRecord(_time.monotonic_ns(), kind, src,
                                         dst, bytes(payload)))

    # -- assertion helpers for tests and the metrics layer --

    def count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self.records)
        return sum(1 for r in self.records if r.kind == kind)

    def nbytes(self, kind: Optional[str] = None) -> int:
        return sum(len(r.payload) for r in self.records
                   if kind is None or r.kind == kind)

    def payloads(self, kind: Optional[str] = None) -> List[bytes]:
        return [r.payload for r in self.records
                if kind is None or r.kind == kind]

    def summary(self) -> dict:
        return {
            "packets": self.count(),
            "bytes": self.nbytes(),
            "stream_bytes": self.nbytes("data"),
            "dgrams": self.count("dgram"),
            "eofs": self.count("eof"),
        }

    def to_pcap(self) -> bytes:
        """Classic pcap: global header + one record per payload."""
        out = bytearray()
        # magic, v2.4, no tz offset/sigfigs, snaplen, LINKTYPE_USER0
        out += struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 147)
        for rec in self.records:
            sec, nsec = divmod(rec.ts_ns, 10**9)
            out += struct.pack("<IIII", sec, nsec // 1000,
                               len(rec.payload), len(rec.payload))
            out += rec.payload
        return bytes(out)


class NetBackend:
    """The pluggable network backend API the kernel programs against.

    Implementations provide the address namespace plus delivery policy.
    The syscall layer (:mod:`repro.kernel.calls.net`) only ever calls
    these methods and the socket-object surface (``recv_step``,
    ``send_step``, ``poll_events``, ``shutdown``, ``close``, ``wq``,
    ``opts``, ``addr``/``peer_addr``), so backends can be swapped without
    touching any caller.

    Backends that deliver through the ``_deliver_stream``/
    ``_deliver_dgram`` seams also feed attached :class:`PacketTap`\\ s via
    :meth:`_tap_record`, so tests and the metrics layer can assert on
    wire-level traffic regardless of the delivery policy in use.
    """

    name = "abstract"

    def __init__(self):
        self._taps: List[PacketTap] = []
        # kernel observability (kernel/trace.py): the owning Kernel
        # rebinds these to its own after create_backend
        self.trace = KernelTrace()
        self.counters = self.trace.counters

    # -- packet capture --

    def attach_tap(self, tap: Optional[PacketTap] = None) -> PacketTap:
        if tap is None:
            tap = PacketTap()
        self._taps.append(tap)
        return tap

    def detach_tap(self, tap: PacketTap) -> None:
        try:
            self._taps.remove(tap)
        except ValueError:
            pass

    def _tap_record(self, kind: str, sender, receiver,
                    payload: bytes) -> None:
        # every wire commitment flows through here (inline and delay-line
        # paths), so this is also the net_deliver observability seam
        self.counters.inc("net.deliver")
        self.counters.inc("net.deliver_bytes", len(payload))
        self.trace.emit("net_deliver", arg=len(payload), info=kind)
        if not self._taps:
            return
        src = getattr(sender, "addr", None) or ("", 0)
        dst = getattr(receiver, "addr", None) or ("", 0)
        for tap in self._taps:
            tap.record(kind, src, dst, payload)

    # -- namespace / lifecycle --

    def socket(self, family: int, type_: int):
        raise NotImplementedError

    def bind(self, sock, addr: Tuple) -> None:
        raise NotImplementedError

    def listen(self, sock, backlog: int) -> None:
        raise NotImplementedError

    def connect(self, sock, addr: Tuple) -> None:
        raise NotImplementedError

    def accept_step(self, listener):
        raise NotImplementedError

    def socketpair(self, family: int, type_: int):
        raise NotImplementedError

    def unregister(self, sock) -> None:
        raise NotImplementedError

    # -- data plane --

    def sendto(self, sock, data: bytes, addr: Optional[Tuple]) -> int:
        raise NotImplementedError

    def recvfrom_step(self, sock, length: int):
        raise NotImplementedError

    def stream_send(self, sock, data: bytes) -> int:
        raise NotImplementedError

    def deliver_eof(self, sender, peer, mask: int) -> None:
        raise NotImplementedError

    def pending_delivery(self, sock) -> bool:
        """True while the link still owes ``sock`` queued payloads."""
        return False

    def describe(self) -> str:
        return self.name
