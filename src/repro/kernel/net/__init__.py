"""``repro.kernel.net`` — pluggable network backends.

The kernel programs against :class:`NetBackend`; three implementations
ship in-tree:

==========  ==============================================================
backend     semantics
==========  ==============================================================
loopback    in-process, zero-latency, lossless (the default)
wan         loopback namespace behind a simulated link: latency, jitter,
            bandwidth cap, probabilistic datagram loss
host        real host sockets via Python's ``socket`` module (opt-in:
            ``host:optin=1`` or ``REPRO_NET_HOST=1``)
==========  ==============================================================

Backends are selected with a spec string — ``<name>[:k=v,k=v...]`` —
threaded through ``Kernel(net_backend=...)``, ``Workload.net``, and the
benchmark/example ``--net`` knobs::

    Kernel(net_backend="wan:latency_ms=5,jitter_ms=1,loss=0.01")
"""

from __future__ import annotations

from typing import Optional, Union

from ..errno import EINVAL, KernelError
from .base import (
    AF_INET, AF_UNIX, IPPROTO_TCP, NetBackend, PacketRecord, PacketTap,
    SHUT_RD, SHUT_RDWR, SHUT_WR,
    SO_KEEPALIVE, SO_RCVBUF, SO_REUSEADDR, SO_SNDBUF, SOCK_BUF_CAPACITY,
    SOCK_CLOEXEC, SOCK_DGRAM, SOCK_NONBLOCK, SOCK_STREAM, SOL_SOCKET, Socket,
    StreamBuffer, TCP_NODELAY,
)
from .host import HostBackend, HostSocket
from .loopback import LoopbackBackend
from .wan import WanBackend

BACKEND_NAMES = ("loopback", "wan", "host")


def _parse_opts(optstr: str) -> dict:
    opts = {}
    for item in optstr.split(","):
        if not item:
            continue
        key, sep, value = item.partition("=")
        opts[key.strip()] = value.strip() if sep else "1"
    return opts


def create_backend(spec: Union[str, NetBackend, None] = None) -> NetBackend:
    """Resolve a backend spec (``name[:k=v,...]``), instance, or None."""
    if spec is None:
        return LoopbackBackend()
    if isinstance(spec, NetBackend):
        return spec
    name, _, optstr = str(spec).partition(":")
    opts = _parse_opts(optstr)
    try:
        if name == "loopback":
            backend = LoopbackBackend()
        elif name == "wan":
            seed = opts.pop("seed", 0xBEEF)
            backend = WanBackend(
                latency_ms=float(opts.pop("latency_ms", 20.0)),
                jitter_ms=float(opts.pop("jitter_ms", 0.0)),
                loss=float(opts.pop("loss", 0.0)),
                bw_kbps=float(opts.pop("bw_kbps", 0.0)),
                reorder=float(opts.pop("reorder", 0.0)),
                dup=float(opts.pop("dup", 0.0)),
                seed=int(seed, 0) if isinstance(seed, str) else seed,
            )
        elif name == "host":
            backend = HostBackend(
                opt_in=bool(int(opts.pop("optin", "0"))),
                bind_host=opts.pop("bind", "127.0.0.1"),
            )
        else:
            raise KernelError(
                EINVAL, f"unknown net backend {name!r} "
                        f"(expected one of {', '.join(BACKEND_NAMES)})")
    except (TypeError, ValueError) as exc:
        raise KernelError(EINVAL, f"bad net backend spec {spec!r}: {exc}")
    if opts:
        raise KernelError(EINVAL,
                          f"unknown {name} backend options: {sorted(opts)}")
    return backend


__all__ = [
    "AF_INET", "AF_UNIX", "BACKEND_NAMES", "HostBackend", "HostSocket",
    "IPPROTO_TCP", "LoopbackBackend", "NetBackend", "PacketRecord",
    "PacketTap", "SHUT_RD", "SHUT_RDWR",
    "SHUT_WR", "SOCK_BUF_CAPACITY", "SOCK_CLOEXEC", "SOCK_DGRAM",
    "SOCK_NONBLOCK", "SOCK_STREAM", "SOL_SOCKET", "SO_KEEPALIVE",
    "SO_RCVBUF", "SO_REUSEADDR", "SO_SNDBUF", "Socket", "StreamBuffer",
    "TCP_NODELAY", "WanBackend", "create_backend",
]
