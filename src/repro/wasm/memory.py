"""Linear memory: a bounds-checked, growable byte array.

All guest memory accesses funnel through this class, which enforces the Wasm
sandbox: any access outside ``[0, pages * PAGE_SIZE)`` raises
:class:`TrapOutOfBounds`.  WALI's zero-copy syscall path hands out
``memoryview`` slices of this buffer (after bounds checking) so host syscalls
can read/write guest data without copies (§3.2 of the paper).
"""

from __future__ import annotations

import struct

from .errors import TrapOutOfBounds
from .types import PAGE_SIZE


class LinearMemory:
    """A single 32-bit linear memory."""

    __slots__ = ("data", "pages", "max_pages", "shared", "peak_pages")

    def __init__(self, min_pages: int, max_pages=None, shared: bool = False):
        if max_pages is not None and max_pages < min_pages:
            raise ValueError("max below min")
        self.pages = min_pages
        self.max_pages = max_pages
        self.shared = shared
        self.data = bytearray(min_pages * PAGE_SIZE)
        self.peak_pages = min_pages

    # ---- size management ----

    @property
    def size_bytes(self) -> int:
        return self.pages * PAGE_SIZE

    def grow(self, delta_pages: int) -> int:
        """Grow by ``delta_pages``; return old page count or -1 on failure."""
        if delta_pages < 0:
            return -1
        new_pages = self.pages + delta_pages
        limit = self.max_pages if self.max_pages is not None else 65536
        if new_pages > limit:
            return -1
        old = self.pages
        self.data.extend(b"\x00" * (delta_pages * PAGE_SIZE))
        self.pages = new_pages
        self.peak_pages = max(self.peak_pages, new_pages)
        return old

    # ---- bounds checking ----

    def check(self, addr: int, length: int) -> None:
        if addr < 0 or length < 0 or addr + length > len(self.data):
            raise TrapOutOfBounds(f"addr={addr} len={length} mem={len(self.data)}")

    # ---- raw byte access (host side, used by WALI translation) ----

    def read(self, addr: int, length: int) -> memoryview:
        """Zero-copy read view of guest memory."""
        self.check(addr, length)
        return memoryview(self.data)[addr : addr + length]

    def write(self, addr: int, data) -> None:
        n = len(data)
        self.check(addr, n)
        self.data[addr : addr + n] = data

    def read_bytes(self, addr: int, length: int) -> bytes:
        self.check(addr, length)
        return bytes(self.data[addr : addr + length])

    def read_cstr(self, addr: int, limit: int = 1 << 20) -> bytes:
        """Read a NUL-terminated string (not including the NUL)."""
        self.check(addr, 1)
        end = self.data.find(b"\x00", addr, min(addr + limit, len(self.data)))
        if end < 0:
            raise TrapOutOfBounds("unterminated string")
        return bytes(self.data[addr:end])

    def write_cstr(self, addr: int, s: bytes) -> None:
        self.write(addr, bytes(s) + b"\x00")

    def fill(self, addr: int, value: int, length: int) -> None:
        self.check(addr, length)
        self.data[addr : addr + length] = bytes([value & 0xFF]) * length

    def copy(self, dst: int, src: int, length: int) -> None:
        self.check(dst, length)
        self.check(src, length)
        # bytearray slice assignment handles overlap correctly
        self.data[dst : dst + length] = self.data[src : src + length]

    # ---- typed loads (return engine representation: unsigned ints) ----

    def load_u(self, addr: int, nbytes: int) -> int:
        self.check(addr, nbytes)
        return int.from_bytes(self.data[addr : addr + nbytes], "little")

    def load_s(self, addr: int, nbytes: int) -> int:
        self.check(addr, nbytes)
        return int.from_bytes(self.data[addr : addr + nbytes], "little", signed=True)

    def load_i32(self, addr: int) -> int:
        return self.load_u(addr, 4)

    def load_i64(self, addr: int) -> int:
        return self.load_u(addr, 8)

    def load_f64(self, addr: int) -> float:
        self.check(addr, 8)
        return struct.unpack_from("<d", self.data, addr)[0]

    # ---- typed stores (accept unsigned engine representation) ----

    def store_int(self, addr: int, value: int, nbytes: int) -> None:
        self.check(addr, nbytes)
        mask = (1 << (nbytes * 8)) - 1
        self.data[addr : addr + nbytes] = (value & mask).to_bytes(nbytes, "little")

    def store_i32(self, addr: int, value: int) -> None:
        self.store_int(addr, value, 4)

    def store_i64(self, addr: int, value: int) -> None:
        self.store_int(addr, value, 8)

    def store_f64(self, addr: int, value: float) -> None:
        self.check(addr, 8)
        struct.pack_into("<d", self.data, addr, value)

    # ---- snapshots (process fork support) ----

    def clone(self) -> "LinearMemory":
        m = LinearMemory.__new__(LinearMemory)
        m.pages = self.pages
        m.max_pages = self.max_pages
        m.shared = self.shared
        m.data = bytearray(self.data)
        m.peak_pages = self.peak_pages
        return m
