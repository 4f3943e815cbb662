"""Core WebAssembly type definitions.

Value types are plain strings (``"i32"``, ``"i64"``, ``"f64"``, ``"funcref"``)
— cheap to compare, hashable, and readable in dumps.  Composite types are
small frozen dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

I32 = "i32"
I64 = "i64"
F64 = "f64"
FUNCREF = "funcref"

VALUE_TYPES = (I32, I64, F64)

# Binary encodings for value types (wasm spec).
VALTYPE_BYTES = {I32: 0x7F, I64: 0x7E, F64: 0x7C, FUNCREF: 0x70}
BYTE_VALTYPES = {v: k for k, v in VALTYPE_BYTES.items()}

PAGE_SIZE = 65536


@dataclass(frozen=True)
class FuncType:
    """A function signature: ``params -> results`` (at most one result)."""

    params: Tuple[str, ...]
    results: Tuple[str, ...]

    def __post_init__(self):
        for t in self.params + self.results:
            if t not in VALUE_TYPES:
                raise ValueError(f"bad value type {t!r}")
        if len(self.results) > 1:
            raise ValueError("multi-value results not supported")

    def __str__(self) -> str:
        ps = " ".join(self.params) or "()"
        rs = " ".join(self.results) or "()"
        return f"[{ps}] -> [{rs}]"


def functype(params: Sequence[str], results: Sequence[str]) -> FuncType:
    return FuncType(tuple(params), tuple(results))


@dataclass(frozen=True)
class Limits:
    """Min/max limits for memories and tables, in pages/elements."""

    min: int
    max: Optional[int] = None

    def __post_init__(self):
        if self.min < 0:
            raise ValueError("limits min must be non-negative")
        if self.max is not None and self.max < self.min:
            raise ValueError("limits max below min")


@dataclass(frozen=True)
class MemoryType:
    limits: Limits
    shared: bool = False


@dataclass(frozen=True)
class TableType:
    limits: Limits
    elemtype: str = FUNCREF


@dataclass(frozen=True)
class GlobalType:
    valtype: str
    mutable: bool = False


# --- integer helpers used across the engine -------------------------------

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF


def signed32(x: int) -> int:
    """Reinterpret an unsigned 32-bit value as signed."""
    x &= MASK32
    return x - 0x100000000 if x >= 0x80000000 else x


def signed64(x: int) -> int:
    """Reinterpret an unsigned 64-bit value as signed."""
    x &= MASK64
    return x - 0x10000000000000000 if x >= 0x8000000000000000 else x


def default_value(valtype: str):
    """Zero value for a value type (wasm locals are zero-initialised)."""
    return 0.0 if valtype == F64 else 0
