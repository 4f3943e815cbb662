"""``repro.wasm`` — the WebAssembly engine substrate.

Public surface:

* :class:`ModuleBuilder` / :class:`FuncBuilder` — authoring DSL
* :func:`encode_module` / :func:`decode_module` — binary codec
* :func:`validate_module` — static validation
* :func:`instantiate` / :class:`Instance` / :class:`Machine` — execution;
  :func:`relink` points a cloned instance at another host
* :class:`LinearMemory`, :class:`HostFunc`, traps in :mod:`repro.wasm.errors`
"""

from .binary import decode_module, encode_module
from .builder import FuncBuilder, ModuleBuilder
from .errors import (
    DecodeError, GuestExit, LinkError, Trap, TrapDivByZero, TrapIndirectCall,
    TrapIntegerOverflow, TrapOutOfBounds, TrapStackExhausted, TrapSyscall,
    TrapUnreachable, ValidationError, WasmError,
)
from .flatten import SAFEPOINT_SCHEMES, FlatCode, flatten_function, flatten_module
from .instance import GlobalCell, Instance, Table, instantiate, relink
from .interp import HostFunc, Machine, WasmFunc
from .memory import LinearMemory
from .module import Module
from .types import F64, FUNCREF, I32, I64, PAGE_SIZE, FuncType, functype
from .validate import validate_module

__all__ = [
    "DecodeError", "F64", "FUNCREF", "FlatCode", "FuncBuilder", "FuncType",
    "GlobalCell", "GuestExit", "HostFunc", "I32", "I64", "Instance",
    "LinearMemory", "LinkError", "Machine", "Module", "ModuleBuilder",
    "PAGE_SIZE", "SAFEPOINT_SCHEMES", "Table", "Trap", "TrapDivByZero",
    "TrapIndirectCall", "TrapIntegerOverflow", "TrapOutOfBounds",
    "TrapStackExhausted", "TrapSyscall", "TrapUnreachable", "ValidationError",
    "WasmError", "WasmFunc", "decode_module", "encode_module",
    "flatten_function", "flatten_module", "functype", "instantiate",
    "relink", "validate_module",
]
