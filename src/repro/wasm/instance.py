"""Instantiation and linking.

``instantiate`` takes a module's flat code and compiled bodies from the
image cache (:func:`repro.wasm.compile.image_code`, which validates a module
whose image it has not seen), resolves its imports against the provided
import object, allocates memory/table/globals, applies data and element
segments, and returns an :class:`Instance` ready to run.

Imports are provided as ``{module_name: {field_name: provider}}`` where a
provider is a :class:`HostFunc`, a plain callable (it will be wrapped with
the declared import type — this is how WALI/WASI host layers register), a
:class:`LinearMemory`, or a :class:`GlobalCell`/int for globals.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .compile import image_code
from .errors import LinkError
from .flatten import SAFEPOINT_SCHEMES
from .interp import HostFunc, Machine, WasmFunc
from .memory import LinearMemory
from .module import Module, KIND_FUNC, KIND_GLOBAL, KIND_MEMORY, KIND_TABLE
from .types import MASK32, MASK64


class GlobalCell:
    """A mutable global variable instance."""

    __slots__ = ("valtype", "value", "mutable")

    def __init__(self, valtype: str, value, mutable: bool = True):
        self.valtype = valtype
        self.value = value
        self.mutable = mutable


class Table:
    """A funcref table."""

    __slots__ = ("elems", "max_size")

    def __init__(self, min_size: int, max_size=None):
        self.elems: List[Optional[object]] = [None] * min_size
        self.max_size = max_size


class Instance:
    """A live module instance: code + memory + globals + table."""

    def __init__(self, module: Module, scheme: str = "loop"):
        self.module = module
        self.scheme = scheme
        self.funcs: List[object] = []      # HostFunc | WasmFunc, joint index space
        self.memory: Optional[LinearMemory] = None
        self.globals: List[GlobalCell] = []
        self.table: Optional[Table] = None
        self.exports: Dict[str, object] = {}
        self._machine: Optional[Machine] = None

    # ---- convenience execution ----

    @property
    def machine(self) -> Machine:
        if self._machine is None:
            self._machine = Machine(self)
        return self._machine

    def func_by_name(self, name: str):
        obj = self.exports.get(name)
        if not isinstance(obj, (HostFunc, WasmFunc)):
            raise KeyError(f"no exported function {name!r}")
        return obj

    def invoke(self, name: str, *args):
        return self.machine.invoke(self.func_by_name(name), list(args))

    # ---- fork support ----

    def clone(self) -> "Instance":
        """Copy-on-fork duplicate: memory and mutable state copied, code
        shared.  Used by WALI's ``fork`` passthrough (§3.1)."""
        inst = Instance(self.module, self.scheme)
        inst.funcs = self.funcs  # code is immutable; share
        inst.memory = self.memory.clone() if self.memory is not None else None
        inst.globals = [GlobalCell(g.valtype, g.value, g.mutable)
                        for g in self.globals]
        if self.table is not None:
            t = Table(0, self.table.max_size)
            t.elems = list(self.table.elems)
            inst.table = t
        inst.exports = dict(self.exports)
        # exports referencing memory must point at the clone
        for k, v in inst.exports.items():
            if v is self.memory:
                inst.exports[k] = inst.memory
        return inst

    def thread_clone(self) -> "Instance":
        """Instance-per-thread duplicate (§3.1): *shares* linear memory and
        the funcref table, but gets its own globals (value stack, shadow
        stack pointer) — the "replicated instance" thread model WASI and
        WALI both use."""
        inst = Instance(self.module, self.scheme)
        inst.funcs = self.funcs
        inst.memory = self.memory          # shared!
        inst.table = self.table            # shared!
        inst.globals = [GlobalCell(g.valtype, g.value, g.mutable)
                        for g in self.globals]
        inst.exports = dict(self.exports)
        return inst


def relink(funcs: List[object], provided: Dict[str, HostFunc]) -> List[object]:
    """A copy of ``funcs`` (a cloned instance's ``funcs`` or table entries)
    with each host function replaced by the one ``provided`` under its
    import name, taken as ``HostFunc.name``; guest functions are kept.

    Clones share their parent's lists, so a clone is pointed at its own
    host by assigning the copy, never by writing into the shared list."""
    return [provided.get(f.name, f) if isinstance(f, HostFunc) else f
            for f in funcs]


def _const_value(instr: tuple, globals_: List[GlobalCell]):
    name = instr[0]
    if name == "i32.const":
        return instr[1] & MASK32
    if name == "i64.const":
        return instr[1] & MASK64
    if name == "f64.const":
        return float(instr[1])
    if name == "global.get":
        return globals_[instr[1]].value
    raise LinkError(f"unsupported constant initialiser {name}")


def instantiate(module: Module, imports: Optional[dict] = None,
                scheme: str = "loop", run_start: bool = True,
                tier_up: Optional[str] = None) -> Instance:
    """Link and initialise a module; returns a live :class:`Instance`.

    ``tier_up`` names the rule, ``"fork_free"`` or ``"all"``, by which
    functions get compiled bodies that the interpreter calls directly
    (:func:`repro.wasm.compile.compiled_functions`); None keeps every
    function interpreted.  Code is shared by every instance of the same
    image, scheme and rule; memory, globals, table and imports are the
    instance's own."""
    if scheme not in SAFEPOINT_SCHEMES:
        raise ValueError(f"unknown safepoint scheme {scheme!r}")
    flat, native = image_code(module, scheme, tier_up)
    imports = imports or {}
    inst = Instance(module, scheme)

    def resolve(mod: str, name: str):
        ns = imports.get(mod)
        if ns is None or name not in ns:
            raise LinkError(f"unresolved import {mod}.{name}")
        return ns[name]

    # --- imports ---
    for im in module.imports:
        provider = resolve(im.module, im.name)
        if im.kind == KIND_FUNC:
            ft = module.types[im.desc]
            if isinstance(provider, HostFunc):
                if provider.functype != ft:
                    raise LinkError(
                        f"import {im.module}.{im.name}: signature mismatch "
                        f"(want {ft}, have {provider.functype})")
                inst.funcs.append(provider)
            elif callable(provider):
                inst.funcs.append(HostFunc(ft, provider, f"{im.module}.{im.name}"))
            else:
                raise LinkError(f"import {im.module}.{im.name}: not a function")
        elif im.kind == KIND_MEMORY:
            if not isinstance(provider, LinearMemory):
                raise LinkError(f"import {im.module}.{im.name}: not a memory")
            if provider.pages < im.desc.limits.min:
                raise LinkError(f"import {im.module}.{im.name}: memory too small")
            inst.memory = provider
        elif im.kind == KIND_GLOBAL:
            if isinstance(provider, GlobalCell):
                inst.globals.append(provider)
            else:
                inst.globals.append(
                    GlobalCell(im.desc.valtype, provider, im.desc.mutable))
        elif im.kind == KIND_TABLE:
            if not isinstance(provider, Table):
                raise LinkError(f"import {im.module}.{im.name}: not a table")
            inst.table = provider

    # --- definitions ---
    for idx, code in enumerate(flat, len(inst.funcs)):
        inst.funcs.append(WasmFunc(code.functype, code, native.get(idx)))

    for mt in module.memories:
        if inst.memory is not None:
            raise LinkError("multiple memories")
        inst.memory = LinearMemory(
            mt.limits.min, mt.limits.max, shared=mt.shared)

    for tt in module.tables:
        if inst.table is not None:
            raise LinkError("multiple tables")
        inst.table = Table(tt.limits.min, tt.limits.max)

    for g in module.globals:
        inst.globals.append(GlobalCell(
            g.type.valtype, _const_value(g.init, inst.globals), g.type.mutable))

    # --- segments ---
    for seg in module.elems:
        if inst.table is None:
            raise LinkError("element segment without table")
        off = _const_value(seg.offset, inst.globals)
        if off + len(seg.func_idxs) > len(inst.table.elems):
            raise LinkError("element segment out of bounds")
        for i, fi in enumerate(seg.func_idxs):
            inst.table.elems[off + i] = inst.funcs[fi]

    for seg in module.datas:
        if inst.memory is None:
            raise LinkError("data segment without memory")
        off = _const_value(seg.offset, inst.globals)
        if off + len(seg.data) > inst.memory.size_bytes:
            raise LinkError("data segment out of bounds")
        inst.memory.data[off:off + len(seg.data)] = seg.data

    # --- exports ---
    for e in module.exports:
        if e.kind == KIND_FUNC:
            inst.exports[e.name] = inst.funcs[e.index]
        elif e.kind == KIND_MEMORY:
            inst.exports[e.name] = inst.memory
        elif e.kind == KIND_GLOBAL:
            inst.exports[e.name] = inst.globals[e.index]
        elif e.kind == KIND_TABLE:
            inst.exports[e.name] = inst.table

    if run_start and module.start is not None:
        inst.machine.invoke(inst.funcs[module.start], [])

    return inst
