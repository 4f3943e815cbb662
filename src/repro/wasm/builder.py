"""A small authoring DSL that emits module structures.

This plays the role the paper's LLVM/clang toolchain plays for WALI: guest
code in this repository is produced either directly with this builder or by
the mini-C compiler (:mod:`repro.cc`), which lowers to builder calls.

Example::

    mb = ModuleBuilder("demo")
    mb.add_memory(1)
    f = mb.func("add", params=["i32", "i32"], results=["i32"], export=True)
    f.local_get(0)
    f.local_get(1)
    f.op("i32.add")
    f.end()
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Sequence

from .module import (
    DataSegment, ElemSegment, Export, Function, Global, Import, Module,
    KIND_FUNC, KIND_GLOBAL, KIND_MEMORY,
)
from .opcodes import OPS, BLOCK_OPS
from .types import (
    FuncType, GlobalType, Limits, MemoryType, TableType, functype,
)


class FuncBuilder:
    """Builds one function body as structured instructions."""

    def __init__(self, module_builder: "ModuleBuilder", func: Function):
        self.mb = module_builder
        self.fn = func
        # stack of instruction lists; innermost block last
        self._bodies: List[list] = [func.body]

    # ---- raw emission ----

    def op(self, name: str, *imm) -> "FuncBuilder":
        if name not in OPS and name not in BLOCK_OPS:
            raise ValueError(f"unknown op {name!r}")
        self._bodies[-1].append((name, *imm))
        return self

    def emit(self, instr: tuple) -> "FuncBuilder":
        self._bodies[-1].append(instr)
        return self

    # ---- locals ----

    def add_local(self, valtype: str) -> int:
        """Declare an extra local; returns its index (after params)."""
        ft = self.mb.module.types[self.fn.type_idx]
        idx = len(ft.params) + len(self.fn.locals)
        self.fn.locals.append(valtype)
        return idx

    # ---- common instruction helpers ----

    def i32_const(self, v: int):
        return self.op("i32.const", int(v))

    def i64_const(self, v: int):
        return self.op("i64.const", int(v))

    def f64_const(self, v: float):
        return self.op("f64.const", float(v))

    def local_get(self, i: int):
        return self.op("local.get", i)

    def local_set(self, i: int):
        return self.op("local.set", i)

    def global_get(self, i: int):
        return self.op("global.get", i)

    def global_set(self, i: int):
        return self.op("global.set", i)

    def call(self, target) -> "FuncBuilder":
        """Call by function index or by name previously declared."""
        idx = target if isinstance(target, int) else self.mb.func_index(target)
        return self.op("call", idx)

    def call_indirect(self, params: Sequence[str], results: Sequence[str]):
        type_idx = self.mb.type_index(functype(params, results))
        return self.op("call_indirect", type_idx, 0)

    def br(self, depth: int):
        return self.op("br", depth)

    def br_if(self, depth: int):
        return self.op("br_if", depth)

    def ret(self):
        return self.op("return")

    def i32_load(self, offset: int = 0, align: int = 2):
        return self.op("i32.load", align, offset)

    def i32_store(self, offset: int = 0, align: int = 2):
        return self.op("i32.store", align, offset)

    # ---- structured control flow ----

    @contextmanager
    def block(self, result: Optional[str] = None):
        body: list = []
        self._bodies[-1].append(("block", result, body))
        self._bodies.append(body)
        try:
            yield self
        finally:
            self._bodies.pop()

    @contextmanager
    def loop(self, result: Optional[str] = None):
        body: list = []
        self._bodies[-1].append(("loop", result, body))
        self._bodies.append(body)
        try:
            yield self
        finally:
            self._bodies.pop()

    @contextmanager
    def if_(self, result: Optional[str] = None):
        then: list = []
        els: list = []
        self._bodies[-1].append(("if", result, then, els))
        self._bodies.append(then)
        try:
            yield self
        finally:
            self._bodies.pop()

    def else_(self):
        """Switch to the else arm of the innermost ``if`` (use inside if_())."""
        # The innermost body list must be an if's then-arm; find it.
        parent = self._bodies[-2]
        instr = parent[-1]
        if instr[0] != "if" or instr[2] is not self._bodies[-1]:
            raise ValueError("else_ used outside an if_ context")
        self._bodies[-1] = instr[3]
        return self

    def end(self):
        """Finish the function (no-op marker; body lists close via contexts)."""
        if len(self._bodies) != 1:
            raise ValueError("unclosed blocks at function end")
        return self


class ModuleBuilder:
    """Accumulates a :class:`Module`."""

    def __init__(self, name: str = ""):
        self.module = Module(name=name)
        self._func_names: dict = {}
        self._type_cache: dict = {}
        self._imports_done = False

    # ---- types ----

    def type_index(self, ft: FuncType) -> int:
        if ft in self._type_cache:
            return self._type_cache[ft]
        idx = len(self.module.types)
        self.module.types.append(ft)
        self._type_cache[ft] = idx
        return idx

    # ---- imports (must precede defined functions) ----

    def import_func(self, module: str, name: str,
                    params: Sequence[str] = (), results: Sequence[str] = (),
                    local_name: Optional[str] = None) -> int:
        if self.module.funcs:
            raise ValueError("imports must be declared before defined functions")
        ft = functype(params, results)
        idx = self.module.num_imported_funcs
        self.module.imports.append(
            Import(module, name, KIND_FUNC, self.type_index(ft)))
        self._func_names[local_name or name] = idx
        return idx

    # ---- definitions ----

    def func(self, name: str, params: Sequence[str] = (),
             results: Sequence[str] = (), export: bool = False) -> FuncBuilder:
        ft = functype(params, results)
        fn = Function(type_idx=self.type_index(ft), name=name)
        self.module.funcs.append(fn)
        idx = self.module.num_imported_funcs + len(self.module.funcs) - 1
        if name in self._func_names:
            raise ValueError(f"duplicate function name {name!r}")
        self._func_names[name] = idx
        if export:
            self.module.exports.append(Export(name, KIND_FUNC, idx))
        return FuncBuilder(self, fn)

    def func_index(self, name: str) -> int:
        try:
            return self._func_names[name]
        except KeyError:
            raise KeyError(f"unknown function {name!r}") from None

    def add_memory(self, min_pages: int, max_pages=None, export: bool = True,
                   shared: bool = False) -> int:
        self.module.memories.append(
            MemoryType(Limits(min_pages, max_pages), shared=shared))
        idx = self.module.num_memories - 1
        if export:
            self.module.exports.append(Export("memory", KIND_MEMORY, idx))
        return idx

    def add_table(self, min_size: int, max_size=None) -> int:
        self.module.tables.append(TableType(Limits(min_size, max_size)))
        return self.module.num_tables - 1

    def add_global(self, valtype: str, init, mutable: bool = True,
                   export: Optional[str] = None) -> int:
        const_op = {"i32": "i32.const", "i64": "i64.const", "f64": "f64.const"}[valtype]
        self.module.globals.append(
            Global(GlobalType(valtype, mutable), (const_op, init)))
        idx = self.module.num_globals - 1
        if export:
            self.module.exports.append(Export(export, KIND_GLOBAL, idx))
        return idx

    def add_data(self, offset: int, data: bytes, mem_idx: int = 0) -> None:
        self.module.datas.append(
            DataSegment(mem_idx, ("i32.const", offset), bytes(data)))

    def add_elem(self, offset: int, func_idxs: Sequence[int],
                 table_idx: int = 0) -> None:
        if not self.module.tables and not self.module.num_imported_tables:
            self.add_table(max(len(func_idxs) + offset, 1))
        self.module.elems.append(
            ElemSegment(table_idx, ("i32.const", offset), list(func_idxs)))

    def export_func(self, name: str, func_name: Optional[str] = None) -> None:
        self.module.exports.append(
            Export(name, KIND_FUNC, self.func_index(func_name or name)))

    def set_start(self, name: str) -> None:
        self.module.start = self.func_index(name)

    def build(self) -> Module:
        return self.module
