"""Static validation: the type-checking pass every module passes before
instantiation.

This implements the standard wasm validation algorithm (operand stack of
value types + control frame stack, with the "unreachable makes the stack
polymorphic" rule).  WALI's safety story starts here: a validated module can
only call the host functions its import section names, with the declared
signatures (§3.6 "syscall integrity").
"""

from __future__ import annotations

from typing import List, Optional

from .errors import ValidationError
from .module import Module, KIND_FUNC, KIND_GLOBAL, KIND_MEMORY, KIND_TABLE
from .opcodes import OPS
from .types import F64, I32, I64

_UNKNOWN = "unknown"  # polymorphic stack slot (after unreachable code)

_CONST_TYPES = {"i32.const": I32, "i64.const": I64, "f64.const": F64}


class _Ctrl:
    __slots__ = ("opcode", "result", "height", "unreachable")

    def __init__(self, opcode: str, result: Optional[str], height: int):
        self.opcode = opcode
        self.result = result
        self.height = height
        self.unreachable = False

    @property
    def label_types(self):
        """Types expected at a branch to this label (loop: entry, else: exit)."""
        if self.opcode == "loop":
            return ()
        return (self.result,) if self.result else ()

    @property
    def end_types(self):
        return (self.result,) if self.result else ()


class _FuncValidator:
    def __init__(self, module: Module, local_types: List[str],
                 result: Optional[str], where: str):
        self.m = module
        self.locals = local_types
        self.stack: List[str] = []
        self.ctrls: List[_Ctrl] = [_Ctrl("func", result, 0)]
        self.where = where

    def fail(self, msg: str):
        raise ValidationError(f"{self.where}: {msg}")

    # ---- operand stack ----

    def push(self, t: str):
        self.stack.append(t)

    def pop(self, expect: Optional[str] = None) -> str:
        frame = self.ctrls[-1]
        if len(self.stack) == frame.height:
            if frame.unreachable:
                return expect or _UNKNOWN
            self.fail(f"stack underflow (expected {expect})")
        t = self.stack.pop()
        if expect is not None and t != expect and t != _UNKNOWN:
            self.fail(f"type mismatch: expected {expect}, found {t}")
        return t

    def set_unreachable(self):
        frame = self.ctrls[-1]
        del self.stack[frame.height:]
        frame.unreachable = True

    # ---- control frames ----

    def push_ctrl(self, opcode: str, result: Optional[str]):
        self.ctrls.append(_Ctrl(opcode, result, len(self.stack)))

    def pop_ctrl(self) -> _Ctrl:
        if not self.ctrls:
            self.fail("control stack underflow")
        frame = self.ctrls[-1]
        for t in reversed(frame.end_types):
            self.pop(t)
        if len(self.stack) != frame.height:
            self.fail("values left on stack at block end")
        return self.ctrls.pop()

    def label(self, depth: int) -> _Ctrl:
        if depth >= len(self.ctrls):
            self.fail(f"branch depth {depth} out of range")
        return self.ctrls[-1 - depth]

    def branch_to(self, depth: int):
        frame = self.label(depth)
        for t in reversed(frame.label_types):
            self.pop(t)
        for t in frame.label_types:
            self.push(t)

    # ---- instruction dispatch ----

    def check_body(self, body: list):
        for instr in body:
            self.check_instr(instr)

    def check_instr(self, instr: tuple):
        name = instr[0]
        if name == "block" or name == "loop":
            self.push_ctrl(name, instr[1])
            self.check_body(instr[2])
            frame = self.pop_ctrl()
            for t in frame.end_types:
                self.push(t)
            return
        if name == "if":
            self.pop(I32)
            has_else = len(instr) > 3 and instr[3]
            if instr[1] and not has_else:
                self.fail("if with result requires else arm")
            self.push_ctrl("if", instr[1])
            self.check_body(instr[2])
            frame = self.pop_ctrl()
            if has_else:
                self.push_ctrl("else", instr[1])
                self.check_body(instr[3])
                self.pop_ctrl()
            for t in frame.end_types:
                self.push(t)
            return
        if name == "unreachable":
            self.set_unreachable()
            return
        if name == "br":
            self.branch_to(instr[1])
            self.set_unreachable()
            return
        if name == "br_if":
            self.pop(I32)
            self.branch_to(instr[1])
            return
        if name == "br_table":
            self.pop(I32)
            targets, default = instr[1], instr[2]
            arity = len(self.label(default).label_types)
            for t in targets:
                if len(self.label(t).label_types) != arity:
                    self.fail("br_table label arity mismatch")
            self.branch_to(default)
            self.set_unreachable()
            return
        if name == "return":
            frame = self.ctrls[0]
            for t in reversed(frame.end_types):
                self.pop(t)
            self.set_unreachable()
            return
        if name == "call":
            idx = instr[1]
            if idx >= self.m.num_funcs:
                self.fail(f"call to undefined function {idx}")
            ft = self.m.func_type(idx)
            for t in reversed(ft.params):
                self.pop(t)
            for t in ft.results:
                self.push(t)
            return
        if name == "call_indirect":
            type_idx, table_idx = instr[1], instr[2]
            if type_idx >= len(self.m.types):
                self.fail(f"call_indirect to undefined type {type_idx}")
            if table_idx >= self.m.num_tables:
                self.fail("call_indirect without table")
            self.pop(I32)
            ft = self.m.types[type_idx]
            for t in reversed(ft.params):
                self.pop(t)
            for t in ft.results:
                self.push(t)
            return
        if name == "drop":
            self.pop()
            return
        if name == "select":
            self.pop(I32)
            t1 = self.pop()
            t2 = self.pop()
            if t1 != t2 and _UNKNOWN not in (t1, t2):
                self.fail("select operands differ")
            self.push(t2 if t1 == _UNKNOWN else t1)
            return
        if name.startswith("local."):
            idx = instr[1]
            if idx >= len(self.locals):
                self.fail(f"local index {idx} out of range")
            lt = self.locals[idx]
            if name == "local.get":
                self.push(lt)
            elif name == "local.set":
                self.pop(lt)
            else:  # local.tee
                self.pop(lt)
                self.push(lt)
            return
        if name.startswith("global."):
            idx = instr[1]
            if idx >= self.m.num_globals:
                self.fail(f"global index {idx} out of range")
            gt = self.m.global_type(idx)
            if name == "global.get":
                self.push(gt.valtype)
            else:
                if not gt.mutable:
                    self.fail(f"global {idx} is immutable")
                self.pop(gt.valtype)
            return
        op = OPS.get(name)
        if op is None:
            self.fail(f"unknown instruction {name!r}")
        if op.pops is None:
            self.fail(f"instruction {name!r} not allowed here")
        if op.imm in ("memarg", "memidx", "mem2") and self.m.num_memories == 0:
            self.fail(f"{name} requires a memory")
        for t in reversed(op.pops):
            self.pop(t)
        for t in op.pushes:
            self.push(t)

    def finish(self):
        frame = self.pop_ctrl()
        for t in frame.end_types:
            self.push(t)
        if len(self.stack) != len(frame.end_types):
            self.fail("values left on stack at function end")


def _check_const(m: Module, instr: tuple, expect: str, where: str):
    name = instr[0]
    if name in _CONST_TYPES:
        if _CONST_TYPES[name] != expect:
            raise ValidationError(f"{where}: const type mismatch")
        return
    if name == "global.get":
        idx = instr[1]
        if idx >= m.num_imported_globals:
            raise ValidationError(
                f"{where}: const global.get must reference an imported global")
        gt = m.global_type(idx)
        if gt.mutable or gt.valtype != expect:
            raise ValidationError(f"{where}: bad const global")
        return
    raise ValidationError(f"{where}: not a constant expression: {name}")


def validate_module(m: Module) -> None:
    """Validate an entire module; raises :class:`ValidationError` on failure."""
    # type indices of imports and functions
    for im in m.imports:
        if im.kind == KIND_FUNC and im.desc >= len(m.types):
            raise ValidationError(f"import {im.module}.{im.name}: bad type index")
    for i, fn in enumerate(m.funcs):
        if fn.type_idx >= len(m.types):
            raise ValidationError(f"func {i}: bad type index")

    if m.num_memories > 1:
        raise ValidationError("at most one memory supported")

    for gi, g in enumerate(m.globals):
        _check_const(m, g.init, g.type.valtype, f"global {gi}")

    names = set()
    limits = {KIND_FUNC: m.num_funcs, KIND_GLOBAL: m.num_globals,
              KIND_MEMORY: m.num_memories, KIND_TABLE: m.num_tables}
    for e in m.exports:
        if e.name in names:
            raise ValidationError(f"duplicate export {e.name!r}")
        names.add(e.name)
        if e.kind not in limits or e.index >= limits[e.kind]:
            raise ValidationError(f"export {e.name!r}: bad index")

    if m.start is not None:
        if m.start >= m.num_funcs:
            raise ValidationError("start function index out of range")
        ft = m.func_type(m.start)
        if ft.params or ft.results:
            raise ValidationError("start function must be [] -> []")

    for si, seg in enumerate(m.elems):
        if seg.table_idx >= m.num_tables:
            raise ValidationError(f"elem {si}: no such table")
        _check_const(m, seg.offset, I32, f"elem {si} offset")
        for fi in seg.func_idxs:
            if fi >= m.num_funcs:
                raise ValidationError(f"elem {si}: bad function index {fi}")

    for di, seg in enumerate(m.datas):
        if seg.mem_idx >= m.num_memories:
            raise ValidationError(f"data {di}: no such memory")
        _check_const(m, seg.offset, I32, f"data {di} offset")

    n_imp = m.num_imported_funcs
    for i, fn in enumerate(m.funcs):
        ft = m.types[fn.type_idx]
        local_types = list(ft.params) + list(fn.locals)
        result = ft.results[0] if ft.results else None
        where = f"func {n_imp + i}" + (f" ({fn.name})" if fn.name else "")
        fv = _FuncValidator(m, local_types, result, where)
        fv.check_body(fn.body)
        fv.finish()
