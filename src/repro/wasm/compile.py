"""The compiled tier: Wasm functions → generated Python functions.

This is the repository's AoT compiler (the WAMR ``wamrc`` analog): each
function body is translated to Python source with

* compile-time stack slots mapped to local variables (``s0, s1, ...``),
* structured control flow lowered to ``while True:`` blocks with the
  multi-level-break flag technique,
* full semantics preserved: wrapping arithmetic, trapping division,
  bounds-checked memory access, ``call_indirect`` signature checks,
  safepoint polls at loop headers.

The compiled tier executes several times faster than the flat interpreter
and backs the "native"/"Docker" ends of the Fig. 8 comparison.  Engine
restriction (cf. §3.6 item 5): a compiled activation's state lives on the
Python call stack, so ``fork`` is only available under the interpreter tier.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Dict, List

from .errors import (
    Trap, TrapIndirectCall, TrapStackExhausted, TrapUnreachable,
)
from .flatten import SAFEPOINT_SCHEMES
from .interp import (
    HostFunc, _clz, _ctz, _fceil, _fdiv, _ffloor, _fmax, _fmin, _fnearest,
    _fsqrt, _ftrunc, _idiv_s, _irem_s, _rotl, _sext, _trunc, _udiv, _urem,
)
from .module import Module
from .types import (
    F64, I32, I64, MASK32, MASK64, default_value, signed32, signed64,
)
from .validate import validate_module

_BINOPS32 = {
    "i32.add": "({a} + {b}) & 0xFFFFFFFF",
    "i32.sub": "({a} - {b}) & 0xFFFFFFFF",
    "i32.mul": "({a} * {b}) & 0xFFFFFFFF",
    "i32.and": "{a} & {b}",
    "i32.or": "{a} | {b}",
    "i32.xor": "{a} ^ {b}",
    "i32.shl": "({a} << ({b} % 32)) & 0xFFFFFFFF",
    "i32.shr_u": "{a} >> ({b} % 32)",
    "i32.shr_s": "(_sgn32({a}) >> ({b} % 32)) & 0xFFFFFFFF",
    "i32.div_s": "_idiv_s({a}, {b}, 32)",
    "i32.div_u": "_udiv({a}, {b})",
    "i32.rem_s": "_irem_s({a}, {b}, 32)",
    "i32.rem_u": "_urem({a}, {b})",
    "i32.rotl": "_rotl({a}, {b}, 32)",
    "i32.rotr": "_rotl({a}, 32 - ({b} % 32), 32)",
    "i32.eq": "1 if {a} == {b} else 0",
    "i32.ne": "1 if {a} != {b} else 0",
    "i32.lt_u": "1 if {a} < {b} else 0",
    "i32.gt_u": "1 if {a} > {b} else 0",
    "i32.le_u": "1 if {a} <= {b} else 0",
    "i32.ge_u": "1 if {a} >= {b} else 0",
    "i32.lt_s": "1 if _sgn32({a}) < _sgn32({b}) else 0",
    "i32.gt_s": "1 if _sgn32({a}) > _sgn32({b}) else 0",
    "i32.le_s": "1 if _sgn32({a}) <= _sgn32({b}) else 0",
    "i32.ge_s": "1 if _sgn32({a}) >= _sgn32({b}) else 0",
}
_BINOPS64 = {
    "i64.add": "({a} + {b}) & 0xFFFFFFFFFFFFFFFF",
    "i64.sub": "({a} - {b}) & 0xFFFFFFFFFFFFFFFF",
    "i64.mul": "({a} * {b}) & 0xFFFFFFFFFFFFFFFF",
    "i64.and": "{a} & {b}",
    "i64.or": "{a} | {b}",
    "i64.xor": "{a} ^ {b}",
    "i64.shl": "({a} << ({b} % 64)) & 0xFFFFFFFFFFFFFFFF",
    "i64.shr_u": "{a} >> ({b} % 64)",
    "i64.shr_s": "(_sgn64({a}) >> ({b} % 64)) & 0xFFFFFFFFFFFFFFFF",
    "i64.div_s": "_idiv_s({a}, {b}, 64)",
    "i64.div_u": "_udiv({a}, {b})",
    "i64.rem_s": "_irem_s({a}, {b}, 64)",
    "i64.rem_u": "_urem({a}, {b})",
    "i64.rotl": "_rotl({a}, {b}, 64)",
    "i64.rotr": "_rotl({a}, 64 - ({b} % 64), 64)",
    "i64.eq": "1 if {a} == {b} else 0",
    "i64.ne": "1 if {a} != {b} else 0",
    "i64.lt_u": "1 if {a} < {b} else 0",
    "i64.gt_u": "1 if {a} > {b} else 0",
    "i64.le_u": "1 if {a} <= {b} else 0",
    "i64.ge_u": "1 if {a} >= {b} else 0",
    "i64.lt_s": "1 if _sgn64({a}) < _sgn64({b}) else 0",
    "i64.gt_s": "1 if _sgn64({a}) > _sgn64({b}) else 0",
    "i64.le_s": "1 if _sgn64({a}) <= _sgn64({b}) else 0",
    "i64.ge_s": "1 if _sgn64({a}) >= _sgn64({b}) else 0",
}
_BINOPSF = {
    "f64.add": "{a} + {b}", "f64.sub": "{a} - {b}", "f64.mul": "{a} * {b}",
    "f64.div": "_fdiv({a}, {b})", "f64.min": "_fmin({a}, {b})",
    "f64.max": "_fmax({a}, {b})",
    "f64.eq": "1 if {a} == {b} else 0", "f64.ne": "1 if {a} != {b} else 0",
    "f64.lt": "1 if {a} < {b} else 0", "f64.gt": "1 if {a} > {b} else 0",
    "f64.le": "1 if {a} <= {b} else 0", "f64.ge": "1 if {a} >= {b} else 0",
}
_UNOPS = {
    "i32.eqz": "1 if {a} == 0 else 0",
    "i64.eqz": "1 if {a} == 0 else 0",
    "i32.clz": "_clz({a}, 32)", "i32.ctz": "_ctz({a}, 32)",
    "i32.popcnt": "bin({a}).count('1')",
    "i64.clz": "_clz({a}, 64)", "i64.ctz": "_ctz({a}, 64)",
    "i64.popcnt": "bin({a}).count('1')",
    "i32.wrap_i64": "{a} & 0xFFFFFFFF",
    "i64.extend_i32_s": "_sgn32({a}) & 0xFFFFFFFFFFFFFFFF",
    "i64.extend_i32_u": "{a}",
    "i32.extend8_s": "_sext({a}, 8, 0xFFFFFFFF)",
    "i32.extend16_s": "_sext({a}, 16, 0xFFFFFFFF)",
    "i64.extend32_s": "_sext({a}, 32, 0xFFFFFFFFFFFFFFFF)",
    "i32.trunc_f64_s": "_trunc({a}, -2147483648, 2147483647, 0xFFFFFFFF)",
    "i32.trunc_f64_u": "_trunc({a}, 0, 4294967295, 0xFFFFFFFF)",
    "i64.trunc_f64_s":
        "_trunc({a}, -(1 << 63), (1 << 63) - 1, 0xFFFFFFFFFFFFFFFF)",
    "i64.trunc_f64_u":
        "_trunc({a}, 0, (1 << 64) - 1, 0xFFFFFFFFFFFFFFFF)",
    "f64.convert_i32_s": "float(_sgn32({a}))",
    "f64.convert_i32_u": "float({a})",
    "f64.convert_i64_s": "float(_sgn64({a}))",
    "f64.convert_i64_u": "float({a})",
    "f64.abs": "abs({a})", "f64.neg": "-{a}", "f64.sqrt": "_fsqrt({a})",
    "f64.ceil": "_fceil({a})", "f64.floor": "_ffloor({a})",
    "f64.trunc": "_ftrunc({a})", "f64.nearest": "_fnearest({a})",
}
_LOADS = {
    "i32.load": "mem.load_u({a} + %d, 4)",
    "i64.load": "mem.load_u({a} + %d, 8)",
    "f64.load": "mem.load_f64({a} + %d)",
    "i32.load8_u": "mem.load_u({a} + %d, 1)",
    "i32.load8_s": "mem.load_s({a} + %d, 1) & 0xFFFFFFFF",
    "i32.load16_u": "mem.load_u({a} + %d, 2)",
    "i32.load16_s": "mem.load_s({a} + %d, 2) & 0xFFFFFFFF",
    "i64.load8_u": "mem.load_u({a} + %d, 1)",
    "i64.load8_s": "mem.load_s({a} + %d, 1) & 0xFFFFFFFFFFFFFFFF",
    "i64.load16_u": "mem.load_u({a} + %d, 2)",
    "i64.load16_s": "mem.load_s({a} + %d, 2) & 0xFFFFFFFFFFFFFFFF",
    "i64.load32_u": "mem.load_u({a} + %d, 4)",
    "i64.load32_s": "mem.load_s({a} + %d, 4) & 0xFFFFFFFFFFFFFFFF",
}
_STORES = {
    "i32.store": 4, "i64.store": 8, "i32.store8": 1, "i32.store16": 2,
    "i64.store8": 1, "i64.store16": 2, "i64.store32": 4,
}


_F64 = struct.Struct("<d")
_F64_BITS = struct.Struct("<Q")


def _f64_from_bits(bits: int) -> float:
    return _F64.unpack(_F64_BITS.pack(bits))[0]


class _Ctrl:
    __slots__ = ("kind", "height", "arity")

    def __init__(self, kind: str, height: int, arity: int):
        self.kind = kind
        self.height = height
        self.arity = arity


class _FnCompiler:
    def __init__(self, module: Module, func_idx: int, scheme: str):
        self.m = module
        self.idx = func_idx
        self.fn = module.funcs[func_idx - module.num_imported_funcs]
        self.ft = module.types[self.fn.type_idx]
        self.scheme = scheme
        self.lines: List[str] = []
        self.indent = 1
        self.height = 0
        self.ctrls: List[_Ctrl] = []
        self.dead = False

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def s(self, depth: int) -> str:
        return f"s{depth}"

    def push_expr(self, expr: str) -> None:
        self.emit(f"s{self.height} = {expr}")
        self.height += 1

    # ---- branch plumbing ----

    def _branch_code(self, depth: int) -> List[str]:
        """Statements performing a br to label ``depth``."""
        target = self.ctrls[-1 - depth]
        out = []
        if target.kind != "loop" and target.arity:
            src = self.height - 1
            if src != target.height:
                out.append(f"s{target.height} = s{src}")
        if depth == 0:
            out.append("continue" if target.kind == "loop" else "break")
        else:
            out.append(f"_br = {depth}")
            out.append("break")
        return out

    def _open_structure(self, kind: str, result) -> None:
        self.ctrls.append(_Ctrl(kind, self.height, 1 if result else 0))
        self.emit("while True:")
        self.indent += 1

    def _close_structure(self) -> None:
        ctrl = self.ctrls.pop()
        if not self.dead:
            if ctrl.kind != "loop" and ctrl.arity and \
                    self.height - 1 != ctrl.height:
                self.emit(f"s{ctrl.height} = s{self.height - 1}")
        self.emit("break")
        self.indent -= 1
        # propagate pending multi-level branches
        if self.ctrls:
            parent = self.ctrls[-1]
            self.emit("if _br:")
            self.emit("    _br -= 1")
            self.emit("    if _br:")
            self.emit("        break")
            if parent.kind == "loop":
                self.emit("    continue")
            else:
                if parent.arity:
                    self.emit(f"    s{parent.height} = "
                              f"s{ctrl.height + ctrl.arity - 1}"
                              if ctrl.arity else "    pass")
                self.emit("    break")
        else:
            self.emit("if _br:")
            self.emit("    raise Trap('bad-branch', 'escaped function')")
        self.height = ctrl.height + ctrl.arity
        self.dead = False

    # ---- body ----

    def compile_body(self, body: list) -> None:
        for instr in body:
            if self.dead:
                break
            self.compile_instr(instr)

    def _compile_arm(self, body: list) -> None:
        """One arm of an ``if``; an arm that emits no code gets ``pass``."""
        n = len(self.lines)
        self.compile_body(body)
        if len(self.lines) == n:
            self.emit("pass")

    def compile_instr(self, instr: tuple) -> None:
        name = instr[0]
        h = self.height

        if name == "block":
            self._open_structure("block", instr[1])
            self.compile_body(instr[2])
            self._close_structure()
            return
        if name == "loop":
            self._open_structure("loop", instr[1])
            if self.scheme in ("loop", "all"):
                self.emit("if ctx.poll_hook is not None: ctx.poll_hook()")
            self.compile_body(instr[2])
            # natural loop exit: fall out, don't re-iterate
            self._close_structure()
            return
        if name == "if":
            self.height -= 1
            self._open_structure("block", instr[1])
            self.emit(f"if s{self.height}:")
            self.indent += 1
            entry = self.height
            self._compile_arm(instr[2])
            then_dead = self.dead
            self.dead = False
            self.indent -= 1
            self.emit("else:")
            self.indent += 1
            self.height = entry
            self._compile_arm(instr[3] if len(instr) > 3 else [])
            self.dead = self.dead and then_dead
            self.indent -= 1
            self._close_structure()
            return
        if name == "br":
            for line in self._branch_code(instr[1]):
                self.emit(line)
            self.dead = True
            return
        if name == "br_if":
            self.height -= 1
            self.emit(f"if s{self.height}:")
            self.indent += 1
            for line in self._branch_code(instr[1]):
                self.emit(line)
            self.indent -= 1
            return
        if name == "br_table":
            self.height -= 1
            sel = f"s{self.height}"
            targets, default = instr[1], instr[2]
            for i, t in enumerate(targets):
                kw = "if" if i == 0 else "elif"
                self.emit(f"{kw} {sel} == {i}:")
                self.indent += 1
                for line in self._branch_code(t):
                    self.emit(line)
                self.indent -= 1
            self.emit("else:" if targets else "if True:")
            self.indent += 1
            for line in self._branch_code(default):
                self.emit(line)
            self.indent -= 1
            self.dead = True
            return
        if name == "return":
            if self.ft.results:
                self.emit(f"return s{self.height - 1}")
            else:
                self.emit("return None")
            self.dead = True
            return
        if name == "unreachable":
            self.emit("raise TrapUnreachable()")
            self.dead = True
            return
        if name == "nop":
            return
        if name == "call":
            self._compile_call(instr[1])
            return
        if name == "call_indirect":
            ft = self.m.types[instr[1]]
            self.height -= 1
            elem = f"s{self.height}"
            n = len(ft.params)
            args = ", ".join(f"s{self.height - n + i}" for i in range(n))
            self.height -= n
            call = f"ctx.call_indirect({instr[1]}, {elem}, ({args}{',' if n else ''}))"
            if ft.results:
                self.push_expr(call)
            else:
                self.emit(call)
            return
        if name in ("i32.const", "i64.const"):
            mask = MASK32 if name[1] == "3" else MASK64
            self.push_expr(str(instr[1] & mask))
            return
        if name == "f64.const":
            v = float(instr[1])
            if math.isfinite(v):
                self.push_expr(repr(v))
            else:  # no literal for inf/nan; keep the exact bits (NaN payload)
                bits = _F64_BITS.unpack(_F64.pack(v))[0]
                self.push_expr(f"_f64_from_bits({bits:#x})")
            return
        if name == "drop":
            self.height -= 1
            return
        if name == "select":
            self.height -= 3
            a, b, c = (f"s{self.height + i}" for i in range(3))
            self.push_expr(f"{a} if {c} else {b}")
            return
        if name == "local.get":
            self.push_expr(f"l{instr[1]}")
            return
        if name == "local.set":
            self.height -= 1
            self.emit(f"l{instr[1]} = s{self.height}")
            return
        if name == "local.tee":
            self.emit(f"l{instr[1]} = s{self.height - 1}")
            return
        if name == "global.get":
            self.push_expr(f"g[{instr[1]}].value")
            return
        if name == "global.set":
            self.height -= 1
            self.emit(f"g[{instr[1]}].value = s{self.height}")
            return
        if name in _LOADS:
            off = instr[2] if len(instr) > 2 else 0
            self.height -= 1
            tmpl = _LOADS[name] % off
            self.push_expr(tmpl.format(a=f"s{self.height}"))
            return
        if name in _STORES:
            off = instr[2] if len(instr) > 2 else 0
            self.height -= 2
            addr, val = f"s{self.height}", f"s{self.height + 1}"
            size = _STORES[name]
            self.emit(f"mem.store_int({addr} + {off}, {val}, {size})")
            return
        if name == "f64.store":
            off = instr[2] if len(instr) > 2 else 0
            self.height -= 2
            self.emit(f"mem.store_f64(s{self.height} + {off}, "
                      f"s{self.height + 1})")
            return
        if name == "memory.size":
            self.push_expr("mem.pages")
            return
        if name == "memory.grow":
            self.height -= 1
            self.push_expr(f"mem.grow(s{self.height}) & 0xFFFFFFFF")
            return
        if name == "memory.copy":
            self.height -= 3
            d, s_, n = (f"s{self.height + i}" for i in range(3))
            self.emit(f"mem.copy({d}, {s_}, {n})")
            return
        if name == "memory.fill":
            self.height -= 3
            d, v, n = (f"s{self.height + i}" for i in range(3))
            self.emit(f"mem.fill({d}, {v}, {n})")
            return
        if name == "i32.atomic.rmw.add":
            off = instr[2] if len(instr) > 2 else 0
            self.height -= 2
            a, v = f"s{self.height}", f"s{self.height + 1}"
            self.push_expr(f"ctx.atomic_add({a} + {off}, {v})")
            return
        if name == "i32.atomic.rmw.cmpxchg":
            off = instr[2] if len(instr) > 2 else 0
            self.height -= 3
            a, e, n_ = (f"s{self.height + i}" for i in range(3))
            self.push_expr(f"ctx.atomic_cas({a} + {off}, {e}, {n_})")
            return
        if name in _BINOPS32 or name in _BINOPS64 or name in _BINOPSF:
            tmpl = (_BINOPS32.get(name) or _BINOPS64.get(name) or
                    _BINOPSF[name])
            self.height -= 2
            a, b = f"s{self.height}", f"s{self.height + 1}"
            self.push_expr(tmpl.format(a=a, b=b))
            return
        if name in _UNOPS:
            self.height -= 1
            self.push_expr(_UNOPS[name].format(a=f"s{self.height}"))
            return
        raise Trap("compile-error", f"cannot compile {name!r}")

    def _compile_call(self, idx: int) -> None:
        ft = self.m.func_type(idx)
        n = len(ft.params)
        args = ", ".join(f"s{self.height - n + i}" for i in range(n))
        self.height -= n
        call = f"ctx.invoke({idx}, ({args}{',' if n else ''}))"
        if ft.results:
            self.push_expr(call)
        else:
            self.emit(call)

    def source(self) -> str:
        n_params = len(self.ft.params)
        params = ", ".join(f"l{i}" for i in range(n_params))
        header = f"def _f{self.idx}(ctx{', ' + params if params else ''}):"
        prelude = ["    mem = ctx.memory", "    g = ctx.globals", "    _br = 0"]
        for i, t in enumerate(self.fn.locals):
            prelude.append(
                f"    l{n_params + i} = " +
                ("0.0" if t == F64 else "0"))
        if self.scheme in ("func", "all"):
            prelude.append(
                "    if ctx.poll_hook is not None: ctx.poll_hook()")
        self.compile_body(self.fn.body)
        if self.ft.results:
            if not self.dead:
                self.emit(f"return s{self.height - 1}")
        else:
            self.emit("return None")
        return "\n".join([header] + prelude + self.lines)


class CompiledContext:
    """Execution context shared by all compiled functions of an instance."""

    MAX_DEPTH = 900  # stay under Python's recursion limit

    def __init__(self, instance):
        self.instance = instance
        self.poll_hook = None
        self.depth = 0
        self.cfuncs: Dict[int, Callable] = {}

    @property
    def memory(self):
        return self.instance.memory

    @property
    def globals(self):
        return self.instance.globals

    def invoke(self, idx: int, args: tuple):
        target = self.cfuncs.get(idx)
        if target is not None:
            self.depth += 1
            if self.depth > self.MAX_DEPTH:
                self.depth = 0
                raise TrapStackExhausted("compiled tier")
            try:
                return target(self, *args)
            finally:
                self.depth -= 1
        func = self.instance.funcs[idx]
        if isinstance(func, HostFunc):
            res = func.fn(*args)
            if func.functype.results:
                t = func.functype.results[0]
                if t == I32:
                    return (res or 0) & MASK32
                if t == I64:
                    return (res or 0) & MASK64
                return float(res or 0.0)
            return None
        raise Trap("bad-call", f"function {idx} not compiled")

    def call_indirect(self, type_idx: int, elem_idx: int, args: tuple):
        table = self.instance.table
        if table is None or elem_idx >= len(table.elems):
            raise TrapIndirectCall(f"table index {elem_idx}")
        callee = table.elems[elem_idx]
        if callee is None:
            raise TrapIndirectCall(f"null entry {elem_idx}")
        expected = self.instance.module.types[type_idx]
        if callee.functype != expected:
            raise TrapIndirectCall(str(expected))
        return self.invoke(self.instance.funcs.index(callee), args)

    def atomic_add(self, addr: int, val: int) -> int:
        from .interp import _ATOMIC_LOCK

        with _ATOMIC_LOCK:
            old = self.memory.load_i32(addr)
            self.memory.store_i32(addr, old + val)
        return old

    def atomic_cas(self, addr: int, expected: int, new: int) -> int:
        from .interp import _ATOMIC_LOCK

        with _ATOMIC_LOCK:
            old = self.memory.load_i32(addr)
            if old == expected:
                self.memory.store_i32(addr, new)
        return old


def compile_instance(instance, scheme: str = "none") -> CompiledContext:
    """Compile all defined functions of an instance; returns the context.

    ``ctx.invoke(func_index, args)`` then runs compiled code end-to-end.
    """
    if scheme not in SAFEPOINT_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    m = instance.module
    env = {
        "_idiv_s": _idiv_s, "_irem_s": _irem_s, "_clz": _clz, "_ctz": _ctz,
        "_rotl": _rotl, "_trunc": _trunc, "_sgn32": signed32,
        "_sgn64": signed64, "_sext": _sext, "_udiv": _udiv, "_urem": _urem,
        "_fdiv": _fdiv, "_fmin": _fmin, "_fmax": _fmax, "_fsqrt": _fsqrt,
        "_fceil": _fceil, "_ffloor": _ffloor, "_ftrunc": _ftrunc,
        "_fnearest": _fnearest, "_f64_from_bits": _f64_from_bits,
        "Trap": Trap,
        "TrapUnreachable": TrapUnreachable,
    }
    ctx = CompiledContext(instance)
    n_imp = m.num_imported_funcs
    for i in range(len(m.funcs)):
        idx = n_imp + i
        src = _FnCompiler(m, idx, scheme).source()
        scope: dict = {}
        exec(compile(src, f"<wasm:{m.name}:f{idx}>", "exec"), env, scope)
        ctx.cfuncs[idx] = scope[f"_f{idx}"]
    return ctx

