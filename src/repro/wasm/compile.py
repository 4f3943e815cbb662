"""The compiled tier: Wasm functions → generated Python functions.

This is the repository's AoT compiler (the WAMR ``wamrc`` analog): each
function body is translated to Python source with

* compile-time stack slots mapped to local variables (``s0, s1, ...``),
* structured control flow lowered to ``while True:`` blocks with the
  multi-level-break flag technique,
* memory access inlined on the linear memory's ``bytearray``, with the
  bounds-checked :class:`~repro.wasm.memory.LinearMemory` call as the
  out-of-range path,
* full semantics preserved: wrapping arithmetic, trapping division,
  bounds-checked memory access, ``call_indirect`` signature checks,
  safepoint polls at loop headers.

There is one calling convention: every compiled function is
``f(machine, *args)`` for the calling
:class:`~repro.wasm.interp.Machine`.  It retires the interpreter's exact
step count (one ``m.steps += n`` per basic-block exit, ``n`` its flat
ops), polls the machine's ``poll_hook`` at safepoints while its
``poll_gate`` reads nonzero, as the interpreter does, and calls compiled
callees directly as ``_f<index>(m, ...)``.  A ``call`` of an import reads
the import slot when it runs; a :class:`~repro.wasm.interp.HostFunc` is
called as ``.fn(*args)`` with its result masked inline, so a WALI syscall
costs the host no engine frame.  ``call_indirect`` targets, and imports
that are not host functions, go through the machine (:func:`_call`).
The interpreter enters compiled code at ``CALL_NATIVE``, and
:meth:`~repro.wasm.interp.Machine.invoke` runs a compiled entry function
(``_start``, a signal handler) without interpreting it.

:func:`compiled_functions` picks what tiers up by one of two rules:

* ``"fork_free"`` (the WALI default): a compiled activation lives on the
  Python call stack, so it cannot be forked (cf. §3.6 item 5).  Every
  *fork-free* function (:func:`fork_free_functions`) runs compiled: one
  whose static call graph reaches no fork, clone or ``execve`` import.
  Every other syscall is called from compiled code.
* ``"all"``: every defined function (the Fig. 8 native and docker
  tiers).  A ``fork`` made under a compiled frame fails with EAGAIN.

A trap inside compiled code leaves ``Machine.steps`` exact: every source
line records the steps pending there (``f.pending``, by line), which the
interpreter adds where it entered compiled code
(:meth:`Machine._retire_trap`).

**The image cache.**  Everything derived from an image is made once per
content and kept here: the decoded, validated module of its bytes
(:func:`load_image`), and per safepoint scheme and rule its flat code with
the compiled bodies (:func:`image_code`, which ``instantiate`` reads).  A
load of bytes seen before only links.

``docs/perf.md``, "The compiled tier" and "Loading an image", has the
rules.
"""

from __future__ import annotations

import math
import struct
import threading
from typing import Callable, Dict, List, Optional, Set

from .binary import decode_module, encode_module
from .errors import Trap, TrapUnreachable
from .flatten import flatten_module
from .interp import (
    COMPILED_FILE, HostFunc, _atomic_add, _atomic_cas, _clz, _ctz, _fceil,
    _fdiv, _ffloor, _fmax, _fmin, _fnearest, _fsqrt, _ftrunc, _idiv_s,
    _irem_s, _rotl, _sext, _trunc, _udiv, _urem,
)
from .module import KIND_FUNC, Module
from .types import F64, I32, I64, MASK32, MASK64, FuncType, signed32, signed64
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
}
# signed compares: operands are canonical unsigned values, so flipping
# both sign bits orders them as signed
for _w, _bit, _ops in ((32, "0x80000000", _BINOPS32),
                       (64, "0x8000000000000000", _BINOPS64)):
    for _op, _sym in (("lt", "<"), ("gt", ">"), ("le", "<="), ("ge", ">=")):
        _ops[f"i{_w}.{_op}_s"] = \
            f"1 if ({{a}} ^ {_bit}) {_sym} ({{b}} ^ {_bit}) else 0"
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
# memory access: name -> (bytes, struct accessor, mask of a signed load,
# the bounds-checked LinearMemory call used out of range)
_LOADS = {
    "i32.load": (4, "_U4", "", "mem.load_u({a}, 4)"),
    "i64.load": (8, "_U8", "", "mem.load_u({a}, 8)"),
    "f64.load": (8, "_F8", "", "mem.load_f64({a})"),
    "i32.load8_u": (1, None, "", "mem.load_u({a}, 1)"),
    "i32.load16_u": (2, "_U2", "", "mem.load_u({a}, 2)"),
    "i64.load8_u": (1, None, "", "mem.load_u({a}, 1)"),
    "i64.load16_u": (2, "_U2", "", "mem.load_u({a}, 2)"),
    "i64.load32_u": (4, "_U4", "", "mem.load_u({a}, 4)"),
    "i32.load8_s": (1, "_S1", " & 0xFFFFFFFF", "mem.load_s({a}, 1)"),
    "i32.load16_s": (2, "_S2", " & 0xFFFFFFFF", "mem.load_s({a}, 2)"),
    "i64.load8_s": (1, "_S1", " & 0xFFFFFFFFFFFFFFFF", "mem.load_s({a}, 1)"),
    "i64.load16_s": (2, "_S2", " & 0xFFFFFFFFFFFFFFFF", "mem.load_s({a}, 2)"),
    "i64.load32_s": (4, "_S4", " & 0xFFFFFFFFFFFFFFFF", "mem.load_s({a}, 4)"),
}
# name -> (bytes, struct packer)
_STORES = {
    "i32.store": (4, "_P4"), "i64.store": (8, "_P8"),
    "i32.store8": (1, None), "i32.store16": (2, "_P2"),
    "i64.store8": (1, None), "i64.store16": (2, "_P2"),
    "i64.store32": (4, "_P4"),
}


_F64 = struct.Struct("<d")
_F64_BITS = struct.Struct("<Q")


def _f64_from_bits(bits: int) -> float:
    return _F64.unpack(_F64_BITS.pack(bits))[0]


class _Ctrl:
    __slots__ = ("kind", "height", "arity", "header")

    def __init__(self, kind: str, height: int, arity: int, header: int):
        self.kind = kind
        self.height = height
        self.arity = arity
        self.header = header     # steps retired at a loop header


class _FnCompiler:
    """One function body as Python source.

    The generated function takes ``m``, the calling
    :class:`~repro.wasm.interp.Machine`, and reaches memory, globals,
    functions and the poll hook through ``m.instance``, ``m.poll_hook`` and
    ``m.poll_gate`` when it is entered.

    The body retires the interpreter's step count: ``self.pend`` holds the
    flat ops (:mod:`.flatten`) of the code emitted since the last
    ``m.steps += n``, and every edge that leaves straight-line code
    (branch, return, call, loop entry, the end of a block or of an ``if``
    arm) adds them.  The loop header's poll op is added on each edge into
    the header, so ``m.steps`` is exact whenever the poll hook, a callee or
    the host runs.  Each emitted line records ``self.pend`` as it stands
    there (the op the line executes included), so a trap raised on a line
    adds what was pending (:attr:`line_pend`).
    """

    def __init__(self, module: Module, func_idx: int, scheme: str,
                 func_types: List[FuncType]):
        self.m = module
        self.idx = func_idx
        self.func_types = func_types   # Module.func_types(), once a pass
        self.n_imp = len(func_types) - len(module.funcs)
        self.fn = module.funcs[func_idx - self.n_imp]
        self.ft = module.types[self.fn.type_idx]
        self.scheme = scheme
        # flat ops per instruction: "all" puts a poll before every op
        self.w = 2 if scheme == "all" else 1
        self.pend = 0
        self.lines: List[str] = []
        self.pends: List[int] = []     # self.pend at each line of lines
        self.indent = 1
        self.height = 0
        self.ctrls: List[_Ctrl] = []
        self.dead = False
        self.uses_mem = False
        self.uses_globals = False
        self.uses_funcs = False
        self.polls = False

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)
        self.pends.append(self.pend)

    def push_expr(self, expr: str) -> None:
        self.emit(f"s{self.height} = {expr}")
        self.height += 1

    # ---- step retirement ----

    def tick(self) -> None:
        self.pend += self.w

    def _steps_line(self, n: int) -> List[str]:
        return [f"m.steps += {n}"] if n else []

    def flush(self) -> None:
        for line in self._steps_line(self.pend):
            self.emit(line)
        self.pend = 0

    def _set_dead(self) -> None:
        self.dead = True
        self.pend = 0

    def poll(self) -> None:
        self.polls = True
        self.emit("if gate.bits and hook is not None: hook()")

    # ---- branch plumbing ----

    def _branch_code(self, depth: int) -> List[str]:
        """Statements performing a br to label ``depth``; they retire the
        pending steps without clearing ``self.pend`` (a ``br_if`` falls
        through with them)."""
        if depth == len(self.ctrls):
            # the function's own label: the flat jump lands on its closing
            # ``ret`` (past the poll the ``all`` scheme puts before it)
            out = self._steps_line(self.pend + 1)
            out.append(f"return s{self.height - 1}" if self.ft.results
                       else "return None")
            return out
        target = self.ctrls[-1 - depth]
        out = self._steps_line(self.pend + target.header)
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
        header = 0
        if kind == "loop":
            # the header is a join: retire what precedes it, plus the
            # header's poll op, before entering
            header = self.w if self.scheme == "loop" else 0
            self.pend += header
            self.flush()
        self.ctrls.append(_Ctrl(kind, self.height, 1 if result else 0,
                                header))
        self.emit("while True:")
        self.indent += 1

    def _close_structure(self) -> None:
        ctrl = self.ctrls.pop()
        if not self.dead:
            if ctrl.kind != "loop" and ctrl.arity and \
                    self.height - 1 != ctrl.height:
                self.emit(f"s{ctrl.height} = s{self.height - 1}")
            self.flush()
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
        self.pend = 0

    # ---- body ----

    def compile_body(self, body: list) -> None:
        for instr in body:
            if self.dead:
                break
            self.compile_instr(instr)

    def _compile_arm(self, body: list, pend: int, tail: int) -> None:
        """One arm of an ``if``, entered with ``pend`` steps pending;
        ``tail`` is the flat op that ends the arm (the then-arm's jump over
        the else-arm).  An arm that emits no code gets ``pass``."""
        n = len(self.lines)
        self.pend = pend
        self.compile_body(body)
        if not self.dead:
            self.pend += tail
            self.flush()
        if len(self.lines) == n:
            self.emit("pass")

    def compile_instr(self, instr: tuple) -> None:
        name = instr[0]
        if name == "nop":
            return
        # every other instruction is one flat op (block and loop none)
        if name != "block" and name != "loop":
            self.tick()

        if name == "block":
            self._open_structure("block", instr[1])
            self.compile_body(instr[2])
            self._close_structure()
            return
        if name == "loop":
            self._open_structure("loop", instr[1])
            if self.scheme in ("loop", "all"):
                self.poll()
            self.compile_body(instr[2])
            # natural loop exit: fall out, don't re-iterate
            self._close_structure()
            return
        if name == "if":
            els = instr[3] if len(instr) > 3 else []
            self.height -= 1
            self._open_structure("block", instr[1])
            self.emit(f"if s{self.height}:")
            self.indent += 1
            entry, pend = self.height, self.pend
            self._compile_arm(instr[2], pend, self.w if els else 0)
            then_dead = self.dead
            self.dead = False
            self.indent -= 1
            self.emit("else:")
            self.indent += 1
            self.height = entry
            self._compile_arm(els, pend, 0)
            self.dead = self.dead and then_dead
            self.indent -= 1
            self._close_structure()
            return
        if name == "br":
            for line in self._branch_code(instr[1]):
                self.emit(line)
            self._set_dead()
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
            self._set_dead()
            return
        if name == "return":
            self.flush()
            if self.ft.results:
                self.emit(f"return s{self.height - 1}")
            else:
                self.emit("return None")
            self._set_dead()
            return
        if name == "unreachable":
            self.flush()
            self.emit("raise TrapUnreachable()")
            self._set_dead()
            return
        if name == "call":
            idx = instr[1]
            if idx >= self.n_imp:
                self._compile_call(self.func_types[idx], f"_f{idx}", True)
            else:
                self.uses_funcs = True
                self._compile_import_call(self.func_types[idx], idx)
            return
        if name == "call_indirect":
            self.height -= 1
            self._compile_call(
                self.m.types[instr[1]],
                f"m._resolve_indirect(s{self.height}, {instr[1]})", False)
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
            self.uses_globals = True
            self.push_expr(f"g[{instr[1]}].value")
            return
        if name == "global.set":
            self.uses_globals = True
            self.height -= 1
            self.emit(f"g[{instr[1]}].value = s{self.height}")
            return
        if name in _LOADS:
            self._compile_load(name, instr[2] if len(instr) > 2 else 0)
            return
        if name in _STORES or name == "f64.store":
            self._compile_store(name, instr[2] if len(instr) > 2 else 0)
            return
        if name == "memory.size":
            self.uses_mem = True
            self.push_expr("mem.pages")
            return
        if name == "memory.grow":
            self.uses_mem = True
            self.height -= 1
            self.push_expr(f"mem.grow(s{self.height}) & 0xFFFFFFFF")
            return
        if name == "memory.copy":
            self.uses_mem = True
            self.height -= 3
            d, s_, n = (f"s{self.height + i}" for i in range(3))
            self.emit(f"mem.copy({d}, {s_}, {n})")
            return
        if name == "memory.fill":
            self.uses_mem = True
            self.height -= 3
            d, v, n = (f"s{self.height + i}" for i in range(3))
            self.emit(f"mem.fill({d}, {v}, {n})")
            return
        if name == "i32.atomic.rmw.add":
            off = instr[2] if len(instr) > 2 else 0
            self.height -= 2
            a, v = f"s{self.height}", f"s{self.height + 1}"
            self.uses_mem = True
            self.push_expr(f"_atomic_add(mem, {a} + {off}, {v})")
            return
        if name == "i32.atomic.rmw.cmpxchg":
            off = instr[2] if len(instr) > 2 else 0
            self.height -= 3
            a, e, n_ = (f"s{self.height + i}" for i in range(3))
            self.uses_mem = True
            self.push_expr(f"_atomic_cas(mem, {a} + {off}, {e}, {n_})")
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

    # ---- memory: inline ``data`` access, LinearMemory out of range ----
    # ``ld`` is ``len(data)`` at entry.  Memory never shrinks, so a stale
    # ``ld`` only sends an in-range access down the checked path.

    def _compile_load(self, name: str, off: int) -> None:
        self.uses_mem = True
        size, unpack, sign_mask, checked = _LOADS[name]
        a = f"s{self.height - 1}"
        if off:
            self.emit(f"{a} = {a} + {off}")
        checked = checked.format(a=a)
        if unpack is None:
            self.emit(f"{a} = data[{a}] if {a} < ld else {checked}")
        else:
            self.emit(f"{a} = {unpack}(data, {a})[0]{sign_mask} "
                      f"if {a} + {size} <= ld else {checked}{sign_mask}")

    def _compile_store(self, name: str, off: int) -> None:
        self.uses_mem = True
        self.height -= 2
        a, v = f"s{self.height}", f"s{self.height + 1}"
        if off:
            self.emit(f"{a} = {a} + {off}")
        if name == "f64.store":
            self.emit(f"if {a} + 8 <= ld: _PF8(data, {a}, {v})")
            self.emit(f"else: mem.store_f64({a}, {v})")
            return
        size, pack = _STORES[name]
        mask = hex((1 << (8 * size)) - 1)
        if pack is None:
            self.emit(f"if {a} < ld: data[{a}] = {v} & {mask}")
        else:
            self.emit(f"if {a} + {size} <= ld: "
                      f"{pack}(data, {a}, {v} & {mask})")
        self.emit(f"else: mem.store_int({a}, {v}, {size})")

    def _call_args(self, ft) -> str:
        """Pop ``ft``'s arguments and retire the caller's steps, so the
        callee and the host see an exact count; returns the arguments."""
        n = len(ft.params)
        args = ", ".join(f"s{self.height - n + i}" for i in range(n))
        self.height -= n
        self.flush()
        return args

    def _compile_call(self, ft, callee: str, direct: bool) -> None:
        """A call of ``callee``: a compiled function, called directly, or
        (not ``direct``) an expression naming a table function, called
        through :func:`_call`."""
        args = self._call_args(ft)
        if direct:
            call = f"{callee}(m{', ' + args if args else ''})"
        else:
            call = f"_call(m, {callee}, ({args}{',' if args else ''}))"
        if ft.results:
            self.push_expr(call)
        else:
            self.emit(call)

    def _compile_import_call(self, ft, idx: int) -> None:
        """A call of import ``idx``, read from ``fns`` when it runs: a
        :class:`HostFunc` is called as ``.fn(*args)`` and its result
        masked inline, as :meth:`Machine._call_host` does; any other
        import (another instance's exported function) goes through
        :func:`_call`."""
        args = self._call_args(ft)
        load = f"(_h := fns[{idx}]).__class__"
        slow = f"_call(m, _h, ({args}{',' if args else ''}))"
        host = f"_h.fn({args})"
        if not ft.results:
            self.emit(f"if {load} is not HostFunc: {slow}")
            self.emit(f"elif {host} is not None: "
                      f"raise Trap('host-result-mismatch', _h.name)")
            return
        t = ft.results[0]
        if t == I32 or t == I64:
            mask = "0xFFFFFFFF" if t == I32 else "0xFFFFFFFFFFFFFFFF"
            host = f"({host} or 0) & {mask}"
        else:
            host = f"float({host} or 0.0)"
        self.push_expr(f"{host} if {load} is HostFunc else {slow}")

    def source(self) -> str:
        n_params = len(self.ft.params)
        params = ", ".join(f"l{i}" for i in range(n_params))
        header = f"def _f{self.idx}(m{', ' + params if params else ''}):"
        if self.scheme == "func":
            self.tick()          # the flat entry poll
        self.flush()
        if self.scheme in ("func", "all"):
            self.poll()
        entry, entry_pends = self.lines, self.pends
        self.lines, self.pends = [], []
        self.compile_body(self.fn.body)
        if not self.dead:
            self.tick()          # the flat ``ret`` that ends the body
            self.flush()
            self.emit(f"return s{self.height - 1}" if self.ft.results
                      else "return None")
        prelude = []
        if self.uses_mem or self.uses_globals or self.uses_funcs:
            prelude.append("    inst = m.instance")
        if self.uses_mem:
            prelude += ["    mem = inst.memory", "    data = mem.data",
                        "    ld = len(data)"]
        if self.uses_globals:
            prelude.append("    g = inst.globals")
        if self.uses_funcs:
            prelude.append("    fns = inst.funcs")
        if self.polls:
            prelude += ["    hook = m.poll_hook", "    gate = m.poll_gate"]
        prelude.append("    _br = 0")
        for i, t in enumerate(self.fn.locals):
            prelude.append(
                f"    l{n_params + i} = " +
                ("0.0" if t == F64 else "0"))
        # the steps pending at each source line (1-based, the header first)
        self.line_pend = ([0] * (1 + len(prelude)) + entry_pends +
                          self.pends)
        return "\n".join([header] + prelude + entry + self.lines)


def _call(m, callee, args: tuple):
    """Call a table function, or an import that is not a
    :class:`HostFunc`, from compiled code: a host function through the
    interpreter's own host-call routine, a defined one by its compiled
    body, else interpreted on the machine."""
    if callee.__class__ is HostFunc:
        stack = m.stack
        stack += args
        m._call_host(callee)
        return stack.pop() if callee.functype.results else None
    if callee.native is not None:
        return callee.native(m, *args)
    return m.invoke(callee, args)


# the one environment every compiled function runs against
_HELPERS = {
    "_idiv_s": _idiv_s, "_irem_s": _irem_s, "_clz": _clz, "_ctz": _ctz,
    "_rotl": _rotl, "_trunc": _trunc, "_sgn32": signed32,
    "_sgn64": signed64, "_sext": _sext, "_udiv": _udiv, "_urem": _urem,
    "_fdiv": _fdiv, "_fmin": _fmin, "_fmax": _fmax, "_fsqrt": _fsqrt,
    "_fceil": _fceil, "_ffloor": _ffloor, "_ftrunc": _ftrunc,
    "_fnearest": _fnearest, "_f64_from_bits": _f64_from_bits,
    "_call": _call, "_atomic_add": _atomic_add, "_atomic_cas": _atomic_cas,
    "HostFunc": HostFunc, "Trap": Trap,
    "TrapUnreachable": TrapUnreachable,
}
# struct accessors of inlined memory access, upper case so that no helper
# name can shadow, or be shadowed by, a compiled function ``_f<index>``
for _name, _fmt in (("U2", "<H"), ("U4", "<I"), ("U8", "<Q"), ("S1", "<b"),
                    ("S2", "<h"), ("S4", "<i"), ("F8", "<d")):
    _HELPERS["_" + _name] = struct.Struct(_fmt).unpack_from
for _name, _fmt in (("P2", "<H"), ("P4", "<I"), ("P8", "<Q"),
                    ("PF8", "<d")):
    _HELPERS["_" + _name] = struct.Struct(_fmt).pack_into


def _define(m: Module, idxs, scheme: str) -> tuple:
    """Compile functions ``idxs`` of ``m`` into one namespace (where
    compiled functions call each other by name); returns it with the
    indices that failed to compile.  Each function's code is filed as
    ``<wasm:NAME>`` (:data:`~repro.wasm.interp.COMPILED_FILE`), which is how
    a trap and the perf stack walk find compiled frames."""
    scope = dict(_HELPERS)
    failed = set()
    n_imp = m.num_imported_funcs
    func_types = m.func_types()
    for i in idxs:
        try:
            fc = _FnCompiler(m, i, scheme, func_types)
            filename = f"{COMPILED_FILE}{m.funcs[i - n_imp].name or i}>"
            exec(compile(fc.source(), filename, "exec"), scope)
            scope[f"_f{i}"].pending = tuple(fc.line_pend)
        except (Trap, IndexError, SyntaxError):
            # a construct the compiler lacks, or nesting past Python's
            # static block limit
            failed.add(i)
    return scope, failed


def module_image(m: Module) -> bytes:
    """The content key of ``m``: the bytes it was decoded from, else its
    encoding, taken once.  A pass that rewrites a module in place drops
    it (:func:`repro.wasm.opt.gc_functions`)."""
    if m.image is None:
        m.image = encode_module(m)
    return m.image


class _Image:
    """Everything derived from one image.  ``module`` is its decoded
    :class:`Module` (None until the bytes are loaded through
    :func:`load_image`: a module built in Python is only flattened and
    compiled here); ``code`` maps ``(scheme, rule)`` to the flat code of
    every defined function and the compiled bodies the rule gives.  An
    image has an entry only once it has decoded and validated."""

    __slots__ = ("module", "code")

    def __init__(self):
        self.module: Optional[Module] = None
        self.code: Dict[tuple, tuple] = {}


# image bytes -> _Image, the one cache of what is derived from an image;
# guest threads load images concurrently (a pipeline's children execve),
# so entries are filled under the lock and read without it
_CACHE: Dict[bytes, _Image] = {}
_CACHE_MAX = 64
_CACHE_LOCK = threading.Lock()

RULES = ("fork_free", "all")


def _entry(image: bytes, m: Module) -> _Image:
    """The entry of ``image`` (whose module is ``m``), validating ``m``
    first when there is none; the caller holds :data:`_CACHE_LOCK`."""
    entry = _CACHE.get(image)
    if entry is None:
        validate_module(m)
        if len(_CACHE) >= _CACHE_MAX:
            del _CACHE[next(iter(_CACHE))]
        entry = _CACHE[image] = _Image()
    return entry


def load_image(image: bytes, name: str = "",
               decode: Callable[..., Module] = decode_module) -> Module:
    """The validated module of ``image``, decoded (``decode(image,
    name=name)``) and validated once per content: every load of the same
    bytes returns the same module, named as on its first load, which no
    caller may change.  An image that fails to decode or validate is not
    cached, so it fails on every load."""
    entry = _CACHE.get(image)
    if entry is None or entry.module is None:
        with _CACHE_LOCK:
            entry = _CACHE.get(image)
            if entry is None or entry.module is None:
                m = decode(image, name=name)
                _entry(image, m).module = m
                return m
    return entry.module


def image_code(m: Module, scheme: str, rule: Optional[str]) -> tuple:
    """``(flat, native)`` for an instance of ``m`` under safepoint
    ``scheme`` and tier-up ``rule``: the :class:`FlatCode` of every
    defined function, in definition order, and the compiled bodies by
    function index (none when ``rule`` is None).

    Cached by ``(image, scheme, rule)``, and ``m`` is validated only
    when its image has no entry yet.  The rule is part of the key
    because flat code caches its decoded form, where a call of a
    compiled callee differs from an interpreted one: only instances with
    the same compiled bodies share flat code.  Neither half holds
    instance state."""
    if rule is not None and rule not in RULES:
        raise ValueError(f"unknown tier-up rule {rule!r}")
    image = module_image(m)
    entry = _CACHE.get(image)
    code = entry.code.get((scheme, rule)) if entry is not None else None
    if code is None:
        with _CACHE_LOCK:
            entry = _entry(image, m)
            code = entry.code.get((scheme, rule))
            if code is None:
                native = {} if rule is None else _compile(m, scheme, rule)
                code = entry.code[scheme, rule] = (
                    flatten_module(m, scheme), native)
    return code


def compiled_functions(m: Module, scheme: str,
                       rule: str) -> Dict[int, Callable]:
    """The compiled bodies of the functions of ``m`` that ``rule`` tiers
    up, by function index: under ``"fork_free"`` every fork-free function
    (:func:`fork_free_functions`), under ``"all"`` every defined function.
    Each is ``f(machine, *args)``.  A function that fails to compile, and
    every function that calls it, stays interpreted.

    Cached by module content (:func:`image_code`): a fresh decode of the
    same image compiles nothing, and two modules with the same name but
    different code never share compiled code.  A compiled function
    reaches instance state only through its machine, so every instance
    of the image shares it."""
    if rule not in RULES:
        raise ValueError(f"unknown tier-up rule {rule!r}")
    return image_code(m, scheme, rule)[1]


def _compile(m: Module, scheme: str, rule: str) -> Dict[int, Callable]:
    n_imp = m.num_imported_funcs
    if rule == "all":
        entries = range(n_imp, n_imp + len(m.funcs))
    else:
        entries = fork_free_functions(m)

    def closure(i: int, seen: set) -> set:
        if i >= n_imp and i not in seen:
            seen.add(i)
            for instr in _walk(m.funcs[i - n_imp].body):
                if instr[0] == "call":
                    closure(instr[1], seen)
        return seen

    closures = {i: closure(i, set()) for i in entries}
    scope, failed = _define(m, sorted(set().union(*closures.values())),
                            scheme)
    return {i: scope[f"_f{i}"] for i, fns in closures.items()
            if not fns & failed}


# --------------------------------------------------------------------------
# the fork-free rule: functions under which no fork, clone or execve starts
# --------------------------------------------------------------------------

# the imports that copy or replace the calling process
FORK_IMPORTS = frozenset({"SYS_fork", "SYS_vfork", "SYS_clone", "SYS_clone3",
                          "SYS_execve"})


def _walk(body: list):
    for instr in body:
        yield instr
        if instr[0] in ("block", "loop"):
            yield from _walk(instr[2])
        elif instr[0] == "if":
            yield from _walk(instr[2])
            if len(instr) > 3:
                yield from _walk(instr[3])


def fork_free_functions(m: Module) -> Set[int]:
    """The indices of the *fork-free* functions of ``m``.

    A defined function is fork-free when its static call graph contains
    no cycle, ``call_indirect`` or ``memory.grow``, and reaches no import
    in :data:`FORK_IMPORTS`.  Atomic ops are admitted: compiled code runs
    them through the interpreter's own helpers, under the one engine-wide
    atomic lock.  No fork, clone or ``execve`` can
    start inside one, so no process copy or image replacement meets a
    compiled activation but one made from a signal handler, which the
    runtime refuses; and its compiled form recurses no deeper than its
    call graph.
    """
    imported = m.imported(KIND_FUNC)
    n_imp = len(imported)
    facts = {}
    for i, fn in enumerate(m.funcs):
        calls, pure = set(), True
        for instr in _walk(fn.body):
            op = instr[0]
            if op == "call":
                calls.add(instr[1])
            elif op in ("call_indirect", "memory.grow"):
                pure = False
        facts[n_imp + i] = (calls, pure)
    state: Dict[int, Optional[bool]] = {}   # None: on the DFS path

    def fork_free(i: int) -> bool:
        if i < n_imp:
            return imported[i].name not in FORK_IMPORTS
        if i in state:
            return bool(state[i])            # a cycle reads None
        state[i] = None
        calls, ok = facts[i]
        for c in calls:
            ok = fork_free(c) and ok
        state[i] = ok
        return ok

    return {i for i in facts if fork_free(i)}
