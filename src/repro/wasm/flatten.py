"""Flattening: structured function bodies → linear code with resolved jumps.

The interpreter executes *flat code*: a list of instruction tuples with
explicit program-counter targets for every branch.  Flattening is also where
**signal-poll safepoints** are inserted (§3.3 of the paper): the scheme
chooses where the engine checks for pending virtual signals.

Safepoint schemes (Table 3 of the paper):

* ``"none"``     — no polling (signals never delivered asynchronously).
* ``"loop"``     — a poll at every loop header, i.e. once per back edge
  (the paper's implementation choice).
* ``"func"``     — a poll at every function entry.
* ``"all"``      — a poll before every instruction (prohibitively slow;
  measured as the ~10x-worse variant in Table 3).

Branch instructions carry ``(target_pc, keep_arity, target_height)`` so the
interpreter can unwind the operand stack exactly as the structured semantics
require.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .module import Function, Module
from .opcodes import OPS
from .types import FuncType, MASK32, MASK64, default_value

SAFEPOINT_SCHEMES = ("none", "loop", "func", "all")


@dataclass
class FlatCode:
    """Executable representation of one function."""

    name: str
    functype: FuncType
    local_types: List[str]      # params + declared locals
    ops: List[tuple] = field(default_factory=list)
    loop_headers: List[int] = field(default_factory=list)
    # read on every call, so stored rather than derived
    n_params: int = field(init=False)
    n_results: int = field(init=False)
    zero_locals: List = field(init=False)   # initial declared-local values
    # the interpreter's pre-decoded ``ops``, built on first execution
    decoded: Optional[list] = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        self.n_params = len(self.functype.params)
        self.n_results = len(self.functype.results)
        self.zero_locals = [default_value(t)
                            for t in self.local_types[self.n_params:]]


class _Label:
    __slots__ = ("is_loop", "height", "arity", "target", "patches")

    def __init__(self, is_loop: bool, height: int, arity: int, target: int = -1):
        self.is_loop = is_loop
        self.height = height
        self.arity = arity
        self.target = target          # loop header pc (loops only)
        self.patches: List[int] = []  # pcs whose target patches to block end


class _Flattener:
    def __init__(self, module: Module, fn: Function, scheme: str,
                 func_types: List[FuncType]):
        if scheme not in SAFEPOINT_SCHEMES:
            raise ValueError(f"unknown safepoint scheme {scheme!r}")
        self.m = module
        self.func_types = func_types   # Module.func_types(), once a pass
        self.fn = fn
        self.scheme = scheme
        ft = module.types[fn.type_idx]
        self.code = FlatCode(
            name=fn.name, functype=ft,
            local_types=list(ft.params) + list(fn.locals))
        self.labels: List[_Label] = [
            _Label(False, 0, len(ft.results))]  # function-level label
        self.height = 0

    # ---- emission ----

    def emit(self, instr: tuple) -> int:
        ops = self.code.ops
        if self.scheme == "all" and instr[0] != "poll":
            ops.append(("poll",))
        ops.append(instr)
        return len(ops) - 1

    def pc(self) -> int:
        return len(self.code.ops)

    # ---- branch helpers ----

    def _branch_info(self, depth: int) -> Tuple[int, int, int]:
        label = self.labels[-1 - depth]
        if label.is_loop:
            return label.target, 0, label.height
        return -1, label.arity, label.height  # -1: patch later

    def _emit_branch(self, opname: str, depth: int, extra=()) -> None:
        label = self.labels[-1 - depth]
        target, arity, height = self._branch_info(depth)
        pc = self.emit((opname, target, arity, height, *extra))
        if target < 0:
            label.patches.append(pc)

    # ---- body walking ----

    def flatten_body(self, body: list) -> None:
        for instr in body:
            terminal = self.flatten_instr(instr)
            if terminal:
                return  # rest of this body list is unreachable

    def flatten_instr(self, instr: tuple) -> bool:
        """Emit flat code for one instruction; True if control never falls
        through (br, return, unreachable, br_table)."""
        name = instr[0]

        if name == "block":
            result, inner = instr[1], instr[2]
            label = _Label(False, self.height, 1 if result else 0)
            self.labels.append(label)
            self.flatten_body(inner)
            self._close_label(label)
            return False

        if name == "loop":
            result, inner = instr[1], instr[2]
            header = self.pc()
            self.code.loop_headers.append(header)
            if self.scheme == "loop":
                self.emit(("poll",))
            label = _Label(True, self.height, 1 if result else 0, target=header)
            self.labels.append(label)
            self.flatten_body(inner)
            self._close_label(label)
            return False

        if name == "if":
            result, then, els = instr[1], instr[2], instr[3] if len(instr) > 3 else []
            self.height -= 1  # condition
            label = _Label(False, self.height, 1 if result else 0)
            if_pc = self.emit(("if_false", -1))
            self.labels.append(label)
            entry_height = self.height
            self.flatten_body(then)
            if els:
                jmp_pc = self.emit(("jump", -1, label.arity, label.height))
                label.patches.append(jmp_pc)
                self.code.ops[if_pc] = ("if_false", self.pc())
                self.height = entry_height
                self.flatten_body(els)
            else:
                label.patches.append(if_pc)  # patched by _close_label
            self._close_label(label, if_pc if not els else None)
            return False

        if name == "br":
            self._emit_branch("jump", instr[1])
            return True

        if name == "br_if":
            self.height -= 1
            self._emit_branch("br_if", instr[1])
            return False

        if name == "br_table":
            self.height -= 1
            targets, default = instr[1], instr[2]
            entries = []
            patch_specs = []  # (slot index in entries, label)
            for depth in list(targets) + [default]:
                label = self.labels[-1 - depth]
                target, arity, height = self._branch_info(depth)
                entries.append((target, arity, height))
                if target < 0:
                    patch_specs.append((len(entries) - 1, label))
            pc = self.emit(("br_table", entries))
            for slot, label in patch_specs:
                label.patches.append((pc, slot))
            return True

        if name == "return":
            self.emit(("ret",))
            return True

        if name == "unreachable":
            self.emit(("unreachable",))
            return True

        if name == "call":
            idx = instr[1]
            ft = self.func_types[idx]
            self.height += len(ft.results) - len(ft.params)
            self.emit(("call", idx))
            return False

        if name == "call_indirect":
            type_idx = instr[1]
            ft = self.m.types[type_idx]
            self.height += len(ft.results) - len(ft.params) - 1
            self.emit(("call_indirect", type_idx))
            return False

        if name == "local.get" or name == "global.get":
            self.height += 1
            self.emit((name, instr[1]))
            return False
        if name == "local.set" or name == "global.set":
            self.height -= 1
            self.emit((name, instr[1]))
            return False
        if name == "local.tee":
            self.emit((name, instr[1]))
            return False

        # simple instructions: compute height delta from opcode signature
        op = OPS.get(name)
        if op is None:
            raise ValueError(f"cannot flatten {name!r}")

        if name == "i32.const":
            self.height += 1
            self.emit(("const", instr[1] & MASK32))
            return False
        if name == "i64.const":
            self.height += 1
            self.emit(("const", instr[1] & MASK64))
            return False
        if name == "f64.const":
            self.height += 1
            self.emit(("const", float(instr[1])))
            return False

        if name == "drop":
            self.height -= 1
            self.emit(("drop",))
            return False
        if name == "select":
            self.height -= 2
            self.emit(("select",))
            return False
        if name == "nop":
            return False

        if op.imm == "memarg":
            # fold the static offset into the instruction; drop alignment
            self.height += len(op.pushes) - len(op.pops)
            self.emit((name, instr[2] if len(instr) > 2 else 0))
            return False

        if op.pops is not None:
            self.height += len(op.pushes) - len(op.pops)

        if op.imm == "u32":
            self.emit((name, instr[1]))
        else:
            self.emit((name,))
        return False

    def _close_label(self, label: _Label, pending_if_pc=None) -> None:
        self.labels.pop()
        end_pc = self.pc()
        for patch in label.patches:
            if isinstance(patch, tuple):  # br_table entry
                pc, slot = patch
                entries = self.code.ops[pc][1]
                _, arity, height = entries[slot]
                entries[slot] = (end_pc, arity, height)
            else:
                old = self.code.ops[patch]
                if old[0] == "if_false":
                    self.code.ops[patch] = ("if_false", end_pc)
                else:
                    self.code.ops[patch] = (old[0], end_pc, old[2], old[3], *old[4:])
        # normalise height: after a block, stack is entry height + arity
        self.height = label.height + label.arity

    def run(self) -> FlatCode:
        if self.scheme == "func":
            self.emit(("poll",))
        self.flatten_body(self.fn.body)
        self.emit(("ret",))
        return self.code


def flatten_function(module: Module, fn: Function,
                     scheme: str = "loop") -> FlatCode:
    return _Flattener(module, fn, scheme, module.func_types()).run()


def flatten_module(module: Module, scheme: str = "loop") -> List[FlatCode]:
    """Flat code for every *defined* function, in definition order."""
    func_types = module.func_types()
    return [_Flattener(module, fn, scheme, func_types).run()
            for fn in module.funcs]
