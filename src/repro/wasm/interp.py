"""The interpreter: an explicit-state machine over pre-decoded flat code.

Machine state (operand stack + frame list + per-frame program counter) is
plain data.  That single design decision buys the three capabilities WALI
demands of an engine (§3 of the paper):

* **fork** — a running guest can be duplicated by deep-copying machine state
  (used by the 1-to-1 process model's ``fork`` passthrough);
* **safepoints** — the ``poll`` pseudo-instruction is a cheap hook check,
  gated by ``Machine.poll_gate`` (the hook runs only while the gate's
  ``bits`` is nonzero), and the signal-delivery hook can *re-enter* the
  same machine to run a guest signal handler (a nested ``run`` bounded by
  the current frame depth);
* **suspension** — host code always sees a consistent machine (the pc is
  committed to the frame before any host call).

**Decoded form.**  Flat code (:mod:`.flatten`) names every instruction by
a string.  The first time a function runs, :func:`decode` turns its ops
into ``(kind, imm)`` pairs, cached on ``FlatCode.decoded``.  ``kind`` is a
small int; ``imm`` carries everything that can be resolved ahead of time:
the width mask of an add, the bias that makes an unsigned compare signed
(``(a ^ bias) < (b ^ bias)``), the ``struct`` accessor of a load, a
function's result count at ``ret``.  :meth:`Machine.run` dispatches with
one ``if`` chain ordered by the measured dynamic instruction mix of the
guest apps; ``call_indirect`` and the rare kinds go to one out-of-line
method.  Two rules keep the decoded list interchangeable with the flat
code it caches:

* it is **index-aligned** with ``code.ops`` — entry ``pc`` decodes op
  ``pc`` — so a frame's saved pc (``frame[1]``) means the same thing to
  fork (:meth:`Machine.clone`), to the perf frame walk and in a trap, where
  it names the trapping op;
* it holds **no instance state** (no ``HostFunc``, memory or global): fork
  and thread clones, and every instance of one image under one scheme and
  tier-up rule (:func:`repro.wasm.compile.image_code`), share ``FlatCode``
  while each binds its own imports, so calls, globals and memory are
  resolved through the running instance.

A code object that supplies its own ``decoded`` sequence (the emulated
tier's decode-on-fetch view) is dispatched the same way.

**The compiled tier.**  The interpreter is not the only tier: a ``call``
of a function with a compiled body (``WasmFunc.native``, see
:func:`repro.wasm.compile.compiled_functions`) decodes to ``CALL_NATIVE``,
which runs the compiled body as one Python call, and :meth:`Machine.invoke`
of such a function (a program's ``_start``, a signal handler, a thread
entry) runs its body through :meth:`Machine.run` without interpreting
it.  Both enter compiled code through :meth:`Machine._call_native`;
compiled code calls compiled callees directly, and calls a host import's
``HostFunc.fn`` itself, with the result masking (and the void-result
trap) of :meth:`Machine._call_host`, the interpreter's host-call routine.
Compiled calls recurse on the Python stack, so running out of it is
:class:`TrapStackExhausted` where the interpreter entered compiled code.
While a compiled body runs, ``Machine.native_depth`` is nonzero: the
host, or a signal handler entered from a compiled safepoint, runs above
Python frames that fork cannot copy.  Under the WALI default
(``tier_up="fork_free"``) only functions that reach no fork, clone or
``execve`` import are compiled, so those calls see plain machine state;
a ``fork`` from a signal handler above a compiled frame is refused.  Compiled frames are Python frames
filed as ``<wasm:NAME>`` (:data:`COMPILED_FILE`): the perf stack walk
reads them off the task's thread.  A machine with ``fuel`` set runs
every function interpreted instead.

``Machine.steps`` counts instructions retired (the perf ``instructions``
counter).  ``run`` keeps it, and the fuel limit, in locals and writes it
back to the machine before every host call, compiled call and safepoint
hook and when it returns or raises; a nested ``run`` inside a host call
continues from, and leaves behind, the exact count, and a compiled body
adds the steps the interpreter would have retired, up to the trapping op
when it traps (:meth:`Machine._retire_trap`).

Values are Python ints in unsigned representation (i32 in ``[0, 2**32)``,
i64 in ``[0, 2**64)``) and Python floats for f64.
"""

from __future__ import annotations

import math
import operator
import struct
import threading as _threading
from typing import Callable, List, Optional

from .errors import (
    Trap, TrapDivByZero, TrapIndirectCall, TrapIntegerOverflow,
    TrapStackExhausted, TrapUnreachable,
)
from .flatten import FlatCode
from .types import FuncType, I32, I64, MASK32, MASK64, signed32, signed64

MAX_FRAMES = 2000

# the file name prefix of a compiled function's code: ``<wasm:NAME>``
COMPILED_FILE = "<wasm:"

# One engine-wide lock serialises guest atomic RMW operations (the threads
# proposal subset used by the guest libc's mutexes), on both tiers.
_ATOMIC_LOCK = _threading.Lock()


def _atomic_add(mem, addr: int, val: int) -> int:
    with _ATOMIC_LOCK:
        old = mem.load_i32(addr)
        mem.store_i32(addr, old + val)
    return old


def _atomic_cas(mem, addr: int, expected: int, new: int) -> int:
    with _ATOMIC_LOCK:
        old = mem.load_i32(addr)
        if old == expected:
            mem.store_i32(addr, new)
    return old


class HostFunc:
    """An imported function provided by the embedder (e.g. a WALI syscall)."""

    __slots__ = ("functype", "fn", "name")

    def __init__(self, functype: FuncType, fn: Callable, name: str = ""):
        self.functype = functype
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "<host>")

    def __repr__(self):
        return f"<hostfunc {self.name} {self.functype}>"


class WasmFunc:
    """A defined function: flat code plus its signature.

    ``native`` is the function's compiled-tier body when the instance's
    tier-up rule compiled it (:func:`repro.wasm.compile.compiled_functions`),
    else None.  It is called as ``native(machine, *args)`` and reaches memory,
    globals and the poll hook only through ``machine``, so one compiled
    body serves every instance of the module.
    """

    __slots__ = ("functype", "code", "native")

    def __init__(self, functype: FuncType, code: FlatCode, native=None):
        self.functype = functype
        self.code = code
        self.native = native


# --------------------------------------------------------------------------
# numeric helpers (shared with the compiled tier)
# --------------------------------------------------------------------------

def _idiv_s(a: int, b: int, bits: int) -> int:
    if b == 0:
        raise TrapDivByZero()
    sa = signed32(a) if bits == 32 else signed64(a)
    sb = signed32(b) if bits == 32 else signed64(b)
    if sb == -1 and sa == -(1 << (bits - 1)):
        raise TrapIntegerOverflow("signed division overflow")
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return q & ((1 << bits) - 1)


def _irem_s(a: int, b: int, bits: int) -> int:
    if b == 0:
        raise TrapDivByZero()
    sa = signed32(a) if bits == 32 else signed64(a)
    sb = signed32(b) if bits == 32 else signed64(b)
    r = abs(sa) % abs(sb)
    if sa < 0:
        r = -r
    return r & ((1 << bits) - 1)


def _clz(x: int, bits: int) -> int:
    return bits - x.bit_length() if x else bits


def _ctz(x: int, bits: int) -> int:
    return (x & -x).bit_length() - 1 if x else bits


def _rotl(x: int, n: int, bits: int) -> int:
    n %= bits
    mask = (1 << bits) - 1
    return ((x << n) | (x >> (bits - n))) & mask


def _trunc(f: float, lo: int, hi: int, mask: int) -> int:
    if f != f:  # NaN
        raise TrapIntegerOverflow("trunc of NaN")
    if math.isinf(f):
        raise TrapIntegerOverflow("trunc out of range")
    t = int(f)
    if t < lo or t > hi:
        raise TrapIntegerOverflow("trunc out of range")
    return t & mask


def _udiv(a: int, b: int) -> int:
    if b == 0:
        raise TrapDivByZero()
    return a // b


def _urem(a: int, b: int) -> int:
    if b == 0:
        raise TrapDivByZero()
    return a % b


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or a != a:
            return float("nan")
        return float("inf") if (a > 0) == (str(b)[0] != "-") else float("-inf")
    return a / b


# IEEE 754 rounding and min/max: NaN and ±inf pass through, and a zero
# result keeps the operand's sign (``ceil(-0.5)`` is ``-0.0``).

def _fround(fn: Callable[[float], int]) -> Callable[[float], float]:
    def rounded(x: float) -> float:
        if x != x or math.isinf(x):
            return x
        return math.copysign(float(fn(x)), x)
    return rounded


_fceil = _fround(math.ceil)
_ffloor = _fround(math.floor)
_ftrunc = _fround(math.trunc)
_fnearest = _fround(round)   # round() ties to even, as IEEE nearest does


def _fmin(a: float, b: float) -> float:
    if a != a or b != b:
        return a + b                      # NaN in, NaN out
    if a == b:                            # min(0.0, -0.0) is -0.0
        return a if math.copysign(1.0, a) < 0 else b
    return a if a < b else b


def _fmax(a: float, b: float) -> float:
    if a != a or b != b:
        return a + b
    if a == b:                            # max(-0.0, 0.0) is 0.0
        return b if math.copysign(1.0, a) < 0 else a
    return a if a > b else b


def _fsqrt(x: float) -> float:
    return math.sqrt(x) if x >= 0.0 or x != x else float("nan")


def _sext(x: int, from_bits: int, mask: int) -> int:
    x &= (1 << from_bits) - 1
    if x & (1 << (from_bits - 1)):
        x -= 1 << from_bits
    return x & mask


# --------------------------------------------------------------------------
# decoded instruction kinds, numbered in Machine.run's dispatch order
# --------------------------------------------------------------------------

(LOCAL_GET, CONST, ADD, LOCAL_SET, IF_FALSE, LOAD8, CALL, BR_IF, JUMP,
 POLL, EQZ, RET, NE, EQ, LT, SUB, MASK, GLOBAL_GET, LE, MUL, DROP, LOAD,
 GE, GT, STORE, BINOP, UNOP, GLOBAL_SET, SELECT, LOCAL_TEE, BR_TABLE,
 CALL_NATIVE,
 # out of line (Machine._slow_op)
 CALL_INDIRECT, LOAD_S, STORE_F64, MEMORY_SIZE, MEMORY_GROW, MEMORY_COPY,
 MEMORY_FILL, ATOMIC_ADD, ATOMIC_CMPXCHG, UNREACHABLE, BAD) = range(43)


# integer memory access: name -> (nbytes, signed, result mask)
_LOADS = {
    "i32.load": (4, False, MASK32), "i64.load": (8, False, MASK64),
    "i32.load8_s": (1, True, MASK32), "i32.load8_u": (1, False, MASK32),
    "i32.load16_s": (2, True, MASK32), "i32.load16_u": (2, False, MASK32),
    "i64.load8_s": (1, True, MASK64), "i64.load8_u": (1, False, MASK64),
    "i64.load16_s": (2, True, MASK64), "i64.load16_u": (2, False, MASK64),
    "i64.load32_s": (4, True, MASK64), "i64.load32_u": (4, False, MASK64),
}
_STORES = {
    "i32.store": 4, "i64.store": 8, "i32.store8": 1, "i32.store16": 2,
    "i64.store8": 1, "i64.store16": 2, "i64.store32": 4,
}
# little-endian signed struct formats by width (upper case: unsigned)
_INT_FORMATS = {1: "<b", 2: "<h", 4: "<i", 8: "<q"}


def _build_tables():
    """Name → decoded pair for ops without an immediate, name → kind for
    ops whose flat immediate is used as is, name → (kind, extra) for
    memory ops (imm = offset + extra)."""
    fixed = {"drop": (DROP, None), "select": (SELECT, None),
             "poll": (POLL, None), "unreachable": (UNREACHABLE, None),
             "memory.size": (MEMORY_SIZE, None),
             "memory.grow": (MEMORY_GROW, None),
             "memory.copy": (MEMORY_COPY, None),
             "memory.fill": (MEMORY_FILL, None)}
    for bits, mask, sgn in ((32, MASK32, signed32), (64, MASK64, signed64)):
        t = f"i{bits}."
        bias = 1 << (bits - 1)
        fixed[t + "add"] = (ADD, mask)
        fixed[t + "sub"] = (SUB, mask)
        fixed[t + "mul"] = (MUL, mask)
        fixed[t + "eqz"] = (EQZ, None)
        fixed[t + "eq"] = (EQ, None)
        fixed[t + "ne"] = (NE, None)
        for name, kind in (("lt", LT), ("gt", GT), ("le", LE), ("ge", GE)):
            fixed[f"{t}{name}_u"] = (kind, 0)
            fixed[f"{t}{name}_s"] = (kind, bias)
        binops = {
            "and": operator.and_, "or": operator.or_, "xor": operator.xor,
            "div_s": lambda a, b, bits=bits: _idiv_s(a, b, bits),
            "rem_s": lambda a, b, bits=bits: _irem_s(a, b, bits),
            "div_u": _udiv, "rem_u": _urem,
            "shl": lambda a, b, bits=bits, mask=mask:
                (a << (b % bits)) & mask,
            "shr_u": lambda a, b, bits=bits: a >> (b % bits),
            "shr_s": lambda a, b, bits=bits, mask=mask, sgn=sgn:
                (sgn(a) >> (b % bits)) & mask,
            "rotl": lambda a, b, bits=bits: _rotl(a, b, bits),
            "rotr": lambda a, b, bits=bits: _rotl(a, bits - (b % bits), bits),
        }
        for name, fn in binops.items():
            fixed[t + name] = (BINOP, fn)
        fixed[t + "clz"] = (UNOP, lambda x, bits=bits: _clz(x, bits))
        fixed[t + "ctz"] = (UNOP, lambda x, bits=bits: _ctz(x, bits))
        fixed[t + "popcnt"] = (UNOP, lambda x: bin(x).count("1"))

    for name, fn in (("add", operator.add), ("sub", operator.sub),
                     ("mul", operator.mul), ("div", _fdiv),
                     ("min", _fmin), ("max", _fmax),
                     ("lt", lambda a, b: 1 if a < b else 0),
                     ("gt", lambda a, b: 1 if a > b else 0),
                     ("le", lambda a, b: 1 if a <= b else 0),
                     ("ge", lambda a, b: 1 if a >= b else 0)):
        fixed["f64." + name] = (BINOP, fn)
    fixed["f64.eq"] = (EQ, None)
    fixed["f64.ne"] = (NE, None)
    for name, fn in (("abs", abs), ("neg", operator.neg), ("sqrt", _fsqrt),
                     ("ceil", _fceil), ("floor", _ffloor),
                     ("trunc", _ftrunc), ("nearest", _fnearest)):
        fixed["f64." + name] = (UNOP, fn)

    fixed["i32.wrap_i64"] = (MASK, MASK32)
    fixed["i64.extend_i32_u"] = (MASK, MASK32)
    for name, fn in (
        ("i64.extend_i32_s", lambda x: signed32(x) & MASK64),
        ("i32.trunc_f64_s",
         lambda f: _trunc(f, -(1 << 31), (1 << 31) - 1, MASK32)),
        ("i32.trunc_f64_u", lambda f: _trunc(f, 0, (1 << 32) - 1, MASK32)),
        ("i64.trunc_f64_s",
         lambda f: _trunc(f, -(1 << 63), (1 << 63) - 1, MASK64)),
        ("i64.trunc_f64_u", lambda f: _trunc(f, 0, (1 << 64) - 1, MASK64)),
        ("f64.convert_i32_s", lambda x: float(signed32(x))),
        ("f64.convert_i32_u", float),
        ("f64.convert_i64_s", lambda x: float(signed64(x))),
        ("f64.convert_i64_u", float),
        ("i32.extend8_s", lambda x: _sext(x, 8, MASK32)),
        ("i32.extend16_s", lambda x: _sext(x, 16, MASK32)),
        ("i64.extend32_s", lambda x: _sext(x, 32, MASK64)),
    ):
        fixed[name] = (UNOP, fn)

    as_is = {"local.get": LOCAL_GET, "local.set": LOCAL_SET,
             "local.tee": LOCAL_TEE, "global.get": GLOBAL_GET,
             "global.set": GLOBAL_SET, "const": CONST, "call": CALL,
             "call_indirect": CALL_INDIRECT, "if_false": IF_FALSE}

    memops = {"f64.load": (LOAD, (8, struct.Struct("<d").unpack_from)),
              "f64.store": (STORE_F64, None),
              "i32.atomic.rmw.add": (ATOMIC_ADD, None),
              "i32.atomic.rmw.cmpxchg": (ATOMIC_CMPXCHG, None)}
    for name, (size, signed, mask) in _LOADS.items():
        code = _INT_FORMATS[size]
        if signed:
            memops[name] = (LOAD_S, (size, struct.Struct(code).unpack_from,
                                     mask))
        elif size == 1:
            memops[name] = (LOAD8, None)
        else:
            memops[name] = (LOAD, (size,
                                   struct.Struct(code.upper()).unpack_from))
    for name, size in _STORES.items():
        pack = struct.Struct(_INT_FORMATS[size].upper()).pack_into
        memops[name] = (STORE, (size, pack, (1 << (8 * size)) - 1))
    return fixed, as_is, memops


_FIXED, _AS_IS, _MEMOPS = _build_tables()


def decode_op(instr: tuple, n_results: int) -> tuple:
    """One flat op as a ``(kind, imm)`` pair.  ``n_results`` is the result
    count of the enclosing function (the immediate of ``ret``)."""
    name = instr[0]
    pair = _FIXED.get(name)
    if pair is not None:
        return pair
    kind = _AS_IS.get(name)
    if kind is not None:
        return (kind, instr[1])
    if name == "jump" or name == "br_if":
        return (JUMP if name == "jump" else BR_IF, tuple(instr[1:4]))
    if name == "ret":
        return (RET, n_results)
    if name == "br_table":
        return (BR_TABLE, tuple(tuple(e) for e in instr[1]))
    mem = _MEMOPS.get(name)
    if mem is not None:
        kind, extra = mem
        return (kind, instr[1] if extra is None else (instr[1], *extra))
    return (BAD, name)


def decode(code: FlatCode, funcs) -> list:
    """``code.ops`` as decoded pairs, index-aligned with the flat ops.

    A ``call`` whose callee in ``funcs`` has a compiled body decodes to
    ``(CALL_NATIVE, (native, callee code))``.  Both halves are shared by
    every instance of the module, so the decoded list still holds no
    instance state."""
    n = code.n_results
    out = [decode_op(instr, n) for instr in code.ops]
    for i, (k, imm) in enumerate(out):
        if k == CALL:
            callee = funcs[imm]
            if callee.__class__ is WasmFunc and callee.native is not None:
                out[i] = (CALL_NATIVE, (callee.native, callee.code))
    return out


# how far ``run`` lets the step count go between window slides when no
# fuel limit is set (keeps the fuel compare on single-digit ints)
_STEP_WINDOW = 1 << 29


class _AlwaysPoll:
    """The default poll gate: its ``bits`` always reads nonzero, so a
    generic hook runs at every safepoint."""

    __slots__ = ()
    bits = 1


ALWAYS_POLL = _AlwaysPoll()


class Machine:
    """One thread of Wasm execution (the paper's instance-per-thread unit)."""

    def __init__(self, instance):
        self.instance = instance
        self.stack: List = []
        # frame: [code, pc, locals, stack_base]
        self.frames: List[list] = []
        self.poll_hook: Optional[Callable[[], None]] = None
        # a safepoint calls the hook only while ``poll_gate.bits`` is
        # nonzero: an embedder whose hook has work only then (WALI: a
        # pending signal) sets a gate that reads 0 when it has none
        self.poll_gate = ALWAYS_POLL
        self.steps = 0
        self.fuel: Optional[int] = None
        self.max_frames = MAX_FRAMES
        # compiled activations on the Python stack: nonzero while the host
        # or a signal handler runs above a compiled frame
        self.native_depth = 0

    # ---- public API ----

    def invoke(self, func, args=()):
        """Call a function (by ``WasmFunc``/``HostFunc`` or index) to
        completion; returns the single result or ``None``.  A function
        with a compiled body runs it (through :meth:`run`) unless fuel
        is set."""
        if isinstance(func, int):
            func = self.instance.funcs[func]
        if isinstance(func, HostFunc):
            res = func.fn(*args)
            return res
        if func.native is not None and self.fuel is None:
            return self.run(native=func.native, args=args)
        depth = len(self.frames)
        self._push_frame(func.code, list(args))
        self.run(depth)
        if func.code.n_results:
            return self.stack.pop()
        return None

    def reenter(self, func, args=()):
        """Host→guest reentrancy (e.g. running a signal handler): identical
        to :meth:`invoke`, named separately for traceability."""
        return self.invoke(func, args)

    def clone(self, new_instance) -> "Machine":
        """Duplicate the machine (fork support).  ``new_instance`` must be a
        clone of this machine's instance (memory copied, code shared)."""
        m = Machine(new_instance)
        m.stack = list(self.stack)
        m.frames = [[f[0], f[1], list(f[2]), f[3]] for f in self.frames]
        m.poll_hook = None  # rebound by the new process, with its gate
        m.steps = self.steps
        m.fuel = self.fuel
        m.max_frames = self.max_frames
        return m

    # ---- internals ----

    def _push_frame(self, code: FlatCode, args: List) -> None:
        if len(self.frames) >= self.max_frames:
            raise TrapStackExhausted(f"{len(self.frames)} frames")
        self.frames.append([code, 0, args + code.zero_locals, len(self.stack)])

    def run(self, min_depth: int = 0, native=None, args=()):
        """Execute until the frame stack drops back to ``min_depth``; or,
        given a compiled body ``native``, run it on ``args`` and return
        its result (:meth:`invoke` of a compiled function)."""
        if native is not None:
            return self._call_native(native, args)
        frames = self.frames
        if len(frames) <= min_depth:
            return
        stack = self.stack
        inst = self.instance
        funcs = inst.funcs
        globals_ = inst.globals
        mem = inst.memory
        data = None if mem is None else mem.data
        hook = self.poll_hook
        gate = self.poll_gate
        max_frames = self.max_frames
        fuel = self.fuel
        limit = self.steps + _STEP_WINDOW if fuel is None else fuel
        frame = frames[-1]
        ops = frame[0].decoded
        if ops is None:
            ops = frame[0].decoded = decode(frame[0], funcs)
        pc = frame[1]
        locals_ = frame[2]
        base = frame[3]
        # Straight-line code retires one step per pc, so the count is kept
        # as ``steps == limit - stop + pc`` and only a pc transfer moves
        # ``stop``: the fuel check is the one compare ``pc > stop``.  With
        # no fuel, ``limit`` slides a window ahead of ``steps`` that keeps
        # both operands small ints.
        stop = limit - self.steps + pc
        try:
            while True:
                k, imm = ops[pc]
                pc += 1
                if pc > stop:
                    if fuel is not None:
                        raise Trap("fuel-exhausted",
                                   f"{limit - stop + pc} steps")
                    limit += _STEP_WINDOW
                    stop += _STEP_WINDOW

                if k == LOCAL_GET:
                    stack.append(locals_[imm])
                    continue
                if k == CONST:
                    stack.append(imm)
                    continue
                if k == ADD:
                    b = stack.pop()
                    stack.append((stack.pop() + b) & imm)
                    continue
                if k == LOCAL_SET:
                    locals_[imm] = stack.pop()
                    continue
                if k == IF_FALSE:
                    if not stack.pop():
                        stop += imm - pc
                        pc = imm
                    continue
                if k == LOAD8:
                    addr = stack.pop() + imm
                    if addr >= len(data):
                        mem.check(addr, 1)
                    stack.append(data[addr])
                    continue
                if k == CALL:
                    callee = funcs[imm]
                    frame[1] = pc
                    if callee.__class__ is WasmFunc:
                        if len(frames) >= max_frames:
                            raise TrapStackExhausted(f"{len(frames)} frames")
                        code = callee.code
                        n = code.n_params
                        if n:
                            locals_ = stack[-n:] + code.zero_locals
                            del stack[-n:]
                        else:
                            locals_ = code.zero_locals[:]
                        base = len(stack)
                        frame = [code, 0, locals_, base]
                        frames.append(frame)
                        ops = code.decoded
                        if ops is None:
                            ops = code.decoded = decode(code, funcs)
                        stop -= pc
                        pc = 0
                        continue
                    self.steps = limit - stop + pc
                    try:
                        self._call_host(callee)
                    finally:
                        stop = limit - self.steps + pc
                    mem = inst.memory
                    data = None if mem is None else mem.data
                    continue
                if k == BR_IF:
                    if not stack.pop():
                        continue
                    k = JUMP  # taken: unwind and jump below
                if k == JUMP:
                    target, arity, height = imm
                    if arity:
                        top = stack[-1]
                        del stack[base + height:]
                        stack.append(top)
                    else:
                        del stack[base + height:]
                    stop += target - pc
                    pc = target
                    continue
                if k == POLL:
                    if gate.bits and hook is not None:
                        frame[1] = pc
                        self.steps = limit - stop + pc
                        try:
                            hook()
                        finally:
                            stop = limit - self.steps + pc
                        mem = inst.memory
                        data = None if mem is None else mem.data
                    continue
                if k == EQZ:
                    stack.append(0 if stack.pop() else 1)
                    continue
                if k == RET:
                    if imm:
                        top = stack[-1]
                        del stack[base:]
                        stack.append(top)
                    else:
                        del stack[base:]
                    frames.pop()
                    if len(frames) <= min_depth:
                        return
                    frame = frames[-1]
                    ops = frame[0].decoded    # the caller ran: decoded
                    stop += frame[1] - pc
                    pc = frame[1]
                    locals_ = frame[2]
                    base = frame[3]
                    continue
                if k == NE:
                    stack.append(1 if stack.pop() != stack.pop() else 0)
                    continue
                if k == EQ:
                    stack.append(1 if stack.pop() == stack.pop() else 0)
                    continue
                if k == LT:
                    b = stack.pop() ^ imm
                    stack.append(1 if stack.pop() ^ imm < b else 0)
                    continue
                if k == SUB:
                    b = stack.pop()
                    stack.append((stack.pop() - b) & imm)
                    continue
                if k == MASK:
                    stack.append(stack.pop() & imm)
                    continue
                if k == GLOBAL_GET:
                    stack.append(globals_[imm].value)
                    continue
                if k == LE:
                    b = stack.pop() ^ imm
                    stack.append(1 if stack.pop() ^ imm <= b else 0)
                    continue
                if k == MUL:
                    b = stack.pop()
                    stack.append((stack.pop() * b) & imm)
                    continue
                if k == DROP:
                    stack.pop()
                    continue
                if k == LOAD:
                    off, size, unpack = imm
                    addr = stack.pop() + off
                    if addr + size > len(data):
                        mem.check(addr, size)
                    stack.append(unpack(data, addr)[0])
                    continue
                if k == GE:
                    b = stack.pop() ^ imm
                    stack.append(1 if stack.pop() ^ imm >= b else 0)
                    continue
                if k == GT:
                    b = stack.pop() ^ imm
                    stack.append(1 if stack.pop() ^ imm > b else 0)
                    continue
                if k == STORE:
                    off, size, pack, vmask = imm
                    val = stack.pop()
                    addr = stack.pop() + off
                    if addr + size > len(data):
                        mem.check(addr, size)
                    pack(data, addr, val & vmask)
                    continue
                if k == BINOP:
                    b = stack.pop()
                    stack.append(imm(stack.pop(), b))
                    continue
                if k == UNOP:
                    stack.append(imm(stack.pop()))
                    continue
                if k == GLOBAL_SET:
                    globals_[imm].value = stack.pop()
                    continue
                if k == SELECT:
                    c = stack.pop()
                    b = stack.pop()
                    if not c:
                        stack[-1] = b
                    continue
                if k == LOCAL_TEE:
                    locals_[imm] = stack[-1]
                    continue
                if k == BR_TABLE:
                    idx = stack.pop()
                    last = len(imm) - 1
                    target, arity, height = imm[idx if idx < last else last]
                    if arity:
                        top = stack[-1]
                        del stack[base + height:]
                        stack.append(top)
                    else:
                        del stack[base + height:]
                    stop += target - pc
                    pc = target
                    continue
                if k == CALL_NATIVE and fuel is None:
                    # a compiled body retires its own steps into
                    # self.steps; under fuel it runs interpreted instead
                    native, code = imm
                    n = code.n_params
                    if n:
                        args = stack[-n:]
                        del stack[-n:]
                    else:
                        args = ()
                    frame[1] = pc
                    self.steps = limit - stop + pc
                    try:
                        res = self._call_native(native, args)
                    finally:
                        stop = limit - self.steps + pc
                    if code.n_results:
                        stack.append(res)
                    mem = inst.memory
                    data = None if mem is None else mem.data
                    continue

                # call_indirect and the rare kinds
                frame[1] = pc
                self.steps = limit - stop + pc
                try:
                    entered = self._slow_op(k, imm)
                finally:
                    stop = limit - self.steps + pc
                mem = inst.memory
                data = None if mem is None else mem.data
                if entered:
                    frame = frames[-1]
                    ops = frame[0].decoded
                    if ops is None:
                        ops = frame[0].decoded = decode(frame[0], funcs)
                    stop -= pc
                    pc = 0
                    locals_ = frame[2]
                    base = frame[3]
        except Trap:
            frame[1] = pc - 1
            raise
        finally:
            self.steps = limit - stop + pc

    def _call_native(self, native, args):
        """Run a compiled body on this machine: the one place the
        interpreter enters compiled code.  A compiled body retires its
        own steps into ``self.steps``, up to the trapping op when it
        traps."""
        self.native_depth += 1
        try:
            return native(self, *args)
        except RecursionError:
            # compiled calls recurse on the Python stack
            raise TrapStackExhausted("compiled tier") from None
        except Trap as exc:
            self._retire_trap(exc)
            raise
        finally:
            self.native_depth -= 1

    def _retire_trap(self, exc: Trap) -> None:
        """Add the steps the innermost compiled frame under ``exc`` had
        pending on the line that raised it (``pending``, recorded per line
        by :mod:`.compile`), so a trap leaves ``steps`` exact.  Once per
        trap: every enclosing ``CALL_NATIVE`` sees it again, and the frames
        between had retired their steps before they called."""
        if getattr(exc, "retired", False):
            return
        exc.retired = True
        tb, last = exc.__traceback__, None
        while tb is not None:
            if tb.tb_frame.f_code.co_filename.startswith(COMPILED_FILE):
                last = tb
            tb = tb.tb_next
        if last is not None:
            frame = last.tb_frame
            native = frame.f_globals[frame.f_code.co_name]
            self.steps += native.pending[last.tb_lineno - 1]

    def _slow_op(self, k: int, imm) -> bool:
        """Execute an out-of-line kind; True when it pushed a wasm frame."""
        stack = self.stack
        inst = self.instance
        mem = inst.memory
        if k == CALL_INDIRECT or k == CALL_NATIVE:
            if k == CALL_NATIVE:     # under fuel: run it interpreted
                code = imm[1]
            else:
                callee = self._resolve_indirect(stack.pop(), imm)
                if isinstance(callee, HostFunc):
                    self._call_host(callee)
                    return False
                code = callee.code
            n = code.n_params
            args = stack[len(stack) - n:]
            del stack[len(stack) - n:]
            self._push_frame(code, args)
            return True
        if k == LOAD_S:
            off, size, unpack, mask = imm
            addr = stack.pop() + off
            mem.check(addr, size)
            stack.append(unpack(mem.data, addr)[0] & mask)
        elif k == STORE_F64:
            val = stack.pop()
            mem.store_f64(stack.pop() + imm, val)
        elif k == MEMORY_SIZE:
            stack.append(mem.pages)
        elif k == MEMORY_GROW:
            stack.append(mem.grow(stack.pop()) & MASK32)
        elif k == MEMORY_COPY:
            n = stack.pop(); src = stack.pop(); dst = stack.pop()
            mem.copy(dst, src, n)
        elif k == MEMORY_FILL:
            n = stack.pop(); val = stack.pop(); dst = stack.pop()
            mem.fill(dst, val, n)
        elif k == ATOMIC_ADD:
            val = stack.pop()
            stack.append(_atomic_add(mem, stack.pop() + imm, val))
        elif k == ATOMIC_CMPXCHG:
            new = stack.pop()
            expected = stack.pop()
            stack.append(_atomic_cas(mem, stack.pop() + imm, expected, new))
        elif k == UNREACHABLE:
            raise TrapUnreachable(self.frames[-1][0].name)
        else:
            raise Trap("bad-instruction",
                       f"{imm!r} in {self.frames[-1][0].name}")
        return False

    def _call_host(self, callee: HostFunc) -> None:
        stack = self.stack
        ft = callee.functype
        n = len(ft.params)
        if n:
            args = stack[len(stack) - n:]
            del stack[len(stack) - n:]
        else:
            args = []
        res = callee.fn(*args)
        if ft.results:
            t = ft.results[0]
            if t == I32:
                stack.append((res or 0) & MASK32)
            elif t == I64:
                stack.append((res or 0) & MASK64)
            else:
                stack.append(float(res or 0.0))
        elif res is not None:
            raise Trap("host-result-mismatch", callee.name)

    def _resolve_indirect(self, elem_idx: int, type_idx: int):
        inst = self.instance
        table = inst.table
        if table is None or elem_idx >= len(table.elems):
            raise TrapIndirectCall(f"table index {elem_idx} out of range")
        callee = table.elems[elem_idx]
        if callee is None:
            raise TrapIndirectCall(f"null table entry {elem_idx}")
        expected = inst.module.types[type_idx]
        if callee.functype != expected:
            raise TrapIndirectCall(
                f"expected {expected}, found {callee.functype}")
        return callee
