"""Compiled-tier tests: semantic equivalence with the interpreter,
including property-based differential testing.  The compiled tier is
``tier_up="all"``: every defined function gets a compiled body
``f(machine, *args)``, which must compute what the interpreter computes
and retire the interpreter's ``Machine.steps``."""

import math
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.wasm import (
    I32, I64, F64, ModuleBuilder, Trap, TrapDivByZero, TrapIndirectCall,
    TrapStackExhausted, TrapUnreachable, instantiate,
)


def both_tiers(module, func="f", imports=None):
    """Return (interp, compiled): ``func`` run by the interpreter, and its
    compiled body under ``tier_up="all"`` called on its instance's machine,
    as the interpreter's ``CALL_NATIVE`` calls it."""
    inst_i = instantiate(module, imports)
    inst_c = instantiate(module, imports, tier_up="all")
    native = inst_c.func_by_name(func).native
    assert native is not None
    return (lambda *args: inst_i.invoke(func, *args),
            lambda *args: native(inst_c.machine, *args))


def test_fib_equivalence():
    mb = ModuleBuilder("t")
    f = mb.func("f", params=[I32], results=[I32], export=True)
    f.local_get(0).i32_const(2).op("i32.lt_s")
    with f.if_(I32):
        f.local_get(0)
        f.else_()
        f.local_get(0).i32_const(1).op("i32.sub").call("f")
        f.local_get(0).i32_const(2).op("i32.sub").call("f")
        f.op("i32.add")
    f.end()
    interp, compiled = both_tiers(mb.build())
    assert interp(15) == compiled(15) == 610


def test_loop_with_breaks():
    mb = ModuleBuilder("t")
    f = mb.func("f", params=[I32], results=[I32], export=True)
    acc = f.add_local(I32)
    with f.block():
        with f.loop():
            f.local_get(0).op("i32.eqz")
            f.br_if(1)
            f.local_get(acc).local_get(0).op("i32.add").local_set(acc)
            f.local_get(0).i32_const(1).op("i32.sub").local_set(0)
            # early exit when acc > 100
            f.local_get(acc).i32_const(100).op("i32.gt_s")
            f.br_if(1)
            f.br(0)
    f.local_get(acc)
    f.end()
    interp, compiled = both_tiers(mb.build())
    for n in (0, 5, 50):
        assert interp(n) == compiled(n)


def test_br_table_equivalence():
    mb = ModuleBuilder("t")
    f = mb.func("f", params=[I32], results=[I32], export=True)
    with f.block():
        with f.block():
            with f.block():
                f.local_get(0)
                f.op("br_table", (0, 1), 2)
            f.i32_const(10)
            f.ret()
        f.i32_const(20)
        f.ret()
    f.i32_const(30)
    f.end()
    interp, compiled = both_tiers(mb.build())
    for n in range(5):
        assert interp(n) == compiled(n)


def test_memory_ops():
    mb = ModuleBuilder("t")
    mb.add_memory(1)
    f = mb.func("f", params=[I32, I32], results=[I32], export=True)
    f.local_get(0).local_get(1).i32_store()
    f.local_get(0).i32_load()
    f.end()
    interp, compiled = both_tiers(mb.build())
    assert interp(64, 0xABCD) == compiled(64, 0xABCD) == 0xABCD


def test_compiled_bounds_check_traps():
    mb = ModuleBuilder("t")
    mb.add_memory(1, 1)
    f = mb.func("f", params=[I32], results=[I32], export=True)
    f.local_get(0).i32_load()
    f.end()
    for run in both_tiers(mb.build()):
        with pytest.raises(Trap):
            run(70000)


def test_compiled_div_by_zero_traps():
    mb = ModuleBuilder("t")
    f = mb.func("f", params=[I32, I32], results=[I32], export=True)
    f.local_get(0).local_get(1).op("i32.div_u")
    f.end()
    for run in both_tiers(mb.build()):
        with pytest.raises(TrapDivByZero):
            run(1, 0)


def test_compiled_indirect_call_check():
    mb = ModuleBuilder("t")
    g = mb.func("g", params=[I32, I32], results=[I32])
    g.local_get(0).local_get(1).op("i32.add")
    g.end()
    mb.add_elem(0, [mb.func_index("g")])
    f = mb.func("f", results=[I32], export=True)
    f.i32_const(1)
    f.i32_const(0)
    f.call_indirect([I32], [I32])  # wrong signature
    f.end()
    for run in both_tiers(mb.build()):
        with pytest.raises(TrapIndirectCall):
            run()


def test_compiled_indirect_calls_reach_every_kind_of_callee():
    """``call_indirect`` from compiled code: a compiled function, a host
    function and (a body the tier left interpreted) the interpreter."""
    mb = ModuleBuilder("t")
    mb.import_func("env", "neg", params=[I32], results=[I32])
    g = mb.func("g", params=[I32], results=[I32])
    g.local_get(0).i32_const(5).op("i32.add")
    g.end()
    mb.add_elem(0, [mb.func_index("g"), mb.func_index("neg")])
    f = mb.func("f", params=[I32, I32], results=[I32], export=True)
    f.local_get(0).local_get(1).call_indirect([I32], [I32])
    f.end()
    imports = {"env": {"neg": lambda x: -x}}
    interp, compiled = both_tiers(mb.build(), imports=imports)
    assert interp(7, 0) == compiled(7, 0) == 12
    assert interp(7, 1) == compiled(7, 1) == 2 ** 32 - 7
    inst = instantiate(mb.build(), imports, tier_up="all")
    inst.table.elems[0].native = None
    assert inst.func_by_name("f").native(inst.machine, 7, 0) == 12


def test_compiled_recursion_exhausts_the_stack():
    """Compiled calls recurse on the Python stack; running out of it is
    the interpreter's stack-exhaustion trap."""
    mb = ModuleBuilder("t")
    r = mb.func("r", params=[I32], results=[I32])
    r.local_get(0).i32_const(1).op("i32.add").call("r")
    r.end()
    w = mb.func("w", params=[I32], results=[I32], export=True)
    w.local_get(0).call("r")
    w.end()
    module = mb.build()
    for tier_up in (None, "all"):
        inst = instantiate(module, tier_up=tier_up)
        with pytest.raises(TrapStackExhausted):
            inst.invoke("w", 0)
        assert inst.machine.native_depth == 0


def test_host_calls_from_compiled():
    """Both tiers mask an import's result alike, and a void import that
    returns a value traps."""
    mb = ModuleBuilder("t")
    mb.import_func("env", "triple", params=[I32], results=[I32])
    mb.import_func("env", "void", params=[], results=[])
    f = mb.func("f", params=[I32], results=[I32], export=True)
    f.local_get(0).call("triple")
    f.end()
    g = mb.func("g", export=True)
    g.call("void")
    g.end()
    module = mb.build()
    imports = {"env": {"triple": lambda x: x * 3, "void": lambda: 5}}
    interp, compiled = both_tiers(module, imports=imports)
    assert interp(7) == compiled(7) == 21
    assert interp(2 ** 31) == compiled(2 ** 31) == 2 ** 31   # masked
    for run in both_tiers(module, "g", imports):
        with pytest.raises(Trap) as ei:
            run()
        assert ei.value.kind == "host-result-mismatch"


def test_compiled_faster_than_interp():
    import time

    mb = ModuleBuilder("t")
    f = mb.func("f", params=[I32], results=[I32], export=True)
    acc = f.add_local(I32)
    with f.block():
        with f.loop():
            f.local_get(0).op("i32.eqz")
            f.br_if(1)
            f.local_get(acc).local_get(0).op("i32.mul")
            f.i32_const(2654435761).op("i32.xor").local_set(acc)
            f.local_get(0).i32_const(1).op("i32.sub").local_set(0)
            f.br(0)
    f.local_get(acc)
    f.end()
    module = mb.build()
    interp, compiled = both_tiers(module)
    n = 30000
    t0 = time.perf_counter()
    r1 = interp(n)
    t_interp = time.perf_counter() - t0
    t0 = time.perf_counter()
    r2 = compiled(n)
    t_compiled = time.perf_counter() - t0
    assert r1 == r2
    assert t_compiled < t_interp  # the AoT tier must actually be faster


# ---- differential testing on generated modules ----
#
# ``program()`` draws a typed, structured function body: expressions over
# i32/i64/f64 (constants biased to edge values, locals, arithmetic,
# compares, conversions, loads, ``if``/``br_if`` blocks, direct calls)
# under statements (local sets, stores, ``if``, one bounded ``loop``).
# Memory is one page, so generated addresses also exercise the
# out-of-bounds trap.  Both tiers must agree on the result or the trap
# kind, and on the final memory; anything other than a Trap is a failure.

_F64_EDGE = [0.0, -0.0, 0.5, -0.5, 1.5, -2.5, 2.5, 1e300, -1e300, 5e-324,
             math.inf, -math.inf, math.nan]
_I32_EDGE = [0, 1, 2, 7, 31, 32, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
             65532, 65535, 65536]
_I64_EDGE = [0, 1, 63, 64, 0xFFFFFFFF, 2**63 - 1, 2**63, 2**64 - 1]
_LOCALS = (I32, I32, I64, I64, F64, F64)   # plus a loop counter, local 6
_COUNTER = len(_LOCALS)
_INT_BIN = ["add", "sub", "mul", "div_s", "div_u", "rem_s", "rem_u", "and",
            "or", "xor", "shl", "shr_s", "shr_u", "rotl", "rotr"]
_INT_CMP = ["eq", "ne", "lt_s", "lt_u", "gt_s", "gt_u", "le_s", "le_u",
            "ge_s", "ge_u"]
_LOADS = {I32: ["i32.load", "i32.load8_u", "i32.load8_s", "i32.load16_u",
                "i32.load16_s"],
          I64: ["i64.load", "i64.load8_s", "i64.load16_u", "i64.load32_s",
                "i64.load32_u"],
          F64: ["f64.load"]}
_STORES = {I32: ["i32.store", "i32.store8", "i32.store16"],
           I64: ["i64.store", "i64.store32"], F64: ["f64.store"]}


def _const(draw, t):
    if t == F64:
        v = draw(st.sampled_from(_F64_EDGE) | st.floats())
        return [("f64.const", v)]
    edge, bits = (_I32_EDGE, 32) if t == I32 else (_I64_EDGE, 64)
    v = draw(st.sampled_from(edge) | st.integers(0, 2**bits - 1))
    return [(f"{t}.const", v)]


def _addr(draw, depth):
    if draw(st.booleans()):
        return [("i32.const", draw(st.sampled_from(
            [0, 8, 100, 65528, 65535, 65536, 0xFFFFFFFF])))]
    return _expr(draw, I32, depth - 1)


def _expr(draw, t, depth):
    """Instructions that push one value of type ``t``."""
    if depth <= 0 or draw(st.integers(0, 4)) == 0:
        if draw(st.booleans()):
            return _const(draw, t)
        return [("local.get", draw(st.sampled_from(
            [i for i, lt in enumerate(_LOCALS) if lt == t])))]
    sub = lambda ty: _expr(draw, ty, depth - 1)  # noqa: E731
    form = draw(st.integers(0, 7))
    if form == 0:      # load
        name = draw(st.sampled_from(_LOADS[t]))
        return _addr(draw, depth) + [(name, 0, draw(st.integers(0, 8)))]
    if form == 1:      # if with a result
        return sub(I32) + [("if", t, sub(t), sub(t))]
    if form == 2:      # block left early by br_if
        return [("block", t, sub(t) + sub(I32) + [("br_if", 0), ("drop",)]
                 + sub(t))]
    if form == 3:      # select
        return sub(t) + sub(t) + sub(I32) + [("select",)]
    if form == 4:      # direct call
        if t == F64:
            return sub(F64) + [("call", 1)]
        if t == I32:
            return sub(I32) + sub(I32) + [("call", 0)]
    if t == F64:
        if form == 5:
            return sub(F64) + [(draw(st.sampled_from(
                ["f64.neg", "f64.abs", "f64.ceil", "f64.floor", "f64.trunc",
                 "f64.nearest", "f64.sqrt"])),)]
        if form == 6:
            src = draw(st.sampled_from([I32, I64]))
            sign = draw(st.sampled_from("su"))
            return sub(src) + [(f"f64.convert_{src}_{sign}",)]
        return sub(F64) + sub(F64) + [("f64." + draw(st.sampled_from(
            ["add", "sub", "mul", "div", "min", "max"])),)]
    if form == 5 and t == I32:   # compares and narrowing
        src = draw(st.sampled_from([I32, I64, F64]))
        if src == F64:
            if draw(st.booleans()):
                return sub(F64) + [(draw(st.sampled_from(
                    ["i32.trunc_f64_s", "i32.trunc_f64_u"])),)]
            return sub(F64) + sub(F64) + [("f64." + draw(st.sampled_from(
                ["eq", "ne", "lt", "gt", "le", "ge"])),)]
        if src == I64 and draw(st.booleans()):
            return sub(I64) + [(draw(st.sampled_from(
                ["i32.wrap_i64", "i64.eqz"])),)]
        return sub(src) + sub(src) + [
            (f"{src}." + draw(st.sampled_from(_INT_CMP)),)]
    if form == 5:                # i64 from i32
        return sub(I32) + [(draw(st.sampled_from(
            ["i64.extend_i32_s", "i64.extend_i32_u"])),)]
    if form == 6:
        unops = (["eqz", "clz", "ctz", "popcnt", "extend8_s", "extend16_s"]
                 if t == I32 else ["clz", "ctz", "popcnt", "extend32_s"])
        return sub(t) + [(f"{t}." + draw(st.sampled_from(unops)),)]
    return sub(t) + sub(t) + [(f"{t}." + draw(st.sampled_from(_INT_BIN)),)]


def _stmts(draw, depth, in_loop=False):
    out = []
    for _ in range(draw(st.integers(0, 3 if depth > 0 else 1))):
        form = draw(st.integers(0, 3))
        if form == 0:
            i = draw(st.integers(0, len(_LOCALS) - 1))
            out += _expr(draw, _LOCALS[i], depth) + [("local.set", i)]
        elif form == 1:
            t = draw(st.sampled_from([I32, I64, F64]))
            name = draw(st.sampled_from(_STORES[t]))
            out += (_addr(draw, depth) + _expr(draw, t, depth)
                    + [(name, 0, draw(st.integers(0, 8)))])
        elif form == 2 and depth > 0:
            out += _expr(draw, I32, depth - 1) + [
                ("if", None, _stmts(draw, depth - 1, in_loop),
                 _stmts(draw, depth - 1, in_loop))]
        elif form == 3 and depth > 0 and not in_loop:
            body = [("local.get", _COUNTER), ("i32.eqz",), ("br_if", 1)]
            body += _stmts(draw, depth - 1, True)
            body += [("local.get", _COUNTER), ("i32.const", 1),
                     ("i32.sub",), ("local.set", _COUNTER), ("br", 0)]
            out += [("i32.const", draw(st.integers(0, 4))),
                    ("local.set", _COUNTER),
                    ("block", None, [("loop", None, body)])]
    return out


@st.composite
def program(draw):
    """(result type, body) of a generated function."""
    t = draw(st.sampled_from([I32, I64, F64]))
    return t, _stmts(draw, 2) + _expr(draw, t, 3)


def _program_module(result, body):
    mb = ModuleBuilder("p")
    mb.add_memory(1, 1)
    h = mb.func("h", params=[I32, I32], results=[I32])
    h.local_get(0).local_get(1).op("i32.mul")
    h.local_get(0).i32_const(3).op("i32.shr_u").op("i32.xor")
    h.end()
    g = mb.func("g", params=[F64], results=[F64])
    g.local_get(0).op("f64.floor")
    g.local_get(0).f64_const(0.5).op("f64.mul").op("f64.add")
    g.end()
    f = mb.func("f", results=[result], export=True)
    for t in _LOCALS + (I32,):
        f.add_local(t)
    for instr in body:
        f.emit(instr)
    f.end()
    w = mb.func("w", results=[result], export=True)   # calls f from wasm
    w.call("f")
    w.end()
    return mb.build()


def _outcome(run, mem):
    """(kind, value) of one run: a Trap is an outcome, any other exception
    propagates and fails the test.  f64 values compare by bit pattern, so
    -0.0 differs from 0.0, and must be floats."""
    try:
        value = run()
    except Trap as exc:
        return ("trap", exc.kind), bytes(mem.data)
    if isinstance(value, float):
        value = ("f64", struct.pack("<d", value))
    return ("value", value), bytes(mem.data)


@settings(max_examples=150, deadline=None)
@given(program())
@example((F64, [("f64.const", math.inf), ("f64.ceil",)]))
@example((F64, [("f64.const", math.nan), ("f64.floor",)]))
@example((F64, [("f64.const", -0.5), ("f64.nearest",)]))
@example((F64, [("f64.const", -math.inf), ("call", 1)]))
def test_differential_interp_vs_compiled(prog):
    """Property: the interpreter and both tier-up rules compute identical
    results on random programs, and retire identical steps, whether the
    program returns or traps.  ``w`` calls ``f``, which runs compiled under
    both rules (it reaches no import); a machine with fuel is the
    interpreter-only reference."""
    result, body = prog
    module = _program_module(result, body)
    runs = []
    for tier_up, fuel in ((None, None), ("fork_free", None), ("all", None),
                          ("all", 10 ** 9)):
        inst = instantiate(module, tier_up=tier_up)
        inst.machine.fuel = fuel
        runs.append((_outcome(lambda: inst.invoke("w"), inst.memory),
                     inst.machine.steps))
    want, steps = runs[0]
    assert [got for got, _ in runs] == [want] * len(runs)
    # a trap inside compiled code retires the steps up to the trapping op
    assert [n for _, n in runs] == [steps] * len(runs)
    if want[0][0] == "value" and result == F64:
        assert want[0][1][0] == "f64"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
       st.sampled_from(["i32.div_s", "i32.div_u", "i32.rem_s", "i32.rem_u"]))
def test_differential_division(a, b, op):
    mb = ModuleBuilder("p")
    f = mb.func("f", params=[I32, I32], results=[I32], export=True)
    f.local_get(0).local_get(1).op(op)
    f.end()
    interp, compiled = both_tiers(mb.build())
    r1 = e1 = r2 = e2 = None
    try:
        r1 = interp(a, b)
    except Trap as exc:
        e1 = exc.kind
    try:
        r2 = compiled(a, b)
    except Trap as exc:
        e2 = exc.kind
    assert (r1, e1) == (r2, e2)


# the sign boundary of each width: compiled signed compares flip the sign
# bit of both operands instead of converting them
_SIGN_EDGE = {I32: [0, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF],
              I64: [0, 2**63 - 1, 2**63, 2**64 - 1]}
_SIGNED = {"lt_s": lambda a, b: a < b, "gt_s": lambda a, b: a > b,
           "le_s": lambda a, b: a <= b, "ge_s": lambda a, b: a >= b}


@pytest.mark.parametrize("t", [I32, I64])
def test_differential_signed_compares_at_the_sign_boundary(t):
    bits = 32 if t == I32 else 64
    mb = ModuleBuilder("cmp")
    for op in _SIGNED:
        f = mb.func(op, params=[t, t], results=[I32], export=True)
        f.local_get(0).local_get(1).op(f"{t}.{op}")
        f.end()
    module = mb.build()

    def signed(x):
        return x - (1 << bits) if x >> (bits - 1) else x

    for op, ref in _SIGNED.items():
        interp, compiled = both_tiers(module, op)
        for a in _SIGN_EDGE[t]:
            for b in _SIGN_EDGE[t]:
                want = int(ref(signed(a), signed(b)))
                assert interp(a, b) == compiled(a, b) == want, (op, a, b)


def test_native_tier_runs_f64_helpers_like_the_compiled_tier():
    """The Fig. 8 native/docker tiers run the compiled tier, f64 helpers
    and non-finite constants included."""
    from repro.virt import Workload, run_tier

    mb = ModuleBuilder("f64tier")
    mb.import_func("wali", "SYS_exit_group", params=[I32], results=[I64])
    f = mb.func("f", results=[I32], export=True)
    f.f64_const(2.0).op("f64.sqrt").f64_const(3.0).op("f64.min")
    f.f64_const(10.0).op("f64.mul").op("f64.nearest")
    f.f64_const(math.inf).f64_const(5.5).op("f64.min").op("f64.floor")
    f.op("f64.add").f64_const(-1.0).op("f64.max").op("f64.ceil")
    f.op("i32.trunc_f64_s")
    f.end()
    start = mb.func("_start", export=True)
    start.call("f").call("SYS_exit_group").op("drop")
    start.end()
    module = mb.build()

    imports = {"wali": {"SYS_exit_group": lambda s: 0}}
    interp, compiled = both_tiers(module, "f", imports)
    want = compiled()
    assert want == interp() == 19
    wl = Workload(app="f64tier", argv=["f64tier"])
    for tier in ("native", "docker"):
        assert run_tier(tier, module, wl).status == want, tier
