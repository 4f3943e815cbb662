"""Unit tests for the core Wasm engine: builder, validation, interpretation."""

import pytest

from repro.wasm import (
    I32, I64, F64, ModuleBuilder, Trap, TrapDivByZero, TrapIndirectCall,
    TrapIntegerOverflow, TrapOutOfBounds, TrapStackExhausted, TrapUnreachable,
    ValidationError, instantiate, validate_module,
)


def build_binop(op, ty=I32):
    mb = ModuleBuilder("t")
    f = mb.func("f", params=[ty, ty], results=[ty], export=True)
    f.local_get(0).local_get(1).op(op)
    f.end()
    return instantiate(mb.build())


class TestArithmeticI32:
    def test_add_wraps(self):
        inst = build_binop("i32.add")
        assert inst.invoke("f", 0xFFFFFFFF, 1) == 0

    def test_sub_wraps(self):
        inst = build_binop("i32.sub")
        assert inst.invoke("f", 0, 1) == 0xFFFFFFFF

    def test_mul(self):
        inst = build_binop("i32.mul")
        assert inst.invoke("f", 100000, 100000) == (100000 * 100000) & 0xFFFFFFFF

    def test_div_s_trunc_toward_zero(self):
        inst = build_binop("i32.div_s")
        assert inst.invoke("f", (-7) & 0xFFFFFFFF, 2) == (-3) & 0xFFFFFFFF

    def test_div_s_by_zero_traps(self):
        inst = build_binop("i32.div_s")
        with pytest.raises(TrapDivByZero):
            inst.invoke("f", 1, 0)

    def test_div_s_overflow_traps(self):
        inst = build_binop("i32.div_s")
        with pytest.raises(TrapIntegerOverflow):
            inst.invoke("f", 0x80000000, 0xFFFFFFFF)

    def test_div_u(self):
        inst = build_binop("i32.div_u")
        assert inst.invoke("f", 0xFFFFFFFF, 2) == 0x7FFFFFFF

    def test_rem_s_sign_follows_dividend(self):
        inst = build_binop("i32.rem_s")
        assert inst.invoke("f", (-7) & 0xFFFFFFFF, 2) == (-1) & 0xFFFFFFFF

    def test_rem_u_by_zero_traps(self):
        inst = build_binop("i32.rem_u")
        with pytest.raises(TrapDivByZero):
            inst.invoke("f", 5, 0)

    def test_shifts_mod_32(self):
        inst = build_binop("i32.shl")
        assert inst.invoke("f", 1, 33) == 2

    def test_shr_s_arithmetic(self):
        inst = build_binop("i32.shr_s")
        assert inst.invoke("f", 0x80000000, 1) == 0xC0000000

    def test_shr_u_logical(self):
        inst = build_binop("i32.shr_u")
        assert inst.invoke("f", 0x80000000, 1) == 0x40000000

    def test_rotl(self):
        inst = build_binop("i32.rotl")
        assert inst.invoke("f", 0x80000001, 1) == 0x00000003

    def test_rotr(self):
        inst = build_binop("i32.rotr")
        assert inst.invoke("f", 0x00000003, 1) == 0x80000001

    def test_comparison_signedness(self):
        lt_s = build_binop("i32.lt_s")
        lt_u = build_binop("i32.lt_u")
        neg1 = (-1) & 0xFFFFFFFF
        assert lt_s.invoke("f", neg1, 0) == 1
        assert lt_u.invoke("f", neg1, 0) == 0


class TestUnaryOps:
    def _unop(self, op, ty=I32):
        mb = ModuleBuilder("t")
        f = mb.func("f", params=[ty], results=[ty], export=True)
        f.local_get(0).op(op)
        f.end()
        return instantiate(mb.build())

    def test_clz(self):
        assert self._unop("i32.clz").invoke("f", 1) == 31
        assert self._unop("i32.clz").invoke("f", 0) == 32

    def test_ctz(self):
        assert self._unop("i32.ctz").invoke("f", 0x80000000) == 31
        assert self._unop("i32.ctz").invoke("f", 0) == 32

    def test_popcnt(self):
        assert self._unop("i32.popcnt").invoke("f", 0xF0F0) == 8

    def test_extend8_s(self):
        assert self._unop("i32.extend8_s").invoke("f", 0xFF) == 0xFFFFFFFF

    def test_i64_clz(self):
        assert self._unop("i64.clz", I64).invoke("f", 1) == 63


class TestConversions:
    def test_wrap(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", params=[I64], results=[I32], export=True)
        f.local_get(0).op("i32.wrap_i64")
        f.end()
        assert instantiate(mb.build()).invoke("f", 0x1_0000_0005) == 5

    def test_extend_s(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", params=[I32], results=[I64], export=True)
        f.local_get(0).op("i64.extend_i32_s")
        f.end()
        assert instantiate(mb.build()).invoke("f", 0xFFFFFFFF) == 0xFFFFFFFFFFFFFFFF

    def test_trunc_f64_traps_on_nan(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", params=[F64], results=[I32], export=True)
        f.local_get(0).op("i32.trunc_f64_s")
        f.end()
        inst = instantiate(mb.build())
        assert inst.invoke("f", 3.9) == 3
        with pytest.raises(TrapIntegerOverflow):
            inst.invoke("f", float("nan"))
        with pytest.raises(TrapIntegerOverflow):
            inst.invoke("f", 1e20)

    def test_convert(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", params=[I32], results=[F64], export=True)
        f.local_get(0).op("f64.convert_i32_s")
        f.end()
        assert instantiate(mb.build()).invoke("f", (-2) & 0xFFFFFFFF) == -2.0


_INF, _NAN = float("inf"), float("nan")


class TestF64Semantics:
    """IEEE 754 results in both tiers: NaN and infinities pass through the
    rounding ops (no host exception), zero results keep their sign, and
    min/max propagate NaN and order -0.0 below 0.0."""

    @pytest.mark.parametrize("op,args,expected", [
        ("f64.ceil", (-0.5,), -0.0), ("f64.ceil", (1.2,), 2.0),
        ("f64.floor", (0.5,), 0.0), ("f64.floor", (-0.5,), -1.0),
        ("f64.trunc", (-0.7,), -0.0), ("f64.trunc", (1e300,), 1e300),
        ("f64.nearest", (2.5,), 2.0), ("f64.nearest", (-0.5,), -0.0),
        ("f64.nearest", (3.5,), 4.0),
        ("f64.ceil", (_INF,), _INF), ("f64.floor", (-_INF,), -_INF),
        ("f64.trunc", (_NAN,), _NAN), ("f64.nearest", (-_INF,), -_INF),
        ("f64.min", (0.0, -0.0), -0.0), ("f64.min", (-0.0, 0.0), -0.0),
        ("f64.max", (-0.0, 0.0), 0.0), ("f64.max", (0.0, -0.0), 0.0),
        ("f64.min", (1.0, _NAN), _NAN), ("f64.max", (_NAN, 1.0), _NAN),
        ("f64.min", (-_INF, 3.0), -_INF), ("f64.max", (2.0, 3.0), 3.0),
        ("f64.sqrt", (-1.0,), _NAN), ("f64.sqrt", (-0.0,), -0.0),
    ])
    def test_ieee_result(self, op, args, expected):
        import math
        import struct

        mb = ModuleBuilder("t")
        f = mb.func("f", params=[F64] * len(args), results=[F64], export=True)
        for i in range(len(args)):
            f.local_get(i)
        f.op(op)
        f.end()
        module = mb.build()
        inst = instantiate(module)
        compiled = instantiate(module, tier_up="all")
        for got in (inst.invoke("f", *args),
                    compiled.func_by_name("f").native(compiled.machine,
                                                      *args)):
            assert type(got) is float
            if math.isnan(expected):
                assert math.isnan(got)
            else:
                assert struct.pack("<d", got) == struct.pack("<d", expected)

    @pytest.mark.parametrize("value", [_INF, -_INF, _NAN])
    def test_trunc_to_int_traps_on_non_finite(self, value):
        mb = ModuleBuilder("t")
        f = mb.func("f", params=[F64], results=[I64], export=True)
        f.local_get(0).op("i64.trunc_f64_s")
        f.end()
        with pytest.raises(TrapIntegerOverflow):
            instantiate(mb.build()).invoke("f", value)


class TestControlFlow:
    def test_block_br(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", results=[I32], export=True)
        with f.block(I32):
            f.i32_const(42)
            f.br(0)
            f.i32_const(7)  # unreachable
        f.end()
        assert instantiate(mb.build()).invoke("f") == 42

    def test_loop_countdown(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", params=[I32], results=[I32], export=True)
        acc = f.add_local(I32)
        with f.block():
            with f.loop():
                f.local_get(0)
                f.op("i32.eqz")
                f.br_if(1)
                f.local_get(acc).local_get(0).op("i32.add").local_set(acc)
                f.local_get(0).i32_const(1).op("i32.sub").local_set(0)
                f.br(0)
        f.local_get(acc)
        f.end()
        assert instantiate(mb.build()).invoke("f", 10) == 55

    def test_if_else(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", params=[I32], results=[I32], export=True)
        f.local_get(0)
        with f.if_(I32):
            f.i32_const(1)
            f.else_()
            f.i32_const(2)
        f.end()
        inst = instantiate(mb.build())
        assert inst.invoke("f", 5) == 1
        assert inst.invoke("f", 0) == 2

    def test_if_without_else(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", params=[I32], results=[I32], export=True)
        res = f.add_local(I32)
        f.i32_const(10).local_set(res)
        f.local_get(0)
        with f.if_():
            f.i32_const(20).local_set(res)
        f.local_get(res)
        f.end()
        inst = instantiate(mb.build())
        assert inst.invoke("f", 1) == 20
        assert inst.invoke("f", 0) == 10

    def test_br_table(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", params=[I32], results=[I32], export=True)
        with f.block():          # depth 2 -> returns 100
            with f.block():      # depth 1 -> returns 200
                with f.block():  # depth 0 -> returns 300
                    f.local_get(0)
                    f.op("br_table", (0, 1), 2)
                f.i32_const(300)
                f.ret()
            f.i32_const(200)
            f.ret()
        f.i32_const(100)
        f.end()
        inst = instantiate(mb.build())
        assert inst.invoke("f", 0) == 300
        assert inst.invoke("f", 1) == 200
        assert inst.invoke("f", 2) == 100
        assert inst.invoke("f", 99) == 100  # clamps to default

    def test_early_return(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", params=[I32], results=[I32], export=True)
        f.local_get(0)
        with f.if_():
            f.i32_const(1)
            f.ret()
        f.i32_const(2)
        f.end()
        inst = instantiate(mb.build())
        assert inst.invoke("f", 1) == 1
        assert inst.invoke("f", 0) == 2

    def test_nested_loops(self):
        # sum of i*j for i,j in [1,n]
        mb = ModuleBuilder("t")
        f = mb.func("f", params=[I32], results=[I32], export=True)
        i = f.add_local(I32)
        j = f.add_local(I32)
        acc = f.add_local(I32)
        f.i32_const(1).local_set(i)
        with f.block():
            with f.loop():
                f.local_get(i).local_get(0).op("i32.gt_s")
                f.br_if(1)
                f.i32_const(1).local_set(j)
                with f.block():
                    with f.loop():
                        f.local_get(j).local_get(0).op("i32.gt_s")
                        f.br_if(1)
                        f.local_get(acc)
                        f.local_get(i).local_get(j).op("i32.mul")
                        f.op("i32.add").local_set(acc)
                        f.local_get(j).i32_const(1).op("i32.add").local_set(j)
                        f.br(0)
                f.local_get(i).i32_const(1).op("i32.add").local_set(i)
                f.br(0)
        f.local_get(acc)
        f.end()
        assert instantiate(mb.build()).invoke("f", 4) == 100  # (1+2+3+4)^2

    def test_unreachable_traps(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", export=True)
        f.op("unreachable")
        f.end()
        with pytest.raises(TrapUnreachable):
            instantiate(mb.build()).invoke("f")


class TestCalls:
    def test_direct_call(self):
        mb = ModuleBuilder("t")
        g = mb.func("double", params=[I32], results=[I32])
        g.local_get(0).i32_const(2).op("i32.mul")
        g.end()
        f = mb.func("f", params=[I32], results=[I32], export=True)
        f.local_get(0).call("double").call("double")
        f.end()
        assert instantiate(mb.build()).invoke("f", 3) == 12

    def test_recursion(self):
        mb = ModuleBuilder("t")
        f = mb.func("fib", params=[I32], results=[I32], export=True)
        f.local_get(0).i32_const(2).op("i32.lt_s")
        with f.if_(I32):
            f.local_get(0)
            f.else_()
            f.local_get(0).i32_const(1).op("i32.sub").call("fib")
            f.local_get(0).i32_const(2).op("i32.sub").call("fib")
            f.op("i32.add")
        f.end()
        assert instantiate(mb.build()).invoke("fib", 10) == 55

    def test_stack_exhaustion(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", params=[I32], results=[I32], export=True)
        f.local_get(0).call("f")
        f.end()
        with pytest.raises(TrapStackExhausted):
            instantiate(mb.build()).invoke("f", 0)

    def test_host_call(self):
        mb = ModuleBuilder("t")
        mb.import_func("env", "add3", params=[I32], results=[I32])
        f = mb.func("f", params=[I32], results=[I32], export=True)
        f.local_get(0).call("add3")
        f.end()
        inst = instantiate(mb.build(), {"env": {"add3": lambda x: x + 3}})
        assert inst.invoke("f", 4) == 7

    def test_host_call_result_masked(self):
        mb = ModuleBuilder("t")
        mb.import_func("env", "big", results=[I32])
        f = mb.func("f", results=[I32], export=True)
        f.call("big")
        f.end()
        inst = instantiate(mb.build(), {"env": {"big": lambda: 2**40 + 9}})
        assert inst.invoke("f") == 9

    def test_call_indirect(self):
        mb = ModuleBuilder("t")
        a = mb.func("inc", params=[I32], results=[I32])
        a.local_get(0).i32_const(1).op("i32.add")
        a.end()
        b = mb.func("dec", params=[I32], results=[I32])
        b.local_get(0).i32_const(1).op("i32.sub")
        b.end()
        mb.add_elem(0, [mb.func_index("inc"), mb.func_index("dec")])
        f = mb.func("f", params=[I32, I32], results=[I32], export=True)
        f.local_get(1)       # argument
        f.local_get(0)       # table index
        f.call_indirect([I32], [I32])
        f.end()
        inst = instantiate(mb.build())
        assert inst.invoke("f", 0, 10) == 11
        assert inst.invoke("f", 1, 10) == 9

    def test_call_indirect_signature_mismatch_traps(self):
        # The paper's §4.1 porting observation: C programs calling through
        # incompatible function-pointer types trap at runtime.
        mb = ModuleBuilder("t")
        a = mb.func("two_args", params=[I32, I32], results=[I32])
        a.local_get(0).local_get(1).op("i32.add")
        a.end()
        mb.add_elem(0, [mb.func_index("two_args")])
        f = mb.func("f", results=[I32], export=True)
        f.i32_const(5)
        f.i32_const(0)
        f.call_indirect([I32], [I32])  # wrong signature
        f.end()
        with pytest.raises(TrapIndirectCall):
            instantiate(mb.build()).invoke("f")

    def test_call_indirect_null_entry_traps(self):
        mb = ModuleBuilder("t")
        mb.add_table(4)
        f = mb.func("f", results=[I32], export=True)
        f.i32_const(2)
        f.call_indirect([], [I32])
        f.end()
        with pytest.raises(TrapIndirectCall):
            instantiate(mb.build()).invoke("f")


class TestMemoryOps:
    def _inst(self):
        mb = ModuleBuilder("t")
        mb.add_memory(1, 4)
        st = mb.func("store", params=[I32, I32], export=True)
        st.local_get(0).local_get(1).i32_store()
        st.end()
        ld = mb.func("load", params=[I32], results=[I32], export=True)
        ld.local_get(0).i32_load()
        ld.end()
        ld8 = mb.func("load8s", params=[I32], results=[I32], export=True)
        ld8.local_get(0).op("i32.load8_s", 0, 0)
        ld8.end()
        grow = mb.func("grow", params=[I32], results=[I32], export=True)
        grow.local_get(0).op("memory.grow")
        grow.end()
        size = mb.func("size", results=[I32], export=True)
        size.op("memory.size")
        size.end()
        return instantiate(mb.build())

    def test_store_load(self):
        inst = self._inst()
        inst.invoke("store", 16, 0xDEADBEEF)
        assert inst.invoke("load", 16) == 0xDEADBEEF

    def test_load8_sign_extends(self):
        inst = self._inst()
        inst.invoke("store", 0, 0xFF)
        assert inst.invoke("load8s", 0) == 0xFFFFFFFF

    def test_oob_load_traps(self):
        inst = self._inst()
        with pytest.raises(TrapOutOfBounds):
            inst.invoke("load", 65536)

    def test_oob_partial_traps(self):
        inst = self._inst()
        with pytest.raises(TrapOutOfBounds):
            inst.invoke("load", 65534)  # 4-byte read crosses the boundary

    def test_grow_and_size(self):
        inst = self._inst()
        assert inst.invoke("size") == 1
        assert inst.invoke("grow", 2) == 1
        assert inst.invoke("size") == 3
        assert inst.invoke("load", 65536 * 2) == 0  # new pages are zero

    def test_grow_beyond_max_fails(self):
        inst = self._inst()
        assert inst.invoke("grow", 100) == 0xFFFFFFFF  # -1

    def test_memory_fill_copy(self):
        mb = ModuleBuilder("t")
        mb.add_memory(1)
        f = mb.func("f", results=[I32], export=True)
        f.i32_const(0).i32_const(0xAB).i32_const(8).op("memory.fill")
        f.i32_const(100).i32_const(0).i32_const(8).op("memory.copy")
        f.i32_const(104).i32_load()
        f.end()
        assert instantiate(mb.build()).invoke("f") == 0xABABABAB


class TestGlobalsAndData:
    def test_global_mutation(self):
        mb = ModuleBuilder("t")
        gi = mb.add_global(I32, 10)
        f = mb.func("bump", results=[I32], export=True)
        f.global_get(gi).i32_const(1).op("i32.add").global_set(gi)
        f.global_get(gi)
        f.end()
        inst = instantiate(mb.build())
        assert inst.invoke("bump") == 11
        assert inst.invoke("bump") == 12

    def test_data_segment(self):
        mb = ModuleBuilder("t")
        mb.add_memory(1)
        mb.add_data(8, b"hello")
        f = mb.func("f", results=[I32], export=True)
        f.i32_const(8).op("i32.load8_u", 0, 0)
        f.end()
        assert instantiate(mb.build()).invoke("f") == ord("h")

    def test_start_function_runs(self):
        mb = ModuleBuilder("t")
        gi = mb.add_global(I32, 0)
        s = mb.func("init")
        s.i32_const(99).global_set(gi)
        s.end()
        mb.set_start("init")
        g = mb.func("get", results=[I32], export=True)
        g.global_get(gi)
        g.end()
        assert instantiate(mb.build()).invoke("get") == 99


class TestValidation:
    def test_type_mismatch_rejected(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", results=[I32], export=True)
        f.i64_const(1)  # wrong result type
        f.end()
        with pytest.raises(ValidationError):
            validate_module(mb.build())

    def test_stack_underflow_rejected(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", results=[I32], export=True)
        f.op("i32.add")
        f.end()
        with pytest.raises(ValidationError):
            validate_module(mb.build())

    def test_bad_local_rejected(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", results=[I32], export=True)
        f.local_get(3)
        f.end()
        with pytest.raises(ValidationError):
            validate_module(mb.build())

    def test_bad_branch_depth_rejected(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", export=True)
        f.br(5)
        f.end()
        with pytest.raises(ValidationError):
            validate_module(mb.build())

    def test_values_left_on_stack_rejected(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", export=True)
        f.i32_const(1)
        f.end()
        with pytest.raises(ValidationError):
            validate_module(mb.build())

    def test_memory_op_without_memory_rejected(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", results=[I32], export=True)
        f.i32_const(0).i32_load()
        f.end()
        with pytest.raises(ValidationError):
            validate_module(mb.build())

    def test_immutable_global_set_rejected(self):
        mb = ModuleBuilder("t")
        gi = mb.add_global(I32, 1, mutable=False)
        f = mb.func("f", export=True)
        f.i32_const(2).global_set(gi)
        f.end()
        with pytest.raises(ValidationError):
            validate_module(mb.build())

    def test_unreachable_code_is_permissive(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", results=[I32], export=True)
        f.i32_const(1)
        f.ret()
        f.op("i32.add")  # dead; polymorphic stack accepts it
        f.end()
        validate_module(mb.build())

    def test_duplicate_export_rejected(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", export=True)
        f.end()
        mb.export_func("f")
        with pytest.raises(ValidationError):
            validate_module(mb.build())

    def test_select_type_mismatch_rejected(self):
        mb = ModuleBuilder("t")
        f = mb.func("f", results=[I32], export=True)
        f.i32_const(1).i64_const(2).i32_const(0).op("select")
        f.end()
        with pytest.raises(ValidationError):
            validate_module(mb.build())


class TestSafepoints:
    def _loop_module(self):
        mb = ModuleBuilder("t")
        f = mb.func("spin", params=[I32], export=True)
        with f.block():
            with f.loop():
                f.local_get(0).op("i32.eqz")
                f.br_if(1)
                f.local_get(0).i32_const(1).op("i32.sub").local_set(0)
                f.br(0)
        f.end()
        return mb.build()

    def test_loop_scheme_polls_each_iteration(self):
        inst = instantiate(self._loop_module(), scheme="loop")
        polls = []
        inst.machine.poll_hook = lambda: polls.append(1)
        inst.invoke("spin", 10)
        assert len(polls) == 11  # header executes n+1 times

    def test_func_scheme_polls_once(self):
        inst = instantiate(self._loop_module(), scheme="func")
        polls = []
        inst.machine.poll_hook = lambda: polls.append(1)
        inst.invoke("spin", 10)
        assert len(polls) == 1

    def test_none_scheme_never_polls(self):
        inst = instantiate(self._loop_module(), scheme="none")
        polls = []
        inst.machine.poll_hook = lambda: polls.append(1)
        inst.invoke("spin", 10)
        assert polls == []

    def test_all_scheme_polls_most(self):
        counts = {}
        for scheme in ("loop", "all"):
            inst = instantiate(self._loop_module(), scheme=scheme)
            polls = []
            inst.machine.poll_hook = lambda: polls.append(1)
            inst.invoke("spin", 10)
            counts[scheme] = len(polls)
        assert counts["all"] > 3 * counts["loop"]

    def test_fuel_limit(self):
        inst = instantiate(self._loop_module())
        inst.machine.fuel = 100
        with pytest.raises(Trap):
            inst.invoke("spin", 10**9)


class TestDispatch:
    """Step accounting of the pre-decoded dispatch loop."""

    # spin's flat code under the "loop" scheme: one iteration is ops 0-8,
    # the exit path is ops 0-3 then the ret at 9
    SPIN_OPS = ["poll", "local.get", "i32.eqz", "br_if", "local.get",
                "const", "i32.sub", "local.set", "jump", "ret"]

    def _spin(self):
        inst = instantiate(TestSafepoints()._loop_module(), scheme="loop")
        code = inst.func_by_name("spin").code
        assert [op[0] for op in code.ops] == self.SPIN_OPS
        return inst

    @pytest.mark.parametrize("n", [0, 1, 10, 57])
    def test_steps_equal_flat_ops_retired(self, n):
        inst = self._spin()
        inst.invoke("spin", n)
        assert inst.machine.steps == 9 * n + 5
        inst.invoke("spin", 3)          # the count accumulates across runs
        assert inst.machine.steps == 9 * n + 5 + 32

    @pytest.mark.parametrize("fuel", [0, 1, 100, 103])
    def test_fuel_traps_on_step_after_limit(self, fuel):
        inst = self._spin()
        machine = inst.machine
        machine.fuel = fuel
        with pytest.raises(Trap) as ei:
            inst.invoke("spin", 10**9)
        assert ei.value.kind == "fuel-exhausted"
        assert machine.steps == fuel + 1
        # the trapping op is step fuel + 1: pc ``fuel % 9`` of the loop
        assert machine.frames[-1][1] == fuel % 9

    def test_trap_pc_names_the_trapping_op(self):
        mb = ModuleBuilder("t")
        mb.add_memory(1, 1)
        f = mb.func("f", params=[I32], results=[I32], export=True)
        f.local_get(0).i32_const(1).op("i32.add").i32_load()
        f.end()
        inst = instantiate(mb.build())
        with pytest.raises(TrapOutOfBounds):
            inst.invoke("f", 70000)
        frame = inst.machine.frames[-1]
        assert frame[0].ops[frame[1]][0] == "i32.load"
        assert inst.machine.steps == 4

    def test_host_call_in_nested_handler_sees_steps(self):
        # a poll hook re-enters the machine (as signal delivery does); the
        # handler's host call must see every step retired so far, both the
        # outer run's and the handler's own
        mb = ModuleBuilder("t")
        mb.import_func("env", "probe", params=[], results=[])
        h = mb.func("handler", export=True)
        h.call("probe")
        h.end()
        f = mb.func("spin", params=[I32], export=True)
        with f.block():
            with f.loop():
                f.local_get(0).op("i32.eqz")
                f.br_if(1)
                f.local_get(0).i32_const(1).op("i32.sub").local_set(0)
                f.br(0)
        f.end()
        seen = []
        inst = instantiate(mb.build(), {"env": {
            "probe": lambda: seen.append(inst.machine.steps)}},
            scheme="loop")
        machine = inst.machine
        handler = inst.func_by_name("handler")

        def hook():
            seen.append(machine.steps)
            if len(seen) == 1:
                machine.reenter(handler)

        machine.poll_hook = hook
        inst.invoke("spin", 2)
        # poll 1 is step 1; the handler's call is step 2 and its ret
        # step 3; each later poll comes 9 outer steps on
        assert seen == [1, 2, 12, 21]
        assert machine.steps == 9 * 2 + 5 + 2


class TestMachineClone:
    def test_clone_is_independent(self):
        mb = ModuleBuilder("t")
        mb.add_memory(1)
        gi = mb.add_global(I32, 5)
        f = mb.func("put", params=[I32, I32], export=True)
        f.local_get(0).local_get(1).i32_store()
        f.end()
        g = mb.func("get", params=[I32], results=[I32], export=True)
        g.local_get(0).i32_load()
        g.end()
        inst = instantiate(mb.build())
        inst.invoke("put", 0, 1)
        clone = inst.clone()
        inst.invoke("put", 0, 2)
        assert clone.invoke("get", 0) == 1
        assert inst.invoke("get", 0) == 2
