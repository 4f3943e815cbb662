"""ISA-emulation tier (the QEMU baseline, §4.3).

QEMU(-TCG) runs a foreign binary by fetching and decoding every guest
instruction before executing its semantics.  This module reproduces that
cost structure faithfully: flat code is *packed into bytes* at load time
(the "guest binary"), and execution decodes each instruction from the byte
stream on every dynamic fetch — the per-instruction decode work is exactly
what makes emulators an order of magnitude slower than direct execution
(Fig. 8b-d's steep QEMU slope is emergent, not modelled).

``EmuCodeView`` exposes the packed bytes through the interpreter's fetch
hook (``code.decoded[pc]``), so semantics are shared with the reference
interpreter while every fetch pays the decode cost.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from ..wasm.flatten import FlatCode
from ..wasm.interp import WasmFunc, decode_op

# opcode registry: name <-> id (stable per process)
_OP_IDS: Dict[str, int] = {}
_OP_NAMES: List[str] = []


def _op_id(name: str) -> int:
    if name not in _OP_IDS:
        _OP_IDS[name] = len(_OP_NAMES)
        _OP_NAMES.append(name)
    return _OP_IDS[name]


_HDR = struct.Struct("<HB")   # op id, operand count
_OPERAND = struct.Struct("<q")
_F64 = struct.Struct("<d")


def encode_flat(code: FlatCode) -> Tuple[bytes, List[int]]:
    """Pack flat code into the emulated binary format.

    Returns (bytes, offsets): ``offsets[pc]`` is the byte offset of
    instruction ``pc`` (the "translation block index").
    """
    blob = bytearray()
    offsets: List[int] = []
    for instr in code.ops:
        offsets.append(len(blob))
        name = instr[0]
        operands = instr[1:]
        if name == "br_table":
            # flatten entry triples: count, then (target, arity, height)*
            entries = operands[0]
            flat = [len(entries)]
            for t, a, hgt in entries:
                flat.extend((t, a, hgt))
            operands = tuple(flat)
        if name == "const" and isinstance(operands[0], float):
            blob += _HDR.pack(_op_id("const_f"), 1)
            blob += _F64.pack(operands[0])
            continue
        blob += _HDR.pack(_op_id(name), len(operands))
        for op in operands:
            blob += _OPERAND.pack(op)
    return bytes(blob), offsets


class EmuCodeView:
    """Decode-on-fetch view of an emulated binary.

    Every ``view[pc]`` unpacks the instruction from raw bytes — the
    emulator's fundamental overhead.  The interpreter fetches through
    ``view.decoded``, which does that and then turns the instruction into
    the interpreter's ``(kind, imm)`` form, again on every fetch: nothing
    decoded is kept.
    """

    __slots__ = ("blob", "offsets", "name", "functype", "local_types",
                 "loop_headers", "decode_count", "n_params", "n_results",
                 "zero_locals", "decoded")

    def __init__(self, code: FlatCode):
        blob, offsets = encode_flat(code)
        self.blob = blob
        self.offsets = offsets
        self.name = code.name
        self.functype = code.functype
        self.local_types = code.local_types
        self.loop_headers = code.loop_headers
        self.n_params = code.n_params
        self.n_results = code.n_results
        self.zero_locals = code.zero_locals
        self.decode_count = 0
        self.decoded = _DecodeOnFetch(self)

    @property
    def ops(self):
        return self

    def __len__(self):
        return len(self.offsets)

    def __getitem__(self, pc: int) -> tuple:
        # fetch + decode: the per-instruction emulation cost
        self.decode_count += 1
        off = self.offsets[pc]
        op_id, n = _HDR.unpack_from(self.blob, off)
        name = _OP_NAMES[op_id]
        off += _HDR.size
        if name == "const_f":
            return ("const", _F64.unpack_from(self.blob, off)[0])
        operands = [_OPERAND.unpack_from(self.blob, off + 8 * i)[0]
                    for i in range(n)]
        if name == "br_table":
            count = operands[0]
            entries = [tuple(operands[1 + 3 * i:4 + 3 * i])
                       for i in range(count)]
            return ("br_table", entries)
        return (name, *operands)


class _DecodeOnFetch:
    """The interpreter's fetch hook for an :class:`EmuCodeView`."""

    __slots__ = ("view",)

    def __init__(self, view: EmuCodeView):
        self.view = view

    def __getitem__(self, pc: int) -> tuple:
        view = self.view
        return decode_op(view[pc], view.n_results)


def emulate_instance(instance) -> int:
    """Swap every defined function's code for a decode-on-fetch view.

    Returns the total emulated binary size in bytes (the "guest image").
    """
    total = 0
    new_funcs = []
    for func in instance.funcs:
        if isinstance(func, WasmFunc):
            view = EmuCodeView(func.code)
            emu = WasmFunc(func.functype, view)  # type: ignore[arg-type]
            total += len(view.blob)
            new_funcs.append(emu)
        else:
            new_funcs.append(func)
    # fix up table/export references to the rewrapped functions
    mapping = {id(old): new for old, new in zip(instance.funcs, new_funcs)}
    if instance.table is not None:
        instance.table.elems = [
            mapping.get(id(e), e) for e in instance.table.elems]
    for k, v in list(instance.exports.items()):
        if id(v) in mapping:
            instance.exports[k] = mapping[id(v)]
    instance.funcs = new_funcs
    return total
