"""Binary encoder/decoder for the supported WebAssembly subset.

Produces real ``\\0asm`` binaries: LEB128 integers, standard section ids,
standard opcode bytes.  ``decode_module(encode_module(m))`` round-trips, which
the property-based tests exercise.  The mini-ISA "QEMU" baseline also reuses
the LEB128 primitives.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from .errors import DecodeError
from .module import (
    DataSegment, ElemSegment, Export, Function, Global, Import, Module,
    KIND_FUNC, KIND_GLOBAL, KIND_MEMORY, KIND_TABLE,
)
from .opcodes import (
    BY_BYTE, OPS, IMM_BLOCK, IMM_BRTABLE, IMM_CALLIND, IMM_F64, IMM_I32,
    IMM_I64, IMM_MEM2, IMM_MEMARG, IMM_MEMIDX, IMM_NONE, IMM_U32,
)
from .types import (
    BYTE_VALTYPES, FuncType, GlobalType, Limits, MemoryType, TableType,
    VALTYPE_BYTES,
)

MAGIC = b"\x00asm"
VERSION = b"\x01\x00\x00\x00"

SEC_TYPE = 1
SEC_IMPORT = 2
SEC_FUNC = 3
SEC_TABLE = 4
SEC_MEMORY = 5
SEC_GLOBAL = 6
SEC_EXPORT = 7
SEC_START = 8
SEC_ELEM = 9
SEC_CODE = 10
SEC_DATA = 11

_KIND_BYTES = {KIND_FUNC: 0, KIND_TABLE: 1, KIND_MEMORY: 2, KIND_GLOBAL: 3}
_BYTE_KINDS = {v: k for k, v in _KIND_BYTES.items()}


# --------------------------------------------------------------------------
# LEB128
# --------------------------------------------------------------------------

def encode_uleb(value: int) -> bytes:
    if value < 0:
        raise ValueError("uleb requires non-negative value")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def encode_sleb(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        sign = byte & 0x40
        if (value == 0 and not sign) or (value == -1 and sign):
            out.append(byte)
            return bytes(out)
        out.append(byte | 0x80)


class Reader:
    """Cursor over a bytes buffer with LEB128 primitives."""

    __slots__ = ("buf", "pos", "end")

    def __init__(self, buf: bytes, pos: int = 0, end=None):
        self.buf = buf
        self.pos = pos
        self.end = len(buf) if end is None else end

    def eof(self) -> bool:
        return self.pos >= self.end

    def byte(self) -> int:
        if self.pos >= self.end:
            raise DecodeError("unexpected end of input")
        b = self.buf[self.pos]
        self.pos += 1
        return b

    def bytes(self, n: int) -> bytes:
        if self.pos + n > self.end:
            raise DecodeError("unexpected end of input")
        b = self.buf[self.pos : self.pos + n]
        self.pos += n
        return bytes(b)

    def uleb(self) -> int:
        result = 0
        shift = 0
        while True:
            b = self.byte()
            result |= (b & 0x7F) << shift
            if not b & 0x80:
                return result
            shift += 7
            if shift > 63:
                raise DecodeError("uleb too long")

    def sleb(self) -> int:
        result = 0
        shift = 0
        while True:
            b = self.byte()
            result |= (b & 0x7F) << shift
            shift += 7
            if not b & 0x80:
                if b & 0x40:
                    result |= -(1 << shift)
                return result
            if shift > 70:
                raise DecodeError("sleb too long")

    def name(self) -> str:
        n = self.uleb()
        return self.bytes(n).decode("utf-8")


# --------------------------------------------------------------------------
# Instruction encoding
# --------------------------------------------------------------------------

def _encode_blocktype(result, out: bytearray) -> None:
    if result is None:
        out.append(0x40)
    else:
        out.append(VALTYPE_BYTES[result])


def _encode_instr(instr: tuple, out: bytearray) -> None:
    name = instr[0]
    op = OPS[name]
    if name == "block" or name == "loop":
        out.append(op.byte)
        _encode_blocktype(instr[1], out)
        _encode_body(instr[2], out)
        out.append(0x0B)
        return
    if name == "if":
        out.append(op.byte)
        _encode_blocktype(instr[1], out)
        _encode_body(instr[2], out)
        if len(instr) > 3 and instr[3]:
            out.append(0x05)
            _encode_body(instr[3], out)
        out.append(0x0B)
        return
    if op.byte > 0xFF:  # prefixed ops (0xFC bulk memory, 0xFE atomics)
        out.append(op.byte >> 8)
        out += encode_uleb(op.byte & 0xFF)
        if op.imm == IMM_MEM2:
            out += b"\x00\x00"
        elif op.imm == IMM_MEMARG:
            out += encode_uleb(instr[1])
            out += encode_uleb(instr[2])
        else:
            out.append(0x00)
        return
    out.append(op.byte)
    imm = op.imm
    if imm == IMM_NONE:
        return
    if imm == IMM_U32:
        out += encode_uleb(instr[1])
    elif imm == IMM_MEMARG:
        out += encode_uleb(instr[1])  # align
        out += encode_uleb(instr[2])  # offset
    elif imm == IMM_I32 or imm == IMM_I64:
        out += encode_sleb(instr[1])
    elif imm == IMM_F64:
        out += struct.pack("<d", instr[1])
    elif imm == IMM_BRTABLE:
        targets, default = instr[1], instr[2]
        out += encode_uleb(len(targets))
        for t in targets:
            out += encode_uleb(t)
        out += encode_uleb(default)
    elif imm == IMM_CALLIND:
        out += encode_uleb(instr[1])  # type idx
        out += encode_uleb(instr[2])  # table idx
    elif imm == IMM_MEMIDX:
        out.append(0x00)
    else:
        raise ValueError(f"cannot encode {name}")


def _encode_body(body: list, out: bytearray) -> None:
    for instr in body:
        _encode_instr(instr, out)


def _decode_blocktype(r: Reader):
    b = r.byte()
    if b == 0x40:
        return None
    if b in BYTE_VALTYPES:
        return BYTE_VALTYPES[b]
    raise DecodeError(f"bad blocktype 0x{b:02x}")


def _valtype(r: Reader) -> str:
    b = r.byte()
    vt = BYTE_VALTYPES.get(b)
    if vt is None:
        raise DecodeError(f"bad valtype 0x{b:02x}")
    return vt


def _decode_body(r: Reader, terminators=(0x0B,)) -> Tuple[list, int]:
    """Decode instructions until a terminator byte; returns (body, term)."""
    body: list = []
    while True:
        b = r.byte()
        if b in terminators:
            return body, b
        if b == 0xFC or b == 0xFE:
            sub = r.uleb()
            op = BY_BYTE.get((b << 8) | sub)
            if op is None:
                raise DecodeError(f"unknown 0x{b:02x} op {sub}")
            if op.imm == IMM_MEM2:
                r.byte(); r.byte()
                body.append((op.name,))
            elif op.imm == IMM_MEMARG:
                body.append((op.name, r.uleb(), r.uleb()))
            else:
                r.byte()
                body.append((op.name,))
            continue
        op = BY_BYTE.get(b)
        if op is None:
            raise DecodeError(f"unknown opcode 0x{b:02x}")
        name = op.name
        if name == "block" or name == "loop":
            bt = _decode_blocktype(r)
            inner, _ = _decode_body(r)
            body.append((name, bt, inner))
        elif name == "if":
            bt = _decode_blocktype(r)
            then, term = _decode_body(r, terminators=(0x0B, 0x05))
            els: list = []
            if term == 0x05:
                els, _ = _decode_body(r)
            body.append(("if", bt, then, els))
        elif op.imm == IMM_NONE:
            body.append((name,))
        elif op.imm == IMM_U32:
            body.append((name, r.uleb()))
        elif op.imm == IMM_MEMARG:
            body.append((name, r.uleb(), r.uleb()))
        elif op.imm == IMM_I32 or op.imm == IMM_I64:
            body.append((name, r.sleb()))
        elif op.imm == IMM_F64:
            body.append((name, struct.unpack("<d", r.bytes(8))[0]))
        elif op.imm == IMM_BRTABLE:
            n = r.uleb()
            targets = tuple(r.uleb() for _ in range(n))
            body.append((name, targets, r.uleb()))
        elif op.imm == IMM_CALLIND:
            body.append((name, r.uleb(), r.uleb()))
        elif op.imm == IMM_MEMIDX:
            r.byte()
            body.append((name,))
        else:
            raise DecodeError(f"cannot decode {name}")


def _encode_const_expr(instr: tuple) -> bytes:
    out = bytearray()
    _encode_instr(instr, out)
    out.append(0x0B)
    return bytes(out)


def _decode_const_expr(r: Reader) -> tuple:
    body, _ = _decode_body(r)
    if len(body) != 1:
        raise DecodeError("const expression must be a single instruction")
    return body[0]


# --------------------------------------------------------------------------
# Section encoding
# --------------------------------------------------------------------------

def _encode_limits(limits: Limits) -> bytes:
    if limits.max is None:
        return b"\x00" + encode_uleb(limits.min)
    return b"\x01" + encode_uleb(limits.min) + encode_uleb(limits.max)


def _decode_limits(r: Reader) -> Limits:
    flag = r.byte()
    lo = r.uleb()
    if flag & 0x01:
        return Limits(lo, r.uleb())
    return Limits(lo)


def _encode_functype(ft: FuncType) -> bytes:
    out = bytearray(b"\x60")
    out += encode_uleb(len(ft.params))
    for p in ft.params:
        out.append(VALTYPE_BYTES[p])
    out += encode_uleb(len(ft.results))
    for p in ft.results:
        out.append(VALTYPE_BYTES[p])
    return bytes(out)


def _section(sec_id: int, payload: bytes) -> bytes:
    return bytes([sec_id]) + encode_uleb(len(payload)) + payload


def encode_module(m: Module) -> bytes:
    out = bytearray(MAGIC + VERSION)

    if m.types:
        p = bytearray(encode_uleb(len(m.types)))
        for ft in m.types:
            p += _encode_functype(ft)
        out += _section(SEC_TYPE, bytes(p))

    if m.imports:
        p = bytearray(encode_uleb(len(m.imports)))
        for im in m.imports:
            nm = im.module.encode(); p += encode_uleb(len(nm)) + nm
            nm = im.name.encode(); p += encode_uleb(len(nm)) + nm
            p.append(_KIND_BYTES[im.kind])
            if im.kind == KIND_FUNC:
                p += encode_uleb(im.desc)
            elif im.kind == KIND_MEMORY:
                p += _encode_limits(im.desc.limits)
            elif im.kind == KIND_TABLE:
                p.append(VALTYPE_BYTES[im.desc.elemtype])
                p += _encode_limits(im.desc.limits)
            elif im.kind == KIND_GLOBAL:
                p.append(VALTYPE_BYTES[im.desc.valtype])
                p.append(1 if im.desc.mutable else 0)
        out += _section(SEC_IMPORT, bytes(p))

    if m.funcs:
        p = bytearray(encode_uleb(len(m.funcs)))
        for fn in m.funcs:
            p += encode_uleb(fn.type_idx)
        out += _section(SEC_FUNC, bytes(p))

    if m.tables:
        p = bytearray(encode_uleb(len(m.tables)))
        for t in m.tables:
            p.append(VALTYPE_BYTES[t.elemtype])
            p += _encode_limits(t.limits)
        out += _section(SEC_TABLE, bytes(p))

    if m.memories:
        p = bytearray(encode_uleb(len(m.memories)))
        for mem in m.memories:
            p += _encode_limits(mem.limits)
        out += _section(SEC_MEMORY, bytes(p))

    if m.globals:
        p = bytearray(encode_uleb(len(m.globals)))
        for g in m.globals:
            p.append(VALTYPE_BYTES[g.type.valtype])
            p.append(1 if g.type.mutable else 0)
            p += _encode_const_expr(g.init)
        out += _section(SEC_GLOBAL, bytes(p))

    if m.exports:
        p = bytearray(encode_uleb(len(m.exports)))
        for e in m.exports:
            nm = e.name.encode(); p += encode_uleb(len(nm)) + nm
            p.append(_KIND_BYTES[e.kind])
            p += encode_uleb(e.index)
        out += _section(SEC_EXPORT, bytes(p))

    if m.start is not None:
        out += _section(SEC_START, encode_uleb(m.start))

    if m.elems:
        p = bytearray(encode_uleb(len(m.elems)))
        for el in m.elems:
            p += encode_uleb(el.table_idx)
            p += _encode_const_expr(el.offset)
            p += encode_uleb(len(el.func_idxs))
            for fi in el.func_idxs:
                p += encode_uleb(fi)
        out += _section(SEC_ELEM, bytes(p))

    if m.funcs:
        p = bytearray(encode_uleb(len(m.funcs)))
        for fn in m.funcs:
            body = bytearray()
            # locals as runs of identical types
            runs: List[Tuple[int, str]] = []
            for lt in fn.locals:
                if runs and runs[-1][1] == lt:
                    runs[-1] = (runs[-1][0] + 1, lt)
                else:
                    runs.append((1, lt))
            body += encode_uleb(len(runs))
            for count, lt in runs:
                body += encode_uleb(count)
                body.append(VALTYPE_BYTES[lt])
            _encode_body(fn.body, body)
            body.append(0x0B)
            p += encode_uleb(len(body)) + body
        out += _section(SEC_CODE, bytes(p))

    if m.datas:
        p = bytearray(encode_uleb(len(m.datas)))
        for d in m.datas:
            p += encode_uleb(d.mem_idx)
            p += _encode_const_expr(d.offset)
            p += encode_uleb(len(d.data)) + d.data
        out += _section(SEC_DATA, bytes(p))

    # standard "name" custom section (function-name subsection only):
    # keeps debug names across install/execve so the perf profiler can
    # symbolize guest call stacks from a decoded binary
    named = [(i, fn.name) for i, fn in enumerate(m.funcs) if fn.name]
    if named:
        nimp = sum(1 for im in m.imports if im.kind == KIND_FUNC)
        sub = bytearray(encode_uleb(len(named)))
        for i, nm in named:
            b = nm.encode()
            sub += encode_uleb(nimp + i) + encode_uleb(len(b)) + b
        payload = bytearray(b"\x04name\x01")
        payload += encode_uleb(len(sub)) + bytes(sub)
        out += _section(0, bytes(payload))

    return bytes(out)


# --------------------------------------------------------------------------
# Module decoding
# --------------------------------------------------------------------------

def decode_module(buf: bytes, name: str = "") -> Module:
    if buf[:4] != MAGIC:
        raise DecodeError("bad magic")
    if buf[4:8] != VERSION:
        raise DecodeError("bad version")
    r = Reader(buf, 8)
    m = Module(name=name)
    func_type_idxs: List[int] = []
    func_names: Dict[int, str] = {}
    last_id = 0
    while not r.eof():
        sec_id = r.byte()
        size = r.uleb()
        end = r.pos + size
        if end > len(buf):
            raise DecodeError(f"section {sec_id} extends past end of module")
        if sec_id != 0:
            if sec_id <= last_id:
                raise DecodeError(f"section {sec_id} out of order")
            last_id = sec_id
        sr = Reader(buf, r.pos, end)
        if sec_id == SEC_TYPE:
            for _ in range(sr.uleb()):
                if sr.byte() != 0x60:
                    raise DecodeError("bad functype tag")
                params = tuple(_valtype(sr) for _ in range(sr.uleb()))
                results = tuple(_valtype(sr) for _ in range(sr.uleb()))
                m.types.append(FuncType(params, results))
        elif sec_id == SEC_IMPORT:
            for _ in range(sr.uleb()):
                mod = sr.name()
                nm = sr.name()
                kind = _BYTE_KINDS.get(sr.byte())
                if kind == KIND_FUNC:
                    desc = sr.uleb()
                elif kind == KIND_MEMORY:
                    desc = MemoryType(_decode_limits(sr))
                elif kind == KIND_TABLE:
                    et = _valtype(sr)
                    desc = TableType(_decode_limits(sr), et)
                elif kind == KIND_GLOBAL:
                    vt = _valtype(sr)
                    desc = GlobalType(vt, bool(sr.byte()))
                else:
                    raise DecodeError("bad import kind")
                m.imports.append(Import(mod, nm, kind, desc))
        elif sec_id == SEC_FUNC:
            func_type_idxs = [sr.uleb() for _ in range(sr.uleb())]
        elif sec_id == SEC_TABLE:
            for _ in range(sr.uleb()):
                et = _valtype(sr)
                m.tables.append(TableType(_decode_limits(sr), et))
        elif sec_id == SEC_MEMORY:
            for _ in range(sr.uleb()):
                m.memories.append(MemoryType(_decode_limits(sr)))
        elif sec_id == SEC_GLOBAL:
            for _ in range(sr.uleb()):
                vt = _valtype(sr)
                mut = bool(sr.byte())
                init = _decode_const_expr(sr)
                m.globals.append(Global(GlobalType(vt, mut), init))
        elif sec_id == SEC_EXPORT:
            for _ in range(sr.uleb()):
                nm = sr.name()
                kind = _BYTE_KINDS.get(sr.byte())
                m.exports.append(Export(nm, kind, sr.uleb()))
        elif sec_id == SEC_START:
            m.start = sr.uleb()
        elif sec_id == SEC_ELEM:
            for _ in range(sr.uleb()):
                ti = sr.uleb()
                off = _decode_const_expr(sr)
                fis = [sr.uleb() for _ in range(sr.uleb())]
                m.elems.append(ElemSegment(ti, off, fis))
        elif sec_id == SEC_CODE:
            count = sr.uleb()
            if count != len(func_type_idxs):
                raise DecodeError("code/function section count mismatch")
            for ti in func_type_idxs:
                bsize = sr.uleb()
                bend = sr.pos + bsize
                br_ = Reader(buf, sr.pos, bend)
                locals_: List[str] = []
                for _ in range(br_.uleb()):
                    n = br_.uleb()
                    lt = _valtype(br_)
                    locals_.extend([lt] * n)
                body, _ = _decode_body(br_)
                sr.pos = bend
                m.funcs.append(Function(ti, locals_, body))
        elif sec_id == SEC_DATA:
            for _ in range(sr.uleb()):
                mi = sr.uleb()
                off = _decode_const_expr(sr)
                n = sr.uleb()
                m.datas.append(DataSegment(mi, off, sr.bytes(n)))
        elif sec_id == 0:
            # custom section: only the "name" section (function-name
            # subsection) is understood; anything else, or malformed
            # debug info, is skipped — it can't affect semantics
            try:
                if sr.name() == "name":
                    while not sr.eof():
                        sub_id = sr.byte()
                        sub_end = sr.uleb() + sr.pos
                        if sub_id == 1:  # function names
                            for _ in range(sr.uleb()):
                                idx = sr.uleb()
                                func_names[idx] = sr.name()
                        sr.pos = sub_end
            except (DecodeError, UnicodeDecodeError):
                pass
        else:
            raise DecodeError(f"unknown section id {sec_id}")
        r.pos = end
    if func_names:
        nimp = sum(1 for im in m.imports if im.kind == KIND_FUNC)
        for idx, nm in func_names.items():
            j = idx - nimp
            if 0 <= j < len(m.funcs):
                m.funcs[j].name = nm
    m.image = bytes(buf)
    return m
