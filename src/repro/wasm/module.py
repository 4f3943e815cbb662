"""In-memory representation of a WebAssembly module.

A module is the static artifact: types, imports, function bodies, memory and
table declarations, globals, exports, element and data segments.  Function
bodies are *structured* instruction sequences: plain instructions are tuples
``(opname, *immediates)``, and the block instructions nest explicitly::

    ("block", result_type_or_None, [body...])
    ("loop",  result_type_or_None, [body...])
    ("if",    result_type_or_None, [then...], [else...])

The binary codec (:mod:`repro.wasm.binary`) serialises this representation to
the real wasm binary format and back; the validator and the flattener consume
it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .types import FuncType, GlobalType, MemoryType, TableType

# import/export kinds
KIND_FUNC = "func"
KIND_TABLE = "table"
KIND_MEMORY = "memory"
KIND_GLOBAL = "global"


@dataclass
class Import:
    module: str
    name: str
    kind: str
    # for funcs: type index; for others: the *Type object
    desc: object


@dataclass
class Export:
    name: str
    kind: str
    index: int


@dataclass
class Function:
    """A defined (non-imported) function."""

    type_idx: int
    locals: List[str] = field(default_factory=list)  # extra locals, after params
    body: List[tuple] = field(default_factory=list)
    name: str = ""  # debug only


@dataclass
class Global:
    type: GlobalType
    init: tuple  # a single const instruction, e.g. ("i32.const", 0)


@dataclass
class ElemSegment:
    table_idx: int
    offset: tuple  # const instruction
    func_idxs: List[int] = field(default_factory=list)


@dataclass
class DataSegment:
    mem_idx: int
    offset: tuple  # const instruction
    data: bytes = b""


@dataclass
class Module:
    types: List[FuncType] = field(default_factory=list)
    imports: List[Import] = field(default_factory=list)
    funcs: List[Function] = field(default_factory=list)
    tables: List[TableType] = field(default_factory=list)
    memories: List[MemoryType] = field(default_factory=list)
    globals: List[Global] = field(default_factory=list)
    exports: List[Export] = field(default_factory=list)
    start: Optional[int] = None
    elems: List[ElemSegment] = field(default_factory=list)
    datas: List[DataSegment] = field(default_factory=list)
    name: str = ""  # debug only
    # the binary image, the key of the compiled-code cache
    # (compile.module_image): kept by decode_module, else encoded on
    # first use
    image: Optional[bytes] = field(default=None, init=False, repr=False,
                                   compare=False)

    # ---- index-space helpers (imports precede definitions) ----

    def imported(self, kind: str) -> List[Import]:
        return [im for im in self.imports if im.kind == kind]

    @property
    def num_imported_funcs(self) -> int:
        return sum(1 for im in self.imports if im.kind == KIND_FUNC)

    @property
    def num_imported_globals(self) -> int:
        return sum(1 for im in self.imports if im.kind == KIND_GLOBAL)

    @property
    def num_imported_memories(self) -> int:
        return sum(1 for im in self.imports if im.kind == KIND_MEMORY)

    @property
    def num_imported_tables(self) -> int:
        return sum(1 for im in self.imports if im.kind == KIND_TABLE)

    def func_type(self, func_idx: int) -> FuncType:
        """Signature of function ``func_idx`` in the joint index space."""
        n_imp = self.num_imported_funcs
        if func_idx < n_imp:
            imp = self.imported(KIND_FUNC)[func_idx]
            return self.types[imp.desc]
        return self.types[self.funcs[func_idx - n_imp].type_idx]

    @property
    def num_funcs(self) -> int:
        return self.num_imported_funcs + len(self.funcs)

    def global_type(self, global_idx: int) -> GlobalType:
        n_imp = self.num_imported_globals
        if global_idx < n_imp:
            return self.imported(KIND_GLOBAL)[global_idx].desc
        return self.globals[global_idx - n_imp].type

    @property
    def num_globals(self) -> int:
        return self.num_imported_globals + len(self.globals)

    @property
    def num_memories(self) -> int:
        return self.num_imported_memories + len(self.memories)

    @property
    def num_tables(self) -> int:
        return self.num_imported_tables + len(self.tables)

    def find_export(self, name: str, kind: str) -> Optional[Export]:
        for e in self.exports:
            if e.name == name and e.kind == kind:
                return e
        return None

    def import_names(self) -> List[Tuple[str, str]]:
        """(module, name) pairs of all imports — the static capability list.

        WALI's security argument leans on this (§3.6): the import section
        enumerates up front every syscall a binary can possibly make.
        """
        return [(im.module, im.name) for im in self.imports]
