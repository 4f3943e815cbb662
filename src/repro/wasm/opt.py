"""Module post-passes: dead-function elimination ("gc-sections").

Static linking keeps a binary's import section honest: only the syscalls the
program can actually reach appear as imports.  The paper's Table 1 porting
matrix relies on this — an application "needs" a feature iff its linked
image imports it.  This pass computes call-graph reachability from exports,
the start function and active element segments, drops everything else
(including unused *imports*), and renumbers function indices everywhere.
"""

from __future__ import annotations

from typing import Dict, Set

from .module import Module, KIND_FUNC


def _called_indices(body: list, out: Set[int]) -> None:
    for instr in body:
        op = instr[0]
        if op == "call":
            out.add(instr[1])
        elif op == "block" or op == "loop":
            _called_indices(instr[2], out)
        elif op == "if":
            _called_indices(instr[2], out)
            if len(instr) > 3 and instr[3]:
                _called_indices(instr[3], out)


def _rewrite_calls(body: list, remap: Dict[int, int]) -> list:
    out = []
    for instr in body:
        op = instr[0]
        if op == "call":
            out.append(("call", remap[instr[1]]))
        elif op == "block" or op == "loop":
            out.append((op, instr[1], _rewrite_calls(instr[2], remap)))
        elif op == "if":
            els = _rewrite_calls(instr[3], remap) if len(instr) > 3 else []
            out.append(("if", instr[1], _rewrite_calls(instr[2], remap), els))
        else:
            out.append(instr)
    return out


def gc_functions(m: Module) -> Module:
    """Remove unreachable functions and unused imports, in place."""
    n_imp = m.num_imported_funcs
    func_imports = [im for im in m.imports if im.kind == KIND_FUNC]

    # roots: exports, start, element segments
    roots: Set[int] = set()
    for e in m.exports:
        if e.kind == KIND_FUNC:
            roots.add(e.index)
    if m.start is not None:
        roots.add(m.start)
    for seg in m.elems:
        roots.update(seg.func_idxs)

    # BFS over call edges
    reachable: Set[int] = set()
    work = list(roots)
    while work:
        idx = work.pop()
        if idx in reachable:
            continue
        reachable.add(idx)
        if idx >= n_imp:
            callees: Set[int] = set()
            _called_indices(m.funcs[idx - n_imp].body, callees)
            work.extend(callees - reachable)

    # build the keep lists and the index remap
    kept_imports = [im for i, im in enumerate(func_imports) if i in reachable]
    kept_funcs = [fn for i, fn in enumerate(m.funcs)
                  if (n_imp + i) in reachable]
    remap: Dict[int, int] = {}
    new_idx = 0
    for i in range(n_imp):
        if i in reachable:
            remap[i] = new_idx
            new_idx += 1
    for i in range(len(m.funcs)):
        if (n_imp + i) in reachable:
            remap[n_imp + i] = new_idx
            new_idx += 1

    # rewrite
    other_imports = [im for im in m.imports if im.kind != KIND_FUNC]
    m.imports = kept_imports + other_imports
    m.funcs = kept_funcs
    for fn in m.funcs:
        fn.body = _rewrite_calls(fn.body, remap)
    for e in m.exports:
        if e.kind == KIND_FUNC:
            e.index = remap[e.index]
    if m.start is not None:
        m.start = remap[m.start]
    for seg in m.elems:
        seg.func_idxs = [remap[fi] for fi in seg.func_idxs]
    return m
