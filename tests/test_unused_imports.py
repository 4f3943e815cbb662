"""No module under ``src/`` imports a name it never reads.

A per-module AST scan: each name a module binds with a module-level
``import`` or ``from ... import`` must be read (an ``ast.Name``) somewhere
in the same module.  Package ``__init__.py`` files are skipped, since
their imports are re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(SRC)}:{line}: {name}"
            for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    modules = [p for p in sorted(SRC.rglob("*.py"))
               if p.name != "__init__.py"]
    assert len(modules) > 50   # the scan found the source tree
    unused = [u for path in modules for u in _unused_imports(path)]
    assert unused == []
