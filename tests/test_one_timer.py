"""Every timed expiry under ``src/`` is a ``KTimer``.

A per-module AST scan: a call of ``threading.Timer`` (or of a bare
``Timer``) may appear only inside the ``KTimer`` class
(``kernel/timer.py``).  timerfd, the interval timer, io_uring timeouts and
the WAN delay line arm a ``KTimer`` instead of starting their own thread.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _timer_constructions(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "KTimer":
            allowed.update(id(n) for n in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in allowed:
            continue
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr == "Timer") or \
                (isinstance(f, ast.Name) and f.id == "Timer"):
            found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    return found


def test_threading_timer_is_constructed_only_in_ktimer():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50   # the scan found the source tree
    sites = [s for path in modules for s in _timer_constructions(path)]
    assert sites == []


def test_ktimer_is_the_one_construction_site():
    path = SRC / "repro" / "kernel" / "timer.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    ktimer = next(n for n in tree.body
                  if isinstance(n, ast.ClassDef) and n.name == "KTimer")
    calls = [n for n in ast.walk(ktimer) if isinstance(n, ast.Call) and
             isinstance(n.func, ast.Attribute) and n.func.attr == "Timer"]
    assert len(calls) == 1
