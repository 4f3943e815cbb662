"""Syscall profiling (Fig. 2): which syscalls applications actually use.

Runs an application under WALI, collects per-syscall invocation counts, and
renders the log-normalised frequency profile the paper uses to argue that a
modest syscall subset covers real software.

Counts are ``Kernel.syscall_counts``, a view of the kernel's
``syscall.<name>`` counter cells: the same cells perf counting events and
guest ``perf stat`` read, so the views cannot drift from each other.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..wali import WaliRuntime


@dataclass
class SyscallProfile:
    app: str
    counts: Counter = field(default_factory=Counter)

    @property
    def unique_syscalls(self) -> int:
        return len(self.counts)

    @property
    def total_calls(self) -> int:
        return sum(self.counts.values())


def profile_from_kernel(app_name: str, kernel) -> SyscallProfile:
    """Snapshot a kernel's whole syscall history as one profile."""
    return SyscallProfile(app_name, kernel.syscall_counts)


def load_app(app_name: str, module, argv=None, env=None, files=None,
             stdin: bytes = b"", runtime: Optional[WaliRuntime] = None,
             setup=None):
    """Load an app ready to run: on ``runtime`` (a fresh one by
    default), with ``files`` written, ``stdin`` fed to the console and
    ``setup(rt)`` called first.  Returns the loaded ``WaliProcess``."""
    rt = runtime or WaliRuntime()
    for path, data in (files or {}).items():
        rt.kernel.vfs.mkdirs(path.rsplit("/", 1)[0] or "/")
        rt.kernel.vfs.write_file(path, data)
    if stdin:
        rt.kernel.console_feed(stdin)
    if setup is not None:
        setup(rt)
    return rt.load(module, argv=argv or [app_name], env=env or {})


def profile_app(app_name: str, module, argv=None, env=None, files=None,
                stdin: bytes = b"", runtime: Optional[WaliRuntime] = None,
                setup=None) -> SyscallProfile:
    """Run an app to completion; returns the profile of its syscalls."""
    wp = load_app(app_name, module, argv, env, files, stdin, runtime, setup)
    rt = wp.rt
    # diff of the kernel-wide counters: children of the same run
    # (pipelines, forked workers) are included automatically
    before = rt.kernel.syscall_counts
    wp.run()
    counts = rt.kernel.syscall_counts
    counts.subtract(before)
    return SyscallProfile(app_name, +counts)


def aggregate_profiles(profiles: List[SyscallProfile]) -> SyscallProfile:
    agg = SyscallProfile("aggregate")
    for p in profiles:
        agg.counts.update(p.counts)
    return agg


def log_normalize(counts: Counter) -> Dict[str, float]:
    """log(1+count) scaled to [0, 1] — the paper's Fig. 2 normalisation."""
    if not counts:
        return {}
    logs = {name: math.log1p(c) for name, c in counts.items()}
    peak = max(logs.values())
    return {name: v / peak for name, v in logs.items()} if peak else logs


def render_profile(profiles: List[SyscallProfile], width: int = 40,
                   top: int = 30) -> str:
    """Text rendering of Fig. 2: aggregate ordering, one row per app."""
    agg = aggregate_profiles(profiles)
    order = [name for name, _ in agg.counts.most_common()]
    shown = order[:top]
    lines = [f"syscalls by aggregate frequency "
             f"({len(order)} unique across all apps); "
             f"top {len(shown)} shown",
             ""]
    header = " " * 12 + " ".join(f"{n[:7]:>7}" for n in shown)
    lines.append(header)
    rows = [("aggregate", agg)] + [(p.app, p) for p in profiles]
    for label, p in rows:
        norm = log_normalize(p.counts)
        cells = []
        for name in shown:
            v = norm.get(name, 0.0)
            cells.append(f"{v:7.2f}" if v else f"{'·':>7}")
        lines.append(f"{label[:12]:<12}" + " ".join(cells))
    return "\n".join(lines)
