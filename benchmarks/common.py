"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures and writes
its text rendering under ``benchmarks/results/`` (in addition to the
pytest-benchmark timing records), so the paper-vs-measured comparison can
be refreshed by re-running the suite.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def quick_mode() -> bool:
    """True when the CI smoke job asks for tiny-scale runs
    (``REPRO_BENCH_QUICK=1``/``true``/``yes``)."""
    return os.environ.get("REPRO_BENCH_QUICK", "").strip().lower() \
        in ("1", "true", "yes", "on")


def save_report(name: str, content: str) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    if quick_mode():
        # never clobber the committed full-scale reports with the CI
        # smoke job's tiny-scale numbers
        base, ext = os.path.splitext(name)
        name = f"{base}.quick{ext}"
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as fh:
        fh.write(content if content.endswith("\n") else content + "\n")
    print(f"\n=== {name} ===")
    print(content)
