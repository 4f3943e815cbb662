"""Fig. 8 — WALI vs Docker vs QEMU vs native: memory and execution time.

Sweeps workload sizes for lua, bash and sqlite across the four tiers and
regenerates:

* Fig. 8a — peak memory per tier (container base overhead dominates);
* Fig. 8b-d — total execution time (incl. startup) against native time:
  QEMU an order of magnitude slower, Docker near-native slope with a large
  startup intercept, WALI a steeper slope with a millisecond intercept —
  producing the startup/runtime crossover the paper highlights.
"""

from common import save_report

from repro.apps import build
from repro.metrics import table
from repro.virt import (
    BASE_MEMORY_MB, TIERS, bash_workload, lua_workload, run_tier,
    sqlite_workload,
)

SWEEPS = {
    "lua": (lua_workload, [30, 100, 400, 1000]),
    "bash": (bash_workload, [5, 15, 40, 90]),
    "sqlite": (sqlite_workload, [5, 15, 40, 80]),
}


def _run_sweep():
    results = {}
    for name, (factory, scales) in SWEEPS.items():
        module = build(factory(scales[0]).app)
        # warm the offline-AoT cache so native startup excludes compilation
        run_tier("native", module, factory(scales[0]))
        series = []
        for scale in scales:
            wl = factory(scale)
            row = {tier: run_tier(tier, module, wl) for tier in TIERS}
            for tier, r in row.items():
                assert r.status == 0, f"{name}@{scale} failed on {tier}"
            # one computation: every tier prints the same console output
            assert len({r.output for r in row.values()}) == 1, \
                f"{name}@{scale}: tiers disagree on output"
            series.append((scale, row))
        results[name] = series
    return results


def test_fig8_virtualization(benchmark):
    results = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    out = []

    # ---- Fig. 8a: peak memory ----
    out.append("Fig. 8a — peak memory (MB) at the largest scale")
    rows = []
    for name, series in results.items():
        _, row = series[-1]
        rows.append((name, *(f"{row[t].peak_mem_mb:.1f}" for t in TIERS)))
    out.append(table(["workload", *TIERS], rows))
    out.append("")

    # ---- Fig. 8b-d: runtime vs native ----
    for name, series in results.items():
        out.append(f"Fig. 8 runtime — {name} (times in ms; total = startup "
                   f"+ run)")
        rows = []
        for scale, row in series:
            native = row["native"]
            cells = [f"{scale}", f"{native.total_s * 1000:.1f}"]
            for tier in ("wali", "docker", "qemu"):
                r = row[tier]
                cells.append(f"{r.total_s * 1000:.1f} "
                             f"(s={r.startup_s * 1000:.0f})")
            rows.append(tuple(cells))
        out.append(table(
            ["scale", "native", "wali (startup)", "docker (startup)",
             "qemu (startup)"], rows))
        out.append("")

    # crossover analysis
    out.append("crossover: WALI total vs Docker total per scale")
    for name, series in results.items():
        marks = []
        for scale, row in series:
            winner = "WALI" if row["wali"].total_s < row["docker"].total_s \
                else "Docker"
            marks.append(f"{scale}:{winner}")
        out.append(f"  {name}: {' '.join(marks)}")
    out += [
        "",
        "paper Fig. 8: QEMU an order of magnitude slower than Docker; "
        "WALI ~2x native slope (ours is steeper: Python interpreter vs "
        "WAMR AoT) with millisecond startup vs Docker's ~0.5 s startup; "
        "Docker carries a ~30 MB base memory overhead.",
    ]
    save_report("fig8_virtualization.txt", "\n".join(out))

    # ---- shape assertions ----
    for name, series in results.items():
        _, big = series[-1]
        # memory: docker base dominates; wali & qemu lightweight
        assert big["docker"].peak_mem_mb > big["wali"].peak_mem_mb + 20
        assert abs(big["qemu"].peak_mem_mb - big["wali"].peak_mem_mb) < 10
        # runtime: qemu slowest; docker near native; wali in between
        assert big["qemu"].run_s > big["wali"].run_s > big["native"].run_s
        assert big["docker"].run_s < big["wali"].run_s
        # startup: wali millisecond-class, docker pays image assembly
        assert big["docker"].startup_s > 4 * big["wali"].startup_s
