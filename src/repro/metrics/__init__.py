"""``repro.metrics`` — measurement & rendering behind Fig. 2, Fig. 3 and
Fig. 7: syscall profiling, runtime breakdown, text plotting, and the
kernel-observability reports (latency percentiles, trace summaries,
folded-stack flamegraphs and perf call-chain tables)."""

from .breakdown import RuntimeBreakdown, counter_snapshot, measure_breakdown
from .flamegraph import (
    fold, from_samples, render as render_flamegraph, total_samples, unfold,
)
from .perf_report import (
    bottom_up_table, frame_totals, hottest_frames, render_perf_report,
    report_dict as perf_report_dict, report_json as perf_report_json,
    top_down_table,
)
from .profile import (
    SyscallProfile, aggregate_profiles, log_normalize, profile_app,
    profile_from_kernel, render_profile,
)
from .report import bar, percent_row, table
from .trace_report import (
    event_table, hist_percentile, latency_rows, latency_table,
    render_trace_report, summarize_events, trace_report_dict,
    trace_report_json,
)

__all__ = [
    "RuntimeBreakdown", "SyscallProfile", "aggregate_profiles", "bar",
    "bottom_up_table", "counter_snapshot", "event_table", "fold",
    "frame_totals", "from_samples", "hist_percentile", "hottest_frames",
    "latency_rows", "latency_table", "log_normalize", "measure_breakdown",
    "percent_row", "perf_report_dict", "perf_report_json", "profile_app",
    "profile_from_kernel", "render_flamegraph", "render_perf_report",
    "render_profile", "render_trace_report", "summarize_events",
    "table", "top_down_table", "total_samples",
    "trace_report_dict", "trace_report_json", "unfold",
]
