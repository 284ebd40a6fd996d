"""Session-wide observability: trace spans, metrics, and profiling hooks.

The paper's §4.1 makes structured training-session logs "the foundation
for subsequent result analysis"; DAWNBench (Coleman et al., 2018) showed
that time-to-accuracy is only interpretable when wall-clock can be
decomposed into data pipeline vs. compute vs. eval.  This package is the
measurement substrate for that decomposition:

- :mod:`repro.telemetry.trace` — nested :class:`Span`/:class:`Tracer`
  with a context-manager API and Chrome ``trace_event`` JSON export;
- :mod:`repro.telemetry.metrics` — counters, gauges, and fixed-bucket
  histograms in a :class:`MetricsRegistry` with a text summary renderer;
- :mod:`repro.telemetry.profile` — the readers of a saved structured
  log (phase decomposition, Chrome trace, per-epoch series) and the
  serializable :class:`RunTelemetry` snapshot;
- :mod:`repro.telemetry.events` — the live side: an event bus with
  append-only JSONL :class:`EventLog` sinks (one stream per campaign
  job, the campaign's only live record), crash-tolerant on read;
- :mod:`repro.telemetry.monitor` — the ``repro monitor`` view, built
  purely from a campaign directory's journal + event streams, folded
  once (:class:`StreamFold`) for the monitor, the alerts and the server;
- :mod:`repro.telemetry.regress` — schema-aware ``BENCH_*.json``
  comparison with per-metric tolerance bands (``repro bench-diff``),
  with per-op regression attribution when a timing gate trips;
- :mod:`repro.telemetry.opprof` — the op-level profiler
  (``REPRO_PROFILE=off|full``) recording per-op call counts,
  wall time, and bytes moved for forward/backward/update/comms;
- :mod:`repro.telemetry.analyze` — the trace-analysis engine
  (``repro analyze``): cross-process merge, critical path, top-k spans
  and gaps, folded-stacks export.

Telemetry is **zero-overhead by default**: the ambient tracer and
registry are disabled no-ops until a :class:`Telemetry` session is
activated (``with telemetry.activate(): ...``).  Instrumentation sites
deep in the suite and framework reach the ambient instances through
:func:`current_tracer` / :func:`current_metrics`, so no constructor
threading is required.  Both drive off the same injectable clock as
:class:`repro.core.timing.Clock`, so traces are deterministic under
``FakeClock``.
"""

from .trace import (
    NULL_SPAN,
    Span,
    Tracer,
    chrome_trace_from_intervals,
    dedupe_metadata_events,
    metadata_events,
)
from .events import (
    Event,
    EventBus,
    EventCursor,
    EventLog,
    NULL_EVENTS,
    merge_event_streams,
    read_events,
)
from .alerts import (
    ActiveAlert,
    AlertEngine,
    AlertRule,
    StreamFold,
    default_rules,
    load_rules_file,
    parse_rules,
    replay_alerts,
)
from .monitor import (
    CampaignTailer,
    JobView,
    MonitorView,
    build_view,
    campaign_dir_problem,
    load_monitor_view,
    render_job_table,
    render_monitor_view,
)
from .export import (
    render_exposition,
    sanitize_metric_name,
    snapshot_lines,
)
from .regress import (
    AttributionRow,
    MetricSpec,
    RegressionReport,
    attribute_regression,
    compare_reports,
    load_report,
)
from .opprof import (
    OpProfiler,
    merge_op_profiles,
    profile_mode_from_env,
    render_op_profile,
)
from .analyze import (
    TraceAnalysis,
    analyze_campaign_dir,
    analyze_trace,
    spans_from_events,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    merge_snapshots,
)
from .context import (
    Telemetry,
    activate,
    current_events,
    current_metrics,
    current_profiler,
    current_telemetry,
    current_tracer,
)
from .profile import (
    PhaseDecomposition,
    RunTelemetry,
    decompose_log_events,
    merged_run_telemetry,
    series_from_log_events,
    trace_from_log_events,
)

__all__ = [
    "ActiveAlert",
    "AlertEngine",
    "AlertRule",
    "AttributionRow",
    "CampaignTailer",
    "Counter",
    "Event",
    "EventBus",
    "EventCursor",
    "EventLog",
    "Gauge",
    "Histogram",
    "JobView",
    "MetricSpec",
    "MetricsRegistry",
    "MonitorView",
    "NULL_EVENTS",
    "NULL_METRICS",
    "NULL_SPAN",
    "OpProfiler",
    "PhaseDecomposition",
    "RegressionReport",
    "RunTelemetry",
    "Span",
    "StreamFold",
    "Telemetry",
    "TraceAnalysis",
    "Tracer",
    "activate",
    "analyze_campaign_dir",
    "analyze_trace",
    "attribute_regression",
    "build_view",
    "campaign_dir_problem",
    "chrome_trace_from_intervals",
    "compare_reports",
    "current_events",
    "current_metrics",
    "current_profiler",
    "current_telemetry",
    "current_tracer",
    "decompose_log_events",
    "dedupe_metadata_events",
    "default_rules",
    "load_monitor_view",
    "load_report",
    "load_rules_file",
    "merge_event_streams",
    "merge_op_profiles",
    "merge_snapshots",
    "merged_run_telemetry",
    "metadata_events",
    "parse_rules",
    "profile_mode_from_env",
    "render_exposition",
    "render_op_profile",
    "read_events",
    "render_job_table",
    "render_monitor_view",
    "replay_alerts",
    "sanitize_metric_name",
    "series_from_log_events",
    "snapshot_lines",
    "spans_from_events",
    "trace_from_log_events",
]
