"""Session-wide observability: metrics, event streams, and profiling hooks.

The paper's §4.1 makes structured training-session logs "the foundation
for subsequent result analysis"; DAWNBench (Coleman et al., 2018) showed
that time-to-accuracy is only interpretable when wall-clock can be
decomposed into data pipeline vs. compute vs. eval.  This package is the
measurement substrate for that decomposition:

- :mod:`repro.telemetry.metrics` — the counters a :class:`MetricsRegistry`
  keeps for what the log does not hold (MCTS work, all-reduce traffic,
  kernel fallbacks);
- :mod:`repro.telemetry.profile` — the readers of a structured log
  (phase decomposition, the Chrome trace, per-epoch series) and the
  serializable :class:`RunTelemetry` snapshot;
- :mod:`repro.telemetry.events` — the live side: an event bus with
  append-only JSONL :class:`EventLog` sinks (one stream per campaign
  job, the campaign's only live record), crash-tolerant on read;
- :mod:`repro.telemetry.monitor` — the ``repro monitor`` view, built
  purely from a campaign directory's journal + event streams, folded
  once (:class:`StreamFold`) for the monitor, the alerts and the server;
- :mod:`repro.telemetry.alerts` — the fixed alert policy (one row per
  rule) and the engine that replays it into ``alerts.jsonl``;
- :mod:`repro.telemetry.regress` — schema-aware ``BENCH_*.json``
  comparison with per-metric tolerance bands (``repro bench-diff``),
  with per-op regression attribution when a timing gate trips;
- :mod:`repro.telemetry.opprof` — the op-level profiler
  (``REPRO_PROFILE=off|full``) recording per-op call counts,
  wall time, and bytes moved for forward/backward/update/comms.

``repro profile`` is the one reader of where a run's time went: the
phase table and series (:mod:`~repro.telemetry.profile`, rendered by
:mod:`repro.core.reporting`) and the merged op profile.  Chrome traces
(``campaign --trace``, ``repro trace``) are rebuilt from the §4.1 log by
:func:`trace_from_log_events` and rendered by chrome://tracing or
Perfetto, not here.

Telemetry is **zero-overhead by default**: the ambient registry and
profiler are disabled no-ops until a :class:`Telemetry` session is
activated (``with telemetry.activate(): ...``).  Instrumentation sites
deep in the suite and framework reach the ambient instances through
:func:`current_metrics` / :func:`current_profiler`, so no constructor
threading is required.
"""

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
    StreamFold,
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
from .metrics import (
    Counter,
    MetricsRegistry,
    NULL_METRICS,
    merge_snapshots,
)
from .context import (
    Telemetry,
    current_metrics,
    current_profiler,
)
from .profile import (
    PhaseDecomposition,
    RunTelemetry,
    decompose_log_events,
    merged_run_telemetry,
    metadata_events,
    series_from_log_events,
    trace_from_log_events,
)

__all__ = [
    "ActiveAlert",
    "AlertEngine",
    "AttributionRow",
    "CampaignTailer",
    "Counter",
    "Event",
    "EventBus",
    "EventCursor",
    "EventLog",
    "JobView",
    "MetricSpec",
    "MetricsRegistry",
    "MonitorView",
    "NULL_EVENTS",
    "NULL_METRICS",
    "OpProfiler",
    "PhaseDecomposition",
    "RegressionReport",
    "RunTelemetry",
    "StreamFold",
    "Telemetry",
    "attribute_regression",
    "build_view",
    "campaign_dir_problem",
    "compare_reports",
    "current_metrics",
    "current_profiler",
    "decompose_log_events",
    "load_monitor_view",
    "load_report",
    "merge_event_streams",
    "merge_op_profiles",
    "merge_snapshots",
    "merged_run_telemetry",
    "metadata_events",
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
    "trace_from_log_events",
]
