"""Command-line interface: ``python -m repro <command>``.

Commands mirror how the MLPerf artifacts are used in practice:

- ``table1`` — print the benchmark suite;
- ``campaign`` — the one way to run a benchmark's seeds: every
  (benchmark, seed) cell a submission needs goes through the execution
  engine, with parallel workers (``--jobs``), per-cell retry with
  backoff, and a journal that makes ``--resume DIR`` skip completed
  cells.  It scores every benchmark with >= 3 converged runs, names the
  error of each failed cell, and prints the merged op profile under
  ``REPRO_PROFILE=full``;
- ``review`` — compliance-review a saved submission directory;
- ``report`` — build the published per-benchmark results table from saved
  submissions;
- ``trace`` — convert a saved training-session log into a Chrome-loadable
  ``trace_event`` file (``campaign --trace FILE`` writes the same rows for
  every cell of a campaign, resumed cells and faulted attempts included:
  init, model creation, the run, each epoch and eval);
- ``monitor`` — a refreshable terminal view of a campaign directory,
  live or post-mortem, built purely from the journal + event streams
  (per-job state, progress, retries, ETA, and stall detection at the
  ``job_stall`` alert's threshold);
- ``bench-kernels``, ``loadgen`` — write a
  ``BENCH_*.json`` report (``--smoke`` picks CI's sizes); they judge
  nothing, so a report that holds a divergence still exits 0 (``loadgen``
  exits 1 for an invalid scenario, as ``campaign`` does for a missed
  target).  ``loadgen --artifact`` serves a result ``campaign --save``
  wrote;
- ``bench-diff`` — the one bench verdict: gate a fresh ``BENCH_*.json``
  report against a committed baseline with per-metric tolerance bands;
  non-zero exit on regression (CI's perf gate), with per-op attribution
  when a timing gate trips and ``--json`` for machine-readable output;
- ``profile`` — where the time went, for a result file, a submission
  or a campaign directory (whose journal records every attempt, missed,
  faulted and timed-out ones too): the
  per-benchmark phase table (init/create/train/eval), each run's
  per-epoch series with ``--series``, the kernel fallbacks, and the
  merged op profile when the runs recorded one (``REPRO_PROFILE=full``);
- ``serve-metrics`` — the live observability server: Prometheus text at
  ``/metrics``, a JSON API (``/api/campaigns``, ``.../jobs``,
  ``/api/runs/.../series``, ``/api/alerts``), and an SSE stream at
  ``/events``, all tailed incrementally from campaign files;
- ``alerts`` — deterministically replay a campaign's event streams
  through the fixed alert policy (stall, heartbeat loss, quality
  regression, throughput drop), writing
  ``alerts.jsonl`` and printing the firing/resolved timeline;
- ``hp-table`` — print the §6 scale → hyperparameters recommendation table;
- ``simulate`` — print the Figure 4/5 round-simulation summaries.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MLPerf Training Benchmark reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="print the benchmark suite (Table 1)")
    table1.add_argument("--json", action="store_true",
                        help="emit the suite as JSON (name, dataset, model, "
                             "thresholds, hyperparameters) for external drivers")

    campaign = sub.add_parser(
        "campaign",
        help="run a full multi-benchmark, multi-seed campaign through the "
             "execution engine (parallel, resumable, fault-tolerant)")
    campaign.add_argument("benchmarks", nargs="*", metavar="BENCHMARK",
                          help="benchmark names (default: the whole Table 1 suite)")
    campaign.add_argument("--seeds", type=int, default=None,
                          help="runs per benchmark (default: each benchmark's "
                               "§3.2.2 required count; overriding below it "
                               "makes the result unofficial)")
    campaign.add_argument("--jobs", type=int, default=1,
                          help="worker processes (1 = in-process sequential "
                               "executor, the deterministic default)")
    campaign.add_argument("--retries", type=int, default=2,
                          help="per-cell retry cap for faulted runs")
    campaign.add_argument("--backoff", type=float, default=0.05,
                          help="base retry backoff in seconds (doubles per "
                               "attempt, capped at 2s)")
    campaign.add_argument("--timeout", type=float, default=None,
                          help="per-job wall-clock budget in seconds "
                               "(timeouts are terminal, not retried)")
    campaign.add_argument("--override", action="append", default=[],
                          metavar="KEY=VALUE",
                          help="hyperparameter override applied to every "
                               "selected benchmark (JSON value)")
    campaign.add_argument("--save", metavar="DIR",
                          help="campaign directory: journal, per-job results, "
                               "and submission artifacts live here")
    campaign.add_argument("--resume", metavar="DIR",
                          help="resume a campaign from DIR's journal, running "
                               "only the remaining (benchmark, seed) cells "
                               "(implies --save DIR)")
    campaign.add_argument("--submitter", default="cli-user",
                          help="submitter name for saved artifacts")
    campaign.add_argument("--trace", metavar="FILE",
                          help="write one Chrome trace of every cell, rebuilt "
                               "from the cells' logs (one benchmark/seed row each)")
    campaign.add_argument("--bench", metavar="FILE",
                          help="write campaign perf stats JSON "
                               "(BENCH_campaign.json format)")

    review = sub.add_parser("review", help="compliance-review a saved submission")
    review.add_argument("submission_dir",
                        help="submitter directory (from `campaign --save`)")

    report = sub.add_parser("report", help="render the results table from submissions")
    report.add_argument("submission_dirs", nargs="+", help="submitter directories")

    trace = sub.add_parser(
        "trace", help="convert a saved run log into a Chrome trace_event file")
    trace.add_argument("log_file",
                       help="a result_*.txt from `campaign --save` (or any file "
                            "containing :::MLLOG lines)")
    trace.add_argument("-o", "--out", metavar="FILE",
                       help="output path (default: <log_file>.trace.json)")

    monitor = sub.add_parser(
        "monitor",
        help="terminal view of a campaign directory (live or post-mortem): "
             "per-job state, progress, retries, ETA, stall detection — built "
             "purely from the journal and the event streams")
    monitor.add_argument("campaign_dir",
                         help="a campaign directory (from `campaign --save`)")
    monitor.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                         help="refresh every SECONDS until the campaign "
                              "settles (default: render once and exit)")
    monitor.add_argument("--events", type=int, default=6, metavar="N",
                         help="how many recent events to tail (default 6; "
                              "0 hides the tail)")

    serve = sub.add_parser(
        "serve-metrics",
        help="HTTP observability server over campaign directories: "
             "Prometheus text at /metrics, JSON API under /api/, and a "
             "Server-Sent Events stream at /events — file-tailing only, "
             "safe to point at campaigns run by other processes")
    serve.add_argument("root",
                       help="a campaign directory, or a directory whose "
                            "subdirectories are campaigns")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default %(default)s)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (default %(default)s; 0 picks an "
                            "ephemeral port)")
    serve.add_argument("--refresh", type=float, default=0.5,
                       metavar="SECONDS",
                       help="minimum interval between file polls; "
                            "concurrent scrapes coalesce (default 0.5)")
    serve.add_argument("--no-alerts-log", action="store_true",
                       help="do not rewrite each campaign's alerts.jsonl "
                            "from its event streams on start")

    alerts = sub.add_parser(
        "alerts",
        help="replay a campaign's event streams through the alert policy: "
             "print the firing/resolved timeline and write alerts.jsonl "
             "(deterministic: identical streams give identical files)")
    alerts.add_argument("campaign_dir",
                        help="a campaign directory (from `campaign --save`)")
    alerts.add_argument("--now", type=float, default=None, metavar="T",
                        help="final evaluation instant in event-stream "
                             "seconds (default and minimum: the last event's)")
    alerts.add_argument("--json", action="store_true",
                        help="emit transitions + firing alerts as JSON")
    alerts.add_argument("--no-write", action="store_true",
                        help="do not (re)write <campaign>/alerts.jsonl")

    diff = sub.add_parser(
        "bench-diff",
        help="gate a fresh BENCH_*.json report against a committed baseline "
             "(per-metric tolerance bands; non-zero exit on regression)")
    diff.add_argument("report", help="the fresh report (e.g. from bench-* -o)")
    diff.add_argument("baseline",
                      help="the committed baseline (benchmarks/reports/...)")
    diff.add_argument("--json", action="store_true",
                      help="emit the gate result (rows + attribution) as "
                           "JSON instead of the table")

    profile = sub.add_parser(
        "profile",
        help="where the time went: per-benchmark phase table, kernel "
             "fallbacks, and the op profile when recorded "
             "(REPRO_PROFILE=full)")
    profile.add_argument("path",
                         help="a result_*.txt, a submission directory, or a "
                              "campaign directory (runs merge)")
    profile.add_argument("--series", action="store_true",
                         help="also print each run's per-epoch series "
                              "(throughput, eval quality, all-reduce "
                              "traffic) from its log, with ASCII trend lines")
    profile.add_argument("--json", action="store_true",
                         help="emit only the (merged) op-profile payload as JSON")

    hp = sub.add_parser("hp-table", help="print the scale->hyperparameters table (§6)")
    hp.add_argument("--chips", type=int, nargs="+", default=[1, 4, 16, 64])

    sub.add_parser("simulate", help="print the Figure 4/5 round-simulation summary")

    bench = sub.add_parser(
        "bench-kernels",
        help="micro-benchmark the fused hot-path kernels against their "
             "reference compositions (per-kernel ns/op, bit-identity)")
    bench.add_argument("--smoke", action="store_true",
                       help="fast CI variant: fewer repeats (gate the report "
                            "with bench-diff)")
    bench.add_argument("--repeats", type=int, default=None,
                       help="timing repeats per kernel (default 30; 5 with --smoke)")
    bench.add_argument("-o", "--out", metavar="FILE",
                       default="benchmarks/reports/BENCH_kernels.json",
                       help="report path (default %(default)s; '-' to skip writing)")

    loadgen = sub.add_parser(
        "loadgen",
        help="serve trained models under generated query streams (MLPerf "
             "Inference scenarios): per-scenario latency percentiles, "
             "constraint verdicts, and max sustainable QPS by binary search")
    loadgen.add_argument("--benchmark", action="append", default=[],
                         metavar="NAME",
                         help="benchmark to serve (repeatable; --smoke "
                              "defaults to image_classification + "
                              "recommendation)")
    loadgen.add_argument("--scenario", default="all",
                         choices=["single_stream", "server", "offline", "all"],
                         help="which scenario to run (default: all three)")
    loadgen.add_argument("--artifact", action="append", default=[],
                         metavar="FILE",
                         help="saved result_*.txt to serve, matched to "
                              "--benchmark in order; a short training run is "
                              "executed and saved when omitted")
    loadgen.add_argument("--queries", type=int, default=None,
                         help="queries per scenario (default 128; 48 with "
                              "--smoke)")
    loadgen.add_argument("--warmup", type=int, default=None,
                         help="warmup queries discarded from the measured "
                              "window (default: queries // 16)")
    loadgen.add_argument("--target-qps", type=float, default=100.0,
                         help="server scenario Poisson arrival rate "
                              "(default 100)")
    loadgen.add_argument("--latency-bound", type=float, default=None,
                         metavar="SECONDS",
                         help="latency bound for the percentile constraints "
                              "(default 0.1s; 0.025s with --smoke, tight "
                              "enough that the max-QPS search meets a real "
                              "queueing limit)")
    loadgen.add_argument("--timing", choices=["wall", "virtual"], default=None,
                         help="per-query service-time source: 'wall' measures "
                              "the monotonic clock, 'virtual' draws from the "
                              "seeded service model so every statistic is "
                              "bit-identical across reruns and machines "
                              "(default wall; virtual with --smoke)")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="query-stream seed (default 0)")
    loadgen.add_argument("--train-epochs", type=int, default=1,
                         help="epoch cap for the inline training run when no "
                              "--artifact is given (default 1)")
    loadgen.add_argument("--no-rerun", dest="rerun", action="store_false",
                         help="skip the same-seed determinism rerun")
    loadgen.add_argument("--smoke", action="store_true",
                         help="fast CI variant: two workloads, virtual "
                              "timing, small query counts (gate the report "
                              "with bench-diff)")
    loadgen.add_argument("-o", "--out", metavar="FILE",
                         default="benchmarks/reports/BENCH_loadgen.json",
                         help="report path (default %(default)s; '-' to skip "
                              "writing)")
    return parser


def _parse_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise SystemExit(f"bad --override {pair!r}: expected KEY=VALUE")
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw  # bare strings are allowed
    return overrides


def _cmd_table1(args, out) -> int:
    from .suite import table1, table1_payload

    if getattr(args, "json", False):
        print(json.dumps(table1_payload(), indent=2, sort_keys=True), file=out)
    else:
        print(table1(), file=out)
    return 0


def _write_report(payload: dict, dest: str | None, out) -> None:
    """Write a bench payload, stamped with its provenance, to ``dest`` (``-`` or empty: don't)."""
    from pathlib import Path

    from .telemetry.regress import provenance

    if dest and dest != "-":
        path = Path(dest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**payload, "provenance": provenance()}, indent=2,
                                   sort_keys=True) + "\n")
        print(f"report written to {path}", file=out)


def _cmd_campaign(args, out) -> int:
    from .core import render_campaign_summary, save_submission
    from .exec import (
        CampaignSpec,
        MultiprocessExecutor,
        RetryPolicy,
        SequentialExecutor,
        default_system,
        run_campaign,
    )
    from .suite import REGISTRY

    if args.jobs < 1:
        print("--jobs must be >= 1", file=out)
        return 2
    if args.seeds is not None and args.seeds < 1:
        print("--seeds must be >= 1", file=out)
        return 2
    if args.resume and args.save and args.resume != args.save:
        print("--resume DIR already implies --save DIR; pass one of them", file=out)
        return 2

    benchmarks = tuple(args.benchmarks) if args.benchmarks else tuple(REGISTRY)
    unknown = [b for b in benchmarks if b not in REGISTRY]
    if unknown:
        print(f"unknown benchmark(s): {unknown}; see `repro table1`", file=out)
        return 2

    spec = CampaignSpec(
        benchmarks=benchmarks,
        seeds=args.seeds,
        overrides=_parse_overrides(args.override) or None,
        timeout_s=args.timeout,
    )
    executor = (SequentialExecutor() if args.jobs == 1
                else MultiprocessExecutor(args.jobs))
    campaign_dir = args.resume or args.save

    outcome = run_campaign(
        spec,
        executor=executor,
        journal_dir=campaign_dir,
        resume=bool(args.resume),
        policy=RetryPolicy(max_retries=args.retries, backoff_base_s=args.backoff),
        system=default_system(args.submitter),
    )

    for warning in outcome.plan.warnings:
        print(f"warning: {warning}", file=out)
    print(render_campaign_summary(outcome.summary, outcome.scores,
                                  outcome.unscored), file=out)

    # The same per-job table `repro monitor` renders, fed from the
    # in-memory journal instead of files — one rendering path for both.
    from dataclasses import asdict

    from .telemetry import (build_view, profile_mode_from_env, render_job_table,
                            render_op_profile)

    view = build_view(
        job_records={key: asdict(rec) for key, rec in outcome.journal.jobs.items()},
        planned_cells=[job.cell for job in outcome.plan.jobs],
        now_s=0.0,
    )
    print(file=out)
    print(render_job_table(view.jobs), file=out)
    for job in outcome.plan.jobs:
        record = outcome.journal.jobs[job.key]
        if record.status in ("fault", "timeout"):
            print(f"{job.key} {record.status}: {record.error}", file=out)

    if campaign_dir and outcome.submission is not None:
        base = save_submission(outcome.submission, campaign_dir)
        print(f"artifacts written to {base}", file=out)
    if campaign_dir:
        print(f"journal at {outcome.journal.path}", file=out)
    if args.trace:
        from pathlib import Path

        trace = Path(args.trace)
        trace.parent.mkdir(parents=True, exist_ok=True)
        doc = outcome.chrome_trace()
        trace.write_text(json.dumps(doc, sort_keys=True))
        print(f"trace written to {args.trace} ({len(doc['traceEvents'])} "
              "events); open in chrome://tracing or https://ui.perfetto.dev", file=out)
    if profile_mode_from_env() != "off":
        print(render_op_profile(outcome.telemetry.op_profile), file=out)
    if args.bench:
        _write_report(outcome.bench_payload(), args.bench, out)
    return 0 if outcome.ok else 1


def _load_submissions(directories, out) -> list | None:
    """Each directory's submission, or None after one line naming one that fails."""
    from .core import load_submission

    submissions = []
    for directory in directories:
        try:
            submissions.append(load_submission(directory))
        except (FileNotFoundError, ValueError) as exc:
            print(f"cannot load submission {directory}: {exc}", file=out)
            return None
    return submissions


def _cmd_review(args, out) -> int:
    from .core import review_directory
    from .suite import REGISTRY, create_benchmark

    specs = {name: create_benchmark(name).spec for name in REGISTRY}
    try:
        report = review_directory(args.submission_dir, specs)
    except (FileNotFoundError, ValueError) as exc:
        print(f"cannot load submission {args.submission_dir}: {exc}", file=out)
        return 1
    print(report, file=out)
    return 0 if report.compliant else 1


def _cmd_report(args, out) -> int:
    from .core import build_report

    submissions = _load_submissions(args.submission_dirs, out)
    if submissions is None:
        return 1
    try:
        report = build_report(submissions)
    except ValueError as exc:
        print(exc, file=out)
        return 1
    print(report.render(), file=out)
    return 0


def _cmd_trace(args, out) -> int:
    from pathlib import Path

    from .core import parse_log_lines
    from .telemetry import trace_from_log_events

    path = Path(args.log_file)
    if not path.is_file():
        print(f"no such log file: {path}", file=out)
        return 1
    try:
        events = parse_log_lines(path.read_text().splitlines())
    except ValueError as exc:
        print(f"cannot parse {path}: corrupt log record: {exc}", file=out)
        return 1
    if not events:
        print(f"no :::MLLOG events found in {path}", file=out)
        return 1
    doc = trace_from_log_events(events)
    out_path = Path(args.out) if args.out else path.with_suffix(path.suffix + ".trace.json")
    out_path.write_text(json.dumps(doc, sort_keys=True))
    print(f"trace written to {out_path} ({len(doc['traceEvents'])} events); "
          f"open in chrome://tracing or https://ui.perfetto.dev", file=out)
    return 0


def _cmd_monitor(args, out) -> int:
    from .telemetry import render_monitor_view
    from .telemetry.monitor import CampaignTailer, campaign_dir_problem

    if args.watch is not None and not args.watch > 0:
        print(f"monitor: --watch must be > 0 seconds, got {args.watch:g}",
              file=out)
        return 2
    problem = campaign_dir_problem(args.campaign_dir)
    if problem is not None:
        print(f"monitor: {problem}", file=out)
        return 1
    # A tailer instead of load_monitor_view so --watch re-reads nothing:
    # each refresh consumes only bytes appended since the previous one.
    tailer = CampaignTailer(args.campaign_dir)

    def refresh():
        view = tailer.refresh()
        print(render_monitor_view(view, recent_events=args.events), file=out)
        return view

    view = refresh()
    if args.watch:
        import time as _time

        while not view.settled:
            _time.sleep(args.watch)
            print(file=out)
            view = refresh()
    return 0 if not view.stalled_jobs else 1


def _cmd_alerts(args, out) -> int:
    from pathlib import Path

    from .telemetry.alerts import render_alert_table, replay_alerts
    from .telemetry.events import EventLog
    from .telemetry.monitor import CampaignTailer, campaign_dir_problem
    from .telemetry.serve import ALERTS_LOG_NAME

    campaign_dir = Path(args.campaign_dir)
    problem = campaign_dir_problem(campaign_dir)
    if problem is not None:
        print(f"alerts: {problem}", file=out)
        return 1

    tailer = CampaignTailer(campaign_dir)
    events = tailer.poll_events()
    if args.now is not None and events and args.now < events[-1].time_s:
        print(f"alerts: --now {args.now:.3f} is earlier than the last "
              f"event, at t={events[-1].time_s:.3f}", file=out)
        return 2
    engine, transitions = replay_alerts(events, now_s=args.now)

    if not args.no_write:
        # mode="w": the file is a pure function of the event streams, so
        # a re-run reproduces it byte for byte.
        with EventLog(campaign_dir / ALERTS_LOG_NAME, mode="w") as log:
            for transition in transitions:
                log.write(transition)

    active = engine.active()
    if args.json:
        print(json.dumps({
            "transitions": [{"event": t.name, "time_s": t.time_s, **t.args}
                            for t in transitions],
            "firing": [a.to_payload() for a in active],
        }, indent=2, sort_keys=True), file=out)
    else:
        print(f"{len(events)} event(s) from {len(tailer.streams)} stream(s), "
              f"{len(transitions)} alert transition(s)", file=out)
        print(render_alert_table(transitions, active), file=out)
        if not args.no_write:
            print(f"alert log written to {campaign_dir / ALERTS_LOG_NAME}",
                  file=out)
    return 1 if active else 0


def _cmd_serve_metrics(args, out) -> int:
    from .telemetry.serve import ObservabilityServer, discover_campaign_dirs

    if not args.refresh >= 0:
        print(f"serve-metrics: --refresh must be >= 0 seconds, got "
              f"{args.refresh:g}", file=out)
        return 2
    found = discover_campaign_dirs(args.root)
    if not found:
        print(f"serve-metrics: no campaigns under {args.root} yet — "
              f"serving anyway, will pick them up as they appear", file=out)
    server = ObservabilityServer(
        args.root, host=args.host, port=args.port,
        min_refresh_s=args.refresh,
        write_alerts=not args.no_alerts_log,
    ).bind()
    print(f"observability server on {server.url} "
          f"({len(found)} campaign(s))", file=out)
    print(f"  metrics:   {server.url}/metrics", file=out)
    print(f"  api:       {server.url}/api/campaigns  /api/alerts", file=out)
    print(f"  sse:       {server.url}/events", file=out)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=out)
        server.close()
    return 0


def _cmd_bench_diff(args, out) -> int:
    from .telemetry import compare_reports, load_report

    try:
        current = load_report(args.report)
        baseline = load_report(args.baseline)
        report = compare_reports(current, baseline)
    except (OSError, ValueError) as exc:
        print(f"bench-diff: {exc}", file=out)
        return 2
    if args.json:
        print(json.dumps(report.to_payload(), indent=2, sort_keys=True), file=out)
    else:
        print(report.render(), file=out)
    return 0 if report.ok else 1


def _cmd_profile(args, out) -> int:
    from pathlib import Path

    from .core import (build_phase_table, load_run_result, render_phase_table,
                       render_series_table)
    from .core.reporting import render_kernel_fallbacks
    from .exec.journal import CampaignJournal
    from .telemetry import merge_op_profiles, render_op_profile

    path = Path(args.path)
    if not path.exists():
        print(f"no such file or directory: {path}", file=out)
        return 2
    try:
        # A campaign directory's journal records every attempt, missed and
        # failed runs too (its submission copies only the converged runs);
        # a submission directory, or anything else, is read for its result
        # files.
        journal = CampaignJournal.load(path) if path.is_dir() else None
        sources = ([path] if journal is None else
                   [source for rec in journal.jobs.values()
                    for source in journal.attempt_files(rec.benchmark, rec.seed)]
                   or sorted(path.rglob("result_*.txt")))
        runs = [load_run_result(source) for source in sources]
    except (OSError, ValueError) as exc:
        print(f"cannot load submission {path}: {exc}", file=out)
        return 1
    if not runs:
        print(f"no runs found under {path}", file=out)
        return 1
    profiles = [run.telemetry.op_profile for run in runs
                if run.telemetry is not None and run.telemetry.op_profile]
    hint = "no op profile recorded: run with REPRO_PROFILE=full to record one"
    if args.json:
        if not profiles:
            print(hint, file=out)
            return 1
        print(json.dumps(merge_op_profiles(profiles), indent=2, sort_keys=True),
              file=out)
        return 0

    runs_by_benchmark: dict[str, list] = {}
    for run in runs:
        runs_by_benchmark.setdefault(run.benchmark, []).append(run)
    print(f"{len(runs)} run(s), {sum(run.reached_target for run in runs)} "
          "reached the target", file=out)
    print(render_phase_table(build_phase_table(runs_by_benchmark)), file=out)
    print(render_kernel_fallbacks(runs), file=out)
    if args.series:
        print(file=out)
        print(render_series_table(runs_by_benchmark), file=out)
    print(file=out)
    if not profiles:
        print(hint, file=out)
        return 0
    print(f"{len(profiles)} profiled run(s)", file=out)
    print(render_op_profile(merge_op_profiles(profiles)), file=out)
    return 0


def _cmd_hp_table(args, out) -> int:
    from .core.hp_table import recommendation_table, render_table
    from .suite import all_specs

    rows = recommendation_table(all_specs(), chip_counts=tuple(args.chips),
                                precisions=("float32",))
    print(render_table(rows), file=out)
    return 0


def _cmd_simulate(_args, out) -> int:
    from .systems import figure4_speedups, figure5_scale_growth

    speedups = figure4_speedups(16)
    print("Figure 4 — fastest 16-chip entry speedup v0.5 -> v0.6:", file=out)
    for name, s in speedups.items():
        print(f"  {name:<26} {s:.2f}x", file=out)
    print(f"  average: {np.mean(list(speedups.values())):.2f}x", file=out)
    print(file=out)
    print("Figure 5 — chips in the fastest overall entry:", file=out)
    ratios = []
    for name, (v05, v06) in figure5_scale_growth().items():
        ratios.append(v06.num_chips / v05.num_chips)
        print(f"  {name:<26} {v05.num_chips} -> {v06.num_chips} "
              f"({ratios[-1]:.1f}x)", file=out)
    print(f"  average: {np.mean(ratios):.1f}x", file=out)
    return 0


def _cmd_bench_kernels(args, out) -> int:
    from .framework.microbench import bench_kernels

    payload = bench_kernels(smoke=args.smoke, repeats=args.repeats)
    print(f"kernels against their references "
          f"(repeats={payload['repeats']}, warmup={payload['warmup']})", file=out)
    for name, entry in payload["kernels"].items():
        flag = "ok" if entry["bit_identical"] else "DIVERGED"
        print(f"  {name:<31} {entry['naive_ns_per_op'] / 1e3:>10.1f}us reference  "
              f"{entry['ns_per_op'] / 1e3:>10.1f}us kernel  "
              f"{entry['speedup']:>5.2f}x  [{flag}]", file=out)
    _write_report(payload, args.out, out)
    return 0


def _cmd_loadgen(args, out) -> int:
    import tempfile
    from pathlib import Path

    from .loadgen import (
        SCENARIO_NAMES,
        build_loadgen_payload,
        default_scenarios,
        find_max_qps,
        load_sut,
        render_loadgen_report,
        run_scenario,
        train_and_save,
    )
    from .suite import REGISTRY

    benchmarks = list(args.benchmark) or (
        ["image_classification", "recommendation"] if args.smoke else [])
    if not benchmarks:
        print("pass --benchmark NAME (repeatable), or --smoke for the "
              "default two-workload set", file=out)
        return 2
    unknown = [b for b in benchmarks if b not in REGISTRY]
    if unknown:
        print(f"unknown benchmark(s): {unknown}; see `repro table1`", file=out)
        return 2
    if len(args.artifact) > len(benchmarks):
        print("more --artifact paths than --benchmark names", file=out)
        return 2

    timing = args.timing or ("virtual" if args.smoke else "wall")
    queries = (args.queries if args.queries is not None
               else (48 if args.smoke else 128))
    warmup = args.warmup if args.warmup is not None else max(queries // 16, 1)
    latency_bound = (args.latency_bound if args.latency_bound is not None
                     else (0.025 if args.smoke else 0.1))
    # The numeric flags are checked before any training run can start.
    problem = None
    if queries < 1:
        problem = f"--queries must be >= 1, got {queries}"
    elif warmup < 0:
        problem = f"--warmup must be >= 0, got {warmup}"
    elif warmup >= queries:
        problem = (f"--warmup {warmup} leaves none of --queries {queries} "
                   "to measure")
    elif not args.target_qps > 0:
        problem = f"--target-qps must be > 0, got {args.target_qps:g}"
    elif not latency_bound > 0:
        problem = f"--latency-bound must be > 0 seconds, got {latency_bound:g}"
    if problem is not None:
        print(f"loadgen: {problem}", file=out)
        return 2
    specs = default_scenarios(query_count=queries, warmup_queries=warmup,
                              target_qps=args.target_qps,
                              latency_bound_s=latency_bound)
    selected = (SCENARIO_NAMES if args.scenario == "all"
                else (args.scenario,))

    with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as tmp:
        artifacts: dict[str, Path] = {}
        for i, name in enumerate(benchmarks):
            if i < len(args.artifact):
                artifacts[name] = Path(args.artifact[i])
            else:
                path = Path(tmp) / f"result_{name}.txt"
                print(f"{name}: no --artifact; training "
                      f"{args.train_epochs} epoch(s) -> {path}", file=out)
                train_and_save(name, path, seed=args.seed,
                               max_epochs=args.train_epochs)
                artifacts[name] = path

        results: dict[str, list] = {}
        reruns: dict[str, list] = {}
        passes = ((results, reruns) if args.rerun else (results,))
        for name in benchmarks:
            for bucket in passes:
                # Each pass rebuilds the SUT from the artifact — the
                # determinism check covers the full load-and-serve path.
                try:
                    sut = load_sut(artifacts[name])
                except (OSError, ValueError) as exc:
                    print(f"loadgen: {exc}", file=out)
                    return 1
                bench_results = []
                for scenario in selected:
                    res = run_scenario(sut, specs[scenario],
                                       seed=args.seed, timing=timing)
                    if scenario == "server":
                        res.max_qps = find_max_qps(
                            sut, specs["server"], seed=args.seed,
                            timing=timing)
                    bench_results.append(res)
                bucket[name] = bench_results

    payload = build_loadgen_payload(results, reruns if args.rerun else None,
                                    timing=timing, seed=args.seed)
    print(render_loadgen_report(payload), file=out)
    _write_report(payload, args.out, out)
    return 0 if payload["checks"]["all_valid"] else 1


_COMMANDS = {
    "table1": _cmd_table1,
    "campaign": _cmd_campaign,
    "review": _cmd_review,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "monitor": _cmd_monitor,
    "alerts": _cmd_alerts,
    "serve-metrics": _cmd_serve_metrics,
    "bench-diff": _cmd_bench_diff,
    "profile": _cmd_profile,
    "hp-table": _cmd_hp_table,
    "simulate": _cmd_simulate,
    "bench-kernels": _cmd_bench_kernels,
    "loadgen": _cmd_loadgen,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    from .telemetry.opprof import profile_mode_from_env

    try:
        profile_mode_from_env()
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    return _COMMANDS[args.command](args, out)


if __name__ == "__main__":
    # The entry point is `python -m repro`; fail loudly instead of exiting 0.
    print("repro: error: run the CLI as `python -m repro`", file=sys.stderr)
    raise SystemExit(2)
