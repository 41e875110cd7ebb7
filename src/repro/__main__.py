"""Command-line entry point: regenerate any of the paper's results.

Usage::

    python -m repro list                 # available experiments
    python -m repro table2               # run one experiment, print it
    python -m repro figure5
    python -m repro --jobs 4 figure6     # parallel sweep execution
    python -m repro all                  # run everything (slow)
    python -m repro campus --portables 100000   # campus-scale stress run
    python -m repro cache stats          # inspect the result cache
    python -m repro cache prune --max-size 500M
    python -m repro --trace trace.jsonl table2   # record a DES/domain trace
    python -m repro trace summarize trace.jsonl  # aggregate a recorded trace
    python -m repro --metrics-json m.json table2 # export the metrics registry
    python -m repro --stats figure5              # print run telemetry
    python -m repro --spans spans.jsonl.gz figure4  # record runtime spans
    python -m repro trace spans spans.jsonl.gz      # render the span tree
    python -m repro --profile prof.pstats.gz table2 # profile the workers
    python -m repro trace profile prof.pstats.gz    # aggregated hotspots

Sweep-style experiments dispatch through
:class:`repro.runtime.ExperimentRunner`; ``--jobs N`` (or the
``REPRO_JOBS`` environment variable) fans replications out over a process
pool, and ``--cache`` persists per-config results under
``benchmarks/.cache/`` so re-runs only simulate new points.  Each
replication is cached as it settles, so re-running an interrupted sweep
with ``--cache`` recomputes only what it had not finished.  Results are
bit-identical regardless of the worker count.

Fault tolerance: ``--max-retries N`` re-attempts failing replications
with exponential backoff, ``--timeout S`` cancels and reschedules
replications exceeding a wall-clock budget, and ``--partial`` lets a
sweep survive exhausted points (they are dropped from the merged output
with a warning instead of aborting the run).

Observability (``repro.obs``): ``--trace [PATH]`` records DES and domain
trace points (JSONL when a path is given, an in-memory summary
otherwise), ``--metrics-json PATH`` exports the metrics registry (``-``
writes to stdout), and ``--stats`` / ``--stats-json PATH`` report runner
telemetry.  All of them compose with ``--jobs N``: pool workers capture
their replication's records and metrics locally and the coordinator
merges the snapshots deterministically, so observed output is identical
at any worker count.

Runtime observability: ``--spans PATH`` records hierarchical wall-clock
spans (sweep → replication → attempt) whose *structure* is
byte-identical at any ``--jobs``, and ``--profile PATH`` runs every
replication under cProfile and aggregates the stats deterministically
across workers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Dict, List, Optional

from .runtime import ExperimentRunner, ResultCache, parse_size


def _add_des_core_flag(parser: argparse.ArgumentParser) -> None:
    """The ``--des-core`` selector shared by the experiment parsers."""
    parser.add_argument(
        "--des-core", choices=("auto", "native", "pure"), default=None,
        help="simulation kernel core: 'native' requires the compiled "
        "repro.des._speedups extension (errors if absent), 'pure' forces "
        "the Python kernel, 'auto' picks native when available (default: "
        "$REPRO_DES_NATIVE, else auto)",
    )


def _apply_des_core(args: argparse.Namespace) -> None:
    """Publish ``--des-core`` through ``REPRO_DES_NATIVE`` so every
    ``make_environment()`` — in this process and in pool workers alike —
    sees the same selection."""
    if getattr(args, "des_core", None) is not None:
        from .des import NATIVE_ENV

        os.environ[NATIVE_ENV] = args.des_core


def _table2(runner: ExperimentRunner) -> str:
    from .experiments import render_table2, run_table2

    return render_table2(run_table2(runner=runner))


def _figure2(runner: ExperimentRunner) -> str:
    from .experiments.common import format_series
    from .mobility import class_session_trace
    from .stats import BinnedSeries

    series = BinnedSeries(bin_width=600.0)
    for seed, students, start, end in (
        (101, 24, 9 * 3600.0, 10 * 3600.0),
        (102, 40, 11 * 3600.0, 12.5 * 3600.0),
        (103, 15, 15 * 3600.0, 16 * 3600.0),
    ):
        trace = class_session_trace(
            seed=seed, students=students, start_time=start, end_time=end,
            walkby_rate=0.0,
        )
        for event in trace:
            if "class" in (event.from_cell, event.to_cell):
                series.add(event.time)
    return (
        "Figure 2: handoff activity in a lounge (10-minute bins)\n"
        + format_series(
            "meeting-room handoffs", series.series(8 * 3600.0, 17 * 3600.0)
        )
    )


def _figure4(runner: ExperimentRunner) -> str:
    from .experiments import render_figure4, run_figure4_sweep

    return render_figure4(run_figure4_sweep(runner=runner)[0])


def _figure5(runner: ExperimentRunner) -> str:
    from .experiments import render_figure5, run_figure5_comparison

    return render_figure5(run_figure5_comparison(runner=runner))


def _figure6(runner: ExperimentRunner) -> str:
    from .experiments import render_figure6, run_figure6, run_plain_baseline

    points = run_figure6(seeds=(1, 2), horizon=200.0, runner=runner)
    baseline = run_plain_baseline(seeds=(1, 2), horizon=200.0, runner=runner)
    return render_figure6(points, baseline)


def _ablations(runner: ExperimentRunner) -> str:
    from .experiments import (
        mlist_overhead,
        pool_fraction_sweep,
        prediction_levels,
        render_mlist_overhead,
        render_pool_fraction,
        render_prediction_levels,
        render_static_vs_predictive,
        static_vs_predictive,
    )

    parts = [
        render_mlist_overhead(mlist_overhead(runner=runner)),
        render_prediction_levels(prediction_levels(runner=runner)),
        render_pool_fraction(pool_fraction_sweep(trials=200, runner=runner)),
        render_static_vs_predictive(
            static_vs_predictive(seeds=(1, 2), horizon=200.0, runner=runner)
        ),
    ]
    return "\n\n".join(parts)


def _adaptation_value(runner: ExperimentRunner) -> str:
    from .experiments import render_adaptation_value, run_adaptation_value

    return render_adaptation_value(
        run_adaptation_value(duration=200.0, runner=runner)
    )


def _campus_day(runner: ExperimentRunner) -> str:
    from .experiments.common import format_table
    from .sim import run_campus_day

    result = run_campus_day()
    stats = result.stats
    return format_table(
        ["metric", "value"],
        [
            ("requests", stats.new_requests),
            ("admitted", stats.admitted),
            ("P_b", stats.blocking_probability),
            ("handoffs", stats.handoff_attempts),
            ("P_d", stats.dropping_probability),
            ("static upgrades", result.static_upgrades),
        ],
        title="Campus day (Figure 1 pipeline)",
    )


EXPERIMENTS: Dict[str, Callable[[ExperimentRunner], str]] = {
    "table2": _table2,
    "figure2": _figure2,
    "figure4": _figure4,
    "figure5": _figure5,
    "figure6": _figure6,
    "ablations": _ablations,
    "campus-day": _campus_day,
    "adaptation-value": _adaptation_value,
}


def _cache_main(argv: List[str]) -> int:
    """``python -m repro cache stats|clear|prune`` — manage the result cache."""
    parser = argparse.ArgumentParser(
        prog="python -m repro cache",
        description="Inspect and manage the on-disk sweep result cache.",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    p_stats = sub.add_parser("stats", help="entry counts, bytes, hit/miss state")
    p_clear = sub.add_parser("clear", help="drop every entry for the current version")
    p_prune = sub.add_parser(
        "prune", help="evict least-recently-used entries down to the given caps"
    )
    p_prune.add_argument(
        "--max-size", default=None, metavar="SIZE",
        help="byte cap, e.g. 2048, 500M, or 1.5G (binary suffixes)",
    )
    p_prune.add_argument(
        "--max-entries", type=int, default=None, metavar="N",
        help="entry-count cap",
    )
    for sp in (p_stats, p_clear, p_prune):
        sp.add_argument(
            "--dir", default=None, metavar="PATH",
            help="cache root (default: benchmarks/.cache or $REPRO_CACHE_DIR)",
        )
    args = parser.parse_args(argv)

    cache = ResultCache(root=args.dir)
    if args.action == "stats":
        stats = cache.stats()
        print(f"cache root: {stats.root} (v{stats.version})")
        print(f"entries:    {stats.entries}")
        print(f"bytes:      {stats.total_bytes}")
        for namespace, count, size in stats.by_namespace:
            print(f"  {namespace}: {count} entries, {size} bytes")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entries")
        return 0
    # prune
    if args.max_size is None and args.max_entries is None:
        parser.error("prune requires --max-size and/or --max-entries")
    max_bytes = parse_size(args.max_size) if args.max_size is not None else None
    evicted, freed = cache.prune(max_bytes=max_bytes, max_entries=args.max_entries)
    print(f"evicted {evicted} entries ({freed} bytes)")
    return 0


def _campus_main(argv: List[str]) -> int:
    """``python -m repro campus`` — run the campus-scale stress scenario.

    Unlike the paper experiments this is a synthetic scaling workload: a
    parametric multi-building campus with a large, mostly-idle population
    and a small active minority crossing cells in batched diurnal waves.
    Replications differ only in seed and dispatch through
    :class:`repro.runtime.ExperimentRunner`, so ``--jobs N`` and the
    telemetry flags compose the same way as for the experiments.
    """
    from .experiments.common import format_table
    from .sim import simulate_campus_scale

    parser = argparse.ArgumentParser(
        prog="python -m repro campus",
        description="Campus-scale stress scenario: thousands of cells, "
        "10^4-10^6 portables, batched diurnal handoff waves.",
    )
    parser.add_argument(
        "--portables", type=int, default=100_000, metavar="N",
        help="total attached population (default 100000)",
    )
    parser.add_argument(
        "--active-fraction", type=float, default=0.01, metavar="F",
        help="fraction of the population holding connections and moving "
        "(default 0.01)",
    )
    parser.add_argument(
        "--buildings", type=int, default=4, metavar="N",
        help="buildings on the campus (default 4)",
    )
    parser.add_argument(
        "--floors", type=int, default=3, metavar="N",
        help="floors per building (default 3)",
    )
    parser.add_argument(
        "--horizon", type=float, default=1800.0, metavar="SECONDS",
        help="simulated time (default 1800)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, metavar="N",
        help="base seed; replication i runs with seed+i (default 7)",
    )
    parser.add_argument(
        "--replications", type=int, default=1, metavar="N",
        help="independent runs at consecutive seeds (default 1)",
    )
    parser.add_argument(
        "--full-scan", action="store_true",
        help="disable the incremental per-cell maintenance path (slow; "
        "results are bit-identical either way)",
    )
    parser.add_argument(
        "--jobs", "-j", default=None, metavar="N",
        help="worker processes for replications (0 or 'auto' = all cores; "
        "default: $REPRO_JOBS, else 1)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print run telemetry (wall times, in-worker DES events/sec, "
        "active kernel core)",
    )
    parser.add_argument(
        "--stats-json", default=None, metavar="PATH",
        help="write run telemetry as JSON to PATH (implies --stats output)",
    )
    _add_des_core_flag(parser)
    args = parser.parse_args(argv)
    _apply_des_core(args)

    runner = ExperimentRunner(jobs=args.jobs)
    configs = [
        {
            "seed": args.seed + i,
            "portables": args.portables,
            "active_fraction": args.active_fraction,
            "buildings": args.buildings,
            "floors": args.floors,
            "horizon": args.horizon,
            "incremental": not args.full_scan,
        }
        for i in range(args.replications)
    ]
    results = runner.run_many(simulate_campus_scale, configs, label="campus")
    for config, result in zip(configs, results):
        print(
            format_table(
                ["metric", "value"],
                [
                    ("cells", result.cells),
                    ("portables", result.portables),
                    ("active", result.active),
                    ("handoffs", result.handoffs),
                    ("drops", result.drops),
                    ("blocked", result.blocked),
                    ("admitted", result.admitted),
                    ("P_b", result.stats.blocking_probability),
                    ("P_d", result.stats.dropping_probability),
                    ("total rate (bps)", result.total_rate),
                    ("pool total (bps)", result.pool_total),
                    ("reserved total (bps)", result.reserved_total),
                ],
                title=f"Campus scale (seed {config['seed']})",
            )
        )
        print()
    if args.stats_json is not None:
        with open(args.stats_json, "w", encoding="utf-8") as fh:
            fh.write(runner.telemetry.to_json(indent=2) + "\n")
    if args.stats or args.stats_json is not None:
        print(runner.telemetry.summary())
    return 0


def _trace_main(argv: List[str]) -> int:
    """``python -m repro trace summarize|spans|profile`` — analyze artifacts."""
    from .obs import read_jsonl, summarize_records

    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Analyze traces, spans, and profiles recorded by "
        "--trace/--spans/--profile (plain or gzipped).",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    p_sum = sub.add_parser(
        "summarize", help="per-kind counts/time spans and domain aggregates"
    )
    p_sum.add_argument(
        "path", help="JSONL trace file written by --trace PATH (.gz ok)"
    )
    p_spans = sub.add_parser(
        "spans", help="render the span tree recorded with --spans PATH"
    )
    p_spans.add_argument(
        "path", help="span JSONL file written by --spans PATH (.gz ok)"
    )
    p_spans.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the raw span records instead of the rendered tree",
    )
    p_prof = sub.add_parser(
        "profile", help="aggregated cProfile hotspots recorded with --profile"
    )
    p_prof.add_argument(
        "path", help="pstats file written by --profile PATH (.gz ok)"
    )
    p_prof.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="rows to show (default 20)",
    )
    p_prof.add_argument(
        "--sort", choices=("cumulative", "tottime", "calls"),
        default="cumulative", help="ranking column (default cumulative)",
    )
    p_prof.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the hotspot rows as JSON",
    )
    args = parser.parse_args(argv)

    if args.action == "summarize":
        records = read_jsonl(args.path)
        print(json.dumps(summarize_records(records), indent=2))
        return 0
    if args.action == "spans":
        from .obs import format_span_tree, read_spans_jsonl

        spans = read_spans_jsonl(args.path)
        if args.as_json:
            from .obs.spans import span_to_record

            print(json.dumps([span_to_record(s) for s in spans], indent=2))
        else:
            print(format_span_tree(spans))
        return 0
    # profile
    from .obs import hotspots, read_pstats, render_hotspots

    raw = read_pstats(args.path)
    rows = hotspots(raw, top=args.top, sort=args.sort)
    if args.as_json:
        print(json.dumps(rows, indent=2))
    else:
        print(render_hotspots(rows, args.sort))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "cache":
        return _cache_main(argv[1:])
    if argv and argv[0] == "campus":
        return _campus_main(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate results from Lu & Bharghavan (SIGCOMM 1996).",
        epilog="Cache management lives under 'python -m repro cache "
        "stats|clear|prune'.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["list", "all"],
        help="which experiment to run ('list' to enumerate, 'all' for every one)",
    )
    parser.add_argument(
        "--jobs", "-j", default=None, metavar="N",
        help="worker processes for sweeps (0 or 'auto' = all cores; "
        "default: $REPRO_JOBS, else 1)",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="reuse previously simulated sweep points from benchmarks/.cache/",
    )
    parser.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="re-attempt each failing replication up to N times with "
        "exponential backoff (default 0: fail hard)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-replication wall-clock budget; hung workers are cancelled "
        "and rescheduled",
    )
    parser.add_argument(
        "--partial", action="store_true",
        help="survive exhausted sweep points: they are dropped from merged "
        "output with a warning instead of aborting the run",
    )
    parser.add_argument(
        "--trace", nargs="?", const="", default=None, metavar="PATH",
        help="record DES + domain trace points: to a JSONL file when PATH "
        "is given, else to memory with a printed summary (works at any "
        "--jobs N; traced output stays bit-identical to an untraced run)",
    )
    parser.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="collect the metrics registry during the run and write its "
        "JSON snapshot to PATH ('-' for stdout; works at any --jobs N)",
    )
    parser.add_argument(
        "--spans", default=None, metavar="PATH",
        help="record hierarchical runtime spans (sweep → replication → "
        "attempt) to a JSONL file ('.gz' compresses); span structure is "
        "identical at any --jobs",
    )
    parser.add_argument(
        "--profile", default=None, metavar="PATH",
        help="run each replication under cProfile and write the "
        "deterministically aggregated stats to PATH ('.gz' compresses; "
        "inspect with 'python -m repro trace profile PATH')",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print run telemetry (replication wall times, faults, cache "
        "hit rate, active DES kernel core) after the experiments",
    )
    parser.add_argument(
        "--stats-json", default=None, metavar="PATH",
        help="write run telemetry as JSON to PATH (implies --stats output)",
    )
    _add_des_core_flag(parser)
    args = parser.parse_args(argv)
    _apply_des_core(args)

    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    runner = ExperimentRunner(
        jobs=args.jobs,
        cache=ResultCache() if args.cache else None,
        max_retries=args.max_retries,
        timeout=args.timeout,
        partial=args.partial,
        retry_backoff=0.5 if args.max_retries else 0.0,
        profile=args.profile is not None,
    )

    from .obs import (
        JsonlSink,
        MetricsRegistry,
        RingBufferSink,
        SpanCollector,
        Tracer,
        set_registry,
        set_span_collector,
        set_tracer,
        summarize_records,
        write_spans_jsonl,
    )

    tracer: Optional[Tracer] = None
    if args.trace is not None:
        sink = JsonlSink(args.trace) if args.trace else RingBufferSink()
        tracer = Tracer(sink)
        set_tracer(tracer)
    if args.metrics_json is not None:
        set_registry(MetricsRegistry())
    collector: Optional[SpanCollector] = None
    if args.spans is not None:
        collector = SpanCollector()
        set_span_collector(collector)

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    try:
        for name in names:
            print(f"=== {name} ===")
            print(EXPERIMENTS[name](runner))
            print()
    finally:
        if tracer is not None:
            set_tracer(None)
            tracer.close()
        if collector is not None:
            set_span_collector(None)
            write_spans_jsonl(args.spans, collector.spans())
            print(
                f"spans written to {args.spans} "
                f"({len(collector.spans())} records)"
            )
        if args.profile is not None and runner.profile_stats:
            from .obs import write_pstats

            write_pstats(args.profile, runner.profile_stats)
            print(f"profile written to {args.profile}")
        if args.metrics_json is not None:
            registry = set_registry(None)
            if args.metrics_json == "-":
                sys.stdout.write(registry.to_json(indent=2) + "\n")
            else:
                with open(args.metrics_json, "w", encoding="utf-8") as fh:
                    fh.write(registry.to_json(indent=2) + "\n")
                print(f"metrics written to {args.metrics_json}")

    if tracer is not None:
        if isinstance(tracer.sink, RingBufferSink):
            summary = summarize_records(tracer.sink.records())
            if tracer.sink.dropped:
                summary["dropped"] = tracer.sink.dropped
            print("trace summary:")
            print(json.dumps(summary, indent=2))
        else:
            print(
                f"trace written to {args.trace} "
                f"({tracer.sink.written} records)"
            )
    if args.stats_json is not None:
        with open(args.stats_json, "w", encoding="utf-8") as fh:
            fh.write(runner.telemetry.to_json(indent=2) + "\n")
    if args.stats or args.stats_json is not None:
        print(runner.telemetry.summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
