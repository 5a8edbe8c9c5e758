"""Command-line interface: ``python -m repro``.

Run a single experiment point from the shell::

    python -m repro --workload web_search --design footprint --capacity 256
    python -m repro --workload data_serving --design page --capacity 64 \
        --requests 200000 --seed 3

Or sweep a whole grid through the experiment engine — parallel across
processes, incremental across runs via the persistent result store::

    python -m repro sweep --workloads web_search --designs footprint,page \
        --capacities 64,256 --jobs 2

A repeated sweep reports every point as a cache hit and finishes in
milliseconds; ``--no-cache`` forces re-simulation.  A sweep can also be
loaded from a serialised :class:`~repro.exp.ExperimentSpec`::

    python -m repro sweep --spec examples/specs/quick_sweep.json

Execution is pluggable: ``--jobs N`` picks the execution backend
(serial for 1, a process pool otherwise), ``--shard I/N`` runs one
deterministic shard of the grid (typically into its own ``--store``,
recombined later with ``store merge``), and ``--plugin MOD`` loads
modules registering custom designs/workload profiles — inside worker
processes too::

    python -m repro sweep --spec spec.json --shard 1/2 --store shard1
    python -m repro sweep --spec spec.json --shard 2/2 --store shard2
    python -m repro store merge shard1 shard2 --into merged
    python -m repro sweep --plugin examples/custom_design.py \
        --designs pairfetch --capacities 64 --jobs 2

Regenerate paper figures straight from the result store (missing points
are simulated first, everything else is served from the store)::

    python -m repro report --list
    python -m repro report fig01 fig05 --jobs 4
    python -m repro report            # every registered figure

And keep the store itself healthy::

    python -m repro store stats
    python -m repro store compact     # drop stale/orphaned/duplicate records
    python -m repro store gc          # also drop records no figure references

Or serve the whole engine over HTTP — submit spec JSON, poll jobs,
stream progress, fetch results/figures; warm store points answer
instantly, misses fan out through the execution backend::

    python -m repro serve --host 0.0.0.0 --port 8000 --workers 2 --jobs 4

Every command shares the observability flags: ``-v``/``--quiet`` drive
the structured stderr logger, and ``--trace FILE`` (or
``$REPRO_TRACE``) appends NDJSON spans from every layer — runner,
backends, serve, coordinator, workers — to one file, summarised with::

    python -m repro sweep --spec spec.json --trace trace.ndjson
    python -m repro obs summarize trace.ndjson

Live metrics are exposed by ``repro serve`` as JSON at
``/api/v1/metrics`` and Prometheus text at ``/metrics``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.analysis.report import format_table, percent
from repro.caches.registry import design_names
from repro.obs import configure_logging, configure_tracer
from repro.exp import (
    ExperimentSpec,
    ResultStore,
    SweepRunner,
    TransportError,
    load_plugins,
    make_backend,
    parse_shard,
)
from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulator
from repro.workloads.cloudsuite import WORKLOAD_NAMES


def _csv(kind):
    def parse(text: str):
        try:
            return tuple(kind(item) for item in text.split(",") if item)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error))

    return parse


def _shard(text: str):
    try:
        return parse_shard(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _obs_flags(parser, trace: bool = True, quiet: bool = True) -> None:
    """The shared observability flags: ``-v``, ``--quiet``, ``--trace``.

    Every subcommand gets the same ``-v/--quiet`` verbosity ladder
    (``repro.obs.log``: quiet -> warnings only, default -> info,
    ``-v`` -> debug); commands that already define a ``--quiet`` with
    extra output-suppression semantics pass ``quiet=False`` and keep
    their own flag — it still feeds :func:`configure_logging`.
    """
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="verbose structured logging on stderr (repeatable)",
    )
    if quiet:
        parser.add_argument(
            "--quiet", action="store_true",
            help="log only warnings and errors",
        )
    if trace:
        parser.add_argument(
            "--trace", default=None, metavar="FILE",
            help="append NDJSON spans to FILE (exported as $REPRO_TRACE so "
            "worker processes share it; analyse with 'repro obs summarize')",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Footprint Cache (ISCA 2013) reproduction: run one experiment.",
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default="web_search")
    parser.add_argument("--design", choices=design_names(), default="footprint")
    parser.add_argument(
        "--capacity", type=int, default=256, metavar="MB",
        help="nominal (paper) cache capacity in MB (default 256)",
    )
    parser.add_argument(
        "--scale", type=int, default=256,
        help="capacity/dataset scale-down factor (default 256; 1 = paper-sized)",
    )
    parser.add_argument("--requests", type=int, default=120_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--page-size", type=int, default=2048)
    parser.add_argument(
        "--fht-entries", type=int, default=16384,
        help="footprint history entries (footprint design only)",
    )
    parser.add_argument(
        "--no-singleton", action="store_true",
        help="disable the Singleton Table capacity optimisation",
    )
    parser.add_argument(
        "--baseline", action="store_true",
        help="also run the no-cache baseline and report the improvement",
    )
    _obs_flags(parser)

    commands = parser.add_subparsers(dest="command", metavar="command")
    sweep = commands.add_parser(
        "sweep",
        help="run a (workload x design x capacity) grid through the "
        "experiment engine",
        description="Run a declarative experiment grid: points fan out over "
        "worker processes and land in the persistent result store, so "
        "re-runs are incremental.  The grid comes from the axis flags "
        "below, or from a serialised ExperimentSpec via --spec.",
    )
    sweep.add_argument(
        "--spec", default=None, metavar="FILE",
        help="load the grid from an ExperimentSpec JSON file "
        "(mutually exclusive with the axis flags)",
    )
    sweep.add_argument(
        "--workloads", type=_csv(str), default=None,
        metavar="A,B,...", help="comma-separated workloads (default web_search)",
    )
    sweep.add_argument(
        "--designs", type=_csv(str), default=None,
        metavar="A,B,...", help="comma-separated designs (default footprint)",
    )
    sweep.add_argument(
        "--capacities", type=_csv(int), default=None,
        metavar="MB,MB,...", help="comma-separated nominal capacities in MB",
    )
    sweep.add_argument(
        "--seeds", type=_csv(int), default=None, metavar="N,N,...",
        help="comma-separated trace seeds (default 0)",
    )
    sweep.add_argument(
        "--page-sizes", type=_csv(int), default=None, metavar="B,B,...",
        help="comma-separated page sizes in bytes (default 2048)",
    )
    sweep.add_argument(
        "--requests", type=int, default=None, dest="sweep_requests", metavar="N",
        help="trace length per point (default: capacity-aware)",
    )
    sweep.add_argument(
        "--scale", type=int, default=None, dest="sweep_scale",
        help="capacity/dataset scale-down factor (default 256)",
    )
    sweep.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1; 0 = one per CPU)",
    )
    sweep.add_argument(
        "--shard", type=_shard, default=None, metavar="I/N",
        help="run only shard I of N (deterministic grid partition; "
        "combine shard stores with 'repro store merge')",
    )
    sweep.add_argument(
        "--coordinator", default=None, metavar="URL",
        help="run uncached points on a worker fleet via this coordinator "
        "(a 'repro serve' base URL, e.g. http://host:8000); results "
        "land in the local --store byte-identically to a local run",
    )
    sweep.add_argument(
        "--dist-shards", type=int, default=0, metavar="N",
        help="with --coordinator: how many leases to partition the run "
        "into (default: coordinator's choice)",
    )
    sweep.add_argument(
        "--lease-seconds", type=float, default=None, metavar="S",
        help="with --coordinator: per-shard lease deadline before the "
        "shard is reassigned to another worker",
    )
    sweep.add_argument(
        "--plugin", action="append", default=None, metavar="MOD",
        help="module (dotted name or .py path) registering custom "
        "designs/workload profiles; loaded in workers too (repeatable)",
    )
    sweep.add_argument(
        "--no-cache", action="store_true",
        help="ignore stored results (fresh results are still recorded)",
    )
    sweep.add_argument(
        "--store", default=None, metavar="DIR",
        help="result store directory (default benchmarks/results/cache, "
        "or $REPRO_RESULT_STORE)",
    )
    _obs_flags(sweep)

    report = commands.add_parser(
        "report",
        help="regenerate paper figures/tables from the result store",
        description="Render registered paper figures.  Each figure declares "
        "the experiment grid it consumes; missing points are simulated "
        "through the sweep runner (and recorded in the store), everything "
        "else is served from the store, and the renderer writes the "
        "canonical text artifact(s) under benchmarks/results/.",
    )
    report.add_argument(
        "figures", nargs="*", metavar="FIGURE",
        help="figures to render (default: all; see --list)",
    )
    report.add_argument(
        "--list", action="store_true", dest="list_figures",
        help="list registered figures and their artifacts, then exit",
    )
    report.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for missing points (default 1; 0 = one per CPU)",
    )
    report.add_argument(
        "--plugin", action="append", default=None, metavar="MOD",
        help="module registering custom designs/profiles/figures, loaded "
        "before rendering (repeatable)",
    )
    report.add_argument(
        "--no-cache", action="store_true",
        help="ignore stored results (fresh results are still recorded)",
    )
    report.add_argument(
        "--store", default=None, metavar="DIR",
        help="result store directory (default benchmarks/results/cache, "
        "or $REPRO_RESULT_STORE)",
    )
    report.add_argument(
        "--out", default=None, metavar="DIR",
        help="artifact output directory (default benchmarks/results)",
    )
    report.add_argument(
        "--csv", action="store_true",
        help="also write each tabular artifact as <name>.csv",
    )
    report.add_argument(
        "--quiet", action="store_true",
        help="suppress per-point progress and rendered tables; print only "
        "the summary lines",
    )
    _obs_flags(report, quiet=False)

    serve = commands.add_parser(
        "serve",
        help="serve the sweep engine over HTTP (API + async job queue)",
        description="Run the simulation service: a versioned HTTP API "
        "(/api/v1) accepting ExperimentSpec JSON (the --spec file format) "
        "as asynchronous jobs on a bounded worker pool.  Poll or stream "
        "per-point progress, cancel between points, fetch results as "
        "JSON/CSV and rendered figures; the result store is the cache "
        "tier — warm points answer instantly, misses fan out through the "
        "execution backend.  The HTTP server needs nothing beyond the "
        "standard library.",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1; 0.0.0.0 in a container)",
    )
    serve.add_argument(
        "--port", type=int, default=8000, help="TCP port (default 8000)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent jobs (job-manager pool bound, default 2)",
    )
    serve.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes per job for simulated points, like "
        "'sweep --jobs' (default 1; 0 = one per CPU)",
    )
    serve.add_argument(
        "--store", default=None, metavar="DIR",
        help="result store directory shared with the CLI writers "
        "(default benchmarks/results/cache, or $REPRO_RESULT_STORE)",
    )
    serve.add_argument(
        "--journal", default=None, metavar="FILE",
        help="JSONL job journal for restart visibility (default "
        "<store>/serve_journal.jsonl; 'none' disables)",
    )
    serve.add_argument(
        "--allow-plugins", action="store_true",
        help="accept specs whose 'plugins' field loads modules into the "
        "server process (off by default: plugins are arbitrary code)",
    )
    serve.add_argument(
        "--quiet", action="store_true",
        help="suppress per-request access logging",
    )
    serve.add_argument(
        "--coordinator-journal", default=None, metavar="FILE",
        help="JSONL journal of distributed-run state for coordinator "
        "restarts (default <store>/coordinator_journal.jsonl; "
        "'none' disables)",
    )
    serve.add_argument(
        "--lease-seconds", type=float, default=60.0, metavar="S",
        help="default per-shard lease deadline for distributed runs "
        "(default 60; submitters may override per run)",
    )
    _obs_flags(serve, quiet=False)

    worker = commands.add_parser(
        "worker",
        help="join a coordinator's worker fleet for distributed sweeps",
        description="Run a sweep worker: lease shards of distributed runs "
        "from a coordinator (a 'repro serve' instance), simulate them "
        "through a local execution backend, and stream results back.  "
        "Workers are stateless — kill one mid-shard and the coordinator "
        "reassigns its lease after the deadline; results are "
        "deterministic, so retries and duplicates cannot change any "
        "stored byte.",
    )
    worker.add_argument(
        "--coordinator", required=True, metavar="URL",
        help="coordinator base URL (a running 'repro serve', "
        "e.g. http://host:8000)",
    )
    worker.add_argument(
        "--id", dest="worker_id", default=None, metavar="NAME",
        help="worker name shown in coordinator snapshots "
        "(default: a random worker-<hex> id)",
    )
    worker.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="local worker processes per shard, like 'sweep --jobs' "
        "(default 1; 0 = one per CPU)",
    )
    worker.add_argument(
        "--poll", type=float, default=1.0, metavar="S",
        help="idle poll interval in seconds (default 1)",
    )
    worker.add_argument(
        "--max-idle", type=float, default=None, metavar="S",
        help="exit after this long with nothing to lease "
        "(default: poll forever)",
    )
    worker.add_argument(
        "--kill-after", type=int, default=None, metavar="N",
        help="fault injection: crash before delivering result N+1 "
        "(exit code 3; used by the distributed-smoke CI job)",
    )
    worker.add_argument(
        "--plugin", action="append", default=None, metavar="MOD",
        help="module registering custom designs/workload profiles, "
        "loaded before any shard runs (repeatable)",
    )
    worker.add_argument(
        "--quiet", action="store_true",
        help="suppress per-shard progress lines",
    )
    _obs_flags(worker, quiet=False)

    store = commands.add_parser(
        "store",
        help="inspect and maintain the persistent result store",
        description="The JSONL result store is append-only: engine-version "
        "bumps, re-runs and crashes leave dead lines behind.  'stats' "
        "classifies every line; 'compact' rewrites the file keeping only "
        "live records (byte-for-byte); 'gc' additionally drops records "
        "that no registered figure references; 'merge' folds source "
        "stores (e.g. per-shard stores) into a destination with "
        "conflict detection.",
    )
    store.add_argument(
        "action", choices=("stats", "compact", "gc", "merge"),
        help="stats: classify lines; compact: drop stale/orphaned/duplicate/"
        "torn records; gc: compact plus drop figure-unreferenced records; "
        "merge: fold SRC stores into --into",
    )
    store.add_argument(
        "sources", nargs="*", metavar="SRC",
        help="source store directories (merge only)",
    )
    store.add_argument(
        "--into", default=None, metavar="DIR",
        help="destination store directory (merge only)",
    )
    store.add_argument(
        "--store", default=None, metavar="DIR",
        help="result store directory (default benchmarks/results/cache, "
        "or $REPRO_RESULT_STORE)",
    )
    _obs_flags(store, trace=False)

    obs = commands.add_parser(
        "obs",
        help="analyse observability artifacts (span traces)",
        description="Work with the NDJSON span traces written by "
        "--trace/$REPRO_TRACE: 'summarize' validates every record "
        "against the checked-in span schema and renders a per-phase "
        "time profile, the store hit ratio, per-worker throughput and "
        "the lease ledger of any distributed runs in the trace.",
    )
    obs.add_argument(
        "action", choices=("summarize",),
        help="summarize: per-phase profile of one trace file",
    )
    obs.add_argument(
        "trace_file", metavar="TRACE.ndjson",
        help="span trace written by --trace or $REPRO_TRACE",
    )
    obs.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="rows per table (default 10)",
    )
    obs.add_argument(
        "--json", action="store_true", dest="obs_json",
        help="emit the raw summary as JSON instead of tables",
    )
    _obs_flags(obs, trace=False)
    return parser


def _run_single(args) -> int:
    cache_kwargs = {}
    if args.design == "footprint":
        cache_kwargs["fht_entries"] = args.fht_entries
        cache_kwargs["singleton_optimization"] = not args.no_singleton
    config = SimulationConfig.scaled(
        args.workload,
        args.design,
        args.capacity,
        scale=args.scale,
        num_requests=args.requests,
        seed=args.seed,
        page_size=args.page_size,
        **cache_kwargs,
    )
    result = Simulator(config).run()

    rows = [
        ("miss ratio", percent(result.miss_ratio)),
        ("hit ratio", percent(result.hit_ratio)),
        ("off-chip traffic (vs baseline)", f"{result.offchip_traffic_normalized:.2f}x"),
        ("aggregate IPC", f"{result.aggregate_ipc:.2f}"),
        ("off-chip energy / instr", f"{result.offchip_energy_per_instruction():.3f} nJ"),
        ("stacked energy / instr", f"{result.stacked_energy_per_instruction():.3f} nJ"),
    ]
    if result.predictor_coverage is not None:
        rows.append(("predictor coverage", percent(result.predictor_coverage)))
        rows.append(("predictor overprediction", percent(result.predictor_overprediction)))
        rows.append(("singleton bypasses", percent(result.bypass_ratio)))
    if args.baseline:
        baseline_config = SimulationConfig.scaled(
            args.workload, "baseline", args.capacity,
            scale=args.scale, num_requests=args.requests, seed=args.seed,
        )
        baseline = Simulator(baseline_config).run()
        rows.append(("improvement over baseline", percent(result.improvement_over(baseline))))

    title = (
        f"{args.workload} / {args.design} / {args.capacity}MB "
        f"(scale {args.scale}, {args.requests} requests)"
    )
    print(format_table(("metric", "value"), rows, title=title))
    return 0


_GRID_FLAGS = (
    ("workloads", "--workloads"),
    ("designs", "--designs"),
    ("capacities", "--capacities"),
    ("seeds", "--seeds"),
    ("page_sizes", "--page-sizes"),
    ("sweep_requests", "--requests"),
    ("sweep_scale", "--scale"),
)


def _sweep_spec(args) -> ExperimentSpec:
    """The grid to run: from ``--spec FILE`` or from the axis flags."""
    if args.spec is not None:
        clashes = [flag for name, flag in _GRID_FLAGS if getattr(args, name) is not None]
        if clashes:
            raise ValueError(
                f"--spec cannot be combined with axis flags ({', '.join(clashes)})"
            )
        try:
            with open(args.spec) as handle:
                return ExperimentSpec.from_json(handle.read())
        except OSError as error:
            raise ValueError(f"cannot read spec file: {error}") from None
    # `is not None` throughout: an explicitly empty flag value (e.g. an
    # unset shell variable in --workloads "$WL") must hit ExperimentSpec's
    # must-not-be-empty validation, not silently become the default.
    return ExperimentSpec(
        workloads=args.workloads if args.workloads is not None else ("web_search",),
        designs=args.designs if args.designs is not None else ("footprint",),
        capacities_mb=args.capacities if args.capacities is not None else (256,),
        seeds=args.seeds if args.seeds is not None else (0,),
        page_sizes=args.page_sizes if args.page_sizes is not None else (2048,),
        num_requests=args.sweep_requests if args.sweep_requests is not None else 0,
        scale=args.sweep_scale if args.sweep_scale is not None else 256,
    )


def _run_sweep(args) -> int:
    plugins = tuple(args.plugin or ())
    try:
        # Plugins first: the axis flags may name the designs/profiles
        # they register.  (A spec file's own `plugins` load with it.)
        load_plugins(plugins)
        spec = _sweep_spec(args)
        for point in spec.points():
            point.config()  # surface capacity/page-size/request errors now
        if args.coordinator is not None:
            if args.shard is not None:
                raise ValueError(
                    "--shard partitions a local run; --coordinator already "
                    "shards on the fleet — use --dist-shards instead"
                )
            from repro.exp import DistributedBackend

            backend = DistributedBackend(
                args.coordinator,
                shards=args.dist_shards,
                lease_seconds=args.lease_seconds,
            )
        else:
            backend = make_backend(jobs=args.jobs, shard=args.shard)
    except (TypeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    store = ResultStore(args.store)

    def progress(tick) -> None:
        status = "hit" if tick.cached else "run"
        print(
            f"[{tick.completed}/{tick.total}] {tick.point.label():40s} {status}",
            flush=True,
        )

    runner = SweepRunner(
        store=store,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        progress=None if args.quiet else progress,
        backend=backend,
        plugins=plugins,
    )
    started = time.perf_counter()
    try:
        sweep = runner.run(spec)
    except ValueError as error:
        # Config errors only caught at system-build time (e.g. a capacity
        # that is not a whole number of sets) surface here, from workers
        # included — report them like any other invalid grid value.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except TransportError as error:
        # Distributed runs: the coordinator went away (or never was).
        print(f"error: coordinator unreachable: {error}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    rows = [
        (
            point.label(),
            f"{point.resolved_requests}",
            percent(result.miss_ratio),
            f"{result.offchip_traffic_normalized:.2f}x",
            f"{result.aggregate_ipc:.2f}",
        )
        for point, result in sweep.items()
    ]
    if not args.quiet:
        print()
        print(
            format_table(
                ("point", "requests", "miss ratio", "off-chip traffic", "IPC"),
                rows,
                title=f"Sweep over {len(sweep)} points",
            )
        )
    shard = (
        f"shard {args.shard[0]}/{args.shard[1]}: " if args.shard is not None else ""
    )
    summary = (
        f"{shard}{len(sweep)} points in {elapsed:.1f}s: {sweep.hits} cache "
        f"hits, {sweep.misses} simulated (store: {store.path})"
    )
    if sweep.misses == 0:
        summary += " — all points served from cache"
    print(summary)
    return 0


def _run_report(args) -> int:
    # Imported lazily: the registry builds every figure's spec on import.
    # Plugins load first so they can register designs, profiles — and
    # figures, which then render like any built-in deliverable.
    try:
        load_plugins(tuple(args.plugin or ()))
        backend = make_backend(jobs=args.jobs)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    from repro.exp.store import default_results_dir
    from repro.reporting import figure_names, get_figure, run_figure, write_artifacts

    if args.list_figures:
        rows = [
            (name, get_figure(name).title, ", ".join(get_figure(name).artifacts))
            for name in figure_names()
        ]
        print(format_table(("figure", "title", "artifacts"), rows))
        return 0

    names = args.figures or list(figure_names())
    unknown = [name for name in names if name not in figure_names()]
    if unknown:
        print(
            f"error: unknown figure(s) {', '.join(unknown)}; "
            f"one of: {', '.join(figure_names())}",
            file=sys.stderr,
        )
        return 2

    store = ResultStore(args.store)
    out_dir = args.out or default_results_dir()

    def progress(tick) -> None:
        status = "hit" if tick.cached else "run"
        print(
            f"[{tick.completed}/{tick.total}] {tick.point.label():40s} {status}",
            flush=True,
        )

    started = time.perf_counter()
    total_points = total_hits = total_simulated = 0
    summaries = []
    for name in names:
        try:
            output = run_figure(
                name,
                store=store,
                jobs=args.jobs,
                use_cache=not args.no_cache,
                progress=None if args.quiet else progress,
                backend=backend,
                plugins=tuple(args.plugin or ()),
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        paths = write_artifacts(output, out_dir, with_csv=args.csv)
        if not args.quiet:
            for artifact in output.artifacts:
                print()
                print(artifact.text)
        total_points += output.points
        total_hits += output.hits
        total_simulated += output.simulated
        summaries.append(
            f"{name}: {output.points} points ({output.hits} cache hits, "
            f"{output.simulated} simulated) -> "
            f"{', '.join(os.path.basename(p) for p in paths)}"
        )
    elapsed = time.perf_counter() - started

    print()
    for line in summaries:
        print(line)
    summary = (
        f"{len(names)} figure(s), {total_points} points in {elapsed:.1f}s: "
        f"{total_hits} cache hits, {total_simulated} simulated "
        f"(store: {store.path})"
    )
    if total_points > 0 and total_simulated == 0:
        summary += " — all points served from the result store"
    print(summary)
    return 0


def _run_serve(args) -> int:
    # Imported lazily: the serve layer pulls in the reporting registry
    # (for figure jobs) which builds every figure's spec on import.
    from repro.exp.store import default_store_dir
    from repro.serve import Coordinator, JobManager, SimulationService
    from repro.serve.httpd import serve_forever

    store_dir = args.store if args.store is not None else default_store_dir()
    journal = args.journal
    if journal is None:
        journal = os.path.join(store_dir, "serve_journal.jsonl")
    elif journal.lower() == "none":
        journal = None
    coordinator_journal = args.coordinator_journal
    if coordinator_journal is None:
        coordinator_journal = os.path.join(store_dir, "coordinator_journal.jsonl")
    elif coordinator_journal.lower() == "none":
        coordinator_journal = None
    try:
        manager = JobManager(
            store_dir=store_dir,
            workers=args.workers,
            jobs=args.jobs,
            journal_path=journal,
        )
        coordinator = Coordinator(
            store_dir=store_dir,
            journal_path=coordinator_journal,
            lease_seconds=args.lease_seconds,
            allow_plugins=args.allow_plugins,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    service = SimulationService(
        manager, allow_plugins=args.allow_plugins, coordinator=coordinator
    )
    serve_forever(service, host=args.host, port=args.port, quiet=args.quiet)
    return 0


def _run_worker(args) -> int:
    # Lazy import keeps 'repro sweep --help' fast and the serve layer
    # optional for purely local use.
    from repro.serve.faults import FaultyWorker
    from repro.serve.worker import WorkerKilled, WorkerLoop

    plugins = tuple(args.plugin or ())
    try:
        load_plugins(plugins)
        backend = make_backend(jobs=args.jobs)
    except (TypeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    kwargs = dict(
        backend=backend,
        worker_id=args.worker_id,
        plugins=plugins,
        poll_seconds=args.poll,
        max_idle_seconds=args.max_idle,
        quiet=args.quiet,
    )
    if args.kill_after is not None:
        loop: WorkerLoop = FaultyWorker(
            args.coordinator, kill_after=args.kill_after, **kwargs
        )
    else:
        loop = WorkerLoop(args.coordinator, **kwargs)
    try:
        loop.run()
    except WorkerKilled as error:
        print(f"worker killed (fault injection): {error}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        pass
    print(
        f"worker {loop.worker_id}: {loop.shards_completed} shard(s), "
        f"{loop.delivered_total} result(s) delivered"
    )
    return 0


def _run_store(args) -> int:
    if args.action == "merge":
        return _run_store_merge(args)
    if args.sources or args.into:
        print(
            f"error: SRC arguments and --into only apply to 'store merge', "
            f"not 'store {args.action}'",
            file=sys.stderr,
        )
        return 2
    store = ResultStore(args.store)
    if args.action == "stats":
        stats = store.stats()
        rows = [
            ("total lines", str(stats.total_lines)),
            ("live", str(stats.live)),
            ("stale engine", str(stats.stale_engine)),
            ("orphaned", str(stats.orphaned)),
            ("duplicates", str(stats.duplicates)),
            ("torn lines", str(stats.torn)),
            ("file size", f"{stats.file_bytes} bytes"),
            ("reclaimable", str(stats.reclaimable)),
        ]
        print(format_table(("metric", "value"), rows, title=f"Store {stats.path}"))
        return 0

    if args.action == "gc":
        # Everything any registered figure consumes stays warm; the rest
        # (abandoned one-off sweeps, retired grids) is garbage.
        from repro.reporting import referenced_points

        result = store.gc(referenced_points())
    else:
        result = store.compact()
    print(
        f"{args.action}: kept {result.kept} records, dropped {result.dropped} "
        f"({result.dropped_stale} stale engine, {result.dropped_orphaned} "
        f"orphaned, {result.dropped_duplicates} duplicate, "
        f"{result.dropped_torn} torn, {result.dropped_unreferenced} "
        f"unreferenced); {result.bytes_before} -> {result.bytes_after} bytes"
    )
    return 0


def _run_store_merge(args) -> int:
    if not args.sources:
        print("error: store merge needs at least one SRC directory",
              file=sys.stderr)
        return 2
    if args.into is None:
        print("error: store merge needs --into DIR", file=sys.stderr)
        return 2
    if args.store is not None:
        print("error: store merge takes --into, not --store", file=sys.stderr)
        return 2
    destination = ResultStore(args.into)
    try:
        stats = destination.merge(ResultStore(source) for source in args.sources)
    except ValueError as error:  # includes StoreMergeConflict
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"merge: {stats.merged} record(s) from {len(stats.sources)} store(s) "
        f"into {stats.destination} ({stats.duplicates} duplicate(s) skipped)"
    )
    return 0


def _run_obs(args) -> int:
    # Imported lazily: only the obs subcommand reads traces back.
    import json

    from repro.obs import render_summary, summarize_trace

    try:
        summary = summarize_trace(args.trace_file, top=args.top)
    except OSError as error:
        print(f"error: cannot read trace: {error}", file=sys.stderr)
        return 2
    if args.obs_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_summary(summary))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(
        verbose=getattr(args, "verbose", 0),
        quiet=bool(getattr(args, "quiet", False)),
    )
    trace_path = getattr(args, "trace", None) or os.environ.get("REPRO_TRACE")
    if trace_path:
        # Re-configure even when the path came from the environment so
        # every entrypoint labels its spans (cli.serve, cli.worker, ...)
        # instead of the anonymous per-process default.
        configure_tracer(trace_path, process=f"cli.{args.command or 'run'}")
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "report":
        return _run_report(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "worker":
        return _run_worker(args)
    if args.command == "store":
        return _run_store(args)
    if args.command == "obs":
        return _run_obs(args)
    return _run_single(args)


if __name__ == "__main__":
    sys.exit(main())
