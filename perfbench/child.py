"""Benchmark-owned entry point: one fresh process per sample.

    python perfbench/child.py setup --store DIR --result FILE
    python perfbench/child.py report --store DIR --out DIR --result FILE \
        [--seed N] [--spans FILE] [FIGURE ...]
    python perfbench/child.py probe --store DIR --scratch DIR --result FILE
    python perfbench/child.py serve --result FILE --spans FILE -- serve [ARGS]
    python perfbench/child.py resimulate --specs FILE --store DIR

``setup`` and ``report`` first do what a report process does before its
action: import the CLI and the reporting stack, then open the private
store.  They record the monotonic time at that point so the parent can
time the process from spawn (``setup_s``).  ``report`` then runs
``python -m repro report`` in-process through ``repro.__main__.main``
with the CLI's default flags, recording each figure job.  ``probe``
runs beside a report and samples the store's health and write paths on
a copy of the checked-in store until SIGTERM.  ``serve`` installs the
layer wrappers in the server process and hands over to ``python -m
repro serve``; SIGINT makes the CLI return, and the spans are written
out.  ``resimulate`` recomputes points in a fresh store, as the
reference for records written by serve jobs.

Run with ``PYTHONPATH=src`` from the repository root (run.py does).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

PROBE_INTERVAL = 0.08  # seconds between store probe steps


def _open_store(directory: str) -> None:
    """Import what a report process imports and load the private store."""
    import repro.__main__  # noqa: F401 - the CLI and everything it imports
    import repro.reporting  # noqa: F401 - built lazily by the report command
    from repro.exp.store import ResultStore

    len(ResultStore(directory))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle)


def cmd_setup(args) -> int:
    _open_store(args.store)
    _write_json(args.result, {"ready": time.monotonic()})
    return 0


def _reseed(names, seed: int) -> None:
    """Point the named figures' grids at trace seed ``seed``."""
    from repro.reporting import registry

    for name in names:
        figure = registry._REGISTRY[name]
        registry._REGISTRY[name] = dataclasses.replace(
            figure,
            specs={
                key: dataclasses.replace(spec, seeds=(seed,))
                for key, spec in figure.specs.items()
            },
        )


def _record_figure_jobs(jobs: list) -> None:
    """Record each figure the CLI runs: its time, point counts, artifacts."""
    import repro.reporting as reporting

    run_figure = reporting.run_figure

    def recorded_run_figure(name, **kwargs):
        began = time.perf_counter()
        output = run_figure(name, **kwargs)
        jobs.append({
            "figure": name,
            "run_s": time.perf_counter() - began,
            "points": output.points,
            "hits": output.hits,
            "simulated": output.simulated,
            "artifacts": [artifact.name for artifact in output.artifacts],
        })
        return output

    reporting.run_figure = recorded_run_figure


def cmd_probe(args) -> int:
    """Probe the store's read and write paths until SIGTERM.

    Each step opens the store fresh and counts its records, as
    ``GET /api/v1/health`` does, then opens a fresh copy and re-puts one
    of its records, as a spec job appends its result.  Steps are spaced
    ``PROBE_INTERVAL`` apart so the samples spread over the whole report
    they run beside; after SIGTERM, probing goes on until there are
    ``--min-samples`` steps.  ``--store`` holds a private copy of the
    checked-in store; ``--scratch`` is recopied from it before each put.

    A health sample is the fastest of three back-to-back opens: on a
    shared host, single opens of a few milliseconds catch scheduler
    stalls of tens of milliseconds, and their p95 measured the host.
    """
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    import shutil

    from repro.exp.store import STORE_FILENAME, ResultStore
    from repro.reporting import referenced_points

    reader = ResultStore(args.store)
    records = [(point, reader.get(point)) for point in referenced_points()]
    records = [(point, result) for point, result in records if result is not None]
    source = os.path.join(args.store, STORE_FILENAME)
    copy = os.path.join(args.scratch, STORE_FILENAME)
    os.makedirs(args.scratch, exist_ok=True)
    health_s, write_s = [], []
    step = 0
    while not stopping or step < args.min_samples:
        began = time.perf_counter()
        opens = []
        for _ in range(3):
            start = time.perf_counter()
            len(ResultStore(args.store))
            opens.append(time.perf_counter() - start)
        health_s.append(min(opens))
        shutil.copyfile(source, copy)
        point, result = records[step % len(records)]
        put = time.perf_counter()
        ResultStore(args.scratch).put(point, result)
        write_s.append(time.perf_counter() - put)
        step += 1
        time.sleep(max(0.0, PROBE_INTERVAL - (time.perf_counter() - began)))
    _write_json(args.result, {"health_s": health_s, "write_s": write_s})
    return 0


def cmd_report(args) -> int:
    _open_store(args.store)
    ready = time.monotonic()
    from repro.__main__ import main
    from repro.workloads.trace import shared_trace_cache

    recorder = None
    if args.spans:
        from layers import Recorder, install

        recorder = Recorder("bench.report")
        install(recorder)
    if args.seed:
        from repro.reporting import figure_names

        _reseed(args.figures or figure_names(), args.seed)
    jobs: list = []
    _record_figure_jobs(jobs)

    argv = ["report", *args.figures, "--store", args.store, "--out", args.out]
    began = time.perf_counter()
    if recorder is not None:
        with recorder.span("bench.report"):
            status = main(argv)
    else:
        status = main(argv)
    wall = time.perf_counter() - began
    sys.stdout.flush()
    peak = _peak_rss_mb()

    result = {
        "ready": ready,
        "status": status,
        "wall_s": wall,
        "peak_rss_mb": peak,
        "jobs": jobs,
        "trace_cache": shared_trace_cache().stats(),
    }
    if recorder is not None:
        recorder.write(args.spans)
        result["recorder_counts"] = dict(recorder.counts)
    _write_json(args.result, result)
    return 0


def cmd_serve(args) -> int:
    from layers import Recorder, install
    from repro.__main__ import main
    from repro.workloads.trace import shared_trace_cache

    recorder = Recorder("bench.serve")
    install(recorder, serve=True)
    # The parent stops the server with SIGINT; SIGTERM ends it the same way.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        status = main(args.serve_args)
    finally:
        recorder.write(args.spans)
        _write_json(args.result, {
            "recorder_counts": dict(recorder.counts),
            "trace_cache": shared_trace_cache().stats(),
        })
    return status


def cmd_resimulate(args) -> int:
    from repro.exp import ExperimentSpec, ResultStore, SweepRunner

    with open(args.specs) as handle:
        specs = json.load(handle)
    runner = SweepRunner(store=ResultStore(args.store))
    for payload in specs:
        runner.run(ExperimentSpec.from_dict(payload))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    commands = parser.add_subparsers(dest="command", required=True)

    setup = commands.add_parser("setup")
    setup.add_argument("--store", required=True)
    setup.add_argument("--result", required=True)

    report = commands.add_parser("report")
    report.add_argument("figures", nargs="*")
    report.add_argument("--store", required=True)
    report.add_argument("--out", required=True)
    report.add_argument("--result", required=True)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--spans", default=None)

    probe = commands.add_parser("probe")
    probe.add_argument("--store", required=True)
    probe.add_argument("--scratch", required=True)
    probe.add_argument("--result", required=True)
    probe.add_argument("--min-samples", type=int, default=200)

    serve = commands.add_parser("serve")
    serve.add_argument("--result", required=True)
    serve.add_argument("--spans", required=True)
    serve.add_argument("serve_args", nargs=argparse.REMAINDER)

    resimulate = commands.add_parser("resimulate")
    resimulate.add_argument("--specs", required=True)
    resimulate.add_argument("--store", required=True)

    args = parser.parse_args(argv)
    if args.command == "serve" and args.serve_args[:1] == ["--"]:
        args.serve_args = args.serve_args[1:]
    handlers = {
        "setup": cmd_setup,
        "report": cmd_report,
        "probe": cmd_probe,
        "serve": cmd_serve,
        "resimulate": cmd_resimulate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
