#!/usr/bin/env python3
"""The repository benchmark: warm report, cold report, mixed serve load.

    python3 perfbench/run.py --workload report-warm --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Every sample runs the program in a
fresh process on private copies of the result store, at the program's
defaults (no ``--engine`` flag, every ``REPRO_*`` variable cleared).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` adds one
traced sample whose layer wrappers (``layers.py``) give the per-layer
metrics.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Metric names and
units come from ``BENCHMARK.json``; README.md says what each one means
and which layer metric should move which end-to-end metric.

Outputs are checked while measuring, and every failed check counts as a
failed operation: artifacts against the golden ``benchmarks/results``
files, simulated records against the checked-in store, every serve job
ending ``done``, and exact counts repeating between samples and runs.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / "benchmarks" / "results"
GOLDEN_STORE = RESULTS / "cache" / "results.jsonl"
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

WORKLOADS = ("report-warm", "report-cold", "serve-mixed")

#: The cold report: Fig. 1 and Table 1, 21 points over all six workloads.
COLD_FIGURES = ("fig01", "table1")
FULL_POINTS = {"report-warm": 331, "report-cold": 21}
#: Reduced figure sets of ``--smoke`` (the benchmark's own tests).
SMOKE_FIGURES = {"report-warm": ("table1", "table4"), "report-cold": ("table1",)}

SETUP_SAMPLES = 6          # setup spawns measured per run (median)
PROBE_SAMPLES = 200        # store probes per report sample, at least
WRITE_EVERY = 16           # thread B submits a cold spec job every Nth step
WRITE_REQUESTS = 3000      # trace length of a cold spec job
WRITE_DESIGNS = ("footprint", "page", "block", "baseline")
HTTP_TIMEOUT = 60.0
CHILD_TIMEOUT = 170.0

LIVE: List[subprocess.Popen] = []


class Failed(Exception):
    """A sample that could not be taken at all."""


class Tally:
    """Operations attempted and failed; failure messages go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self._lock = threading.Lock()

    def check(self, ok: bool, message: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failures.append(message)
                print(f"perfbench: FAILED {message}", file=sys.stderr, flush=True)
        return ok


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    """The environment of every program process: defaults, private paths."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=None):
    proc = subprocess.Popen(
        [str(c) for c in cmd], cwd=ROOT, env=env or child_env(),
        stdout=stdout, stderr=stderr,
    )
    LIVE.append(proc)
    return proc


def stop(proc: subprocess.Popen, sig=signal.SIGINT, grace: float = 15.0) -> None:
    """Stop ``proc`` with ``sig``, then SIGKILL; always wait for it."""
    if proc.poll() is None:
        try:
            proc.send_signal(sig)
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc in LIVE:
        LIVE.remove(proc)


def stop_all(*_args) -> None:
    for proc in list(LIVE):
        stop(proc, signal.SIGKILL)
    if _args:  # called as a signal handler
        sys.exit(1)


def run_child(args, log: Path) -> None:
    with open(log, "w") as handle:
        proc = spawn([sys.executable, HERE / "child.py", *args],
                     stdout=handle, stderr=subprocess.STDOUT)
        try:
            status = proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            status = "timeout"
        finally:
            stop(proc, signal.SIGKILL)
    if status != 0:
        tail = log.read_text()[-2000:] if log.exists() else ""
        raise Failed(f"child {args[0]} exited {status}: {tail}")


# ----------------------------------------------------------------------
# Statistics and files
# ----------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 1]); 0.0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def store_lines(path: Path) -> List[str]:
    if not path.exists():
        return []
    return [line for line in path.read_text().splitlines() if line.strip()]


def line_key(line: str) -> str:
    return json.loads(line)["key"]


def golden_records() -> Dict[str, str]:
    return {line_key(line): line for line in store_lines(GOLDEN_STORE)}


def source_digest() -> str:
    """Content hash of the program, so stored counts never cross versions."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def load_spans_module():
    """``repro.obs.spans`` alone (stdlib-only), without importing the package."""
    spec = importlib.util.spec_from_file_location(
        "repro_obs_spans", SRC / "repro" / "obs" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_spans(path: Path, tally: Tally) -> List[dict]:
    """Every span record of a trace file, each checked against the schema."""
    spans = load_spans_module()
    schema = spans.load_span_schema()
    records = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        record = json.loads(line)
        errors = spans.validate_span(record, schema)
        tally.check(not errors, f"span {path.name}:{number} invalid: {errors}")
        records.append(record)
    return records


def stamp(args) -> dict:
    """Where and what was measured."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source": source_digest(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
    }


def check_counts(tally: Tally, label: str, samples: List[dict]) -> None:
    """Exact counts must repeat between samples of a run and between runs."""
    merged: dict = {}
    for counts in samples:
        for name, value in counts.items():
            if name in merged:
                tally.check(
                    merged[name] == value,
                    f"count {name} changed between samples: {merged[name]} != {value}",
                )
            else:
                merged[name] = value
    path = STATE / "counts" / f"{label}-{source_digest()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    known = json.loads(path.read_text()) if path.exists() else {}
    for name, value in merged.items():
        if name in known:
            tally.check(
                known[name] == value,
                f"count {name} changed between runs: {known[name]} != {value}",
            )
    known.update(merged)
    path.write_text(json.dumps(known, sort_keys=True))


# ----------------------------------------------------------------------
# report-warm / report-cold
# ----------------------------------------------------------------------


class ReportWorkload:
    def __init__(self, args, work: Path, tally: Tally) -> None:
        self.args = args
        self.work = work
        self.tally = tally
        self.cold = args.workload == "report-cold"
        if args.smoke:
            self.figures = SMOKE_FIGURES[args.workload]
        else:
            self.figures = COLD_FIGURES if self.cold else ()
        # Seed 0 is the seed of the goldens; the warm report's inputs are
        # fixed by the checked-in store, so only the cold grids re-seed.
        self.seed = args.seed if self.cold else 0
        self.goldens = golden_records()
        self.samples = 0

    def fresh_store(self) -> Path:
        self.samples += 1
        store = self.work / f"store{self.samples}"
        store.mkdir()
        if not self.cold:
            shutil.copyfile(GOLDEN_STORE, store / "results.jsonl")
        return store

    def setup_probe(self) -> float:
        store = self.fresh_store()
        result = self.work / f"setup{self.samples}.json"
        began = time.monotonic()
        run_child(["setup", "--store", store, "--result", result],
                  self.work / f"setup{self.samples}.log")
        return json.loads(result.read_text())["ready"] - began

    def start_prober(self):
        """The store prober that runs beside an untraced report sample."""
        probe = self.work / f"probe{self.samples}"
        probe.mkdir()
        shutil.copyfile(GOLDEN_STORE, probe / "results.jsonl")
        result = self.work / f"probe{self.samples}.json"
        log = open(self.work / f"probe{self.samples}.log", "w")
        proc = spawn([sys.executable, HERE / "child.py", "probe", "--store", probe,
                      "--scratch", self.work / f"scratch{self.samples}",
                      "--result", result,
                      "--min-samples", 1 if self.args.smoke else PROBE_SAMPLES],
                     stdout=log, stderr=subprocess.STDOUT)
        return proc, result, log

    def stop_prober(self, prober) -> dict:
        if prober is None:
            return {}
        proc, result, log = prober
        stop(proc, signal.SIGTERM, grace=CHILD_TIMEOUT)
        log.close()
        if proc.returncode != 0 or not result.exists():
            raise Failed(f"store prober exited {proc.returncode}")
        return json.loads(result.read_text())

    def sample(self, traced: bool) -> dict:
        store = self.fresh_store()
        out = self.work / f"out{self.samples}"
        result = self.work / f"report{self.samples}.json"
        cmd = ["report", *self.figures, "--store", store, "--out", out,
               "--result", result]
        if self.seed:
            cmd += ["--seed", self.seed]
        spans = self.work / f"spans{self.samples}.ndjson"
        if traced:
            cmd += ["--spans", spans]
            prober = None
        else:
            prober = self.start_prober()
        began = time.monotonic()
        try:
            run_child(cmd, self.work / f"report{self.samples}.log")
        finally:
            probes = self.stop_prober(prober)
        data = json.loads(result.read_text())
        data.update(probes)
        data["setup_s"] = data["ready"] - began
        data["counts"] = self.verify(data, store, out)
        if traced:
            data["spans"] = read_spans(spans, self.tally)
            for name in ("gen_requests", "replay_requests"):
                data["counts"][name] = data["recorder_counts"].get(name, 0)
        return data

    def verify(self, data: dict, store: Path, out: Path) -> dict:
        """Check one report sample; return its exact counts."""
        tally = self.tally
        tally.check(data["status"] == 0, f"report exited {data['status']}")
        points = hits = simulated = 0
        for job in data["jobs"]:
            points += job["points"]
            hits += job["hits"]
            simulated += job["simulated"]
            expected = (0, job["points"]) if self.cold else (job["points"], 0)
            tally.check(
                (job["hits"], job["simulated"]) == expected,
                f"{job['figure']}: {job['hits']} store hits, {job['simulated']} "
                f"simulated of {job['points']} points",
            )
            for name in job["artifacts"]:
                path = out / f"{name}.txt"
                if self.seed == 0:
                    golden = RESULTS / f"{name}.txt"
                    tally.check(
                        path.exists() and path.read_bytes() == golden.read_bytes(),
                        f"artifact {name}.txt differs from the golden",
                    )
                else:
                    tally.check(path.exists() and path.stat().st_size > 0,
                                f"artifact {name}.txt missing")
        if not self.args.smoke:
            tally.check(
                points == FULL_POINTS[self.args.workload],
                f"{points} points, expected {FULL_POINTS[self.args.workload]}",
            )
        lines = store_lines(store / "results.jsonl")
        keys = [line_key(line) for line in lines]
        if self.cold:
            # Each point is simulated and appended exactly once.
            tally.check(
                len(lines) == simulated == len(set(keys)),
                f"{len(lines)} store lines, {len(set(keys))} keys, "
                f"{simulated} simulated",
            )
            if self.seed == 0:
                for key, line in zip(keys, lines):
                    tally.check(self.goldens.get(key) == line,
                                f"record {key} differs from the checked-in store")
        else:
            tally.check(
                (store / "results.jsonl").read_bytes() == GOLDEN_STORE.read_bytes(),
                "warm report changed the store",
            )
        stats = data["trace_cache"]
        return {
            "figures": len(data["jobs"]),
            "points": points,
            "store_hits": hits,
            "simulated": simulated,
            "store_lines": len(lines),
            "store_keys": len(set(keys)),
            "trace_cache_hits": stats["hits"],
            "trace_cache_misses": stats["misses"],
            "trace_cache_evictions": stats["evictions"],
        }

    def run(self) -> dict:
        args = self.args
        if not args.smoke:
            self.setup_probe()  # warm the interpreter's bytecode and file caches
        samples = []
        began = time.monotonic()
        while True:
            started = time.monotonic()
            samples.append(self.sample(traced=False))
            samples[-1]["elapsed"] = time.monotonic() - started
            spent = time.monotonic() - began
            typical = median([s["elapsed"] for s in samples])
            if args.trace or spent + typical > args.seconds:
                break
        setups = [s["setup_s"] for s in samples]
        while len(setups) < (1 if args.smoke else SETUP_SAMPLES):
            setups.append(self.setup_probe())
        counts = [s["counts"] for s in samples]

        # On the report workloads one job is one report action.
        walls = [s["wall_s"] for s in samples]
        health = [h * 1000 for s in samples for h in s["health_s"]]
        writes = [w * 1000 for s in samples for w in s["write_s"]]
        metrics = {
            "setup_s": median(setups),
            "wall_s": median(walls),
            "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
            "job_p50_ms": percentile(walls, 0.50) * 1000,
            "job_p95_ms": percentile(walls, 0.95) * 1000,
            "write_p50_ms": percentile(writes, 0.50),
            "health_p50_ms": percentile(health, 0.50),
            "health_p95_ms": percentile(health, 0.95),
            "jobs_per_s": len(walls) / sum(walls),
        }
        sizes = {"setup_s": len(setups), "wall_s": len(walls), "job": len(walls),
                 "write": len(writes), "health": len(health),
                 "figure_jobs_ms": {j["figure"]: round(j["run_s"] * 1000, 3)
                                    for j in samples[-1]["jobs"]}}
        if args.trace:
            traced = self.sample(traced=True)
            counts.append(traced["counts"])
            metrics.update(self.layers(traced, median(walls)))
            sizes["traced_samples"] = 1
        label = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{self.seed}"
        check_counts(self.tally, label, counts)
        return {"metrics": metrics, "samples": sizes}

    def layers(self, traced: dict, untraced_wall: float) -> dict:
        from layers import layer_metrics, layer_self_total

        records = traced["spans"]
        counts = traced["counts"]
        metrics = layer_metrics(records, Counter(traced["recorder_counts"]),
                                traced["trace_cache"])
        metrics.update(serve_placeholders())
        metrics["exp.store.lines_per_key"] = lines_per_key(
            counts["store_lines"], counts["store_keys"]
        )
        metrics["obs.overhead_s"] = traced["wall_s"] - untraced_wall
        metrics["obs.coverage"] = (
            layer_self_total(records, ["bench.report"]) / traced["wall_s"]
        )
        return metrics


ROUTES = ("submit", "events", "results", "jobs", "health")


def serve_placeholders() -> dict:
    """Serve-only layer metrics, zero on the report workloads."""
    metrics = {"serve.queue_ms": 0.0, "serve.run_ms": 0.0}
    for route in ROUTES:
        metrics[f"serve.route_ms.{route}"] = 0.0
    return metrics


def lines_per_key(lines: int, keys: int) -> float:
    return lines / keys if keys else 0.0


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


def call(base, method: str, path: str, payload=None):
    """One HTTP request on a fresh connection: (status, body bytes)."""
    connection = http.client.HTTPConnection(*base, timeout=HTTP_TIMEOUT)
    try:
        body = None if payload is None else json.dumps(payload)
        headers = {} if payload is None else {"Content-Type": "application/json"}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class Server:
    """One ``repro serve`` process on a private store and an ephemeral port."""

    def __init__(self, work: Path, store: Path, tag: str, traced: bool) -> None:
        self.store = store
        self.spans = work / f"server-{tag}.ndjson"
        self.result = work / f"server-{tag}.json"
        serve_args = ["serve", "--store", store, "--port", "0"]
        if traced:
            cmd = [sys.executable, HERE / "child.py", "serve", "--result",
                   self.result, "--spans", self.spans, "--", *serve_args]
        else:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        self.log = open(work / f"server-{tag}.log", "w")
        # Unbuffered, so the line naming the ephemeral port arrives at once.
        env = dict(child_env(), PYTHONUNBUFFERED="1")
        began = time.monotonic()
        self.proc = spawn(cmd, stdout=subprocess.PIPE, stderr=self.log, env=env)
        try:
            self.base = ("127.0.0.1", self._port(began + CHILD_TIMEOUT))
            while True:
                try:
                    if call(self.base, "GET", "/api/v1/health")[0] == 200:
                        break
                except OSError:
                    pass
                if self.proc.poll() is not None or time.monotonic() > began + CHILD_TIMEOUT:
                    raise Failed(f"server {tag} never became healthy")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - began

    def _port(self, deadline: float) -> int:
        prefix = "repro-serve listening on http://"
        while time.monotonic() < deadline and self.proc.poll() is None:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode()
                if line.startswith(prefix):
                    return int(line[len(prefix):].split("/")[0].rsplit(":", 1)[1])
        raise Failed("server did not report its port")

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def peak_rss_mb(self) -> float:
        try:
            for line in open(f"/proc/{self.proc.pid}/status"):
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stop(self) -> None:
        stop(self.proc)
        self.proc.stdout.close()
        self.log.close()


class ServeWorkload:
    def __init__(self, args, work: Path, tally: Tally) -> None:
        self.args = args
        self.work = work
        self.tally = tally
        self.goldens = {p.name: p.read_bytes() for p in RESULTS.glob("*.txt")}
        self.stores = 0

    def fresh_store(self) -> Path:
        self.stores += 1
        store = self.work / f"store{self.stores}"
        store.mkdir()
        shutil.copyfile(GOLDEN_STORE, store / "results.jsonl")
        return store

    def run(self) -> dict:
        args = self.args
        setups = []
        spawns = 1 if args.smoke else SETUP_SAMPLES
        for index in range(spawns):
            server = Server(self.work, self.fresh_store(), f"setup{index}", False)
            server.stop()
            if index or args.smoke:  # the first spawn warms bytecode and file caches
                setups.append(server.setup_s)

        server = Server(self.work, self.fresh_store(), "main", False)
        setups.append(server.setup_s)
        try:
            catalog = self.catalog(server)
            load = self.closed_loop(server, catalog, recorder=None)
        finally:
            server.stop()
        self.verify_writes(server, load)

        rotations = load["rotations"] or [load["wall"]]
        metrics = {
            "setup_s": median(setups),
            "wall_s": median(rotations),
            "peak_rss_mb": load["peak_rss_mb"],
            "job_p50_ms": percentile(load["job_ms"], 0.50),
            "job_p95_ms": percentile(load["job_ms"], 0.95),
            "write_p50_ms": percentile(load["write_ms"], 0.50),
            "health_p50_ms": percentile(load["health_ms"], 0.50),
            "health_p95_ms": percentile(load["health_ms"], 0.95),
            "jobs_per_s": (len(load["job_ms"]) + len(load["write_ms"])) / load["wall"],
        }
        sizes = {"setup_s": len(setups), "wall_s": len(rotations),
                 "job": len(load["job_ms"]), "write": len(load["write_ms"]),
                 "health": len(load["health_ms"])}
        if args.trace:
            metrics.update(self.traced(catalog, median(rotations)))
        return {"metrics": metrics, "samples": sizes}

    def catalog(self, server: Server) -> dict:
        _, body = call(server.base, "GET", "/api/v1/figures")
        figures = [f for f in json.loads(body)["figures"] if f["points"]]
        _, body = call(server.base, "GET", "/api/v1/workloads")
        return {"figures": figures, "workloads": json.loads(body)["workloads"]}

    def write_spec(self, index: int, workloads) -> dict:
        """Cold one-point spec job ``index``; its trace seed derives from --seed.

        Workload and design cycle in a fixed order, so every seed mixes
        the same amount of simulation work into the load.
        """
        return {
            "workloads": [workloads[index % len(workloads)]],
            "designs": [WRITE_DESIGNS[index // len(workloads) % len(WRITE_DESIGNS)]],
            "capacities_mb": [256],
            "seeds": [1_000_000 + self.args.seed * 100_000 + index],
            "num_requests": WRITE_REQUESTS,
        }

    def closed_loop(self, server: Server, catalog: dict, recorder) -> dict:
        """Two client threads, one request in flight each, for --seconds."""
        tally = self.tally
        base = server.base
        routes: Dict[str, List[float]] = defaultdict(list)
        load = {"job_ms": [], "write_ms": [], "health_ms": [], "rotations": [],
                "writes": [], "routes": routes}
        stop_at = time.monotonic() + self.args.seconds
        if self.args.fault == "kill-server":
            threading.Timer(self.args.seconds / 2, server.proc.kill).start()

        def request(route: str, method: str, path: str, payload=None):
            began = time.monotonic()
            if recorder is None:
                status, body = call(base, method, path, payload)
            else:
                with recorder.span(f"serve.route.{route}"):
                    status, body = call(base, method, path, payload)
            routes[route].append((time.monotonic() - began) * 1000)
            if status not in (200, 202):
                raise Failed(f"{method} {path} -> {status}")
            return body

        def job(method: str, path: str, payload=None) -> Optional[dict]:
            """Submit, wait for the terminal event, fetch results."""
            snapshot = json.loads(request("submit", method, path, payload))
            job_id = snapshot["id"]
            events = request("events", "GET", f"/api/v1/jobs/{job_id}/events")
            last = json.loads(events.decode().strip().splitlines()[-1])
            results = json.loads(
                request("results", "GET", f"/api/v1/jobs/{job_id}/results")
            )
            ok = tally.check(
                last["event"] == "done" and results["state"] == "done"
                and results["complete"],
                f"job {job_id} ({path}) ended {last['event']}",
            )
            return results if ok else None

        def guarded(step) -> bool:
            try:
                return step()
            except (OSError, ValueError, KeyError, IndexError, Failed,
                    http.client.HTTPException) as error:
                tally.check(False, f"request failed: {error!r}")
                return False

        def figure_jobs() -> None:
            order = list(catalog["figures"])
            random.Random(self.args.seed).shuffle(order)
            done = 0
            rotation = time.monotonic()

            def step() -> bool:
                figure = order[done % len(order)]
                began = time.monotonic()
                results = job("POST", f"/api/v1/figures/{figure['name']}")
                if results is None:
                    return False
                load["job_ms"].append((time.monotonic() - began) * 1000)
                served = sum(1 for point in results["points"] if point["served"])
                tally.check(served == figure["points"] == len(results["points"]),
                            f"{figure['name']}: {served} points served")
                texts = {a["name"]: a["text"] for a in results["artifacts"]}
                for name in figure["artifacts"]:
                    tally.check(
                        (texts.get(name, "") + "\n").encode()
                        == self.goldens.get(f"{name}.txt"),
                        f"{figure['name']} job artifact {name} differs from the golden",
                    )
                return True

            while time.monotonic() < stop_at and server.alive:
                if not guarded(step):
                    continue
                done += 1
                if done % len(order) == 0:
                    now = time.monotonic()
                    load["rotations"].append(now - rotation)
                    rotation = now

        def mixed() -> None:
            count = 0

            def write() -> bool:
                payload = self.write_spec(len(load["writes"]), catalog["workloads"])
                began = time.monotonic()
                results = job("POST", "/api/v1/jobs", payload)
                if results is None:
                    return False
                load["write_ms"].append((time.monotonic() - began) * 1000)
                tally.check(len(results["points"]) == 1 and results["points"][0]["served"],
                            "spec job result missing")
                load["writes"].append(payload)
                return True

            def health() -> bool:
                began = time.monotonic()
                body = json.loads(request("health", "GET", "/api/v1/health"))
                load["health_ms"].append((time.monotonic() - began) * 1000)
                return tally.check(body["status"] == "ok", "health not ok")

            def jobs() -> bool:
                body = json.loads(request("jobs", "GET", "/api/v1/jobs"))
                return tally.check(isinstance(body["jobs"], list), "job list malformed")

            while time.monotonic() < stop_at and server.alive:
                if count % WRITE_EVERY == WRITE_EVERY - 1:
                    guarded(write)
                else:
                    guarded(health if count % 2 == 0 else jobs)
                count += 1

        def client(target) -> None:
            if recorder is None:
                target()
            else:
                with recorder.span("bench.client"):
                    target()

        began = time.monotonic()
        threads = [threading.Thread(target=client, args=(target,))
                   for target in (figure_jobs, mixed)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        load["wall"] = time.monotonic() - began
        load["peak_rss_mb"] = server.peak_rss_mb()

        snapshots = []
        if tally.check(server.alive, "server died during the run"):
            try:
                _, body = call(base, "GET", "/api/v1/jobs")
                snapshots = json.loads(body)["jobs"]
            except (OSError, ValueError, http.client.HTTPException) as error:
                tally.check(False, f"final job list failed: {error!r}")
        for snapshot in snapshots:
            tally.check(snapshot["state"] == "done",
                        f"job {snapshot['id']} ended {snapshot['state']}")
        finished = [s for s in snapshots if s["finished"] is not None]
        load["queue_ms"] = percentile(
            [(s["started"] - s["created"]) * 1000 for s in finished], 0.5)
        load["run_ms"] = percentile(
            [(s["finished"] - s["started"]) * 1000 for s in finished], 0.5)
        return load

    def verify_writes(self, server: Server, load: dict) -> None:
        """Spec-job records must equal a fresh simulation of the same points."""
        lines = store_lines(server.store / "results.jsonl")
        keys = [line_key(line) for line in lines]
        golden = store_lines(GOLDEN_STORE)
        self.tally.check(
            lines[:len(golden)] == golden
            and len(lines) == len(set(keys)) == len(golden) + len(load["writes"]),
            f"store holds {len(lines)} lines, {len(set(keys))} keys after "
            f"{len(load['writes'])} spec jobs",
        )
        load["lines_per_key"] = lines_per_key(len(lines), len(set(keys)))
        if not load["writes"]:
            return
        specs = self.work / f"writes{self.stores}.json"
        specs.write_text(json.dumps(load["writes"]))
        reference = self.work / f"reference{self.stores}"
        run_child(["resimulate", "--specs", specs, "--store", reference],
                  self.work / f"reference{self.stores}.log")
        served = dict(zip(keys, lines))
        for line in store_lines(reference / "results.jsonl"):
            key = line_key(line)
            self.tally.check(served.get(key) == line,
                             f"spec job record {key} differs from a fresh simulation")

    def traced(self, catalog: dict, untraced_wall: float) -> dict:
        from layers import Recorder, layer_metrics, layer_self_total

        recorder = Recorder("bench.client")
        server = Server(self.work, self.fresh_store(), "traced", True)
        try:
            load = self.closed_loop(server, catalog, recorder=recorder)
        finally:
            server.stop()
        self.verify_writes(server, load)
        recorder.write(str(self.work / "client.ndjson"))
        client = read_spans(self.work / "client.ndjson", self.tally)
        served = read_spans(server.spans, self.tally)
        state = json.loads(server.result.read_text())
        metrics = layer_metrics(served, Counter(state["recorder_counts"]),
                                state["trace_cache"])
        metrics["exp.store.lines_per_key"] = load["lines_per_key"]
        metrics["serve.queue_ms"] = load["queue_ms"]
        metrics["serve.run_ms"] = load["run_ms"]
        for route in ROUTES:
            metrics[f"serve.route_ms.{route}"] = percentile(load["routes"][route], 0.5)
        rotations = load["rotations"] or [load["wall"]]
        metrics["obs.overhead_s"] = median(rotations) - untraced_wall
        roots = sum(r["duration"] for r in client if r["name"] == "bench.client")
        metrics["obs.coverage"] = (
            layer_self_total(client, ["bench.client"]) / roots if roots else 0.0
        )
        return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced figure sets and setup samples (self-tests)")
    parser.add_argument("--fault", choices=("kill-server",), default=None,
                        help="kill the server halfway through the serve load")
    args = parser.parse_args(argv)

    benchmark = ROOT / "BENCHMARK.json"
    missing = [p for p in (benchmark, SRC / "repro" / "__main__.py", GOLDEN_STORE)
               if not p.exists()]
    if missing:
        print(f"perfbench: not a repository checkout, missing {missing[0]}",
              file=sys.stderr)
        return 2
    declared = json.loads(benchmark.read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    signal.signal(signal.SIGTERM, stop_all)
    work = STATE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    try:
        if args.workload == "serve-mixed":
            outcome = ServeWorkload(args, work, tally).run()
        else:
            outcome = ReportWorkload(args, work, tally).run()
    except Failed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        stop_all()
        shutil.rmtree(work, ignore_errors=True)

    values = outcome["metrics"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    record = {"stamp": stamp(args), "samples": outcome["samples"],
              "failures": tally.failures, "metrics": metrics}
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}"
              f"-{os.getpid()}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"stamp": record["stamp"], "samples": record["samples"]}))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
