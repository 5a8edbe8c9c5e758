"""Concurrent-writer hardening of the ResultStore.

The serve layer turns the store into a shared cache tier: HTTP job
threads and ``repro sweep`` processes append to one ``results.jsonl``
simultaneously.  These tests pin the contract that makes that safe:

* appends from many processes lose no records and interleave no bytes
  (every line parses, ``stats`` classifies the file as fully live);
* torn-tail repair composes with contention (a crashed tail is repaired
  exactly once, under the lock);
* readers are coherent without locking — a second ``ResultStore``
  instance sees records another instance (or process) appended, with no
  explicit ``invalidate()``;
* reads cost what changed — an instance parses the file again only
  when another writer changed it (its own appends update its index),
  and a compaction is seen even when the filesystem reuses an inode
  number;
* one instance can be shared by threads while other processes append.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import types

import pytest

import repro.exp.store as store_module
from repro.exp import ExperimentPoint, ResultStore, SweepRunner
from repro.exp.locking import file_lock
from repro.sim.simulator import SimulationResult

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny_point(seed=0, capacity_mb=64) -> ExperimentPoint:
    return ExperimentPoint(
        workload="web_search", design="page", capacity_mb=capacity_mb,
        num_requests=2000, seed=seed,
    )


@pytest.fixture(scope="module")
def result_payload() -> dict:
    """One real simulated result, reused under many distinct points."""
    store_free = SweepRunner(store=None)
    return store_free.run_one(tiny_point()).to_dict()


# Child process body: append `count` records through the ResultStore
# protocol, starting only once the go-file exists so all writers hit
# the file together; `<go_file>.<worker>` says it is ready to.
# argv: store_dir result_json go_file worker count
_WRITER = """
import json, os, sys, time
sys.path.insert(0, {src!r})
from repro.exp import ExperimentPoint, ResultStore
from repro.sim.simulator import SimulationResult

store_dir, result_json, go_file, worker, count = sys.argv[1:6]
with open(result_json) as handle:
    result = SimulationResult.from_dict(json.load(handle))
store = ResultStore(store_dir)
open(go_file + "." + worker, "w").close()
while not os.path.exists(go_file):
    time.sleep(0.001)
for i in range(int(count)):
    point = ExperimentPoint(
        workload="web_search", design="page", capacity_mb=64,
        num_requests=2000, seed=1000 * int(worker) + i,
    )
    store.put(point, result)
"""


def _start_writers(tmp_path, result_payload, workers, count, first_worker=0):
    """Launch writer processes, held until the go-file exists."""
    store_dir = str(tmp_path / "store")
    result_json = str(tmp_path / "result.json")
    with open(result_json, "w") as handle:
        json.dump(result_payload, handle)
    script = _WRITER.format(src=os.path.join(REPO_ROOT, "src"))
    return [
        subprocess.Popen(
            [sys.executable, "-c", script, store_dir, result_json,
             str(tmp_path / "go"), str(worker), str(count)],
        )
        for worker in range(first_worker, first_worker + workers)
    ]


def _wait_ready(tmp_path, procs):
    deadline = time.monotonic() + 120
    while len(list(tmp_path.glob("go.*"))) < len(procs):
        assert time.monotonic() < deadline, "writers never got ready"
        time.sleep(0.01)


def _go_and_wait(tmp_path, procs):
    """Release the writers together, once all are ready; wait for them."""
    _wait_ready(tmp_path, procs)
    with open(tmp_path / "go", "w"):
        pass
    for proc in procs:
        assert proc.wait(timeout=120) == 0


def _run_writers(tmp_path, result_payload, workers=3, count=40, pre_tail=None):
    """Launch ``workers`` concurrent writer processes; return the store."""
    store_dir = str(tmp_path / "store")
    if pre_tail is not None:
        os.makedirs(store_dir, exist_ok=True)
        with open(os.path.join(store_dir, "results.jsonl"), "w") as handle:
            handle.write(pre_tail)
    _go_and_wait(tmp_path, _start_writers(tmp_path, result_payload, workers, count))
    return ResultStore(store_dir)


def _record_line(point, result_payload) -> str:
    """The line ``put`` writes for ``point``."""
    record = {"key": point.key(), "point": point.describe(), "result": result_payload}
    return json.dumps(record, sort_keys=True)


@pytest.fixture()
def parsed(monkeypatch):
    """Counts the lines the store module parses (its ``json.loads`` calls)."""
    calls = []

    def loads(text, *args, **kwargs):
        calls.append(text)
        return json.loads(text, *args, **kwargs)

    monkeypatch.setattr(store_module, "json", types.SimpleNamespace(
        loads=loads, dumps=json.dumps, JSONDecodeError=json.JSONDecodeError,
    ))
    return calls


class TestConcurrentWriters:
    def test_no_record_loss_no_interleaved_bytes(self, tmp_path, result_payload):
        workers, count = 3, 40
        store = _run_writers(tmp_path, result_payload, workers, count)
        # Every line is intact JSON with the full record shape: a single
        # interleaved byte would produce a torn (or orphaned) line.
        with open(store.path) as handle:
            lines = handle.read().splitlines()
        assert len(lines) == workers * count
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"key", "point", "result"}
        stats = store.stats()
        assert stats.total_lines == workers * count
        assert stats.live == workers * count  # 100% live
        assert stats.torn == stats.duplicates == 0
        assert stats.orphaned == stats.stale_engine == 0
        # And every record is reachable through the index.
        assert len(store) == workers * count

    def test_torn_tail_repaired_exactly_once_under_contention(
        self, tmp_path, result_payload
    ):
        # A crashed append left a newline-less torn tail; the first
        # locked writer repairs it, everyone else appends cleanly.
        store = _run_writers(
            tmp_path, result_payload, workers=3, count=10,
            pre_tail='{"key": "deadbeef", "point": {"tr',
        )
        stats = store.stats()
        assert stats.torn == 1          # the repaired tail, nothing else
        assert stats.live == 30
        assert stats.duplicates == stats.orphaned == 0
        with open(store.path) as handle:
            first = handle.readline().rstrip("\n")
        assert first == '{"key": "deadbeef", "point": {"tr'

    def test_reader_coherence_across_instances(self, tmp_path, result_payload):
        # Two store instances over one directory: records written
        # through one are visible through the other without invalidate().
        directory = str(tmp_path / "store")
        writer = ResultStore(directory)
        reader = ResultStore(directory)
        result = SimulationResult.from_dict(result_payload)

        point_a = tiny_point(seed=1)
        writer.put(point_a, result)
        assert reader.get(point_a) is not None

        # The reader has a warm index now; a later append must still
        # appear (reload-before-read, triggered by the stat change).
        point_b = tiny_point(seed=2)
        assert reader.get(point_b) is None
        writer.put(point_b, result)
        assert reader.get(point_b) is not None
        assert point_b in reader

    def test_put_sees_concurrent_writers_records(self, tmp_path, result_payload):
        # put() refreshes its index under the lock, so a store that
        # cached an empty index before another writer appended serves
        # that writer's record afterwards.
        directory = str(tmp_path / "store")
        first = ResultStore(directory)
        second = ResultStore(directory)
        result = SimulationResult.from_dict(result_payload)
        assert first.get(tiny_point(seed=7)) is None  # warm, empty index
        second.put(tiny_point(seed=7), result)
        first.put(tiny_point(seed=8), result)
        assert first.get(tiny_point(seed=7)) is not None
        assert len(first) == 2

    def test_file_lock_excludes_across_instances(self, tmp_path):
        # The sidecar lock is exclusive even within one process (two
        # open file descriptions), which is what serve job threads rely
        # on.  Probe with a subprocess so a regression cannot deadlock
        # the suite.
        lock_path = str(tmp_path / "x.lock")
        probe = (
            "import sys; sys.path.insert(0, {src!r});"
            "from repro.exp.locking import file_lock;"
            "import sys\n"
            "with file_lock({path!r}): print('got it')"
        ).format(src=os.path.join(REPO_ROOT, "src"), path=lock_path)
        with file_lock(lock_path):
            proc = subprocess.Popen(
                [sys.executable, "-c", probe], stdout=subprocess.PIPE
            )
            time.sleep(0.3)
            assert proc.poll() is None  # still blocked on the lock
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert b"got it" in out

    def test_merge_is_locked_against_concurrent_put(self, tmp_path, result_payload):
        # Not a race test, just the invariant the lock provides: a merge
        # into a store that gains a record between construction and the
        # merge call still classifies and appends correctly.
        result = SimulationResult.from_dict(result_payload)
        src = ResultStore(str(tmp_path / "src"))
        src.put(tiny_point(seed=1), result)
        dst = ResultStore(str(tmp_path / "dst"))
        other = ResultStore(str(tmp_path / "dst"))
        other.put(tiny_point(seed=2), result)
        stats = dst.merge([src])
        assert stats.merged == 1
        assert len(dst) == 2
        assert dst.stats().live == 2


class TestReadsCostWhatChanged:
    def test_only_another_writers_change_costs_a_parse(
        self, tmp_path, result_payload, parsed
    ):
        directory = str(tmp_path / "store")
        shared, other = ResultStore(directory), ResultStore(directory)
        result = SimulationResult.from_dict(result_payload)
        for seed in range(3):
            other.put(tiny_point(seed=seed), result)

        parsed.clear()
        assert len(shared) == 3
        assert len(parsed) == 3
        # An unchanged file costs a stat, not a parse; so do the
        # instance's own appends.
        for seed in (3, 4):
            shared.put(tiny_point(seed=seed), result)
        for _ in range(5):
            assert shared.get(tiny_point(seed=4)) is not None
            assert len(shared) == 5
        assert len(parsed) == 3

        # Another instance appends: one reload, then stats again.
        other.put(tiny_point(seed=5), result)
        parsed.clear()
        assert shared.get(tiny_point(seed=5)) is not None
        assert len(shared) == 6
        assert len(parsed) == 6

        # So does a process.
        _go_and_wait(tmp_path, _start_writers(
            tmp_path, result_payload, workers=1, count=3, first_worker=9,
        ))
        parsed.clear()
        assert len(shared) == 9
        assert len(shared) == 9
        assert len(parsed) == 9

    @staticmethod
    def _compacted_and_grown(tmp_path, result_payload):
        """A loaded instance, then another compacts the file and appends.

        Returns ``(shared, inode)``: the instance and the inode of the
        file it last loaded.  The rewritten file ends up longer than the
        one the instance loaded, with different bytes before its end.
        """
        directory = str(tmp_path / "store")
        shared, other = ResultStore(directory), ResultStore(directory)
        result = SimulationResult.from_dict(result_payload)
        for seed in range(4):
            other.put(tiny_point(seed=seed), result)
        # A superseded record and a torn line for compaction to drop.
        changed = dict(result_payload, miss_ratio=0.5)
        with open(other.path, "a") as handle:
            handle.write(_record_line(tiny_point(seed=0), changed) + "\n")
            handle.write("{torn\n")
        assert len(shared) == 4
        before = os.stat(shared.path)

        other.compact()
        assert os.stat(shared.path).st_ino != before.st_ino
        for seed in (4, 5, 6):
            other.put(tiny_point(seed=seed), result)
        assert os.stat(shared.path).st_size > before.st_size
        return shared, before.st_ino

    @staticmethod
    def _serves_exactly_the_live_records(shared):
        assert len(shared) == 7
        assert shared.stats().live == 7
        assert shared.get(tiny_point(seed=0)).miss_ratio == 0.5
        assert all(shared.get(tiny_point(seed=seed)) for seed in range(7))

    def test_compaction_by_another_instance_reloads_fully(
        self, tmp_path, result_payload, parsed
    ):
        shared, _ = self._compacted_and_grown(tmp_path, result_payload)
        parsed.clear()
        assert len(shared) == 7
        assert len(parsed) == 7  # every live line, from the start
        self._serves_exactly_the_live_records(shared)

    def test_a_reused_inode_number_still_reloads(
        self, tmp_path, result_payload, monkeypatch
    ):
        # A filesystem may hand the inode number freed by one compaction
        # to the next one's file; fake that by reporting the rewritten
        # file under the number the instance loaded from.
        shared, old_inode = self._compacted_and_grown(tmp_path, result_payload)
        new_inode = os.stat(shared.path).st_ino
        real_stat, real_fstat = os.stat, os.fstat

        def reuse(status):
            if status.st_ino != new_inode:
                return status
            cls, (fields, extra) = status.__reduce__()
            fields = list(fields)
            fields[1] = old_inode  # st_ino
            return cls(fields, extra)

        monkeypatch.setattr(os, "stat", lambda *a, **k: reuse(real_stat(*a, **k)))
        monkeypatch.setattr(os, "fstat", lambda *a, **k: reuse(real_fstat(*a, **k)))
        assert os.stat(shared.path).st_ino == old_inode
        self._serves_exactly_the_live_records(shared)

    def test_partial_line_is_served_once_complete(self, tmp_path, result_payload):
        directory = str(tmp_path / "store")
        shared = ResultStore(directory)
        result = SimulationResult.from_dict(result_payload)
        shared.put(tiny_point(seed=0), result)
        assert len(shared) == 1

        # An append in flight: half a line, no newline yet.
        line = _record_line(tiny_point(seed=1), result_payload)
        with open(shared.path, "a") as handle:
            handle.write(line[:100])
        assert shared.get(tiny_point(seed=1)) is None
        assert len(shared) == 1
        with open(shared.path, "a") as handle:
            handle.write(line[100:] + "\n")
        assert shared.get(tiny_point(seed=1)) is not None

        # A crashed append: put ends the torn tail with a newline of its
        # own, and the torn line stays skipped.
        with open(shared.path, "a") as handle:
            handle.write('{"key": "deadbeef", "poi')
        assert len(shared) == 2
        ResultStore(directory).put(tiny_point(seed=2), result)
        assert shared.get(tiny_point(seed=2)) is not None
        assert len(shared) == 3
        stats = shared.stats()
        assert (stats.live, stats.torn) == (3, 1)

    def test_a_load_racing_a_put_keeps_the_put_record(
        self, tmp_path, result_payload, monkeypatch
    ):
        # A reader thread has read another writer's append but not yet
        # installed its index when the main thread puts.  Unless the two
        # take turns, the reader's index, read before the put's line
        # landed, replaces the one the put updates, and the put's record
        # is not served.
        directory = str(tmp_path / "store")
        shared, other = ResultStore(directory), ResultStore(directory)
        result = SimulationResult.from_dict(result_payload)
        other.put(tiny_point(seed=0), result)
        assert len(shared) == 1
        other.put(tiny_point(seed=1), result)

        read, appended = threading.Event(), threading.Event()

        class ReaderWaitsOnClose:
            def __init__(self, *args, **kwargs):
                self.handle = open(*args, **kwargs)

            def __enter__(self):
                return self.handle

            def __exit__(self, *exc_info):
                self.handle.close()
                if threading.current_thread() is reader:
                    read.set()
                    appended.wait(timeout=0.5)

        def append_then_let_the_reader_finish(lines):
            append(lines)
            appended.set()
            reader.join(timeout=10)

        monkeypatch.setattr(store_module, "open", ReaderWaitsOnClose, raising=False)
        append = shared._append_locked
        monkeypatch.setattr(shared, "_append_locked", append_then_let_the_reader_finish)
        reader = threading.Thread(target=len, args=(shared,))
        reader.start()
        assert read.wait(timeout=10)
        shared.put(tiny_point(seed=2), result)
        reader.join(timeout=10)
        assert shared.get(tiny_point(seed=2)) is not None
        assert len(shared) == 3

    def test_threads_share_one_instance_while_a_process_appends(
        self, tmp_path, result_payload
    ):
        threads_count, per_thread, process_count = 4, 15, 30
        shared = ResultStore(str(tmp_path / "store"))
        result = SimulationResult.from_dict(result_payload)
        procs = _start_writers(
            tmp_path, result_payload, workers=1, count=process_count,
            first_worker=50,
        )
        writer_done = threading.Event()
        put, lost = [], []

        def put_and_get(thread):
            # At least per_thread puts, and on until the writer process
            # has exited, so the threads race all of its appends.
            index = 0
            while index < per_thread or not writer_done.is_set():
                point = tiny_point(seed=10_000 + thread + threads_count * index)
                shared.put(point, result)
                put.append(point)
                for _ in range(3):  # reads race the other threads' loads
                    if shared.get(point) is None:
                        lost.append(point)
                index += 1

        _wait_ready(tmp_path, procs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=put_and_get, args=(thread,))
                for thread in range(threads_count)
            ]
            for thread in threads:
                thread.start()
            try:
                _go_and_wait(tmp_path, procs)
            finally:
                writer_done.set()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert lost == []
        expected = len(put) + process_count
        assert len(shared) == expected
        assert shared.stats().live == expected
