"""Store maintenance: stats classification, compaction, GC.

The store is append-only, so engine bumps, re-runs and crashes leave
dead lines behind; ``ResultStore.stats/compact/gc`` (and the
``python -m repro store`` CLI) must classify and reclaim them without
ever altering a live record's bytes.
"""

import json

import pytest

from repro.__main__ import main
from repro.exp import ExperimentPoint, ResultStore, SweepRunner
from repro.exp.spec import ENGINE_VERSION


def tiny_point(capacity_mb=64, **kwargs) -> ExperimentPoint:
    return ExperimentPoint(
        workload="web_search", design="page", capacity_mb=capacity_mb,
        num_requests=2000, **kwargs
    )


@pytest.fixture
def store(tmp_path) -> ResultStore:
    """A store holding two freshly simulated tiny points."""
    store = ResultStore(str(tmp_path))
    runner = SweepRunner(store=store)
    runner.run([tiny_point(64), tiny_point(256)])
    return store


def read_lines(store):
    with open(store.path) as handle:
        return handle.readlines()


class TestStats:
    def test_fresh_store_is_all_live(self, store):
        stats = store.stats()
        assert stats.total_lines == 2
        assert stats.live == 2
        assert stats.stale_engine == stats.orphaned == 0
        assert stats.duplicates == stats.torn == 0
        assert stats.reclaimable == 0
        assert stats.file_bytes > 0

    def test_missing_file(self, tmp_path):
        stats = ResultStore(str(tmp_path / "empty")).stats()
        assert stats.total_lines == 0
        assert stats.live == 0
        assert stats.file_bytes == 0

    def test_stale_engine_record_counted(self, store):
        lines = read_lines(store)
        stale = json.loads(lines[0])
        stale["point"]["engine"] = "1"
        with open(store.path, "a") as handle:
            handle.write(json.dumps(stale, sort_keys=True) + "\n")
        stats = store.stats()
        assert stats.stale_engine == 1
        assert stats.live == 2

    def test_orphaned_record_counted(self, store):
        # A live-engine record whose key does not hash its own point.
        orphan = json.loads(read_lines(store)[0])
        orphan["key"] = "0" * 20
        with open(store.path, "a") as handle:
            handle.write(json.dumps(orphan, sort_keys=True) + "\n")
        stats = store.stats()
        assert stats.orphaned == 1
        assert stats.live == 2

    def test_duplicate_counts_superseded_append(self, store):
        # put() skips a byte-identical record, so append the superseded
        # duplicate directly, as TestCompact.inject_garbage does.
        with open(store.path, "a") as handle:
            handle.write(read_lines(store)[0])
        stats = store.stats()
        assert stats.total_lines == 3
        assert stats.duplicates == 1
        assert stats.live == 2

    def test_torn_line_counted(self, store):
        with open(store.path, "a") as handle:
            handle.write('{"key": "torn')
        stats = store.stats()
        assert stats.torn == 1
        assert stats.live == 2

    def test_cli_stats(self, store, capsys):
        assert main(["store", "stats", "--store", store.directory]) == 0
        out = capsys.readouterr().out
        assert "live" in out
        assert store.path in out


class TestPut:
    def test_differing_result_appends_and_wins(self, store):
        other = store.get(tiny_point(256))
        store.put(tiny_point(64), other)
        assert len(read_lines(store)) == 3
        assert ResultStore(store.directory).get(tiny_point(64)) == other


class TestCompact:
    def inject_garbage(self, store):
        lines = read_lines(store)
        stale = json.loads(lines[0])
        stale["point"]["engine"] = "0"
        orphan = json.loads(lines[1])
        orphan["key"] = "f" * 20
        with open(store.path, "a") as handle:
            handle.write(json.dumps(stale, sort_keys=True) + "\n")
            handle.write(json.dumps(orphan, sort_keys=True) + "\n")
            handle.write("{torn\n")
            handle.write(lines[0])  # duplicate: same key, last write wins

    def test_compact_drops_only_dead_records(self, store):
        self.inject_garbage(store)
        result = store.compact()
        assert result.kept == 2
        assert result.dropped_stale == 1
        assert result.dropped_orphaned == 1
        assert result.dropped_torn == 1
        assert result.dropped_duplicates == 1
        assert result.dropped_unreferenced == 0
        assert result.dropped == 4
        assert result.bytes_after < result.bytes_before
        stats = store.stats()
        assert stats.live == 2
        assert stats.reclaimable == 0

    def test_live_records_byte_stable(self, store):
        before = read_lines(store)
        self.inject_garbage(store)
        store.compact()
        after = read_lines(store)
        assert len(after) == 2
        # Every surviving line is one of the original lines, bit for bit
        # (the duplicate append reused line 0's bytes, so order-insensitive).
        assert set(after) == set(before)

    def test_results_identical_across_compact(self, store):
        expected = {
            capacity: store.get(tiny_point(capacity)).to_dict()
            for capacity in (64, 256)
        }
        self.inject_garbage(store)
        store.compact()
        for capacity in (64, 256):
            assert store.get(tiny_point(capacity)).to_dict() == expected[capacity]

    def test_compact_is_idempotent(self, store):
        self.inject_garbage(store)
        store.compact()
        before = read_lines(store)
        result = store.compact()
        assert result.dropped == 0
        assert result.kept == 2
        assert read_lines(store) == before

    def test_compact_missing_file_is_noop(self, tmp_path):
        import os

        store = ResultStore(str(tmp_path / "empty"))
        result = store.compact()
        assert result.kept == 0
        assert result.dropped == 0
        assert not os.path.exists(store.path)

    def test_stale_engine_purge_then_rerun_is_cached(self, store):
        # The acceptance scenario: bump-stranded records are purged and
        # the surviving records still serve a re-run without simulating.
        self.inject_garbage(store)
        store.compact()
        runner = SweepRunner(store=store)
        sweep = runner.run([tiny_point(64), tiny_point(256)])
        assert sweep.hits == 2
        assert sweep.misses == 0

    def test_cli_compact(self, store, capsys):
        self.inject_garbage(store)
        assert main(["store", "compact", "--store", store.directory]) == 0
        out = capsys.readouterr().out
        assert "kept 2 records" in out
        assert "dropped 4" in out


class TestGC:
    def test_gc_drops_unreferenced_live_records(self, store):
        result = store.gc([tiny_point(64)])
        assert result.kept == 1
        assert result.dropped_unreferenced == 1
        assert store.get(tiny_point(64)) is not None
        assert store.get(tiny_point(256)) is None

    def test_cli_gc_uses_figure_registry(self, store, capsys):
        # The tiny test points are not part of any registered figure's
        # grid, so a registry-driven GC reclaims them.
        assert main(["store", "gc", "--store", store.directory]) == 0
        out = capsys.readouterr().out
        assert "2 unreferenced" in out
        assert store.stats().live == 0

    def test_registry_points_survive_cli_gc(self, tmp_path, capsys):
        # A store holding a genuine figure grid point must be untouched.
        from repro.reporting import get_figure

        point = get_figure("table1").points()[0]
        store = ResultStore(str(tmp_path))
        other = tiny_point(64)
        runner = SweepRunner(store=store)
        runner.run([other])
        # Fake a result for the figure point without simulating it.
        store.put(point, store.get(other))
        assert main(["store", "gc", "--store", store.directory]) == 0
        assert "1 unreferenced" in capsys.readouterr().out
        store.invalidate()  # the CLI rewrote the file behind this object
        assert store.get(point) is not None
        assert store.get(other) is None


class TestEngineVersionContract:
    def test_current_records_classify_live(self, store):
        # put() must always write records the classifier calls live:
        # engine tag current, key rehashable from the stored point.
        for record in (json.loads(line) for line in read_lines(store)):
            assert record["point"]["engine"] == ENGINE_VERSION
        assert store.stats().live == len(read_lines(store))
