"""Unit tests for the block-based (Loh-Hill) DRAM cache."""

import pytest

from repro.caches.block_cache import BlockBasedCache
from repro.caches.missmap import MissMap
from tests.conftest import read, write


@pytest.fixture
def cache(stacked, offchip):
    missmap = MissMap(num_entries=4800, associativity=24, latency_cycles=9)
    return BlockBasedCache(
        stacked, offchip, capacity_bytes=64 * 2048, missmap=missmap
    )


class TestBasics:
    def test_first_access_misses(self, cache):
        result = cache.access(read(0x10000), 0)
        assert not result.hit
        assert result.fill_blocks == 1
        assert cache.miss_ratio == 1.0

    def test_second_access_hits(self, cache):
        cache.access(read(0x10000), 0)
        result = cache.access(read(0x10000), 100)
        assert result.hit
        assert cache.hits == 1

    def test_hit_includes_missmap_and_tag_penalty(self, cache):
        cache.access(read(0x10000), 0)
        result = cache.access(read(0x10000), 100_000)
        # MissMap lookup + compound DRAM access (ACT, CAS tags, CAS data).
        assert result.latency > cache.missmap.latency_cycles

    def test_miss_goes_off_chip(self, cache, offchip):
        cache.access(read(0x10000), 0)
        assert offchip.bytes_read == 64

    def test_adjacent_blocks_are_independent(self, cache):
        cache.access(read(0x10000), 0)
        result = cache.access(read(0x10040), 10)
        assert not result.hit

    def test_invalid_capacity(self, stacked, offchip):
        with pytest.raises(ValueError):
            BlockBasedCache(
                stacked, offchip, capacity_bytes=1000,
                missmap=MissMap(num_entries=24, associativity=24),
            )


class TestWritebacks:
    def test_dirty_eviction_writes_back(self, stacked, offchip):
        # Single-set cache: capacity = one row = 30 blocks.
        missmap = MissMap(num_entries=4800, associativity=24)
        cache = BlockBasedCache(
            stacked, offchip, capacity_bytes=2048, missmap=missmap
        )
        cache.access(write(0), 0)
        written_before = offchip.bytes_written
        # Fill the set's 30 ways; block 0's set is every block address here.
        for i in range(1, 31):
            cache.access(read(i * 64), i * 1000)
        assert offchip.bytes_written > written_before

    def test_clean_eviction_silent(self, stacked, offchip):
        missmap = MissMap(num_entries=4800, associativity=24)
        cache = BlockBasedCache(
            stacked, offchip, capacity_bytes=2048, missmap=missmap
        )
        for i in range(31):
            cache.access(read(i * 64), i * 1000)
        assert offchip.bytes_written == 0


class TestMissMapInteraction:
    def test_missmap_eviction_purges_blocks(self, stacked, offchip):
        # Tiny MissMap: 2 entries, 1 way each.
        missmap = MissMap(num_entries=2, associativity=1)
        cache = BlockBasedCache(
            stacked, offchip, capacity_bytes=64 * 2048, missmap=missmap
        )
        cache.access(read(0), 0)
        cache.access(read(4096), 10)
        # Third segment evicts the first MissMap entry -> block 0 purged.
        cache.access(read(2 * 4096), 20)
        result = cache.access(read(0), 30)
        assert not result.hit
        assert cache.missmap_forced_evictions >= 1

    def test_missmap_dirty_purge_writes_back(self, stacked, offchip):
        missmap = MissMap(num_entries=2, associativity=1)
        cache = BlockBasedCache(
            stacked, offchip, capacity_bytes=64 * 2048, missmap=missmap
        )
        cache.access(write(0), 0)
        cache.access(read(4096), 10)
        before = offchip.bytes_written
        cache.access(read(2 * 4096), 20)
        assert offchip.bytes_written == before + 64


class TestConsistency:
    def test_many_accesses_consistent(self, cache):
        # MissMap and tag store must stay in sync through heavy churn.
        for i in range(2000):
            cache.access(read((i * 7919 % 512) * 64), i * 10)
        assert cache.accesses == 2000
        assert 0 < cache.hits < 2000
