"""Unit tests for the L2 SRAM level in front of the DRAM cache."""

import pytest

from repro.caches.ideal_cache import IdealCache
from repro.caches.page_cache import PageBasedCache
from repro.mem.hierarchy import L2Cache
from tests.conftest import read, write


@pytest.fixture
def dram_cache(stacked, offchip):
    return PageBasedCache(
        stacked, offchip, capacity_bytes=16 * 2048, associativity=8, tag_latency=4
    )


@pytest.fixture
def l2(dram_cache):
    # Tiny L2: 8 blocks, 2 sets x 4 ways.
    return L2Cache(dram_cache, capacity_bytes=8 * 64, associativity=4, hit_latency=13)


class TestL2Basics:
    def test_first_access_misses_through(self, l2, dram_cache):
        result = l2.access(read(0x10000), 0)
        assert not result.hit
        assert result.latency > l2.hit_latency
        assert dram_cache.accesses == 1

    def test_second_access_hits_in_sram(self, l2, dram_cache):
        l2.access(read(0x10000), 0)
        result = l2.access(read(0x10000), 100)
        assert result.hit
        assert result.latency == 13
        assert dram_cache.accesses == 1  # filtered

    def test_l2_filters_short_term_reuse(self, l2, dram_cache):
        for _ in range(10):
            l2.access(read(0x10000), 0)
        assert l2.hit_ratio == pytest.approx(0.9)
        assert dram_cache.accesses == 1

    def test_hit_latency_matches_table3(self, dram_cache):
        l2 = L2Cache(dram_cache)
        assert l2.hit_latency == 13
        assert l2.capacity_bytes == 4 * 1024 * 1024

    def test_invalid_geometry(self, dram_cache):
        with pytest.raises(ValueError):
            L2Cache(dram_cache, capacity_bytes=100)


class TestL2Writeback:
    def test_dirty_eviction_writes_below(self, l2, dram_cache):
        # A read allocates block 0; a write hit dirties it.
        l2.access(read(0), 0)
        l2.access(write(0), 10)
        # Fill set 0 (stride = 2 sets x 64B): 4 ways + 1 evicts block 0.
        for i in range(1, 5):
            l2.access(read(i * 128), i * 100)
        assert l2.dirty_writebacks == 1
        # The writeback reached the DRAM cache as an extra access.
        assert dram_cache.accesses == 6

    def test_clean_eviction_is_silent(self, l2, dram_cache):
        for i in range(5):
            l2.access(read(i * 128), i * 100)
        assert l2.dirty_writebacks == 0
        assert dram_cache.accesses == 5

    def test_write_hit_marks_dirty(self, l2):
        l2.access(read(0), 0)
        l2.access(write(0), 10)
        for i in range(1, 5):
            l2.access(read(i * 128), i * 100)
        assert l2.dirty_writebacks == 1

    def test_write_miss_is_forwarded_not_allocated(self, l2, dram_cache):
        l2.access(write(0x10000), 0)
        assert dram_cache.accesses == 1  # the write reached the level below
        l2.access(read(0x10000), 100)
        # Nothing was allocated: the read misses in the L2 as well.
        assert l2.hits == 0
        assert dram_cache.accesses == 2


class TestL2Composition:
    def test_stacks_on_any_dram_cache(self, stacked, offchip):
        l2 = L2Cache(IdealCache(stacked, offchip), capacity_bytes=8 * 64, associativity=4)
        result = l2.access(read(0x5000), 0)
        assert result.hit  # ideal below: even the L2 miss "hits" overall
        assert l2.access(read(0x5000), 100).latency == l2.hit_latency

    def test_reset_stats(self, l2):
        l2.access(read(0), 0)
        l2.reset_stats()
        assert l2.accesses == 0
        # Contents survive: next access hits.
        assert l2.access(read(0), 100).hit

    def test_hit_ratio_empty(self, l2):
        assert l2.hit_ratio == 0.0
