"""Unit tests for the Footprint Cache itself."""

import pytest

from repro.core.block_state import PageBlockBits
from repro.core.footprint_cache import FootprintCache, PageEntry
from repro.core.footprint_predictor import FootprintHistoryTable
from repro.core.overheads import footprint_tag_bytes
from repro.core.singleton_table import SingletonTable
from repro.mem.request import AccessType, MemoryRequest
from tests.conftest import read, write


def make_cache(stacked, offchip, singleton=True, pages=16, associativity=8):
    fht = FootprintHistoryTable(num_entries=256, associativity=8, blocks_per_page=32)
    return FootprintCache(
        stacked,
        offchip,
        capacity_bytes=pages * 2048,
        associativity=associativity,
        tag_latency=9,
        fht=fht,
        singleton_table=SingletonTable(num_entries=16, associativity=4) if singleton else None,
        singleton_optimization=singleton,
    )


@pytest.fixture
def cache(stacked, offchip):
    return make_cache(stacked, offchip)


def run_visit(cache, page, offsets, pc, start=0, step=100):
    """Replay one page visit: sequential accesses to the given offsets."""
    results = []
    for i, offset in enumerate(offsets):
        request = read(page + offset * 64, pc=pc)
        results.append(cache.access(request, start + i * step))
    return results


def evict_page(cache, victim_set_page, start=10_000):
    """Allocate enough conflicting multi-block pages to evict residents."""
    stride = cache.num_sets * 2048
    base = victim_set_page + 64 * stride
    for i in range(cache.associativity + 1):
        # Use a multi-block footprint so the singleton filter never bypasses.
        page = base + i * stride
        run_visit(cache, page, [0, 1], pc=0xDEAD00 + 8 * i, start=start + i * 1000)


class TestEntryState:
    def test_blocks_start_empty(self):
        entry = PageEntry(0, PageBlockBits(32), fht_key=(0, 0), predicted_mask=0b11)
        assert entry.blocks.present_mask == 0
        assert entry.demanded_mask == 0

    def test_masks_proxy_block_bits(self):
        entry = PageEntry(0, PageBlockBits(32), fht_key=(0, 0), predicted_mask=0b11)
        entry.blocks.install_prefetched(0b11)
        entry.blocks.mark_demanded(0, dirty=True)
        assert entry.demanded_mask == 0b01
        assert entry.dirty_mask == 0b01


class TestGeometry:
    def test_invalid_capacity(self, stacked, offchip):
        with pytest.raises(ValueError, match="whole number of sets"):
            FootprintCache(stacked, offchip, capacity_bytes=1000)

    def test_invalid_block_size(self, stacked, offchip):
        with pytest.raises(ValueError, match="multiple of block_size"):
            FootprintCache(stacked, offchip, capacity_bytes=16 * 2048, page_size=32)


class TestColdMiss:
    def test_cold_miss_fetches_demand_block_only(self, cache, offchip):
        result = cache.access(read(0x10000, pc=0x400), 0)
        assert not result.hit
        assert result.fill_blocks == 1
        assert offchip.bytes_read == 64

    def test_cold_miss_allocates_fht_entry(self, cache):
        cache.access(read(0x10000, pc=0x400), 0)
        assert cache.fht.predict(0x400, 0) is not None


class TestLearning:
    def test_footprint_learned_after_eviction(self, cache, offchip):
        # First visit: blocks 0, 1, 2 demanded one by one (underpredictions).
        run_visit(cache, 0x10000, [0, 1, 2], pc=0x400)
        # Evict the page so the FHT learns the footprint {0, 1, 2}.
        evict_page(cache, 0x10000)
        assert cache.fht.predict(0x400, 0) == 0b111

    def test_predicted_footprint_prefetched_on_next_miss(self, cache, offchip):
        run_visit(cache, 0x10000, [0, 1, 2], pc=0x400)
        evict_page(cache, 0x10000)
        offchip_before = offchip.bytes_read
        # New page, same (pc, offset): the whole footprint is fetched.
        result = cache.access(read(0x90000, pc=0x400), 100_000)
        assert not result.hit
        assert result.fill_blocks == 3
        assert offchip.bytes_read - offchip_before == 3 * 64

    def test_prefetched_blocks_hit(self, cache):
        run_visit(cache, 0x10000, [0, 1, 2], pc=0x400)
        evict_page(cache, 0x10000)
        cache.access(read(0x90000, pc=0x400), 100_000)
        assert cache.access(read(0x90000 + 64, pc=0x400), 100_100).hit
        assert cache.access(read(0x90000 + 128, pc=0x400), 100_200).hit


class TestUnderprediction:
    def test_unpredicted_block_misses_and_fetches_one(self, cache, offchip):
        run_visit(cache, 0x10000, [0, 1], pc=0x400)
        evict_page(cache, 0x10000)
        cache.access(read(0x90000, pc=0x400), 100_000)
        before = offchip.bytes_read
        counter_before = cache.underprediction_misses
        result = cache.access(read(0x90000 + 5 * 64, pc=0x408), 100_100)
        assert not result.hit
        assert result.fill_blocks == 1
        assert offchip.bytes_read - before == 64
        assert cache.underprediction_misses == counter_before + 1

    def test_underpredicted_block_hits_after_fill(self, cache):
        cache.access(read(0x10000, pc=0x400), 0)
        cache.access(read(0x10000 + 7 * 64, pc=0x404), 100)
        assert cache.access(read(0x10000 + 7 * 64, pc=0x404), 200).hit


class TestFeedback:
    def test_eviction_updates_fht_with_demanded_only(self, cache):
        # Learn {0,1,2}, then a residency where only 0 and 1 are demanded.
        run_visit(cache, 0x10000, [0, 1, 2], pc=0x400)
        evict_page(cache, 0x10000)
        run_visit(cache, 0x90000, [0, 1], pc=0x400, start=100_000)
        evict_page(cache, 0x90000, start=200_000)
        # Latest footprint (blocks 0,1) replaces the old one.
        assert cache.fht.predict(0x400, 0) == 0b11

    def test_overprediction_accounted(self, cache):
        run_visit(cache, 0x10000, [0, 1, 2], pc=0x400)
        evict_page(cache, 0x10000)
        # Fetch 3 blocks, demand only block 0.
        cache.access(read(0x90000, pc=0x400), 100_000)
        evict_page(cache, 0x90000, start=200_000)
        assert cache.predictor_stats.overpredicted_blocks >= 2


class TestDirtyEvictions:
    def test_dirty_blocks_written_back(self, cache, offchip):
        cache.access(write(0x10000, pc=0x400), 0)
        cache.access(write(0x10000 + 64, pc=0x404), 10)
        before = offchip.bytes_written
        evict_page(cache, 0x10000)
        assert offchip.bytes_written - before == 128

    def test_clean_eviction_writes_nothing(self, cache, offchip):
        run_visit(cache, 0x10000, [0, 1], pc=0x400)
        before = offchip.bytes_written
        evict_page(cache, 0x10000)
        assert offchip.bytes_written - before == 0


class TestSingletonOptimization:
    def test_singleton_prediction_bypasses(self, cache):
        # Teach the FHT that (pc=0x500, offset=4) is a singleton.
        cache.access(read(0x10000 + 4 * 64, pc=0x500), 0)
        evict_page(cache, 0x10000)
        resident_before = cache.resident_pages
        result = cache.access(read(0x90000 + 4 * 64, pc=0x500), 100_000)
        assert result.bypassed
        assert not result.hit
        assert cache.resident_pages == resident_before
        assert cache.singleton_table.lookup(0x90000) is not None

    def test_second_access_corrects_singleton(self, cache):
        cache.access(read(0x10000 + 4 * 64, pc=0x500), 0)
        evict_page(cache, 0x10000)
        cache.access(read(0x90000 + 4 * 64, pc=0x500), 100_000)
        # Different offset on the bypassed page: allocate it after all.
        result = cache.access(read(0x90000 + 9 * 64, pc=0x504), 100_100)
        assert not result.bypassed
        assert cache.resident_pages > 0
        assert cache.singleton_table.lookup(0x90000) is None
        assert cache.singleton_corrections == 1

    def test_singleton_disabled_always_allocates(self, stacked, offchip):
        cache = make_cache(stacked, offchip, singleton=False)
        cache.access(read(0x10000 + 4 * 64, pc=0x500), 0)
        evict_page(cache, 0x10000)
        result = cache.access(read(0x90000 + 4 * 64, pc=0x500), 100_000)
        assert not result.bypassed
        # The page was allocated (a bypass would have left it non-resident).
        assert 0x90000 in cache._tags

    def test_repeat_bypass_same_offset(self, cache):
        cache.access(read(0x10000 + 4 * 64, pc=0x500), 0)
        evict_page(cache, 0x10000)
        cache.access(read(0x90000 + 4 * 64, pc=0x500), 100_000)
        result = cache.access(read(0x90000 + 4 * 64, pc=0x500), 100_200)
        assert result.bypassed


class TestMetadata:
    def test_storage_includes_all_structures(self, cache):
        total = cache.storage_bytes()
        assert total == (
            footprint_tag_bytes(16 * 2048, associativity=8)
            + cache.fht.storage_bytes()
            + cache.singleton_table.storage_bytes()
        )

    def test_mismatched_fht_rejected(self, stacked, offchip):
        fht = FootprintHistoryTable(num_entries=64, associativity=8, blocks_per_page=16)
        with pytest.raises(ValueError):
            FootprintCache(
                stacked, offchip, capacity_bytes=16 * 2048, fht=fht
            )

    def test_reset_stats_clears_accuracy_keeps_learning(self, cache):
        run_visit(cache, 0x10000, [0, 1, 2], pc=0x400)
        evict_page(cache, 0x10000)
        cache.reset_stats()
        assert cache.predictor_stats.demanded_blocks == 0
        assert cache.fht.predict(0x400, 0) == 0b111
        assert cache.accesses == 0


class TestWriteMiss:
    def test_write_triggering_miss_marks_dirty(self, cache, offchip):
        cache.access(write(0x10000, pc=0x400), 0)
        before = offchip.bytes_written
        evict_page(cache, 0x10000)
        assert offchip.bytes_written - before == 64
