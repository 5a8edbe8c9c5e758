"""Unit tests for the page-based DRAM cache and its frame allocator."""

import pytest

from repro.caches.page_cache import FrameAllocator, PageBasedCache
from tests.conftest import read, write


@pytest.fixture
def cache(stacked, offchip):
    # 16 pages: 2 sets x 8 ways.
    return PageBasedCache(
        stacked, offchip, capacity_bytes=16 * 2048, associativity=8, tag_latency=4
    )


class TestFrameAllocator:
    def test_frames_unique_within_set(self):
        allocator = FrameAllocator(num_sets=2, associativity=4, page_size=2048)
        frames = {allocator.allocate(0) for _ in range(4)}
        assert len(frames) == 4

    def test_exhausted_set_raises(self):
        allocator = FrameAllocator(num_sets=1, associativity=1, page_size=2048)
        allocator.allocate(0)
        with pytest.raises(LookupError):
            allocator.allocate(0)

    def test_release_recycles(self):
        allocator = FrameAllocator(num_sets=1, associativity=1, page_size=2048)
        frame = allocator.allocate(0)
        allocator.release(0, frame)
        assert allocator.allocate(0) == frame

    def test_release_foreign_frame_rejected(self):
        allocator = FrameAllocator(num_sets=2, associativity=4, page_size=2048)
        with pytest.raises(ValueError):
            allocator.release(1, 0)

    def test_double_release_rejected(self):
        allocator = FrameAllocator(num_sets=1, associativity=2, page_size=2048)
        frame = allocator.allocate(0)
        allocator.release(0, frame)
        with pytest.raises(ValueError):
            allocator.release(0, frame)

    def test_frame_addresses_page_aligned(self):
        allocator = FrameAllocator(num_sets=4, associativity=4, page_size=2048)
        for set_id in range(4):
            frame = allocator.allocate(set_id)
            assert frame % 2048 == 0


class TestPageCache:
    def test_miss_fetches_whole_page(self, cache, offchip):
        result = cache.access(read(0x10000), 0)
        assert not result.hit
        assert result.fill_blocks == 32
        assert offchip.bytes_read == 2048

    def test_block_in_fetched_page_hits(self, cache):
        cache.access(read(0x10000), 0)
        result = cache.access(read(0x10000 + 640), 100)
        assert result.hit

    def test_miss_latency_below_full_page_burst(self, cache, offchip):
        # Critical-block-first: the demand block does not wait for the
        # whole 2KB burst.
        result = cache.access(read(0x10000), 0)
        full_burst = offchip.timing.to_cpu_cycles(offchip.timing.burst_cycles(2048))
        assert result.latency < cache.tag_latency + full_burst + 200

    def test_resident_pages(self, cache):
        cache.access(read(0), 0)
        cache.access(read(2048), 0)
        assert cache.resident_pages == 2

    def test_eviction_on_set_overflow(self, cache):
        # Fill one set (stride = num_sets * page): 8 ways + 1.
        stride = 2 * 2048
        for i in range(9):
            cache.access(read(i * stride), i * 1000)
        assert cache.resident_pages == 8
        result = cache.access(read(0), 100_000)
        assert not result.hit  # page 0 was the LRU victim

    def test_dirty_eviction_writes_back_only_dirty(self, cache, offchip):
        cache.access(write(0), 0)
        cache.access(write(64), 10)
        cache.access(read(128), 20)
        stride = 2 * 2048
        before = offchip.bytes_written
        for i in range(1, 9):
            cache.access(read(i * stride), i * 1000)
        # Page 0 evicted: exactly two dirty blocks written back.
        assert offchip.bytes_written - before == 128

    def test_write_allocates(self, cache):
        result = cache.access(write(0x20000), 0)
        assert not result.hit
        assert cache.access(read(0x20000), 100).hit

    def test_invalid_geometry(self, stacked, offchip):
        with pytest.raises(ValueError):
            PageBasedCache(stacked, offchip, capacity_bytes=1000)
        with pytest.raises(ValueError):
            PageBasedCache(
                stacked, offchip, capacity_bytes=16 * 2048, page_size=2048, block_size=100
            )

    def test_traffic_amplification(self, cache, offchip):
        """The page design's defining flaw: 32x fill traffic per miss."""
        for i in range(100):
            cache.access(read(i * 4096 * 64), i * 100)
        assert offchip.bytes_read == 100 * 2048
