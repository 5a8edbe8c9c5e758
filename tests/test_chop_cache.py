"""Unit tests for the CHOP-style hot-page filter cache."""

import random

import pytest

from repro.caches.chop_cache import ChopCache
from repro.caches.page_cache import PageBasedCache
from repro.dram.address_mapping import AddressMapping
from repro.dram.bank import RowBufferPolicy
from repro.dram.controller import MemoryController
from repro.dram.timing import OFF_CHIP_DDR3_1600, STACKED_DDR3_3200
from tests.conftest import read, write


@pytest.fixture
def chop(stacked, offchip):
    return ChopCache(
        stacked,
        offchip,
        capacity_bytes=16 * 4096,
        page_size=4096,
        associativity=8,
        tag_latency=4,
        hot_threshold=3,
        filter_entries=64,
        filter_associativity=8,
    )


class TestFiltering:
    def test_cold_page_bypasses(self, chop, offchip):
        result = chop.access(read(0x10000), 0)
        assert not result.hit
        assert result.bypassed
        assert offchip.bytes_read == 64

    def test_page_allocated_after_threshold(self, chop, offchip):
        for i in range(3):
            chop.access(read(0x10000 + i * 64), i * 100)
        # Third access crossed the threshold and fetched the page.
        assert offchip.bytes_read == 2 * 64 + 4096
        assert chop.resident_pages == 1

    def test_hot_page_hits_afterwards(self, chop):
        for i in range(3):
            chop.access(read(0x10000), i * 100)
        assert chop.access(read(0x10000 + 512), 1000).hit

    def test_threshold_one_allocates_immediately(self, stacked, offchip):
        chop = ChopCache(
            stacked, offchip, capacity_bytes=16 * 4096, page_size=4096,
            associativity=8, hot_threshold=1, filter_entries=64,
            filter_associativity=8,
        )
        result = chop.access(read(0), 0)
        assert not result.bypassed
        assert result.fill_blocks == 64

    def test_writes_bypass_cold(self, chop, offchip):
        chop.access(write(0x20000), 0)
        assert offchip.bytes_written == 64
        assert chop.resident_pages == 0

    def test_filter_eviction_resets_popularity(self, stacked, offchip):
        chop = ChopCache(
            stacked, offchip, capacity_bytes=16 * 4096, page_size=4096,
            associativity=8, hot_threshold=3, filter_entries=2,
            filter_associativity=1,
        )
        chop.access(read(0), 0)
        chop.access(read(0), 10)
        # Flood the filter set: page 0's counter entry is evicted.
        chop.access(read(2 * 4096), 20)
        chop.access(read(4 * 4096), 30)
        # Page 0 must start counting again.
        chop.access(read(0), 40)
        chop.access(read(0), 50)
        assert chop.resident_pages == 0

    def test_invalid_threshold(self, stacked, offchip):
        with pytest.raises(ValueError):
            ChopCache(
                stacked, offchip, capacity_bytes=16 * 4096, page_size=4096,
                associativity=8, hot_threshold=0,
            )

    def test_invalid_filter_geometry(self, stacked, offchip):
        with pytest.raises(ValueError):
            ChopCache(
                stacked, offchip, capacity_bytes=16 * 4096, page_size=4096,
                associativity=8, filter_entries=10, filter_associativity=16,
            )


class TestScaleOutBehaviour:
    def test_uniform_traffic_mostly_bypasses(self, chop):
        """The paper's point: no hot set means CHOP rarely allocates."""
        for i in range(500):
            chop.access(read((i * 131) % 499 * 4096), i * 10)
        assert chop.bypasses / chop.accesses > 0.8


def _controllers():
    """A fresh (stacked, offchip) pair: 4-channel and 1-channel, open-page."""
    return tuple(
        MemoryController(
            timing=timing,
            mapping=AddressMapping(
                channels=channels, banks_per_channel=8, row_bytes=2048,
                interleave_bytes=2048,
            ),
            policy=RowBufferPolicy.OPEN_PAGE,
        )
        for timing, channels in ((STACKED_DDR3_3200, 4), (OFF_CHIP_DDR3_1600, 1))
    )


def _controller_state(controller):
    energy = controller.energy
    return (
        controller.access_count, controller.row_hit_count,
        controller.bytes_read, controller.bytes_written,
        energy.activate_precharge_nj,
        energy.read_nj, energy.write_nj,
    )


class TestSharedSkeleton:
    def test_threshold_one_is_the_page_cache(self):
        """Every missed page is hot at threshold 1, so CHOP must replay
        exactly like the page-based design it delegates to."""
        page = PageBasedCache(*_controllers(), capacity_bytes=8 * 2048, associativity=4)
        chop = ChopCache(
            *_controllers(), capacity_bytes=8 * 2048, page_size=2048,
            associativity=4, hot_threshold=1,
        )
        rng = random.Random(19)
        now = 0
        for _ in range(20_000):
            address = rng.randrange(64) * 2048 + rng.randrange(32) * 64
            request = write(address) if rng.random() < 0.3 else read(address)
            assert chop.access(request, now) == page.access(request, now)
            now += rng.randrange(1, 200)
        for name in ("stacked", "offchip"):
            assert _controller_state(getattr(chop, name)) == _controller_state(
                getattr(page, name)
            )
        counters = ("accesses", "hits", "bypasses", "fill_blocks", "writeback_blocks")
        assert [getattr(chop, name) for name in counters] == [
            getattr(page, name) for name in counters
        ]
        assert [list(entries.items()) for entries in chop._tags._entries] == [
            list(entries.items()) for entries in page._tags._entries
        ]
