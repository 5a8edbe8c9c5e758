"""Cross-module property tests: invariants that must survive any trace.

These drive whole cache designs with hypothesis-generated request
sequences and check conservation-style invariants: traffic accounting,
state-machine consistency between metadata structures, and the Table 2
encoding rules at the cache level.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.caches.block_cache import BlockBasedCache
from repro.caches.missmap import MissMap
from repro.caches.page_cache import PageBasedCache
from repro.caches.subblock_cache import SubBlockedCache
from repro.core.footprint_cache import FootprintCache
from repro.core.footprint_predictor import FootprintHistoryTable
from repro.core.singleton_table import SingletonTable
from repro.dram.address_mapping import AddressMapping
from repro.dram.bank import RowBufferPolicy
from repro.dram.controller import MemoryController
from repro.dram.timing import OFF_CHIP_DDR3_1600, STACKED_DDR3_3200
from repro.mem.request import AccessType, MemoryRequest

# A compact address space: 64 pages of 2KB, 32 blocks each.
requests_strategy = st.lists(
    st.tuples(
        st.integers(0, 63),      # page index
        st.integers(0, 31),      # block offset
        st.booleans(),           # write?
        st.integers(0, 7),       # pc selector
    ),
    min_size=1,
    max_size=400,
)


def fresh_controllers():
    stacked = MemoryController(
        timing=STACKED_DDR3_3200,
        mapping=AddressMapping(
            channels=4, banks_per_channel=8, row_bytes=2048, interleave_bytes=2048
        ),
        policy=RowBufferPolicy.OPEN_PAGE,
    )
    offchip = MemoryController(
        timing=OFF_CHIP_DDR3_1600,
        mapping=AddressMapping(
            channels=1, banks_per_channel=8, row_bytes=2048, interleave_bytes=2048
        ),
        policy=RowBufferPolicy.OPEN_PAGE,
    )
    return stacked, offchip


def replay(cache, operations):
    now = 0
    for page, offset, is_write, pc in operations:
        request = MemoryRequest(
            address=page * 2048 + offset * 64,
            pc=0x400 + pc * 4,
            access_type=AccessType.WRITE if is_write else AccessType.READ,
        )
        result = cache.access(request, now)
        assert result.latency >= 0
        now += 50
    return cache


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(requests_strategy)
def test_footprint_cache_invariants(operations):
    stacked, offchip = fresh_controllers()
    cache = FootprintCache(
        stacked,
        offchip,
        capacity_bytes=8 * 2048,
        associativity=4,
        tag_latency=9,
        fht=FootprintHistoryTable(num_entries=64, associativity=8, blocks_per_page=32),
        singleton_table=SingletonTable(num_entries=16, associativity=4),
    )
    replay(cache, operations)

    # Hits + misses == accesses; every counter consistent.
    assert cache.hits + cache.misses == cache.accesses == len(operations)
    assert 0.0 <= cache.miss_ratio <= 1.0

    # Table 2 invariants on every resident page.
    for page, entry in cache._tags.items():
        bits = entry.blocks
        assert bits.dirty_mask & ~bits.demanded_mask == 0
        assert bits.demanded_mask & ~bits.present_mask == 0
        # Frames are page-aligned and inside the cache.
        assert entry.frame % 2048 == 0
        assert 0 <= entry.frame < 8 * 2048

    # Frames of resident pages are unique (no aliasing in stacked DRAM).
    frames = [entry.frame for _, entry in cache._tags.items()]
    assert len(frames) == len(set(frames))

    # Traffic conservation: every off-chip read was either a fill or a
    # bypassed block; fills are bounded by reads.
    assert offchip.bytes_read == cache.fill_blocks * 64
    assert offchip.bytes_written >= cache.writeback_blocks * 64


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(requests_strategy)
def test_block_cache_missmap_consistency(operations):
    stacked, offchip = fresh_controllers()
    cache = BlockBasedCache(
        stacked,
        offchip,
        capacity_bytes=8 * 2048,
        missmap=MissMap(num_entries=48, associativity=24),
    )
    replay(cache, operations)
    assert cache.hits + cache.misses == cache.accesses == len(operations)

    # The MissMap never claims presence of a block the tag store lost:
    # re-accessing every touched block must not raise.
    seen = {(page * 2048 + offset * 64) for page, offset, _, _ in operations}
    now = 10_000_000
    for address in sorted(seen):
        cache.access(MemoryRequest(address=address), now)
        now += 100


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(requests_strategy)
def test_page_cache_frame_conservation(operations):
    stacked, offchip = fresh_controllers()
    cache = PageBasedCache(
        stacked, offchip, capacity_bytes=8 * 2048, associativity=4, tag_latency=4
    )
    replay(cache, operations)
    assert cache.resident_pages <= 8
    # All fills are whole pages.
    assert cache.fill_blocks % 32 == 0


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(requests_strategy)
def test_subblock_never_overfetches(operations):
    stacked, offchip = fresh_controllers()
    cache = SubBlockedCache(
        stacked, offchip, capacity_bytes=8 * 2048, associativity=4, tag_latency=4
    )
    replay(cache, operations)
    # Off-chip reads exactly equal miss count (one block per miss).
    assert offchip.bytes_read == cache.misses * 64


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(requests_strategy, st.booleans())
def test_footprint_and_subblock_same_allocation_decisions(operations, _):
    """With the singleton optimisation off, the Footprint Cache allocates
    exactly the pages a sub-blocked cache allocates (same allocation unit,
    same replacement); only the *fetch* differs."""
    stacked_a, offchip_a = fresh_controllers()
    footprint = FootprintCache(
        stacked_a,
        offchip_a,
        capacity_bytes=8 * 2048,
        associativity=4,
        tag_latency=4,
        fht=FootprintHistoryTable(num_entries=64, associativity=8, blocks_per_page=32),
        singleton_table=None,
        singleton_optimization=False,
    )
    stacked_b, offchip_b = fresh_controllers()
    subblock = SubBlockedCache(
        stacked_b, offchip_b, capacity_bytes=8 * 2048, associativity=4, tag_latency=4
    )
    replay(footprint, operations)
    replay(subblock, operations)
    footprint_pages = sorted(page for page, _ in footprint._tags.items())
    subblock_pages = sorted(page for page, _ in subblock._tags.items())
    assert footprint_pages == subblock_pages
