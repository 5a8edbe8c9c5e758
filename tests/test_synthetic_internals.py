"""White-box tests of the synthetic trace engine's mechanisms."""

import random
import sys
import threading

import pytest

from repro.workloads.profiles import AccessFunctionSpec, WorkloadProfile, profile_for
from repro.workloads.synthetic import SyntheticWorkload, _AccessFunction, _ZipfSampler

MB = 1024 * 1024


def make_function(kind="sequential", drift=0.0, zipf_alpha=0.0, **kwargs):
    spec = AccessFunctionSpec(
        kind=kind,
        weight=1.0,
        min_blocks=kwargs.pop("min_blocks", 4),
        max_blocks=kwargs.pop("max_blocks", 8),
        zipf_alpha=zipf_alpha,
        drift=drift,
        **kwargs,
    )
    return _AccessFunction(
        spec=spec,
        pcs=[0x400, 0x404],
        region_base=0,
        region_pages=1000,
        page_size=2048,
        blocks_per_page=32,
        rng=random.Random(42),
    )


class TestZipfSampler:
    def test_uniform_when_alpha_zero(self):
        sampler = _ZipfSampler(100, 0.0)
        counts = [0] * 100
        rng = random.Random(0)
        for _ in range(10_000):
            counts[sampler.sample(rng.random())] += 1
        assert max(counts) < 3 * min(c for c in counts if c)

    def test_skewed_when_alpha_high(self):
        sampler = _ZipfSampler(100, 1.5)
        rng = random.Random(0)
        draws = [sampler.sample(rng.random()) for _ in range(10_000)]
        top = sum(1 for d in draws if d == 0)
        assert top > 2_000  # rank 0 dominates

    def test_samples_in_range(self):
        sampler = _ZipfSampler(10, 0.9)
        for u in (0.0, 0.25, 0.5, 0.999999):
            assert 0 <= sampler.sample(u) < 10

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            _ZipfSampler(0, 1.0)

    def test_cdf_cached(self):
        a = _ZipfSampler(500, 0.8)
        b = _ZipfSampler(500, 0.8)
        assert a._cdf is b._cdf

    def test_close_alphas_get_their_own_cdf(self):
        _ZipfSampler(1000, 0.5)
        close = _ZipfSampler(1000, 0.5000001)
        assert (close._cdf == _ZipfSampler._build_cdf(1000, 0.5000001)).all()

    def test_cache_bounded_by_lru(self):
        _ZipfSampler._cache.clear()
        bound = _ZipfSampler._cache_max_entries
        for n in range(1, bound + 10):
            _ZipfSampler(n, 0.8)
        assert len(_ZipfSampler._cache) == bound
        # The oldest entries were evicted, the newest kept.
        assert (1, 0.8) not in _ZipfSampler._cache
        assert (bound + 9, 0.8) in _ZipfSampler._cache

    def test_eviction_does_not_change_sampled_ranks(self):
        _ZipfSampler._cache.clear()
        before = _ZipfSampler(400, 1.2)
        draws = [i / 97.0 % 1.0 for i in range(97)]
        expected = [before.sample(u) for u in draws]
        # Flood the cache until (400, 1.2) is evicted ...
        for n in range(1000, 1000 + _ZipfSampler._cache_max_entries + 5):
            _ZipfSampler(n, 0.8)
        assert (400, 1.2) not in _ZipfSampler._cache
        # ... the live sampler keeps its CDF, and a recomputed sampler
        # produces identical ranks.
        assert [before.sample(u) for u in draws] == expected
        rebuilt = _ZipfSampler(400, 1.2)
        assert [rebuilt.sample(u) for u in draws] == expected

    def test_lru_touch_on_reuse(self):
        _ZipfSampler._cache.clear()
        _ZipfSampler(10, 0.5)
        for n in range(20, 20 + _ZipfSampler._cache_max_entries - 1):
            _ZipfSampler(n, 0.5)
        _ZipfSampler(10, 0.5)  # touch: becomes most-recently-used
        _ZipfSampler(999, 0.5)  # evicts the oldest, which is no longer (10, .5)
        assert (10, 0.5) in _ZipfSampler._cache

    def test_concurrent_construction_over_more_keys_than_the_cache(self):
        """Threads that cycle through more (n, alpha) pairs than the cache
        holds evict each other's keys; a lookup must never see its key
        vanish between the hit and the LRU touch."""
        _ZipfSampler._cache.clear()
        sizes = range(2, 2 + _ZipfSampler._cache_max_entries + 8)
        errors = []

        def construct(seed):
            rng = random.Random(seed)
            try:
                for _ in range(4000):
                    _ZipfSampler(rng.choice(sizes), 0.8)
            except Exception as error:  # noqa: BLE001 - collected for the assert
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=construct, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(_ZipfSampler._cache) == _ZipfSampler._cache_max_entries


class TestFootprintMemo:
    def test_footprint_stable_without_drift(self):
        function = make_function(drift=0.0)
        first = function.footprint(0x400, 3)
        for _ in range(10):
            assert function.footprint(0x400, 3) == first

    def test_footprint_varies_by_key(self):
        function = make_function(kind="sparse", min_blocks=3, max_blocks=6)
        a = function.footprint(0x400, 3)
        b = function.footprint(0x404, 3)
        # Different PCs may memoise different patterns (not guaranteed
        # different, but both must contain their trigger block).
        assert 3 in a and 3 in b

    def test_drift_eventually_changes_footprint(self):
        function = make_function(kind="sparse", drift=0.5, min_blocks=3, max_blocks=8)
        first = function.footprint(0x400, 0)
        changed = any(function.footprint(0x400, 0) != first for _ in range(50))
        assert changed

    def test_trigger_block_always_first(self):
        for kind in ("sequential", "strided", "sparse", "singleton", "full"):
            function = make_function(kind=kind)
            pattern = function.footprint(0x400, 5)
            assert pattern[0] == 5

    def test_patterns_stay_in_page(self):
        for kind in ("sequential", "strided", "sparse", "singleton", "full"):
            function = make_function(kind=kind, min_blocks=4, max_blocks=30)
            for first in (0, 7, 31):
                pattern = function.footprint(0x400 + first, first)
                assert all(0 <= block < 32 for block in pattern)

    def test_full_pattern_covers_page(self):
        function = make_function(kind="full")
        assert sorted(function.footprint(0x400, 0)) == list(range(32))

    def test_singleton_is_single(self):
        function = make_function(kind="singleton")
        assert function.footprint(0x400, 9) == (9,)

    def test_strided_spacing(self):
        function = make_function(kind="strided", stride=4, min_blocks=3, max_blocks=3)
        pattern = function.footprint(0x400, 2)
        assert pattern == (2, 6, 10)


class TestPageSelection:
    def test_streaming_never_repeats_until_wrap(self):
        function = make_function(zipf_alpha=0.0)
        pages = [function.next_page() for _ in range(500)]
        assert len(set(pages)) == 500

    def test_zipf_repeats(self):
        function = make_function(zipf_alpha=1.2)
        pages = [function.next_page() for _ in range(500)]
        assert len(set(pages)) < 400

    def test_pages_within_region(self):
        function = make_function(zipf_alpha=0.5)
        for _ in range(200):
            page = function.next_page()
            assert 0 <= page < 1000 * 2048
            assert page % 2048 == 0

    def test_alignment_deterministic_per_page(self):
        function = make_function()
        page = 17 * 2048
        assert function.first_offset(page) == function.first_offset(page)

    def test_pc_deterministic_per_page(self):
        function = make_function()
        page = 23 * 2048
        assert function.pick_pc(page) == function.pick_pc(page)


class TestPoolMechanics:
    def test_pool_bounded(self):
        workload = SyntheticWorkload(profile_for("web_search"), seed=0)
        for _ in workload.requests(2000):
            assert len(workload._pool) <= workload.profile.pool_size

    def test_visit_blocks_emitted_in_order(self):
        profile = WorkloadProfile(
            name="single",
            functions=(
                AccessFunctionSpec(
                    kind="sequential", weight=1.0, min_blocks=4, max_blocks=4,
                    zipf_alpha=0.0,
                ),
            ),
            dataset_bytes=MB,
            pool_size=1,
        )
        workload = SyntheticWorkload(profile, seed=1)
        offsets = [r.block_index_in_page(2048) for r in workload.requests(8)]
        # Pool of one visit: each 4-block visit plays out sequentially.
        first_visit = offsets[:4]
        assert first_visit == sorted(first_visit)
