"""Unit and property tests for the generic set-associative structure."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.caches.sram_cache import SetAssociativeCache


def direct_indexed(num_sets=4, associativity=2):
    return SetAssociativeCache(
        num_sets=num_sets,
        associativity=associativity,
        set_index=lambda key: key % num_sets,
    )


class TestBasics:
    def test_empty_lookup(self):
        assert direct_indexed().lookup(3) is None

    def test_insert_then_lookup(self):
        cache = direct_indexed()
        cache.insert(3, "x")
        assert cache.lookup(3) == "x"
        assert 3 in cache

    def test_reinsert_replaces_payload(self):
        cache = direct_indexed()
        cache.insert(3, "x")
        assert cache.insert(3, "y") is None
        assert cache.lookup(3) == "y"
        assert len(cache) == 1

    def test_capacity(self):
        assert direct_indexed(4, 2).capacity == 8

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(num_sets=0, associativity=1)
        with pytest.raises(ValueError):
            SetAssociativeCache(num_sets=1, associativity=0)


class TestEviction:
    def test_lru_eviction_within_set(self):
        cache = direct_indexed(num_sets=1, associativity=2)
        cache.insert(0, "a")
        cache.insert(1, "b")
        eviction = cache.insert(2, "c")
        assert eviction is not None
        assert eviction.key == 0
        assert eviction.payload == "a"

    def test_touch_changes_victim(self):
        cache = direct_indexed(num_sets=1, associativity=2)
        cache.insert(0, "a")
        cache.insert(1, "b")
        cache.lookup(0)
        eviction = cache.insert(2, "c")
        assert eviction.key == 1

    def test_lookup_without_touch(self):
        cache = direct_indexed(num_sets=1, associativity=2)
        cache.insert(0, "a")
        cache.insert(1, "b")
        cache.lookup(0, touch=False)
        eviction = cache.insert(2, "c")
        assert eviction.key == 0

    def test_sets_are_independent(self):
        cache = direct_indexed(num_sets=2, associativity=1)
        cache.insert(0, "even")
        assert cache.insert(1, "odd") is None
        eviction = cache.insert(2, "even2")
        assert eviction.key == 0

    def test_victim_candidate_peek(self):
        cache = direct_indexed(num_sets=1, associativity=1)
        cache.insert(0, "a")
        candidate = cache.victim_candidate(1)
        assert candidate == (0, "a")
        # Peeking does not evict.
        assert cache.lookup(0, touch=False) == "a"

    def test_victim_candidate_none_when_room(self):
        cache = direct_indexed(num_sets=1, associativity=2)
        cache.insert(0, "a")
        assert cache.victim_candidate(1) is None

    def test_victim_candidate_none_when_resident(self):
        cache = direct_indexed(num_sets=1, associativity=1)
        cache.insert(0, "a")
        assert cache.victim_candidate(0) is None

    def test_lru_sequence(self):
        cache = SetAssociativeCache(num_sets=1, associativity=4)
        for key in "abcd":
            cache.insert(key, key.upper())
        cache.lookup("b")
        cache.lookup("a")
        victims = [cache.insert(key, None).key for key in "wxyz"]
        assert victims == ["c", "d", "b", "a"]

    def test_reinsert_makes_most_recent(self):
        cache = direct_indexed(num_sets=1, associativity=2)
        cache.insert(0, "a")
        cache.insert(1, "b")
        cache.insert(0, "a2")
        eviction = cache.insert(2, "c")
        assert (eviction.key, eviction.payload) == (1, "b")
        assert list(cache.items()) == [(0, "a2"), (2, "c")]


class TestInvalidate:
    def test_invalidate_returns_payload(self):
        cache = direct_indexed()
        cache.insert(3, "x")
        assert cache.invalidate(3) == "x"
        assert cache.lookup(3) is None

    def test_invalidate_missing_returns_none(self):
        assert direct_indexed().invalidate(3) is None

    def test_invalidate_frees_way(self):
        cache = direct_indexed(num_sets=1, associativity=1)
        cache.insert(0, "a")
        cache.invalidate(0)
        assert cache.insert(1, "b") is None


class TestIteration:
    def test_items(self):
        cache = direct_indexed()
        cache.insert(1, "a")
        cache.insert(2, "b")
        assert dict(cache.items()) == {1: "a", 2: "b"}

    def test_set_occupancy(self):
        cache = direct_indexed(num_sets=2, associativity=4)
        cache.insert(0, "a")
        cache.insert(2, "b")
        cache.insert(1, "c")
        assert cache.set_occupancy(0) == 2
        assert cache.set_occupancy(1) == 1

    def test_set_occupancy_out_of_range(self):
        with pytest.raises(IndexError):
            direct_indexed().set_occupancy(99)


class TestBadSetIndex:
    def test_out_of_range_index_rejected(self):
        cache = SetAssociativeCache(num_sets=2, associativity=1, set_index=lambda k: 5)
        with pytest.raises(ValueError):
            cache.insert(0, "x")


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(st.sampled_from(["insert", "lookup", "invalidate"]), st.integers(0, 30)),
        max_size=300,
    )
)
def test_occupancy_invariants(operations):
    """Occupancy never exceeds capacity; sets never exceed associativity."""
    cache = SetAssociativeCache(
        num_sets=4, associativity=3, set_index=lambda k: k % 4
    )
    resident = set()
    for op, key in operations:
        if op == "insert":
            eviction = cache.insert(key, key * 10)
            resident.add(key)
            if eviction is not None:
                resident.discard(eviction.key)
        elif op == "lookup":
            value = cache.lookup(key)
            assert (value is not None) == (key in resident)
        else:
            cache.invalidate(key)
            resident.discard(key)
        assert len(cache) == len(resident)
        for set_id in range(4):
            assert cache.set_occupancy(set_id) <= 3


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "lookup", "peek", "invalidate"]),
            st.integers(0, 5),
        ),
        min_size=40,
        max_size=300,
    )
)
def test_lru_model_equivalence(operations):
    """Each set behaves like an ordered-list LRU model.

    Every eviction and every ``victim_candidate`` names the model's
    least-recent key, and ``items()`` yields each set in the model's
    order, least recent first.
    """
    # Three keys share each set of two ways, so hits, misses, touches
    # and evictions come up often; the 40-operation minimum keeps the
    # generated lists long enough to reach them.
    num_sets, ways = 2, 2
    cache = SetAssociativeCache(
        num_sets=num_sets, associativity=ways, set_index=lambda k: k % num_sets
    )
    model = [[] for _ in range(num_sets)]  # per set; front = least recent
    payloads = {}
    for step, (op, key) in enumerate(operations):
        order = model[key % num_sets]
        if op == "insert":
            candidate = cache.victim_candidate(key)
            eviction = cache.insert(key, step)
            if key not in order and len(order) == ways:
                victim = order.pop(0)
                assert candidate == (victim, payloads[victim])
                assert (eviction.key, eviction.payload) == candidate
            else:
                assert candidate is None and eviction is None
            if key in order:
                order.remove(key)
            order.append(key)
            payloads[key] = step
        elif op == "invalidate":
            expected = payloads[key] if key in order else None
            assert cache.invalidate(key) == expected
            if key in order:
                order.remove(key)
        else:
            touch = op == "lookup"
            expected = payloads[key] if key in order else None
            assert cache.lookup(key, touch=touch) == expected
            if touch and key in order:
                order.remove(key)
                order.append(key)
        assert list(cache.items()) == [
            (k, payloads[k]) for keys in model for k in keys
        ]
