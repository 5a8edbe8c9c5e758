"""Generic LRU set-associative cache over hashable keys with payloads.

This is the workhorse behind every tag structure in the repo: DRAM-cache
tag arrays, the MissMap, the Footprint History Table, the Singleton Table,
the CHOP filter table, and the (optional) L2 model are all LRU
set-associative structures differing only in key, payload and geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generic, Hashable, List, Optional, Tuple, TypeVar

Key = TypeVar("Key", bound=Hashable)
Payload = TypeVar("Payload")


@dataclass(slots=True)
class Eviction(Generic[Key, Payload]):
    """A (key, payload) pair pushed out of a set by an insertion."""

    key: Key
    payload: Payload


_MISSING = object()
"""Sentinel distinguishing "absent" from a legitimately-None payload."""


class SetAssociativeCache(Generic[Key, Payload]):
    """Set-associative key/payload store with LRU replacement.

    Each set is one dict whose order is its recency: Python dicts keep
    insertion order, so a touch deletes and re-inserts the key, the
    first key is the least recently used, and an eviction pops it.

    Parameters
    ----------
    num_sets:
        Number of sets (power of two not required; indexing is modulo).
    associativity:
        Ways per set.
    set_index:
        Optional function mapping a key to its set index; defaults to
        ``hash(key) % num_sets``.  DRAM cache tag arrays pass the page
        number so that set indexing matches real address slicing.
    """

    def __init__(
        self,
        num_sets: int,
        associativity: int,
        set_index: Optional[Callable[[Key], int]] = None,
    ) -> None:
        if num_sets <= 0:
            raise ValueError(f"num_sets must be positive, got {num_sets}")
        if associativity <= 0:
            raise ValueError(f"associativity must be positive, got {associativity}")
        self.num_sets = num_sets
        self.associativity = associativity
        self._set_index = set_index or (lambda key: hash(key) % num_sets)
        self._entries: List[Dict[Key, Payload]] = [{} for _ in range(num_sets)]

    @property
    def capacity(self) -> int:
        """Total entries this structure can hold."""
        return self.num_sets * self.associativity

    def __len__(self) -> int:
        return sum(len(s) for s in self._entries)

    def __contains__(self, key: Key) -> bool:
        return key in self._entries[self._index_of(key)]

    def _index_of(self, key: Key) -> int:
        index = self._set_index(key)
        if not 0 <= index < self.num_sets:
            raise ValueError(f"set_index returned {index}, outside [0, {self.num_sets})")
        return index

    def lookup(self, key: Key, touch: bool = True) -> Optional[Payload]:
        """Payload for ``key`` or None; makes it most recent when ``touch``.

        This is the hottest method of every tag structure, so the set
        index validation is inlined and the set dict is probed once.
        """
        set_id = self._set_index(key)
        if not 0 <= set_id < self.num_sets:
            raise ValueError(f"set_index returned {set_id}, outside [0, {self.num_sets})")
        entries = self._entries[set_id]
        payload = entries.get(key, _MISSING)
        if payload is _MISSING:
            return None
        if touch:
            del entries[key]
            entries[key] = payload
        return payload

    def insert(self, key: Key, payload: Payload) -> Optional[Eviction[Key, Payload]]:
        """Insert ``key``; returns the eviction it forced, if any.

        Inserting an already-resident key replaces its payload and makes
        it most recent (no eviction).
        """
        entries = self._entries[self._index_of(key)]
        evicted: Optional[Eviction[Key, Payload]] = None
        if key in entries:
            del entries[key]
        elif len(entries) >= self.associativity:
            victim_key = next(iter(entries))
            evicted = Eviction(key=victim_key, payload=entries.pop(victim_key))
        entries[key] = payload
        return evicted

    def invalidate(self, key: Key) -> Optional[Payload]:
        """Remove ``key``; returns its payload or None if absent."""
        return self._entries[self._index_of(key)].pop(key, None)

    def victim_candidate(self, key: Key) -> Optional[Tuple[Key, Payload]]:
        """Peek at what inserting ``key`` would evict (None if room/resident)."""
        entries = self._entries[self._index_of(key)]
        if key in entries or len(entries) < self.associativity:
            return None
        victim_key = next(iter(entries))
        return victim_key, entries[victim_key]

    def items(self):
        """Iterate (key, payload) over all resident entries.

        Sets come in index order, each least recent first.  No caller
        depends on the order within a set.
        """
        for entries in self._entries:
            yield from entries.items()

    def set_occupancy(self, set_id: int) -> int:
        """Resident entries in one set (for fragmentation analyses)."""
        if not 0 <= set_id < self.num_sets:
            raise IndexError(f"set {set_id} out of range")
        return len(self._entries[set_id])
