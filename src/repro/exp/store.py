"""Persistent result store: JSONL keyed by stable config hashes.

Results live under ``benchmarks/results/cache/results.jsonl`` by default
(override with the ``REPRO_RESULT_STORE`` environment variable or an
explicit directory).  Each line is one record::

    {"key": "<sha256 prefix>", "point": {...}, "result": {...}}

Records are appended, the last record for a key wins, and unparseable
(torn) lines are skipped on load.  Because the key hashes the *resolved*
simulation config plus an engine-version tag
(:meth:`repro.exp.spec.ExperimentPoint.key`), results persist across
processes and pytest sessions and are invalidated in bulk by bumping
:data:`repro.exp.spec.ENGINE_VERSION`.

Writers coordinate: every append happens under an exclusive advisory
lock on a sidecar ``results.jsonl.lock`` (:mod:`repro.exp.locking`), so
any number of sweep processes and serve-layer job threads can share one
store without interleaving bytes or clobbering the torn-tail repair.

Readers are coherent without the file lock.  The rewrite contract makes
that cheap: writers only ever append whole lines, and the one rewrite
(:meth:`ResultStore.compact`, and :meth:`~ResultStore.gc` through it)
writes a temp file and swaps it in with ``os.replace``.  So a load
remembers the file's ``(mtime, size, inode)`` and a lookup reloads only
when another writer has changed it — it can never serve a record older
than the last load, only newer ones — while an instance's own appends
update its index in place.  An in-process lock guards that index, which
lets one instance serve many threads: ``repro serve`` keeps one store
for every job, results fetch and health probe, and parses the file
again only when another writer changes it.

Invalidation leaves dead lines behind: appending never deletes, so an
engine bump strands every old-version record, a re-run after ``--no-cache``
strands superseded duplicates, and a crash mid-append can leave a torn
tail line.  The store is self-managing through :meth:`ResultStore.stats`
(classify every line), :meth:`ResultStore.compact` (rewrite the file
with only the live records, byte-for-byte) and :meth:`ResultStore.gc`
(compact plus dropping records no known experiment references) — exposed
on the command line as ``python -m repro store {stats,compact,gc}``.

Stores also combine: :meth:`ResultStore.merge` folds other stores' live
records into one with byte-level conflict detection
(``python -m repro store merge SRC ... --into DST``), which is how the
shard execution backend's per-shard stores become the single store an
unsharded run would have produced.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.exp.locking import LOCK_SUFFIX, file_lock
from repro.exp.spec import ENGINE_VERSION, ExperimentPoint, point_key
from repro.sim.simulator import SimulationResult

STORE_FILENAME = "results.jsonl"

# The repo checkout this package lives in (src/repro/exp/ -> repo root).
_REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
)


def default_store_dir() -> str:
    """The store directory: ``$REPRO_RESULT_STORE`` or the benches' dir.

    Anchored to the repo checkout (not the cwd) so CLI runs, examples and
    benches all share one store; an installed package without a
    ``benchmarks/`` tree falls back to the working directory.
    """
    override = os.environ.get("REPRO_RESULT_STORE")
    if override:
        return override
    root = _REPO_ROOT if os.path.isdir(os.path.join(_REPO_ROOT, "benchmarks")) else ""
    return os.path.join(root, "benchmarks", "results", "cache")


def default_results_dir() -> str:
    """Where rendered figure artifacts go: ``benchmarks/results``.

    Anchored to the repo checkout like :func:`default_store_dir`, but
    deliberately *not* affected by ``$REPRO_RESULT_STORE``: redirecting
    the store must never silently redirect the golden ``.txt`` output.
    """
    root = _REPO_ROOT if os.path.isdir(os.path.join(_REPO_ROOT, "benchmarks")) else ""
    return os.path.join(root, "benchmarks", "results")


@dataclass(frozen=True)
class StoreStats:
    """One classification pass over the store file (``repro store stats``).

    Every line falls in exactly one bucket: ``live`` (the record lookups
    can serve), ``stale_engine`` (written by a different
    :data:`~repro.exp.spec.ENGINE_VERSION`), ``orphaned`` (key does not
    match its own point payload), ``duplicates`` (superseded by a later
    append of the same key) or ``torn`` (unparseable, e.g. a crashed
    append).  ``total_lines`` counts non-blank lines, so it is the sum
    of the five buckets.
    """

    path: str
    file_bytes: int
    total_lines: int
    live: int
    stale_engine: int
    orphaned: int
    duplicates: int
    torn: int

    @property
    def reclaimable(self) -> int:
        """Lines :meth:`ResultStore.compact` would drop."""
        return self.stale_engine + self.orphaned + self.duplicates + self.torn


@dataclass(frozen=True)
class MergeStats:
    """What one :meth:`ResultStore.merge` did (``repro store merge``).

    ``merged`` counts records appended to the destination;
    ``duplicates`` counts source records skipped because an identical
    record (same key, same bytes) was already present in the
    destination or an earlier source.  Conflicting records — same key,
    different bytes — never produce stats: :meth:`ResultStore.merge`
    raises before writing anything.
    """

    destination: str
    sources: Tuple[str, ...]
    merged: int
    duplicates: int


class StoreMergeConflict(ValueError):
    """Two stores disagree about a key's record bytes.

    Raised by :meth:`ResultStore.merge` before anything is written.  A
    conflict means the same resolved config produced different stored
    bytes — possible only if simulator code changed without an
    :data:`~repro.exp.spec.ENGINE_VERSION` bump, or a store was
    hand-edited; shard runs of one engine can only ever produce
    duplicates.  ``conflicts`` lists ``(key, source_path)`` pairs.
    """

    def __init__(self, conflicts):
        self.conflicts = list(conflicts)
        preview = ", ".join(
            f"{key} (from {path})" for key, path in self.conflicts[:3]
        )
        more = "" if len(self.conflicts) <= 3 else (
            f" and {len(self.conflicts) - 3} more"
        )
        super().__init__(
            f"{len(self.conflicts)} conflicting record(s): {preview}{more}; "
            f"stores disagree about these keys — nothing was merged"
        )


@dataclass(frozen=True)
class CompactionStats:
    """What one :meth:`ResultStore.compact` / :meth:`~ResultStore.gc` did."""

    kept: int
    dropped_stale: int
    dropped_orphaned: int
    dropped_duplicates: int
    dropped_torn: int
    dropped_unreferenced: int
    bytes_before: int
    bytes_after: int

    @property
    def dropped(self) -> int:
        """Total records removed from the file."""
        return (
            self.dropped_stale
            + self.dropped_orphaned
            + self.dropped_duplicates
            + self.dropped_torn
            + self.dropped_unreferenced
        )


class ResultStore:
    """Append-only JSONL store of :class:`SimulationResult` by config hash.

    Guarantees
    ----------
    * **Key stability** — the key is a content hash of the resolved
      simulation config (:meth:`ExperimentPoint.key`), so it is stable
      across processes, Python versions and insertion order, and two
      spellings of one experiment share one entry.
    * **Last write wins** — :meth:`put` appends; :meth:`get` serves the
      most recent record for a key.  Appends are atomic at the line
      level on POSIX, and torn lines are skipped on load.
    * **Concurrent writers are safe** — every append (and the
      torn-tail check it depends on) runs under an exclusive advisory
      file lock, so simultaneous writers — sweep processes, serve-layer
      job threads — never interleave bytes or lose records.  Reads stay
      free of the file lock but coherent: a load records the file's stat
      signature and reloads whenever another writer has changed it.
    * **One instance, many threads** — an in-process lock guards the
      index and its signature, so threads may share one instance.  Lock
      order: the file lock (writers) before the in-process lock, never
      after.
    * **Engine versioning** — records written under a different
      :data:`~repro.exp.spec.ENGINE_VERSION` hash differently and are
      invisible to lookups; they stay on disk until :meth:`compact`.
    * **Maintenance is lossless for live data** — :meth:`compact` and
      :meth:`gc` preserve the exact bytes of every record they keep.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory or default_store_dir()
        self.path = os.path.join(self.directory, STORE_FILENAME)
        self.lock_path = self.path + LOCK_SUFFIX
        self._mutex = threading.RLock()
        self._index: Optional[Dict[str, Dict[str, Any]]] = None
        self._loaded_stat: Optional[Tuple[int, int, int]] = None

    def _stat(self) -> Optional[Tuple[int, int, int]]:
        """The file's change signature: ``(mtime_ns, size, inode)``.

        Any append grows ``size``, any rewrite (:meth:`compact`) swaps
        the inode — so an unchanged signature means the bytes the last
        load saw are still exactly what is on disk.  The inode alone
        would not do: a number freed by one compaction can come back in
        a later one.  None when the file does not exist.
        """
        try:
            status = os.stat(self.path)
        except OSError:
            return None
        return (status.st_mtime_ns, status.st_size, status.st_ino)

    def _load(self) -> Dict[str, Dict[str, Any]]:
        """The key -> result index, reloading if the file changed on disk.

        The signature is taken *before* reading, so a write that lands
        mid-read makes the signature stale and triggers a fresh reload
        on the next access — reads are never torn, at worst repeated.
        Loads run under the in-process lock, so threads sharing this
        instance never see an index half built or half replaced.
        """
        with self._mutex:
            stat = self._stat()
            if self._index is None or stat != self._loaded_stat:
                index: Dict[str, Dict[str, Any]] = {}
                if stat is not None:
                    with open(self.path) as handle:
                        for line in handle:
                            line = line.strip()
                            if not line:
                                continue
                            try:
                                record = json.loads(line)
                                index[record["key"]] = record["result"]
                            except (json.JSONDecodeError, KeyError, TypeError):
                                continue
                self._index = index
                self._loaded_stat = stat
            return self._index

    def get(self, point: ExperimentPoint) -> Optional[SimulationResult]:
        """The stored result for ``point``, or None."""
        record = self._load().get(point.key())
        if record is None:
            return None
        return SimulationResult.from_dict(record)

    def _tail_missing_newline(self) -> bool:
        """True if the store file ends in a torn, newline-less line.

        Appending straight after such a tail would glue the new record
        onto the torn line, corrupting both; :meth:`_append_locked`
        writes a leading newline instead, which turns the torn tail into
        an ordinary skippable torn line.
        """
        try:
            with open(self.path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                return handle.read(1) != b"\n"
        except (OSError, ValueError):  # missing or empty file
            return False

    def _append_locked(self, lines: Iterable[str]) -> None:
        """Append ``lines``; the caller must hold :attr:`lock_path`.

        The single append protocol: :meth:`put` and :meth:`merge` both
        write through here, so directly-written and shard-merged stores
        cannot diverge in on-disk format.  The torn-tail check and the
        append are one critical section: checking outside the lock could
        glue two writers' repairs (or a repair and a record) together.
        """
        os.makedirs(self.directory, exist_ok=True)
        repair = self._tail_missing_newline()
        with open(self.path, "a") as handle:
            if repair:
                handle.write("\n")
            for line in lines:
                handle.write(line + "\n")

    def put(self, point: ExperimentPoint, result: SimulationResult) -> None:
        """Persist ``result`` under ``point``'s config hash.

        Like :meth:`merge`, a record whose key already holds identical
        bytes is not appended again; a differing result appends (last
        write wins).
        """
        record = {
            "key": point.key(),
            "point": point.describe(),
            "result": result.to_dict(),
        }
        line = json.dumps(record, sort_keys=True)
        with file_lock(self.lock_path), self._mutex:
            # Load-then-append under one lock: the refreshed index picks
            # up every concurrent writer's records, our append lands
            # after them, and the post-append signature is taken while
            # no other writer can slip in — so the cached index stays
            # exactly the file's content.  The in-process lock keeps
            # this instance's other threads from loading in between.
            index = self._load()
            stored = index.get(record["key"])
            # Results round-trip exactly (SimulationResult.to_dict), and
            # the key pins the point, so re-serialising the stored result
            # reproduces the stored line.
            if stored is not None and json.dumps(
                dict(record, result=stored), sort_keys=True
            ) == line:
                return
            self._append_locked([line])
            index[record["key"]] = record["result"]
            self._loaded_stat = self._stat()

    def invalidate(self) -> None:
        """Forget the in-memory index (reload from disk on next access)."""
        with self._mutex:
            self._index = None
            self._loaded_stat = None

    # ------------------------------------------------------------------
    # Maintenance: stats / compact / gc
    # ------------------------------------------------------------------

    def _classify(self) -> List[Tuple[str, str, Optional[str]]]:
        """Classify every non-blank line as ``(raw, kind, key)``.

        ``kind`` is one of ``live`` / ``stale`` / ``orphaned`` /
        ``duplicate`` / ``torn``; ``raw`` is the line exactly as stored
        (without the trailing newline) so maintenance can rewrite kept
        records byte-for-byte.
        """
        entries: List[Tuple[str, str, Optional[str]]] = []
        last_for_key: Dict[str, int] = {}
        if os.path.exists(self.path):
            with open(self.path) as handle:
                for line in handle:
                    raw = line.rstrip("\n")
                    if not raw.strip():
                        continue
                    try:
                        record = json.loads(raw)
                        key = record["key"]
                        point = record["point"]
                        record["result"]
                    except (json.JSONDecodeError, KeyError, TypeError):
                        entries.append((raw, "torn", None))
                        continue
                    if not isinstance(point, dict) or not isinstance(key, str):
                        entries.append((raw, "torn", None))
                        continue
                    if point.get("engine") != ENGINE_VERSION:
                        entries.append((raw, "stale", key))
                        continue
                    if point_key(point) != key:
                        entries.append((raw, "orphaned", key))
                        continue
                    if key in last_for_key:
                        # The earlier append is superseded: last write wins.
                        index = last_for_key[key]
                        entries[index] = (entries[index][0], "duplicate", key)
                    entries.append((raw, "live", key))
                    last_for_key[key] = len(entries) - 1
        return entries

    def stats(self) -> StoreStats:
        """Classify every line of the store file; see :class:`StoreStats`."""
        counts = {"live": 0, "stale": 0, "orphaned": 0, "duplicate": 0, "torn": 0}
        entries = self._classify()
        for _, kind, _ in entries:
            counts[kind] += 1
        return StoreStats(
            path=self.path,
            file_bytes=os.path.getsize(self.path) if os.path.exists(self.path) else 0,
            total_lines=len(entries),
            live=counts["live"],
            stale_engine=counts["stale"],
            orphaned=counts["orphaned"],
            duplicates=counts["duplicate"],
            torn=counts["torn"],
        )

    def compact(self, keep_keys: Optional[Iterable[str]] = None) -> CompactionStats:
        """Rewrite the JSONL with only the live records.

        Drops stale-engine records, orphaned records (key inconsistent
        with the stored point), superseded duplicates and torn lines.
        With ``keep_keys`` (see :meth:`gc`), live records whose key is
        not in the set are dropped too, as *unreferenced*.

        Kept records keep their exact original bytes and relative order,
        so every surviving lookup returns bit-identical results.  The
        rewrite goes through a temp file and an atomic ``os.replace``;
        a crash mid-compaction leaves the original file untouched.
        """
        referenced: Optional[Set[str]] = (
            None if keep_keys is None else set(keep_keys)
        )
        with file_lock(self.lock_path):
            # Classify-and-rewrite is one critical section: a record
            # appended between the read and the replace would be lost.
            bytes_before = (
                os.path.getsize(self.path) if os.path.exists(self.path) else 0
            )
            entries = self._classify()
            kept: List[str] = []
            dropped = {"stale": 0, "orphaned": 0, "duplicate": 0, "torn": 0,
                       "unreferenced": 0}
            for raw, kind, key in entries:
                if kind != "live":
                    dropped[kind] += 1
                elif referenced is not None and key not in referenced:
                    dropped["unreferenced"] += 1
                else:
                    kept.append(raw)

            if entries:
                tmp_path = self.path + ".tmp"
                with open(tmp_path, "w") as handle:
                    for raw in kept:
                        handle.write(raw + "\n")
                os.replace(tmp_path, self.path)
            self.invalidate()
            bytes_after = (
                os.path.getsize(self.path) if os.path.exists(self.path) else 0
            )

        return CompactionStats(
            kept=len(kept),
            dropped_stale=dropped["stale"],
            dropped_orphaned=dropped["orphaned"],
            dropped_duplicates=dropped["duplicate"],
            dropped_torn=dropped["torn"],
            dropped_unreferenced=dropped["unreferenced"],
            bytes_before=bytes_before,
            bytes_after=bytes_after,
        )

    def merge(self, sources: Iterable["ResultStore"]) -> MergeStats:
        """Fold other stores' live records into this one (shard merge).

        The counterpart of :class:`~repro.exp.backends.ShardBackend`:
        after ``n`` shard invocations into ``n`` store directories, a
        merge produces one store equivalent to the unsharded run.

        For every *live* record of every source (in order; stale,
        orphaned, duplicate and torn source lines are ignored, exactly
        as :meth:`compact` classifies them):

        * key absent from the destination — the record is appended with
          its original bytes, so merged and directly-written stores are
          record-for-record byte-identical;
        * key present with identical bytes — skipped, counted as a
          duplicate (shards may legitimately overlap, e.g. key-duplicate
          grid points landing in different shards);
        * key present with different bytes — a conflict.  All sources
          are scanned first and :class:`StoreMergeConflict` is raised
          before anything is written, so a failed merge never leaves a
          half-merged destination.

        Merging a store into itself is rejected.
        """
        # Source records are collected outside the destination lock
        # (sources are read-only here); the destination's classify +
        # conflict check + append run as one locked critical section so
        # a record appended concurrently can neither be missed by the
        # conflict scan nor interleaved with the merged lines.
        source_records: List[Tuple[str, str, str]] = []
        paths: List[str] = []
        own = os.path.abspath(self.path)
        for source in sources:
            if os.path.abspath(source.path) == own:
                raise ValueError(f"cannot merge store {self.path!r} into itself")
            if not os.path.exists(source.path):
                raise ValueError(f"source store has no results file: {source.path}")
            paths.append(source.path)
            for raw, kind, key in source._classify():
                if kind == "live":
                    source_records.append((raw, key, source.path))

        appended: List[str] = []
        conflicts: List[Tuple[str, str]] = []
        merged = duplicates = 0
        with file_lock(self.lock_path):
            combined: Dict[str, str] = {
                key: raw for raw, kind, key in self._classify() if kind == "live"
            }
            for raw, key, source_path in source_records:
                existing = combined.get(key)
                if existing is None:
                    combined[key] = raw
                    appended.append(raw)
                    merged += 1
                elif existing == raw:
                    duplicates += 1
                else:
                    conflicts.append((key, source_path))
            if conflicts:
                raise StoreMergeConflict(conflicts)
            if appended:
                self._append_locked(appended)
                self.invalidate()
        return MergeStats(
            destination=self.path,
            sources=tuple(paths),
            merged=merged,
            duplicates=duplicates,
        )

    def gc(self, referenced: Iterable[ExperimentPoint]) -> CompactionStats:
        """Compact, additionally dropping records no referenced point needs.

        ``referenced`` names the experiments that must stay warm —
        typically every point of every registered figure
        (:func:`repro.reporting.referenced_points`).  Anything else
        (abandoned one-off sweeps, retired grids) is garbage-collected.
        """
        return self.compact(keep_keys=(point.key() for point in referenced))

    def __contains__(self, point: ExperimentPoint) -> bool:
        return point.key() in self._load()

    def __len__(self) -> int:
        return len(self._load())
