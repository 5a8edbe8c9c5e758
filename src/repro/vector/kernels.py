"""Per-design batch replay kernels (byte-parity mirrors of the scalar path).

Each kernel replays one trace segment: a NumPy precompute pass turns the
columnar segment into flat Python lists (page, block offset, tag set,
write flag, core, instruction-cycle product), then ONE tight loop applies
the *same arithmetic in the same order* as the scalar reference —
the design's full access flow + ``MemoryController.access`` + the
simulator's per-core time recurrence — writing directly through to the
real simulation state (banks, recency-ordered set dicts, tag entries,
block bit vectors, frame free-lists, predictor tables, per-core clocks).

Unlike a classic fast-path/slow-path split, the kernels inline *every*
outcome — hit, underprediction, page miss with eviction, singleton
bypass, MissMap forced eviction — so no per-request objects are built
and no virtual dispatch happens anywhere on the replay path.  The
inlined bodies are transcriptions of ``FootprintCache.access``,
``PageBasedCache.access``, ``BlockBasedCache.access`` with its
``MissMap``, ``BaselineMemory.access`` and ``IdealCache.access``, of
the DRAM reference ``MemoryController.access`` composes
(``AddressMapping.locate``, ``Bank.access``, ``Bank.reserve``, the
``DramEnergyCounters.record_*`` methods) and of
``PerformanceModel.core_now``/``advance``; tests pin bit-exact
equivalence per design x workload x seed.  Two rules are not
transcribed but shared: device cycles come from
``MemoryController.device_cycles`` and critical-block-first burst
tails from ``DramCache._burst_tail``, so only the golden records can
catch a mistake in them.

Mirroring rules that make the parity hold to the last bit:

* Int counters (access/hit/byte/cycle counts) accumulate in locals and
  flush at segment end into the same ``int`` attributes the reference
  bumps (the cache's counters, the controllers', the FHT's, the
  MissMap's) — integer addition is exact and the scalar path touches no
  other accumulators meanwhile (the kernel IS the only writer during a
  segment).  Counts that are linear in other counts (controller access
  totals, block-sized byte totals) are derived at flush time instead of
  incremented per event.
* Energy floats accumulate in locals seeded from the controller's
  current values and store back at segment end.  Because the kernel
  adds the same addends in the same stream order as the reference, the
  IEEE rounding sequence is identical — which is also why energy adds
  can NOT be batched like the integer counters.
* Device-cycle lookups read the controller's own ``_device_cycles``
  memo and call ``MemoryController.device_cycles`` on a miss, so the
  kernels and the scalar path share one rule and one memo.
* When the stacked controller's interleave stripe is a whole number of
  cache pages, every address inside a page frame decomposes to the same
  (bank, row); the kernels then precompute one bank/row pair per frame
  and replace the five-operation address decomposition with two list
  lookups.  Odd geometries keep the verbatim arithmetic.
* A close-page controller (the block design's two) leaves every bank
  precharged, so each access is a closed-row access: one activate and
  one precharge, never a row hit, and the row is never compared.  The
  device cycles are the closed-row entries of the same per-size table,
  write recovery included.
* Each set of a ``SetAssociativeCache`` is one dict whose order is its
  recency, so an LRU touch is a delete/re-insert, the victim is the
  first key, and the kernels update exactly the dicts the scalar path
  does — tag sets, the FHT, the Singleton Table and the MissMap alike.
  A touch of the most-recently-used key is a no-op, so the kernels
  track the MRU key per tag set and skip the delete/re-insert pair for
  repeated touches — the dominant pattern in paged streams.
* The MissMap keeps its reference order: a presence check does not
  touch the segment's entry; the tag victim leaves the MissMap (freeing
  a way when its segment empties) before the filled block is marked
  present; and the blocks of an evicted entry are forced out of the
  tags in ascending offset order.

``build_kernel`` returns None when any assumption fails (custom
subclasses, a row-buffer policy the kernel does not model, an L2
frontend); ``engine.replay`` then routes the whole run to the scalar
reference loop.
"""

from __future__ import annotations

import numpy as np

from repro.caches.base import BaselineMemory
from repro.caches.block_cache import BlockBasedCache, _BlockLine
from repro.caches.ideal_cache import IdealCache
from repro.caches.missmap import MissMap, MissMapEntry
from repro.caches.page_cache import PageBasedCache, PageLine
from repro.core.block_state import PageBlockBits
from repro.core.footprint_cache import FootprintCache, PageEntry
from repro.core.footprint_predictor import FootprintHistoryTable, _FhtEntry
from repro.core.singleton_table import SingletonEntry, SingletonTable
from repro.dram.bank import RowBufferPolicy
from repro.dram.controller import MemoryController

_FHT_HASH_PC = 0x9E3779B1
_FHT_HASH_OFFSET = 0x85EBCA77


def _plain_open_page(controller) -> bool:
    """True when the inlined open-page controller model applies exactly."""
    return type(controller) is MemoryController and controller.policy is RowBufferPolicy.OPEN_PAGE


def _plain_close_page(controller) -> bool:
    """True when the inlined close-page controller model applies exactly."""
    return type(controller) is MemoryController and controller.policy is RowBufferPolicy.CLOSE_PAGE


def _device_cycle_table(controller, num_bytes: int):
    """Device-cycle table for one size, indexed ``is_write * 3 + code``."""
    return tuple(
        controller.device_cycles(num_bytes, code, is_write)
        for is_write in (False, True)
        for code in (0, 1, 2)
    )


class _Dram:
    """Inline-access constants of one open-page controller."""

    __slots__ = (
        "controller", "interleave", "channels", "banks_per_channel",
        "chunks_per_row", "banks", "table", "act_nj", "read_nj", "write_nj",
        "read_nj_per_64b", "write_nj_per_64b", "memo",
    )

    def __init__(self, controller, block_size: int) -> None:
        self.controller = controller
        mapping = controller.mapping
        self.interleave = mapping.interleave_bytes
        self.channels = mapping.channels
        self.banks_per_channel = mapping.banks_per_channel
        self.chunks_per_row = mapping.chunks_per_row
        self.banks = [bank for channel in controller._banks for bank in channel]
        self.table = _device_cycle_table(controller, block_size)
        model = controller.energy.model
        self.act_nj = model.activate_precharge_nj
        # Block-size energy constants: same expression, same operand
        # order as the reference's per-access ``num_bytes/64.0 * per64``.
        self.read_nj = block_size / 64.0 * model.read_burst_nj_per_64b
        self.write_nj = block_size / 64.0 * model.write_burst_nj_per_64b
        self.read_nj_per_64b = model.read_burst_nj_per_64b
        self.write_nj_per_64b = model.write_burst_nj_per_64b
        self.memo = controller._device_cycles

    def decompose(self, address: int):
        """(bank, row) of one address — the reference's mapping, memoless."""
        chunk = address // self.interleave
        c2 = chunk // self.channels
        bank = self.banks[
            chunk % self.channels * self.banks_per_channel
            + c2 % self.banks_per_channel
        ]
        return bank, c2 // self.banks_per_channel // self.chunks_per_row


class _OneAccessKernel:
    """One block access per request to one open-page controller.

    Baseline sends every request off-chip (a fill block per read); ideal
    serves every request from stacked DRAM (a hit per request).
    """

    @classmethod
    def build(cls, sim):
        system = sim.system
        cache = system.cache
        if system.frontend is not cache:
            return None
        if type(cache) is BaselineMemory:
            controller = cache.offchip
        elif type(cache) is IdealCache:
            controller = cache.stacked
        else:
            return None
        if not _plain_open_page(controller):
            return None
        return cls(sim, controller)

    def __init__(self, sim, controller) -> None:
        cache = sim.system.cache
        self.cache = cache
        self.perf = sim.perf
        self.block_size = cache.block_size
        self.block_mask = np.int64(cache._block_mask)
        self.dram = _Dram(controller, cache.block_size)
        self.always_hits = type(cache) is IdealCache

    def run_segment(self, cols) -> int:
        m = len(cols)
        if m == 0:
            return 0
        dram = self.dram
        controller = dram.controller
        bpc = dram.banks_per_channel
        chunk = (cols.addresses & self.block_mask) // dram.interleave
        c2 = chunk // dram.channels
        flat_l = (chunk % dram.channels * bpc + c2 % bpc).tolist()
        rows_l = (c2 // bpc // dram.chunks_per_row).tolist()
        writes_l = cols.writes.tolist()
        perf = self.perf
        cores_l = (cols.core_ids % perf.num_cores).tolist()
        icb_l = (cols.instruction_counts * perf.base_cpi).tolist()
        exposed = perf.exposed_latency_fraction
        ct = perf._core_time
        banks = dram.banks
        table = dram.table
        act_nj = dram.act_nj
        rd_nj = dram.read_nj
        wr_nj = dram.write_nj
        energy = controller.energy
        e_act = energy.activate_precharge_nj
        e_rd = energy.read_nj
        e_wr = energy.write_nj
        row_hits = 0
        writes_seen = 0
        for k in range(m):
            w = writes_l[k]
            bank = banks[flat_l[k]]
            row = rows_l[k]
            orow = bank._open_row
            if orow == row:
                dc = table[w * 3]
                row_hits += 1
            else:
                bank._open_row = row
                bank.activate_count += 1
                e_act += act_nj
                if orow is None:
                    dc = table[w * 3 + 1]
                else:
                    dc = table[w * 3 + 2]
                    bank.precharge_count += 1
            c = cores_l[k]
            t = ct[c]
            now = int(t)
            bz = bank.busy_until
            start = bz if bz > now else now
            finish = start + dc
            bank.busy_until = finish
            ct[c] = t + (icb_l[k] + (finish - now) * exposed)
            if w:
                e_wr += wr_nj
                writes_seen += 1
            else:
                e_rd += rd_nj
        energy.activate_precharge_nj = e_act
        energy.read_nj = e_rd
        energy.write_nj = e_wr
        reads_seen = m - writes_seen
        bs = self.block_size
        controller.access_count += m
        controller.row_hit_count += row_hits
        controller.bytes_written += writes_seen * bs
        controller.bytes_read += reads_seen * bs
        cache = self.cache
        cache.accesses += m
        if self.always_hits:
            cache.hits += m
        else:
            cache.fill_blocks += reads_seen
        return int(cols.instruction_counts.sum())


class _StackedKernelBase:
    """Shared state of the page-organised kernels (page, footprint).

    Both designs keep ``PageBasedCache``'s tags and frames, so the
    kernels bind the same set dicts and free lists.
    """

    def __init__(self, sim) -> None:
        cache = sim.system.cache
        self.cache = cache
        self.perf = sim.perf
        self.block_size = cache.block_size
        self.page_size = cache.page_size
        self.page_mask = np.int64(cache._page_mask)
        self.page_shift = cache.page_size.bit_length() - 1
        self.block_shift = cache._block_shift
        self.blocks_per_page = cache.blocks_per_page
        self.tag_latency = cache.tag_latency
        self.stacked = _Dram(cache.stacked, cache.block_size)
        self.offchip = _Dram(cache.offchip, cache.block_size)
        # Page-sized tables for the fetch/fill pair of a page miss.
        self.stacked_page_table = _device_cycle_table(cache.stacked, self.page_size)
        self.offchip_page_table = _device_cycle_table(cache.offchip, self.page_size)
        # Critical-block-first burst tails by fetch size
        # (``DramCache._burst_tail``).
        self._tails = {}
        sram = cache._tags
        self.num_sets = sram.num_sets
        self.associativity = sram.associativity
        self.tag_dicts = sram._entries
        self.frame_free = cache._frames._free
        # Per-frame (bank, row) tables for the stacked controller.  Valid
        # when the interleave stripe is a whole number of pages: then
        # ``(frame + offset) // interleave == frame // interleave`` for
        # every in-page offset, so bank and row are functions of the
        # frame alone.
        sd = self.stacked
        if sd.interleave % self.page_size == 0:
            pairs = [
                sd.decompose(fid * self.page_size)
                for fid in range(self.num_sets * self.associativity)
            ]
            self.frame_banks = [bank for bank, _ in pairs]
            self.frame_rows = [row for _, row in pairs]
        else:
            self.frame_banks = self.frame_rows = None
        # Most-recently-used key per tag set: touching it again is a
        # no-op on the LRU dict, so the loop skips the delete/re-insert.
        self.mru = [None] * self.num_sets

    def _tail(self, num_bytes: int) -> int:
        """Memoised off-critical-path burst tail for one fetch size."""
        tail = self._tails.get(num_bytes)
        if tail is None:
            tail = self._tails[num_bytes] = self.cache._burst_tail(num_bytes)
        return tail

    def _columns(self, cols):
        """Segment columns as flat Python lists."""
        addresses = cols.addresses
        pages_l = (addresses & self.page_mask).tolist()
        offs_l = ((addresses >> self.block_shift) & (self.blocks_per_page - 1)).tolist()
        sets_l = ((addresses >> self.page_shift) % self.num_sets).tolist()
        writes_l = cols.writes.tolist()
        perf = self.perf
        cores_l = (cols.core_ids % perf.num_cores).tolist()
        icb_l = (cols.instruction_counts * perf.base_cpi).tolist()
        return pages_l, offs_l, sets_l, writes_l, cores_l, icb_l


class _PageKernel(_StackedKernelBase):
    """Whole-page cache: inlined hit, inlined page miss with eviction."""

    @classmethod
    def build(cls, sim):
        system = sim.system
        cache = system.cache
        if type(cache) is not PageBasedCache or system.frontend is not cache:
            return None
        if not _plain_open_page(cache.stacked) or not _plain_open_page(cache.offchip):
            return None
        return cls(sim)

    def run_segment(self, cols) -> int:
        m = len(cols)
        if m == 0:
            return 0
        pages_l, offs_l, sets_l, writes_l, cores_l, icb_l = self._columns(cols)

        cache = self.cache
        perf = self.perf
        exposed = perf.exposed_latency_fraction
        ct = perf._core_time
        tagl = self.tag_latency
        bs = self.block_size
        bshift = self.block_shift
        page_size = self.page_size
        assoc = self.associativity
        tag_dicts = self.tag_dicts
        frame_free = self.frame_free
        mru = self.mru

        sd = self.stacked
        od = self.offchip
        s_fbank = self.frame_banks
        s_frow = self.frame_rows
        fast = s_fbank is not None
        s_table = sd.table
        s_page_table = self.stacked_page_table
        o_page_table = self.offchip_page_table
        s_memo, o_memo = sd.memo, od.memo
        s_ctrl, o_ctrl = sd.controller, od.controller
        s_energy, o_energy = s_ctrl.energy, o_ctrl.energy
        se_act, se_rd, se_wr = s_energy.activate_precharge_nj, s_energy.read_nj, s_energy.write_nj
        oe_act, oe_rd, oe_wr = o_energy.activate_precharge_nj, o_energy.read_nj, o_energy.write_nj
        s_act_nj, s_rd_nj, s_wr_nj = sd.act_nj, sd.read_nj, sd.write_nj
        o_act_nj = od.act_nj
        s_rd64, s_wr64 = sd.read_nj_per_64b, sd.write_nj_per_64b
        o_rd64, o_wr64 = od.read_nj_per_64b, od.write_nj_per_64b
        s_decompose = sd.decompose
        o_decompose = od.decompose
        tail_page = self._tail(page_size)

        s_rowhit = 0
        o_rowhit = 0
        s_brd_v = o_bwr_v = 0
        n_hr = n_hw = n_alloc = n_dirty = 0
        c_wb = 0

        for k in range(m):
            page = pages_l[k]
            sid = sets_l[k]
            td = tag_dicts[sid]
            line = td.get(page)
            w = writes_l[k]
            c = cores_l[k]
            t = ct[c]
            if line is not None:
                # ---- hit: stacked block access + mask update --------
                if mru[sid] != page:
                    del td[page]
                    td[page] = line
                    mru[sid] = page
                nowx = int(t) + tagl
                frame = line.frame
                if fast:
                    fid = frame // page_size
                    bank = s_fbank[fid]
                    row = s_frow[fid]
                else:
                    bank, row = s_decompose(frame + (offs_l[k] << bshift))
                orow = bank._open_row
                if orow == row:
                    dc = s_table[w * 3]
                    s_rowhit += 1
                else:
                    bank._open_row = row
                    bank.activate_count += 1
                    se_act += s_act_nj
                    if orow is None:
                        dc = s_table[w * 3 + 1]
                    else:
                        dc = s_table[w * 3 + 2]
                        bank.precharge_count += 1
                bz = bank.busy_until
                start = bz if bz > nowx else nowx
                finish = start + dc
                bank.busy_until = finish
                latency = tagl + (finish - nowx)
                bit = 1 << offs_l[k]
                line.demanded_mask |= bit
                if w:
                    line.dirty_mask |= bit
                    se_wr += s_wr_nj
                    n_hw += 1
                else:
                    se_rd += s_rd_nj
                    n_hr += 1
            else:
                # ---- page miss: evict, fetch page, fill -------------
                nowi = int(t)
                now_mr = nowi + tagl
                wb = 0
                if len(td) >= assoc:
                    vpage = next(iter(td))
                    vline = td.pop(vpage)
                    dirty = vline.dirty_mask.bit_count()
                    if dirty:
                        n_dirty += 1
                        nb = dirty * bs
                        # stacked read of the victim's dirty blocks
                        if fast:
                            fid = vline.frame // page_size
                            bank = s_fbank[fid]
                            row = s_frow[fid]
                        else:
                            bank, row = s_decompose(vline.frame)
                        orow = bank._open_row
                        if orow == row:
                            code = 0
                            s_rowhit += 1
                        else:
                            bank._open_row = row
                            bank.activate_count += 1
                            se_act += s_act_nj
                            if orow is None:
                                code = 1
                            else:
                                code = 2
                                bank.precharge_count += 1
                        dc = s_memo.get((nb, code, False))
                        if dc is None:
                            dc = s_ctrl.device_cycles(nb, code, False)
                        bz = bank.busy_until
                        start = bz if bz > now_mr else now_mr
                        bank.busy_until = start + dc
                        se_rd += nb / 64.0 * s_rd64
                        s_brd_v += nb
                        # off-chip write-back of the same bytes
                        bank, row = o_decompose(vpage)
                        orow = bank._open_row
                        if orow == row:
                            code = 0
                            o_rowhit += 1
                        else:
                            bank._open_row = row
                            bank.activate_count += 1
                            oe_act += o_act_nj
                            if orow is None:
                                code = 1
                            else:
                                code = 2
                                bank.precharge_count += 1
                        dc = o_memo.get((nb, code, True))
                        if dc is None:
                            dc = o_ctrl.device_cycles(nb, code, True)
                        bz = bank.busy_until
                        start = bz if bz > now_mr else now_mr
                        bank.busy_until = start + dc
                        oe_wr += nb / 64.0 * o_wr64
                        o_bwr_v += nb
                    frame_free[sid].append(vline.frame // page_size - sid * assoc)
                    wb = dirty
                n_alloc += 1
                frame = (sid * assoc + frame_free[sid].pop()) * page_size
                # off-chip page fetch (read)
                bank, row = o_decompose(page)
                orow = bank._open_row
                if orow == row:
                    dc = o_page_table[0]
                    o_rowhit += 1
                else:
                    bank._open_row = row
                    bank.activate_count += 1
                    oe_act += o_act_nj
                    if orow is None:
                        dc = o_page_table[1]
                    else:
                        dc = o_page_table[2]
                        bank.precharge_count += 1
                bz = bank.busy_until
                start = bz if bz > now_mr else now_mr
                finish = start + dc
                bank.busy_until = finish
                oe_rd += page_size / 64.0 * o_rd64
                latency = tagl + ((finish - now_mr) - tail_page)
                # stacked page fill (write)
                nowf = nowi + latency
                if fast:
                    fid = frame // page_size
                    bank = s_fbank[fid]
                    row = s_frow[fid]
                else:
                    bank, row = s_decompose(frame)
                orow = bank._open_row
                if orow == row:
                    dc = s_page_table[3]
                    s_rowhit += 1
                else:
                    bank._open_row = row
                    bank.activate_count += 1
                    se_act += s_act_nj
                    if orow is None:
                        dc = s_page_table[4]
                    else:
                        dc = s_page_table[5]
                        bank.precharge_count += 1
                bz = bank.busy_until
                start = bz if bz > nowf else nowf
                bank.busy_until = start + dc
                se_wr += page_size / 64.0 * s_wr64
                bit = 1 << offs_l[k]
                line = PageLine(frame=frame, demanded_mask=bit)
                if w:
                    line.dirty_mask = bit
                td[page] = line
                mru[sid] = page
                c_wb += wb
            ct[c] = t + (icb_l[k] + latency * exposed)

        s_energy.activate_precharge_nj = se_act
        s_energy.read_nj = se_rd
        s_energy.write_nj = se_wr
        o_energy.activate_precharge_nj = oe_act
        o_energy.read_nj = oe_rd
        o_energy.write_nj = oe_wr
        c_hit = n_hr + n_hw
        s_ctrl.access_count += c_hit + n_alloc + n_dirty
        s_ctrl.row_hit_count += s_rowhit
        s_ctrl.bytes_read += n_hr * bs + s_brd_v
        s_ctrl.bytes_written += n_hw * bs + n_alloc * page_size
        o_ctrl.access_count += n_alloc + n_dirty
        o_ctrl.row_hit_count += o_rowhit
        o_ctrl.bytes_read += n_alloc * page_size
        o_ctrl.bytes_written += o_bwr_v
        cache.accesses += m
        cache.hits += c_hit
        cache.fill_blocks += n_alloc * self.blocks_per_page
        cache.writeback_blocks += c_wb
        return int(cols.instruction_counts.sum())


class _FootprintKernel(_StackedKernelBase):
    """Footprint cache: hit, underprediction, page miss, bypass — all inline."""

    @classmethod
    def build(cls, sim):
        system = sim.system
        cache = system.cache
        if type(cache) is not FootprintCache or system.frontend is not cache:
            return None
        if not _plain_open_page(cache.stacked) or not _plain_open_page(cache.offchip):
            return None
        if type(cache.fht) is not FootprintHistoryTable:
            return None
        st = cache.singleton_table
        if st is not None and type(st) is not SingletonTable:
            return None
        return cls(sim)

    def __init__(self, sim) -> None:
        super().__init__(sim)
        cache = sim.system.cache
        fht = cache.fht
        self.fht = fht
        self.fht_dicts = fht._table._entries
        self.fht_sets = fht._table.num_sets
        self.fht_assoc = fht._table.associativity
        self.fht_default_index = fht.index_mode == "pc_offset"
        st = cache.singleton_table
        self.st = st
        if st is not None:
            self.st_dicts = st._table._entries
            self.st_sets = st._table.num_sets
            self.st_assoc = st._table.associativity
        self.use_singleton = cache.singleton_optimization and st is not None

    def run_segment(self, cols) -> int:
        m = len(cols)
        if m == 0:
            return 0
        pages_l, offs_l, sets_l, writes_l, cores_l, icb_l = self._columns(cols)
        pcs = cols.pcs

        cache = self.cache
        perf = self.perf
        exposed = perf.exposed_latency_fraction
        ct = perf._core_time
        tagl = self.tag_latency
        bs = self.block_size
        bshift = self.block_shift
        page_size = self.page_size
        assoc = self.associativity
        tag_dicts = self.tag_dicts
        frame_free = self.frame_free
        mru = self.mru

        fht = self.fht
        fht_dicts = self.fht_dicts
        fht_sets = self.fht_sets
        fht_assoc = self.fht_assoc
        fht_default = self.fht_default_index
        fht_key_of = fht._key
        fht_set_of = fht._table._set_index
        st = self.st
        use_st = st is not None
        use_singleton = self.use_singleton
        if use_st:
            st_dicts = self.st_dicts
            st_sets = self.st_sets
            st_assoc = self.st_assoc

        sd = self.stacked
        od = self.offchip
        s_fbank = self.frame_banks
        s_frow = self.frame_rows
        fast = s_fbank is not None
        s_table = sd.table
        o_table = od.table
        s_memo, o_memo = sd.memo, od.memo
        s_ctrl, o_ctrl = sd.controller, od.controller
        s_energy, o_energy = s_ctrl.energy, o_ctrl.energy
        se_act, se_rd, se_wr = s_energy.activate_precharge_nj, s_energy.read_nj, s_energy.write_nj
        oe_act, oe_rd, oe_wr = o_energy.activate_precharge_nj, o_energy.read_nj, o_energy.write_nj
        s_act_nj, s_rd_nj, s_wr_nj = sd.act_nj, sd.read_nj, sd.write_nj
        o_act_nj, o_rd_nj, o_wr_nj = od.act_nj, od.read_nj, od.write_nj
        s_rd64, s_wr64 = sd.read_nj_per_64b, sd.write_nj_per_64b
        o_rd64, o_wr64 = od.read_nj_per_64b, od.write_nj_per_64b
        s_decompose = sd.decompose
        o_decompose = od.decompose
        tails = self._tails

        s_rowhit = 0
        o_rowhit = 0
        s_brd_v = s_bwr_v = o_brd_v = o_bwr_v = 0
        n_hr = n_hw = n_alloc = n_dirty = 0
        c_fill_v = c_wb = 0
        n_under = n_corr = n_byp = n_byp_w = 0
        f_lookups = f_hits = f_updates = f_stale = 0
        st_rec = st_second = 0
        ps_cov = ps_und = ps_ovr = 0

        for k in range(m):
            page = pages_l[k]
            sid = sets_l[k]
            td = tag_dicts[sid]
            entry = td.get(page)
            off = offs_l[k]
            w = writes_l[k]
            c = cores_l[k]
            t = ct[c]
            if entry is not None:
                # Resident page: LRU touch, then hit or underprediction.
                if mru[sid] != page:
                    del td[page]
                    td[page] = entry
                    mru[sid] = page
                blocks = entry.blocks
                high = blocks.high_mask
                low = blocks.low_mask
                bit = 1 << off
                if (high | low) & bit:
                    # ---- hit: stacked block access ------------------
                    nowx = int(t) + tagl
                    if fast:
                        fid = entry.frame // page_size
                        bank = s_fbank[fid]
                        row = s_frow[fid]
                    else:
                        bank, row = s_decompose(entry.frame + (off << bshift))
                    orow = bank._open_row
                    if orow == row:
                        dc = s_table[w * 3]
                        s_rowhit += 1
                    else:
                        bank._open_row = row
                        bank.activate_count += 1
                        se_act += s_act_nj
                        if orow is None:
                            dc = s_table[w * 3 + 1]
                        else:
                            dc = s_table[w * 3 + 2]
                            bank.precharge_count += 1
                    bz = bank.busy_until
                    start = bz if bz > nowx else nowx
                    finish = start + dc
                    bank.busy_until = finish
                    latency = tagl + (finish - nowx)
                    if w:
                        se_wr += s_wr_nj
                        n_hw += 1
                        blocks.high_mask = high | bit
                        blocks.low_mask = low | bit
                    else:
                        se_rd += s_rd_nj
                        n_hr += 1
                        blocks.high_mask = high | bit
                        if not (high & low & bit):
                            blocks.low_mask = low & ~bit
                else:
                    # ---- underprediction: fetch the single block ----
                    n_under += 1
                    nowi = int(t)
                    nowx = nowi + tagl
                    # off-chip block read (block address == page + offset)
                    bank, row = o_decompose(page + (off << bshift))
                    orow = bank._open_row
                    if orow == row:
                        dc = o_table[0]
                        o_rowhit += 1
                    else:
                        bank._open_row = row
                        bank.activate_count += 1
                        oe_act += o_act_nj
                        if orow is None:
                            dc = o_table[1]
                        else:
                            dc = o_table[2]
                            bank.precharge_count += 1
                    bz = bank.busy_until
                    start = bz if bz > nowx else nowx
                    finish = start + dc
                    bank.busy_until = finish
                    oe_rd += o_rd_nj
                    latency = tagl + (finish - nowx)
                    # stacked block fill (write)
                    nowf = nowi + latency
                    if fast:
                        fid = entry.frame // page_size
                        bank = s_fbank[fid]
                        row = s_frow[fid]
                    else:
                        bank, row = s_decompose(entry.frame + (off << bshift))
                    orow = bank._open_row
                    if orow == row:
                        dc = s_table[3]
                        s_rowhit += 1
                    else:
                        bank._open_row = row
                        bank.activate_count += 1
                        se_act += s_act_nj
                        if orow is None:
                            dc = s_table[4]
                        else:
                            dc = s_table[5]
                            bank.precharge_count += 1
                    bz = bank.busy_until
                    start = bz if bz > nowf else nowf
                    bank.busy_until = start + dc
                    se_wr += s_wr_nj
                    # mark_demanded(off, dirty=w) on current masks
                    blocks.high_mask = high | bit
                    if w or (high & low & bit):
                        blocks.low_mask = low | bit
                    else:
                        blocks.low_mask = low & ~bit
                ct[c] = t + (icb_l[k] + latency * exposed)
                continue

            # ---- page miss: ST, FHT, then allocate or bypass --------
            pc = int(pcs[k])
            nowi = int(t)
            allocate = True
            rerecord = False
            bypass = False
            fht_key = (pc, off)
            pmask = 0
            if use_st:
                st_sid = page % st_sets
                st_entry = st_dicts[st_sid].get(page)
                if st_entry is not None:
                    if st_entry.offset != off or st_entry.pc != pc:
                        # Second access to a bypassed page: correct it.
                        del st_dicts[st_sid][page]
                        st_second += 1
                        n_corr += 1
                        fht_key = (st_entry.pc, st_entry.offset)
                        pmask = 1 << st_entry.offset | 1 << off
                    else:
                        bypass = True
                        allocate = False
            if allocate and pmask == 0:
                # FHT predict (touches FHT LRU on a hit).
                f_lookups += 1
                if fht_default:
                    fkey = (pc, off)
                    fs = (
                        (pc * _FHT_HASH_PC ^ off * _FHT_HASH_OFFSET) & 0x7FFFFFFF
                    ) % fht_sets
                else:
                    fkey = fht_key_of(pc, off)
                    fs = fht_set_of(fkey)
                fd = fht_dicts[fs]
                fe = fd.get(fkey)
                if fe is None:
                    # Cold pair: allocate an FHT entry for just this block.
                    if len(fd) >= fht_assoc:
                        del fd[next(iter(fd))]
                    fd[fkey] = _FhtEntry(footprint_mask=1 << off)
                    pmask = 1 << off
                else:
                    f_hits += 1
                    del fd[fkey]
                    fd[fkey] = fe
                    predicted = fe.footprint_mask
                    if use_singleton and predicted.bit_count() == 1:
                        bypass = True
                        rerecord = True
                        allocate = False
                    else:
                        pmask = predicted | 1 << off

            if bypass:
                # ---- singleton bypass: one off-chip block op --------
                n_byp += 1
                nowx = nowi + tagl
                bank, row = o_decompose(page + (off << bshift))
                orow = bank._open_row
                if orow == row:
                    dc = o_table[w * 3]
                    o_rowhit += 1
                else:
                    bank._open_row = row
                    bank.activate_count += 1
                    oe_act += o_act_nj
                    if orow is None:
                        dc = o_table[w * 3 + 1]
                    else:
                        dc = o_table[w * 3 + 2]
                        bank.precharge_count += 1
                bz = bank.busy_until
                start = bz if bz > nowx else nowx
                finish = start + dc
                bank.busy_until = finish
                if w:
                    oe_wr += o_wr_nj
                    n_byp_w += 1
                else:
                    oe_rd += o_rd_nj
                latency = tagl + (finish - nowx)
                if rerecord:
                    st_sid = page % st_sets
                    sdict = st_dicts[st_sid]
                    if len(sdict) >= st_assoc:
                        del sdict[next(iter(sdict))]
                    sdict[page] = SingletonEntry(pc=pc, offset=off)
                    st_rec += 1
                ct[c] = t + (icb_l[k] + latency * exposed)
                continue

            # ---- allocate and fetch the predicted footprint ---------
            now_mr = nowi + tagl
            wb = 0
            if len(td) >= assoc:
                # Evict the LRU page: FHT feedback, accuracy accounting,
                # dirty write-back.
                vpage = next(iter(td))
                ventry = td.pop(vpage)
                frame_free[sid].append(ventry.frame // page_size - sid * assoc)
                vblocks = ventry.blocks
                demanded = vblocks.high_mask
                vpc, voff = ventry.fht_key
                f_updates += 1
                if fht_default:
                    vkey = (vpc, voff)
                    fs = (
                        (vpc * _FHT_HASH_PC ^ voff * _FHT_HASH_OFFSET) & 0x7FFFFFFF
                    ) % fht_sets
                else:
                    vkey = fht_key_of(vpc, voff)
                    fs = fht_set_of(vkey)
                fe = fht_dicts[fs].get(vkey)
                if fe is None:
                    f_stale += 1
                else:
                    fe.footprint_mask = demanded | 1 << voff
                vpred = ventry.predicted_mask
                ps_cov += (demanded & vpred).bit_count()
                ps_und += (demanded & ~vpred).bit_count()
                ps_ovr += (vpred & ~demanded).bit_count()
                dirty = (demanded & vblocks.low_mask).bit_count()
                if dirty:
                    n_dirty += 1
                    nb = dirty * bs
                    # stacked read of the dirty blocks
                    if fast:
                        fid = ventry.frame // page_size
                        bank = s_fbank[fid]
                        row = s_frow[fid]
                    else:
                        bank, row = s_decompose(ventry.frame)
                    orow = bank._open_row
                    if orow == row:
                        code = 0
                        s_rowhit += 1
                    else:
                        bank._open_row = row
                        bank.activate_count += 1
                        se_act += s_act_nj
                        if orow is None:
                            code = 1
                        else:
                            code = 2
                            bank.precharge_count += 1
                    dc = s_memo.get((nb, code, False))
                    if dc is None:
                        dc = s_ctrl.device_cycles(nb, code, False)
                    bz = bank.busy_until
                    start = bz if bz > now_mr else now_mr
                    bank.busy_until = start + dc
                    se_rd += nb / 64.0 * s_rd64
                    s_brd_v += nb
                    # off-chip write-back
                    bank, row = o_decompose(vpage)
                    orow = bank._open_row
                    if orow == row:
                        code = 0
                        o_rowhit += 1
                    else:
                        bank._open_row = row
                        bank.activate_count += 1
                        oe_act += o_act_nj
                        if orow is None:
                            code = 1
                        else:
                            code = 2
                            bank.precharge_count += 1
                    dc = o_memo.get((nb, code, True))
                    if dc is None:
                        dc = o_ctrl.device_cycles(nb, code, True)
                    bz = bank.busy_until
                    start = bz if bz > now_mr else now_mr
                    bank.busy_until = start + dc
                    oe_wr += nb / 64.0 * o_wr64
                    o_bwr_v += nb
                wb = dirty
            n_alloc += 1
            frame = (sid * assoc + frame_free[sid].pop()) * page_size
            blocks = PageBlockBits(self.blocks_per_page)
            td[page] = PageEntry(
                frame=frame, blocks=blocks, fht_key=fht_key, predicted_mask=pmask
            )
            mru[sid] = page
            fb = pmask.bit_count()
            nb = fb * bs
            # off-chip footprint fetch (read)
            bank, row = o_decompose(page)
            orow = bank._open_row
            if orow == row:
                code = 0
                o_rowhit += 1
            else:
                bank._open_row = row
                bank.activate_count += 1
                oe_act += o_act_nj
                if orow is None:
                    code = 1
                else:
                    code = 2
                    bank.precharge_count += 1
            dc = o_memo.get((nb, code, False))
            if dc is None:
                dc = o_ctrl.device_cycles(nb, code, False)
            bz = bank.busy_until
            start = bz if bz > now_mr else now_mr
            finish = start + dc
            bank.busy_until = finish
            oe_rd += nb / 64.0 * o_rd64
            o_brd_v += nb
            tail = tails.get(nb)
            if tail is None:
                tail = self._tail(nb)
            latency = tagl + ((finish - now_mr) - tail)
            # stacked footprint fill (write)
            nowf = nowi + latency
            if fast:
                fid = frame // page_size
                bank = s_fbank[fid]
                row = s_frow[fid]
            else:
                bank, row = s_decompose(frame)
            orow = bank._open_row
            if orow == row:
                code = 0
                s_rowhit += 1
            else:
                bank._open_row = row
                bank.activate_count += 1
                se_act += s_act_nj
                if orow is None:
                    code = 1
                else:
                    code = 2
                    bank.precharge_count += 1
            dc = s_memo.get((nb, code, True))
            if dc is None:
                dc = s_ctrl.device_cycles(nb, code, True)
            bz = bank.busy_until
            start = bz if bz > nowf else nowf
            bank.busy_until = start + dc
            se_wr += nb / 64.0 * s_wr64
            s_bwr_v += nb
            # install_prefetched(pmask) then mark_demanded(off, dirty=w)
            # on the fresh (0, 0) masks.
            bit = 1 << off
            blocks.high_mask = bit
            if w:
                blocks.low_mask = pmask | bit
            else:
                blocks.low_mask = pmask & ~bit
            ct[c] = t + (icb_l[k] + latency * exposed)
            c_fill_v += fb
            c_wb += wb

        s_energy.activate_precharge_nj = se_act
        s_energy.read_nj = se_rd
        s_energy.write_nj = se_wr
        o_energy.activate_precharge_nj = oe_act
        o_energy.read_nj = oe_rd
        o_energy.write_nj = oe_wr
        c_hit = n_hr + n_hw
        n_byp_r = n_byp - n_byp_w
        s_ctrl.access_count += c_hit + n_under + n_alloc + n_dirty
        s_ctrl.row_hit_count += s_rowhit
        s_ctrl.bytes_read += n_hr * bs + s_brd_v
        s_ctrl.bytes_written += (n_hw + n_under) * bs + s_bwr_v
        o_ctrl.access_count += n_under + n_byp + n_alloc + n_dirty
        o_ctrl.row_hit_count += o_rowhit
        o_ctrl.bytes_read += (n_under + n_byp_r) * bs + o_brd_v
        o_ctrl.bytes_written += n_byp_w * bs + o_bwr_v
        cache.accesses += m
        cache.hits += c_hit
        cache.bypasses += n_byp
        cache.fill_blocks += n_under + n_byp_r + c_fill_v
        cache.writeback_blocks += c_wb
        cache.underprediction_misses += n_under
        cache.singleton_corrections += n_corr
        fht = self.fht
        fht.lookups += f_lookups
        fht.hits += f_hits
        fht.updates += f_updates
        fht.stale_updates += f_stale
        if use_st:
            st.recorded += st_rec
            st.second_access_hits += st_second
        pstats = cache.predictor_stats
        pstats.covered_blocks += ps_cov
        pstats.underpredicted_blocks += ps_und
        pstats.overpredicted_blocks += ps_ovr
        return int(cols.instruction_counts.sum())


class _BlockKernel:
    """Block cache behind its MissMap: hit, miss, fill and every eviction inline.

    Both controllers are close-page, so every access finds its bank
    precharged: one activate and one precharge, never a row hit, and the
    row never matters.  A set's tags and data share one stacked row, so
    each set's stacked bank is looked up in a table built once.  The
    MissMap marks exactly the blocks the tags hold, so a missed block is
    never resident, a tag victim's bit is always set, and every block of
    an evicted MissMap entry is resident.
    """

    @classmethod
    def build(cls, sim):
        system = sim.system
        cache = system.cache
        if type(cache) is not BlockBasedCache or system.frontend is not cache:
            return None
        if not _plain_close_page(cache.stacked) or not _plain_close_page(cache.offchip):
            return None
        if type(cache.missmap) is not MissMap:
            return None
        return cls(sim)

    def __init__(self, sim) -> None:
        cache = sim.system.cache
        self.cache = cache
        self.perf = sim.perf
        self.block_size = cache.block_size
        self.block_mask = np.int64(cache._block_mask)
        self.block_shift = cache.block_size.bit_length() - 1
        tags = cache._tags
        self.num_sets = tags.num_sets
        self.associativity = tags.associativity
        self.tag_dicts = tags._entries
        self.stacked = _Dram(cache.stacked, cache.block_size)
        self.offchip = _Dram(cache.offchip, cache.block_size)
        # Stacked bank of each set's row (``BlockBasedCache._row_address``).
        sd = self.stacked
        chunk = np.arange(self.num_sets, dtype=np.int64) * cache.row_bytes // sd.interleave
        bpc = sd.banks_per_channel
        flat = chunk % sd.channels * bpc + chunk // sd.channels % bpc
        self.set_banks = [sd.banks[i] for i in flat.tolist()]
        # Most-recently-used block per tag set, as in the page kernels.
        self.mru = [None] * self.num_sets

    def run_segment(self, cols) -> int:
        m = len(cols)
        if m == 0:
            return 0
        bshift = self.block_shift
        num_sets = self.num_sets
        od = self.offchip
        o_il, o_ch, o_bpc = od.interleave, od.channels, od.banks_per_channel
        blocks = cols.addresses & self.block_mask
        blocks_l = blocks.tolist()
        sets_l = ((blocks >> bshift) % num_sets).tolist()
        chunk = blocks // o_il
        obanks_l = (chunk % o_ch * o_bpc + chunk // o_ch % o_bpc).tolist()
        writes_l = cols.writes.tolist()
        perf = self.perf
        cores_l = (cols.core_ids % perf.num_cores).tolist()
        icb_l = (cols.instruction_counts * perf.base_cpi).tolist()

        cache = self.cache
        exposed = perf.exposed_latency_fraction
        ct = perf._core_time
        assoc = self.associativity
        tag_dicts = self.tag_dicts
        mru = self.mru
        set_banks = self.set_banks
        missmap = cache.missmap
        mm_dicts = missmap._table._entries
        mm_sets = missmap._table.num_sets
        mm_assoc = missmap._table.associativity
        seg_mask = missmap._segment_mask
        off_mask = missmap._offset_mask
        mm_shift = missmap._block_shift
        seg_bytes = missmap.segment_bytes
        mm_bs = missmap.block_size
        mm_lat = missmap.latency_cycles
        tag_penalty = cache._tag_read_penalty

        sd = self.stacked
        o_banks = od.banks
        s_rd_dc, s_wr_dc = sd.table[1], sd.table[4]
        o_rd_dc, o_wr_dc = od.table[1], od.table[4]
        s_ctrl, o_ctrl = sd.controller, od.controller
        s_energy, o_energy = s_ctrl.energy, o_ctrl.energy
        se_act, se_rd, se_wr = s_energy.activate_precharge_nj, s_energy.read_nj, s_energy.write_nj
        oe_act, oe_rd, oe_wr = o_energy.activate_precharge_nj, o_energy.read_nj, o_energy.write_nj
        s_act_nj, s_rd_nj, s_wr_nj = sd.act_nj, sd.read_nj, sd.write_nj
        o_act_nj, o_rd_nj, o_wr_nj = od.act_nj, od.read_nj, od.write_nj

        n_hr = n_hw = n_miss = n_wb = n_lost = n_mm_evict = 0

        for k in range(m):
            block = blocks_l[k]
            w = writes_l[k]
            c = cores_l[k]
            t = ct[c]
            now = int(t)
            nowl = now + mm_lat
            sid = sets_l[k]
            td = tag_dicts[sid]
            segment = block & seg_mask
            bit = 1 << ((block & off_mask) >> mm_shift)
            md = mm_dicts[segment // seg_bytes % mm_sets]
            mentry = md.get(segment)
            if mentry is not None and mentry.present_mask & bit:
                # ---- hit: tag and data access in the set's stacked row --
                line = td.get(block)
                if line is None:
                    raise RuntimeError(
                        "MissMap claims presence for a block the tag store lost; "
                        "mark_absent was skipped somewhere"
                    )
                if mru[sid] != block:
                    del td[block]
                    td[block] = line
                    mru[sid] = block
                bank = set_banks[sid]
                bank.activate_count += 1
                bank.precharge_count += 1
                se_act += s_act_nj
                dc = s_wr_dc if w else s_rd_dc
                bz = bank.busy_until
                start = bz if bz > nowl else nowl
                finish = start + dc
                bank.busy_until = finish
                latency = mm_lat + (finish - nowl) + tag_penalty
                if w:
                    line.dirty = True
                    se_wr += s_wr_nj
                    n_hw += 1
                else:
                    se_rd += s_rd_nj
                    n_hr += 1
                ct[c] = t + (icb_l[k] + latency * exposed)
                continue

            # ---- miss: off-chip demand read ------------------------------
            n_miss += 1
            bank = o_banks[obanks_l[k]]
            bank.activate_count += 1
            bank.precharge_count += 1
            oe_act += o_act_nj
            bz = bank.busy_until
            start = bz if bz > nowl else nowl
            finish = start + o_rd_dc
            bank.busy_until = finish
            oe_rd += o_rd_nj
            latency = mm_lat + (finish - nowl)
            # Fill, evictions and write-backs all start when the data is back.
            nowf = now + latency
            sbank = set_banks[sid]
            if len(td) >= assoc:
                # LRU victim: leaves the MissMap, dirty data goes off-chip.
                vblock = next(iter(td))
                vline = td.pop(vblock)
                vseg = vblock & seg_mask
                vmd = mm_dicts[vseg // seg_bytes % mm_sets]
                ventry = vmd[vseg]
                vmask = ventry.present_mask & ~(1 << ((vblock & off_mask) >> mm_shift))
                ventry.present_mask = vmask
                if vmask == 0:
                    del vmd[vseg]
                if vline.dirty:
                    n_wb += 1
                    # stacked read from the same set's row
                    sbank.activate_count += 1
                    sbank.precharge_count += 1
                    se_act += s_act_nj
                    bz = sbank.busy_until
                    sbank.busy_until = (bz if bz > nowf else nowf) + s_rd_dc
                    se_rd += s_rd_nj
                    # off-chip write-back
                    vchunk = vblock // o_il
                    bank = o_banks[vchunk % o_ch * o_bpc + vchunk // o_ch % o_bpc]
                    bank.activate_count += 1
                    bank.precharge_count += 1
                    oe_act += o_act_nj
                    bz = bank.busy_until
                    bank.busy_until = (bz if bz > nowf else nowf) + o_wr_dc
                    oe_wr += o_wr_nj
            td[block] = _BlockLine(dirty=w == 1)
            mru[sid] = block
            # stacked fill write
            sbank.activate_count += 1
            sbank.precharge_count += 1
            se_act += s_act_nj
            bz = sbank.busy_until
            sbank.busy_until = (bz if bz > nowf else nowf) + s_wr_dc
            se_wr += s_wr_nj
            # MissMap mark_present: touch, or insert with an LRU eviction
            # whose resident blocks are all forced out of the tags.
            mentry = md.get(segment)
            if mentry is not None:
                del md[segment]
                md[segment] = mentry
                mentry.present_mask |= bit
            elif len(md) < mm_assoc:
                md[segment] = MissMapEntry(present_mask=bit)
            else:
                lseg = next(iter(md))
                lmask = md.pop(lseg).present_mask
                md[segment] = MissMapEntry(present_mask=bit)
                n_mm_evict += 1
                n_lost += lmask.bit_count()
                while lmask:
                    low = lmask & -lmask
                    lmask ^= low
                    lost = lseg + (low.bit_length() - 1) * mm_bs
                    lsid = (lost >> bshift) % num_sets
                    if not tag_dicts[lsid].pop(lost).dirty:
                        continue
                    n_wb += 1
                    # stacked read from the lost block's own row
                    bank = set_banks[lsid]
                    bank.activate_count += 1
                    bank.precharge_count += 1
                    se_act += s_act_nj
                    bz = bank.busy_until
                    bank.busy_until = (bz if bz > nowf else nowf) + s_rd_dc
                    se_rd += s_rd_nj
                    # off-chip write-back
                    lchunk = lost // o_il
                    bank = o_banks[lchunk % o_ch * o_bpc + lchunk // o_ch % o_bpc]
                    bank.activate_count += 1
                    bank.precharge_count += 1
                    oe_act += o_act_nj
                    bz = bank.busy_until
                    bank.busy_until = (bz if bz > nowf else nowf) + o_wr_dc
                    oe_wr += o_wr_nj
            ct[c] = t + (icb_l[k] + latency * exposed)

        s_energy.activate_precharge_nj = se_act
        s_energy.read_nj = se_rd
        s_energy.write_nj = se_wr
        o_energy.activate_precharge_nj = oe_act
        o_energy.read_nj = oe_rd
        o_energy.write_nj = oe_wr
        bs = self.block_size
        s_reads = n_hr + n_wb
        s_writes = n_hw + n_miss
        s_ctrl.access_count += s_reads + s_writes
        s_ctrl.bytes_read += s_reads * bs
        s_ctrl.bytes_written += s_writes * bs
        o_ctrl.access_count += n_miss + n_wb
        o_ctrl.bytes_read += n_miss * bs
        o_ctrl.bytes_written += n_wb * bs
        cache.accesses += m
        cache.hits += n_hr + n_hw
        cache.fill_blocks += n_miss
        cache.writeback_blocks += n_wb
        cache.missmap_forced_evictions += n_lost
        missmap.forced_eviction_count += n_mm_evict
        return int(cols.instruction_counts.sum())


_KERNELS = (_FootprintKernel, _PageKernel, _BlockKernel, _OneAccessKernel)


def build_kernel(sim):
    """A segment kernel for ``sim``'s system, or None (scalar fallback)."""
    for kernel_class in _KERNELS:
        kernel = kernel_class.build(sim)
        if kernel is not None:
            return kernel
    return None
