"""Per-design batch replay kernels (byte-parity mirrors of the scalar path).

Each kernel replays one trace segment: a NumPy precompute pass turns the
columnar segment into flat Python lists (page, block offset, tag set,
write flag, core, instruction-cycle product), then ONE tight loop applies
the *same arithmetic in the same order* as the scalar reference —
``MemoryController.access`` + the design's full access flow + the
simulator's per-core time recurrence — writing directly through to the
real simulation state (banks, LRU dicts, tag entries, block bit vectors,
frame free-lists, predictor tables, per-core clocks).

Unlike a classic fast-path/slow-path split, the footprint and page
kernels inline *every* outcome — hit, underprediction, page miss with
eviction, singleton bypass — so no per-request objects are built and no
virtual dispatch happens anywhere on the replay path.  The inlined
bodies are transcriptions of ``FootprintCache.access``,
``PageBasedCache.access`` and ``MemoryController.access``; tests pin
bit-exact equivalence per design x workload x seed.

Mirroring rules that make the parity hold to the last bit:

* Int counters (access/hit/byte/cycle counts) accumulate in locals and
  flush at segment end — integer addition is exact and the scalar path
  touches no other accumulators meanwhile (the kernel IS the only
  writer during a segment).  Counts that are linear in other counts
  (controller access totals, block-sized byte totals) are derived at
  flush time instead of incremented per event.
* Energy floats accumulate in locals seeded from the controller's
  current values and store back at segment end.  Because the kernel
  adds the same addends in the same stream order as the reference, the
  IEEE rounding sequence is identical — which is also why energy adds
  can NOT be batched like the integer counters.
* Device-cycle memo lookups go through the controller's own
  ``_device_cycles`` dict, so memoisation is shared with any scalar
  code that runs before or after.
* When the stacked controller's interleave stripe is a whole number of
  cache pages, every address inside a page frame decomposes to the same
  (bank, row); the kernels then precompute one bank/row pair per frame
  and replace the five-operation address decomposition with two list
  lookups.  Odd geometries keep the verbatim arithmetic.
* An LRU "touch" of the most-recently-used key is a no-op on an ordered
  dict, so the kernels track the MRU key per set and skip the
  delete/re-insert pair for repeated touches — the dominant pattern in
  paged streams.
* Lazily created statistics (``underprediction_misses``,
  ``eviction_density``, ...) are only instantiated when the count is
  non-zero, matching the reference's create-on-first-event timing so
  ``StatGroup.as_dict`` has identical keys.

``build_kernel`` returns None when any assumption fails (custom
subclasses, close-page controllers, non-LRU tags, an L2 frontend); the
driver then routes the whole run to the scalar reference loop.
"""

from __future__ import annotations

import numpy as np

from repro.caches.base import BaselineMemory
from repro.caches.page_cache import PageBasedCache, PageLine
from repro.caches.replacement import LruPolicy
from repro.core.block_state import PageBlockBits
from repro.core.footprint_cache import FootprintCache
from repro.core.footprint_predictor import FootprintHistoryTable, _FhtEntry
from repro.core.singleton_table import SingletonEntry, SingletonTable
from repro.core.tag_array import PageEntry
from repro.dram.controller import MemoryController

_FHT_HASH_PC = 0x9E3779B1
_FHT_HASH_OFFSET = 0x85EBCA77


def _plain_open_page(controller) -> bool:
    """True when the inlined controller model applies exactly."""
    return type(controller) is MemoryController and not controller._close_page


def _lru_sets(sram) -> bool:
    """True when every set of a SetAssociativeCache uses plain LRU."""
    policies = sram._policies
    return bool(policies) and all(type(p) is LruPolicy for p in policies)


def _cycles(controller, num_bytes: int, code: int, is_write: bool) -> int:
    """Device CPU cycles for one access, seeded into the controller memo.

    Exactly ``MemoryController.access``'s miss path for its
    ``_device_cycles`` dict, so inlined lookups and any scalar-path
    lookups observe the same values.
    """
    row_bus_cycles = controller._row_cycles[code]
    stripe_bytes = min(num_bytes, controller._interleave_bytes)
    burst_bus_cycles = controller.timing.burst_cycles(stripe_bytes)
    if is_write:
        row_bus_cycles += controller._write_recovery
    cycles = controller.timing.to_cpu_cycles(
        row_bus_cycles + burst_bus_cycles, controller.cpu_mhz
    )
    controller._device_cycles[(num_bytes, code, is_write)] = cycles
    return cycles


def _device_cycle_table(controller, num_bytes: int):
    """Device-cycle table for one size, indexed ``is_write * 3 + code``."""
    table = []
    for is_write in (False, True):
        for code in (0, 1, 2):
            cycles = controller._device_cycles.get((num_bytes, code, is_write))
            if cycles is None:
                cycles = _cycles(controller, num_bytes, code, is_write)
            table.append(cycles)
    return tuple(table)


class _Dram:
    """Inline-access constants of one open-page controller."""

    __slots__ = (
        "controller", "interleave", "channels", "banks_per_channel",
        "chunks_per_row", "banks", "table", "act_nj", "read_nj", "write_nj",
        "read_nj_per_64b", "write_nj_per_64b", "memo",
    )

    def __init__(self, controller, block_size: int) -> None:
        self.controller = controller
        self.interleave = controller._interleave_bytes
        self.channels = controller._channels
        self.banks_per_channel = controller._banks_per_channel
        self.chunks_per_row = controller._chunks_per_row
        self.banks = [bank for channel in controller._banks for bank in channel]
        self.table = _device_cycle_table(controller, block_size)
        self.act_nj = controller._activate_nj
        # Block-size energy constants: same expression, same operand
        # order as the reference's per-access ``num_bytes/64.0 * per64``.
        self.read_nj = block_size / 64.0 * controller._read_nj_per_64b
        self.write_nj = block_size / 64.0 * controller._write_nj_per_64b
        self.read_nj_per_64b = controller._read_nj_per_64b
        self.write_nj_per_64b = controller._write_nj_per_64b
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


class _BaselineKernel:
    """Every request goes off-chip: one inlined controller op each."""

    @classmethod
    def build(cls, sim):
        system = sim.system
        cache = system.cache
        if type(cache) is not BaselineMemory or system.frontend is not cache:
            return None
        if not _plain_open_page(cache.offchip):
            return None
        return cls(sim)

    def __init__(self, sim) -> None:
        cache = sim.system.cache
        self.cache = cache
        self.perf = sim.perf
        self.block_size = cache.block_size
        self.block_mask = np.int64(cache._block_mask)
        self.offchip = _Dram(cache.offchip, cache.block_size)

    def run_segment(self, cols) -> int:
        m = len(cols)
        if m == 0:
            return 0
        od = self.offchip
        controller = od.controller
        chunk = (cols.addresses & self.block_mask) // od.interleave
        c2 = chunk // od.channels
        flat_l = (chunk % od.channels * od.banks_per_channel + c2 % od.banks_per_channel).tolist()
        rows_l = (c2 // od.banks_per_channel // od.chunks_per_row).tolist()
        writes_l = cols.writes.tolist()
        perf = self.perf
        cores_l = (cols.core_ids % perf.num_cores).tolist()
        icb_l = (cols.instruction_counts * perf.base_cpi).tolist()
        exposed = perf.exposed_latency_fraction
        ct = perf._core_time
        banks = od.banks
        table = od.table
        act_nj = od.act_nj
        rd_nj = od.read_nj
        wr_nj = od.write_nj
        energy = controller.energy
        e_act = energy.activate_precharge_nj
        e_rd = energy.read_nj
        e_wr = energy.write_nj
        row_hits = 0
        busy = 0
        writes_seen = 0
        total_latency = 0
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
            latency = finish - now
            ct[c] = t + (icb_l[k] + latency * exposed)
            total_latency += latency
            busy += dc
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
        controller.busy_cpu_cycles += busy
        controller.bytes_written += writes_seen * bs
        controller.bytes_read += reads_seen * bs
        cache = self.cache
        cache._c_accesses._value += m
        cache._c_fill_blocks._value += reads_seen
        cache._c_total_latency._value += total_latency
        return int(cols.instruction_counts.sum())


class _StackedKernelBase:
    """Shared constants of the page-organised kernels (page, footprint)."""

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
        # Critical-block-first burst tails by fetch size, computed with
        # DramCache._critical_fetch_latency's exact expression.
        self._tails = {}
        self._hist = None

    def _build_frame_tables(self, num_frames: int) -> None:
        """Per-frame (bank, row) tables for the stacked controller.

        Valid when the interleave stripe is a whole number of pages:
        then ``(frame + offset) // interleave == frame // interleave``
        for every in-page offset, so bank and row are functions of the
        frame alone.
        """
        sd = self.stacked
        if sd.interleave % self.page_size == 0:
            pairs = [sd.decompose(fid * self.page_size) for fid in range(num_frames)]
            self.frame_banks = [bank for bank, _ in pairs]
            self.frame_rows = [row for _, row in pairs]
        else:
            self.frame_banks = self.frame_rows = None

    def _tail(self, num_bytes: int) -> int:
        """Memoised off-critical-path burst tail for one fetch size."""
        tail = self._tails.get(num_bytes)
        if tail is None:
            offchip = self.cache.offchip
            timing = offchip.timing
            stripe = min(num_bytes, offchip.mapping.interleave_bytes)
            tail_bus = timing.burst_cycles(stripe) - timing.burst_cycles(self.block_size)
            tail = timing.to_cpu_cycles(max(0, tail_bus))
            self._tails[num_bytes] = tail
        return tail

    def _histogram(self):
        """The eviction-density histogram, created on first eviction.

        Created lazily so a segment with no evictions leaves
        ``StatGroup.as_dict`` without the histogram keys, exactly like
        the reference.
        """
        if self._hist is None:
            self._hist = self.cache.stats.histogram("eviction_density")
        return self._hist

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
        if not _lru_sets(cache._tags):
            return None
        return cls(sim)

    def __init__(self, sim) -> None:
        super().__init__(sim)
        cache = sim.system.cache
        sram = cache._tags
        self.num_sets = sram.num_sets
        self.associativity = sram.associativity
        self.tag_dicts = sram._entries
        self.tag_orders = [policy._order for policy in sram._policies]
        self.frame_free = cache._frames._free
        self._build_frame_tables(self.num_sets * self.associativity)
        # Most-recently-used key per tag set: touching it again is a
        # no-op on the LRU dict, so the loop skips the delete/re-insert.
        self.mru = [None] * self.num_sets

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
        tag_orders = self.tag_orders
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

        s_rowhit = s_busy = 0
        o_rowhit = o_busy = 0
        s_brd_v = o_bwr_v = 0
        n_hr = n_hw = n_alloc = n_dirty = 0
        c_wb = c_lat = 0

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
                    order = tag_orders[sid]
                    del order[page]
                    order[page] = None
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
                s_busy += dc
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
                    order = tag_orders[sid]
                    vpage = next(iter(order))
                    del order[vpage]
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
                            dc = _cycles(s_ctrl, nb, code, False)
                        bz = bank.busy_until
                        start = bz if bz > now_mr else now_mr
                        bank.busy_until = start + dc
                        s_busy += dc
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
                            dc = _cycles(o_ctrl, nb, code, True)
                        bz = bank.busy_until
                        start = bz if bz > now_mr else now_mr
                        bank.busy_until = start + dc
                        o_busy += dc
                        oe_wr += nb / 64.0 * o_wr64
                        o_bwr_v += nb
                    frame_free[sid].append(vline.frame // page_size - sid * assoc)
                    hist = self._hist
                    if hist is None:
                        hist = self._histogram()
                    hist.record(vline.demanded_mask.bit_count())
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
                o_busy += dc
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
                s_busy += dc
                se_wr += page_size / 64.0 * s_wr64
                bit = 1 << offs_l[k]
                line = PageLine(frame=frame, demanded_mask=bit)
                if w:
                    line.dirty_mask = bit
                td[page] = line
                tag_orders[sid][page] = None
                mru[sid] = page
                c_wb += wb
            ct[c] = t + (icb_l[k] + latency * exposed)
            c_lat += latency

        s_energy.activate_precharge_nj = se_act
        s_energy.read_nj = se_rd
        s_energy.write_nj = se_wr
        o_energy.activate_precharge_nj = oe_act
        o_energy.read_nj = oe_rd
        o_energy.write_nj = oe_wr
        c_hit = n_hr + n_hw
        s_ctrl.access_count += c_hit + n_alloc + n_dirty
        s_ctrl.row_hit_count += s_rowhit
        s_ctrl.busy_cpu_cycles += s_busy
        s_ctrl.bytes_read += n_hr * bs + s_brd_v
        s_ctrl.bytes_written += n_hw * bs + n_alloc * page_size
        o_ctrl.access_count += n_alloc + n_dirty
        o_ctrl.row_hit_count += o_rowhit
        o_ctrl.busy_cpu_cycles += o_busy
        o_ctrl.bytes_read += n_alloc * page_size
        o_ctrl.bytes_written += o_bwr_v
        cache._c_accesses._value += m
        cache._c_hits._value += c_hit
        cache._c_fill_blocks._value += n_alloc * self.blocks_per_page
        cache._c_writeback_blocks._value += c_wb
        cache._c_total_latency._value += c_lat
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
        if not _lru_sets(cache.tags._tags):
            return None
        fht = cache.fht
        if type(fht) is not FootprintHistoryTable or not _lru_sets(fht._table):
            return None
        st = cache.singleton_table
        if st is not None and (type(st) is not SingletonTable or not _lru_sets(st._table)):
            return None
        return cls(sim)

    def __init__(self, sim) -> None:
        super().__init__(sim)
        cache = sim.system.cache
        sram = cache.tags._tags
        self.num_sets = sram.num_sets
        self.associativity = sram.associativity
        self.tag_dicts = sram._entries
        self.tag_orders = [policy._order for policy in sram._policies]
        self.frame_free = cache.tags._frames._free
        self._build_frame_tables(self.num_sets * self.associativity)
        self.mru = [None] * self.num_sets
        fht = cache.fht
        self.fht = fht
        self.fht_dicts = fht._table._entries
        self.fht_orders = [policy._order for policy in fht._table._policies]
        self.fht_sets = fht._table.num_sets
        self.fht_assoc = fht._table.associativity
        self.fht_default_index = fht.index_mode == "pc_offset"
        st = cache.singleton_table
        self.st = st
        if st is not None:
            self.st_dicts = st._table._entries
            self.st_orders = [policy._order for policy in st._table._policies]
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
        tag_orders = self.tag_orders
        frame_free = self.frame_free
        mru = self.mru

        fht = self.fht
        fht_dicts = self.fht_dicts
        fht_orders = self.fht_orders
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
            st_orders = self.st_orders
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

        s_rowhit = s_busy = 0
        o_rowhit = o_busy = 0
        s_brd_v = s_bwr_v = o_brd_v = o_bwr_v = 0
        n_hr = n_hw = n_alloc = n_dirty = 0
        c_fill_v = c_wb = c_lat = 0
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
                    order = tag_orders[sid]
                    del order[page]
                    order[page] = None
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
                    s_busy += dc
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
                    o_busy += dc
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
                    s_busy += dc
                    se_wr += s_wr_nj
                    # mark_demanded(off, dirty=w) on current masks
                    blocks.high_mask = high | bit
                    if w or (high & low & bit):
                        blocks.low_mask = low | bit
                    else:
                        blocks.low_mask = low & ~bit
                ct[c] = t + (icb_l[k] + latency * exposed)
                c_lat += latency
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
                        del st_orders[st_sid][page]
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
                    fo = fht_orders[fs]
                    if len(fd) >= fht_assoc:
                        victim = next(iter(fo))
                        del fo[victim]
                        del fd[victim]
                    fd[fkey] = _FhtEntry(footprint_mask=1 << off)
                    fo[fkey] = None
                    pmask = 1 << off
                else:
                    f_hits += 1
                    fo = fht_orders[fs]
                    del fo[fkey]
                    fo[fkey] = None
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
                o_busy += dc
                if w:
                    oe_wr += o_wr_nj
                    n_byp_w += 1
                else:
                    oe_rd += o_rd_nj
                latency = tagl + (finish - nowx)
                if rerecord:
                    st_sid = page % st_sets
                    sdict = st_dicts[st_sid]
                    sorder = st_orders[st_sid]
                    if len(sdict) >= st_assoc:
                        victim = next(iter(sorder))
                        del sorder[victim]
                        del sdict[victim]
                    sdict[page] = SingletonEntry(pc=pc, offset=off)
                    sorder[page] = None
                    st_rec += 1
                ct[c] = t + (icb_l[k] + latency * exposed)
                c_lat += latency
                continue

            # ---- allocate and fetch the predicted footprint ---------
            now_mr = nowi + tagl
            wb = 0
            if len(td) >= assoc:
                # Evict the LRU page: FHT feedback, accuracy accounting,
                # dirty write-back.
                order = tag_orders[sid]
                vpage = next(iter(order))
                del order[vpage]
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
                hist = self._hist
                if hist is None:
                    hist = self._histogram()
                hist.record(demanded.bit_count())
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
                        dc = _cycles(s_ctrl, nb, code, False)
                    bz = bank.busy_until
                    start = bz if bz > now_mr else now_mr
                    bank.busy_until = start + dc
                    s_busy += dc
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
                        dc = _cycles(o_ctrl, nb, code, True)
                    bz = bank.busy_until
                    start = bz if bz > now_mr else now_mr
                    bank.busy_until = start + dc
                    o_busy += dc
                    oe_wr += nb / 64.0 * o_wr64
                    o_bwr_v += nb
                wb = dirty
            n_alloc += 1
            frame = (sid * assoc + frame_free[sid].pop()) * page_size
            blocks = PageBlockBits(self.blocks_per_page)
            td[page] = PageEntry(
                frame=frame, blocks=blocks, fht_key=fht_key, predicted_mask=pmask
            )
            tag_orders[sid][page] = None
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
                dc = _cycles(o_ctrl, nb, code, False)
            bz = bank.busy_until
            start = bz if bz > now_mr else now_mr
            finish = start + dc
            bank.busy_until = finish
            o_busy += dc
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
                dc = _cycles(s_ctrl, nb, code, True)
            bz = bank.busy_until
            start = bz if bz > nowf else nowf
            bank.busy_until = start + dc
            s_busy += dc
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
            c_lat += latency

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
        s_ctrl.busy_cpu_cycles += s_busy
        s_ctrl.bytes_read += n_hr * bs + s_brd_v
        s_ctrl.bytes_written += (n_hw + n_under) * bs + s_bwr_v
        o_ctrl.access_count += n_under + n_byp + n_alloc + n_dirty
        o_ctrl.row_hit_count += o_rowhit
        o_ctrl.busy_cpu_cycles += o_busy
        o_ctrl.bytes_read += (n_under + n_byp_r) * bs + o_brd_v
        o_ctrl.bytes_written += n_byp_w * bs + o_bwr_v
        cache._c_accesses._value += m
        cache._c_hits._value += c_hit
        cache._c_bypasses._value += n_byp
        cache._c_fill_blocks._value += n_under + n_byp_r + c_fill_v
        cache._c_writeback_blocks._value += c_wb
        cache._c_total_latency._value += c_lat
        stats = cache.stats
        # Lazily named counters: only materialise on first event, like
        # the reference's get-or-create-on-increment.
        if n_under:
            stats.counter("underprediction_misses")._value += n_under
        if n_corr:
            stats.counter("singleton_corrections")._value += n_corr
        if n_byp:
            stats.counter("singleton_bypasses")._value += n_byp
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


_KERNELS = (_FootprintKernel, _PageKernel, _BaselineKernel)


def build_kernel(sim):
    """A segment kernel for ``sim``'s system, or None (scalar fallback)."""
    for kernel_class in _KERNELS:
        kernel = kernel_class.build(sim)
        if kernel is not None:
            return kernel
    return None
