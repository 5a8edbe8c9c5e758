"""System construction: wire controllers, cache design, and workload.

Row-buffer management policies and address mappings are chosen per design,
as the paper does (Section 5.2), but the per-design knowledge lives in the
design registry (:mod:`repro.caches.registry`) rather than here:

* page-organised designs (page, footprint, subblock, chop) use open-page
  policies and page-granular interleaving — a page occupies one DRAM row;
* the block-based design and the baseline use close-/open-page with 64B
  interleaving to maximise DRAM-level parallelism for scattered accesses.

``build_system`` consumes a :class:`~repro.sim.config.SimulationConfig`
and *only* that: DRAM device variants, pod overrides and the design all
come from the config, so two systems built from equal configs are
identical and the experiment engine can hash a config as the full
identity of a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.caches.base import DramCache
from repro.caches.registry import DesignSpec, get_design
from repro.dram.address_mapping import AddressMapping
from repro.dram.controller import MemoryController
from repro.dram.energy import DramEnergyModel
from repro.dram.timing import DramTiming
from repro.mem.hierarchy import L2Cache
from repro.sim.config import CacheConfig, SimulationConfig, SystemConfig
from repro.workloads.cloudsuite import make_workload
from repro.workloads.synthetic import SyntheticWorkload


@dataclass
class System:
    """A constructed pod: cache design + both DRAM instances + workload.

    ``frontend`` is the access point the simulator drives: the DRAM cache
    itself, or an extra on-chip L2 slice in front of it when
    ``SystemConfig.extra_l2_bytes`` is set (the Section 6.3 enhanced
    baseline).  ``cache`` always names the DRAM cache level, where miss
    ratios and traffic are accounted.
    """

    config: SimulationConfig
    cache: DramCache
    stacked: Optional[MemoryController]
    offchip: MemoryController
    workload: SyntheticWorkload
    frontend: Union[DramCache, L2Cache, None] = None

    def __post_init__(self) -> None:
        if self.frontend is None:
            self.frontend = self.cache

    def reset_stats(self) -> None:
        """End-of-warm-up reset across all components."""
        self.cache.reset_stats()
        self.offchip.reset_stats()
        if self.stacked is not None:
            self.stacked.reset_stats()
        if self.frontend is not self.cache:
            self.frontend.reset_stats()


def _offchip_controller(
    system: SystemConfig, cache: CacheConfig, spec: DesignSpec, timing: DramTiming
) -> MemoryController:
    if spec.page_organised:
        mapping = AddressMapping(
            channels=system.offchip_channels,
            banks_per_channel=system.offchip_banks_per_channel,
            row_bytes=system.dram_row_bytes,
            interleave_bytes=min(cache.page_size, system.dram_row_bytes),
        )
    else:
        mapping = AddressMapping.block_interleaved(
            channels=system.offchip_channels,
            banks_per_channel=system.offchip_banks_per_channel,
            row_bytes=system.dram_row_bytes,
        )
    return MemoryController(
        timing=timing,
        mapping=mapping,
        policy=spec.offchip_policy,
        energy_model=DramEnergyModel.off_chip(),
        cpu_mhz=system.cpu_mhz,
    )


def _stacked_controller(
    system: SystemConfig, cache: CacheConfig, spec: DesignSpec, timing: DramTiming
) -> MemoryController:
    if spec.stacked_interleaving == "page":
        interleave = min(cache.page_size, system.dram_row_bytes)
    elif spec.stacked_interleaving == "row":
        # One DRAM row holds one cache set (tags + data); row-granular
        # interleaving keeps each compound access within one bank.
        interleave = system.dram_row_bytes
    else:  # "block": scattered accesses, maximise bank-level parallelism
        interleave = 64
    mapping = AddressMapping(
        channels=system.stacked_channels,
        banks_per_channel=system.stacked_banks_per_channel,
        row_bytes=system.dram_row_bytes,
        interleave_bytes=interleave,
    )
    return MemoryController(
        timing=timing,
        mapping=mapping,
        policy=spec.stacked_policy,
        energy_model=DramEnergyModel.stacked(),
        cpu_mhz=system.cpu_mhz,
    )


def build_cache(
    cache_config: CacheConfig,
    stacked: Optional[MemoryController],
    offchip: MemoryController,
) -> DramCache:
    """Instantiate the configured design over the two DRAM instances."""
    spec = get_design(cache_config.design)
    if spec.needs_stacked and stacked is None:
        raise ValueError(f"design {spec.name!r} needs a stacked controller")
    return spec.builder(cache_config, stacked, offchip)


def build_system(config: SimulationConfig) -> System:
    """Build a complete simulated pod from a :class:`SimulationConfig`.

    The config is the whole experiment: design, capacities, pod
    architecture, DRAM device variants and the workload all come from
    it — ``config.workload`` names a profile in the workload registry
    (:func:`repro.workloads.profiles.register_profile`), so user-defined
    workloads build with no out-of-band arguments and participate in the
    experiment engine's content hashes like built-ins (see
    ``examples/custom_workload.py``).
    """
    spec = get_design(config.cache.design)
    offchip = _offchip_controller(
        config.system, config.cache, spec, config.offchip_timing.resolve("offchip")
    )
    stacked = (
        _stacked_controller(
            config.system, config.cache, spec, config.stacked_timing.resolve("stacked")
        )
        if spec.needs_stacked
        else None
    )
    cache = build_cache(config.cache, stacked, offchip)
    frontend: Union[DramCache, L2Cache] = cache
    if config.system.extra_l2_bytes:
        # Section 6.3: grow the existing L2 instead of spending SRAM on
        # cache tags.  The L2's write-no-allocate policy and zero added
        # hit latency model the pure capacity effect of growing an array
        # that is already on the access path.
        frontend = L2Cache(
            cache,
            capacity_bytes=config.system.extra_l2_bytes,
            hit_latency=config.system.extra_l2_hit_latency,
        )
    workload = make_workload(
        config.workload,
        seed=config.seed,
        page_size=config.cache.page_size,
        dataset_scale=config.dataset_scale,
    )
    return System(
        config=config,
        cache=cache,
        stacked=stacked,
        offchip=offchip,
        workload=workload,
        frontend=frontend,
    )
