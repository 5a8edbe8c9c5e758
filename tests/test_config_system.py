"""Unit tests for configuration and system construction."""

import dataclasses
import json

import pytest

from repro.caches.base import BaselineMemory
from repro.caches.block_cache import BlockBasedCache
from repro.caches.chop_cache import ChopCache
from repro.caches.ideal_cache import IdealCache
from repro.caches.page_cache import PageBasedCache
from repro.caches.subblock_cache import SubBlockedCache
from repro.core.footprint_cache import FootprintCache
from repro.dram.bank import RowBufferPolicy
from repro.dram.timing import (
    OFF_CHIP_DDR3_1600,
    STACKED_DDR3_3200,
    register_timing_preset,
    timing_preset,
)
from repro.mem.hierarchy import L2Cache
from repro.sim.config import (
    DESIGNS,
    CacheConfig,
    SimulationConfig,
    SystemConfig,
    TimingConfig,
    make_system_config,
)
from repro.sim.system import build_system

MB = 1024 * 1024


class TestSystemConfig:
    def test_table3_defaults(self):
        config = SystemConfig()
        assert config.num_cores == 16
        assert config.cpu_mhz == 3000
        assert config.offchip_channels == 1
        assert config.stacked_channels == 4
        assert config.dram_row_bytes == 2048

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(num_cores=0)
        with pytest.raises(ValueError):
            SystemConfig(base_cpi=0)
        with pytest.raises(ValueError):
            SystemConfig(exposed_latency_fraction=0)
        with pytest.raises(ValueError):
            SystemConfig(stacked_channels=-1)
        with pytest.raises(ValueError):
            SystemConfig(extra_l2_bytes=-1)

    def test_make_system_config_overrides(self):
        config = make_system_config({"offchip_channels": 2, "extra_l2_bytes": 16384})
        assert config.offchip_channels == 2
        assert config.extra_l2_bytes == 16384

    def test_make_system_config_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="warp_drive"):
            make_system_config({"warp_drive": True})


class TestTimingConfig:
    def test_default_resolves_per_role(self):
        assert TimingConfig().resolve("stacked") == STACKED_DDR3_3200
        assert TimingConfig().resolve("offchip") == OFF_CHIP_DDR3_1600

    def test_named_preset(self):
        assert TimingConfig(preset="ddr3_1600").resolve("stacked") == OFF_CHIP_DDR3_1600

    def test_latency_scale_matches_halved_latency(self):
        resolved = TimingConfig(latency_scale=0.5).resolve("stacked")
        halved = STACKED_DDR3_3200.with_halved_latency()
        assert resolved == halved

    def test_bus_mhz_override(self):
        assert TimingConfig(bus_mhz=2000).resolve("stacked").bus_mhz == 2000

    def test_validation(self):
        with pytest.raises(ValueError):
            TimingConfig(latency_scale=0)
        with pytest.raises(ValueError):
            TimingConfig(preset="")
        with pytest.raises(ValueError):
            TimingConfig(bus_mhz=0)
        with pytest.raises(ValueError, match="unknown timing preset"):
            TimingConfig(preset="ddr9").resolve("stacked")
        with pytest.raises(ValueError, match="unknown DRAM role"):
            TimingConfig().resolve("sideways")

    def test_register_preset(self):
        try:
            register_timing_preset("test_ddr", OFF_CHIP_DDR3_1600)
            assert timing_preset("test_ddr") == OFF_CHIP_DDR3_1600
            assert TimingConfig(preset="test_ddr").resolve("stacked") == OFF_CHIP_DDR3_1600
            with pytest.raises(ValueError, match="already defined"):
                register_timing_preset("test_ddr", STACKED_DDR3_3200)
        finally:
            from repro.dram.timing import TIMING_PRESETS

            TIMING_PRESETS.pop("test_ddr", None)

    def test_default_name_reserved(self):
        with pytest.raises(ValueError):
            register_timing_preset("default", OFF_CHIP_DDR3_1600)


class TestCacheConfig:
    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(design="magic")

    def test_page_size_power_of_two(self):
        with pytest.raises(ValueError):
            CacheConfig(page_size=3000)

    def test_tag_latency_derived_from_table4(self):
        config = CacheConfig(design="footprint", capacity_bytes=256 * MB)
        assert config.resolved_tag_latency() == 9

    def test_tag_latency_override(self):
        config = CacheConfig(design="footprint", tag_latency=5)
        assert config.resolved_tag_latency() == 5


class TestSimulationConfig:
    def test_warmup_requests(self):
        config = SimulationConfig(num_requests=1000, warmup_fraction=0.25)
        assert config.warmup_requests == 250

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_requests=0)
        with pytest.raises(ValueError):
            SimulationConfig(warmup_fraction=1.0)
        with pytest.raises(ValueError):
            SimulationConfig(dataset_scale=0)

    def test_scaled_divides_capacity(self):
        config = SimulationConfig.scaled("web_search", "footprint", 256, scale=256)
        assert config.cache.capacity_bytes == MB

    def test_scaled_uses_paper_tag_latency(self):
        config = SimulationConfig.scaled("web_search", "footprint", 512, scale=256)
        assert config.cache.tag_latency == 11

    def test_scaled_missmap_proportional(self):
        config = SimulationConfig.scaled("web_search", "block", 256, scale=256)
        assert config.cache.missmap_entries == 192 * 1024 // 256

    def test_scaled_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            SimulationConfig.scaled("web_search", "footprint", 256, scale=0)

    def test_full_scale(self):
        config = SimulationConfig.full_scale("web_search", "page", 64)
        assert config.cache.capacity_bytes == 64 * MB
        assert config.dataset_scale == 64.0

    def test_scaled_accepts_variants(self):
        config = SimulationConfig.scaled(
            "web_search", "ideal", 256,
            system_overrides={"extra_l2_bytes": 16384},
            stacked_timing=TimingConfig(latency_scale=0.5),
        )
        assert config.system.extra_l2_bytes == 16384
        assert config.stacked_timing.latency_scale == 0.5
        assert config.offchip_timing == TimingConfig()


class TestConfigSerialization:
    def _config(self):
        return SimulationConfig.scaled(
            "web_search", "footprint", 256, num_requests=50_000, seed=3,
            system_overrides={"offchip_channels": 2},
            stacked_timing=TimingConfig(latency_scale=0.5),
            fht_entries=1024,
        )

    def test_round_trip_through_dict(self):
        config = self._config()
        assert SimulationConfig.from_dict(config.to_dict()) == config

    def test_round_trip_through_json(self):
        config = self._config()
        restored = SimulationConfig.from_json(config.to_json())
        assert restored == config
        # And the text itself is plain JSON.
        assert json.loads(config.to_json())["workload"] == "web_search"

    def test_defaults_round_trip(self):
        config = SimulationConfig()
        assert SimulationConfig.from_json(config.to_json()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="turbo"):
            SimulationConfig.from_dict({"turbo": True})

    def test_from_dict_accepts_nested_dicts(self):
        config = SimulationConfig.from_dict(
            {
                "workload": "mapreduce",
                "cache": {"design": "page", "capacity_bytes": MB},
                "system": {"num_cores": 8},
                "stacked_timing": {"latency_scale": 0.5},
                "num_requests": 1000,
            }
        )
        assert config.cache.design == "page"
        assert config.system.num_cores == 8
        assert config.stacked_timing == TimingConfig(latency_scale=0.5)
        assert config.offchip_timing == TimingConfig()


class TestBuildSystem:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_every_design_buildable(self, design):
        config = SimulationConfig.scaled("web_search", design, 256, scale=256)
        system = build_system(config)
        expected = {
            "baseline": BaselineMemory,
            "block": BlockBasedCache,
            "page": PageBasedCache,
            "footprint": FootprintCache,
            "subblock": SubBlockedCache,
            "chop": ChopCache,
            "ideal": IdealCache,
        }[design]
        assert isinstance(system.cache, expected)

    def test_baseline_has_no_stacked_dram(self):
        config = SimulationConfig.scaled("web_search", "baseline", 256, scale=256)
        assert build_system(config).stacked is None

    def test_block_design_uses_close_page(self):
        config = SimulationConfig.scaled("web_search", "block", 256, scale=256)
        system = build_system(config)
        assert system.stacked.policy is RowBufferPolicy.CLOSE_PAGE
        assert system.offchip.policy is RowBufferPolicy.CLOSE_PAGE

    def test_page_designs_use_open_page(self):
        for design in ("page", "footprint", "subblock"):
            config = SimulationConfig.scaled("web_search", design, 256, scale=256)
            system = build_system(config)
            assert system.stacked.policy is RowBufferPolicy.OPEN_PAGE
            assert system.offchip.policy is RowBufferPolicy.OPEN_PAGE

    def test_page_interleaving_for_page_designs(self):
        config = SimulationConfig.scaled("web_search", "footprint", 256, scale=256)
        system = build_system(config)
        assert system.offchip.mapping.interleave_bytes == 2048

    def test_block_interleaving_for_block_design(self):
        config = SimulationConfig.scaled("web_search", "block", 256, scale=256)
        system = build_system(config)
        assert system.offchip.mapping.interleave_bytes == 64

    def test_footprint_wiring(self):
        config = SimulationConfig.scaled(
            "web_search", "footprint", 256, scale=256, fht_entries=1024
        )
        system = build_system(config)
        assert system.cache.fht.num_entries == 1024
        assert system.cache.singleton_table is not None

    def test_footprint_singleton_disabled(self):
        config = SimulationConfig.scaled(
            "web_search", "footprint", 256, scale=256, singleton_optimization=False
        )
        system = build_system(config)
        assert system.cache.singleton_table is None

    def test_reset_stats_cascades(self):
        config = SimulationConfig.scaled("web_search", "footprint", 256, scale=256)
        system = build_system(config)
        for i, request in enumerate(system.workload.requests(200)):
            system.cache.access(request, i * 10)
        system.reset_stats()
        assert system.cache.accesses == 0
        assert system.offchip.total_bytes == 0
        assert system.stacked.total_bytes == 0

    def test_timing_variants_reach_the_controllers(self):
        config = SimulationConfig.scaled(
            "web_search", "footprint", 256, scale=256,
            stacked_timing=TimingConfig(latency_scale=0.5),
            offchip_timing=TimingConfig(preset="ddr3_3200"),
        )
        system = build_system(config)
        assert system.stacked.timing == STACKED_DDR3_3200.with_halved_latency()
        assert system.offchip.timing == STACKED_DDR3_3200

    def test_default_timing_is_table3(self):
        config = SimulationConfig.scaled("web_search", "footprint", 256, scale=256)
        system = build_system(config)
        assert system.stacked.timing == STACKED_DDR3_3200
        assert system.offchip.timing == OFF_CHIP_DDR3_1600

    def test_extra_l2_wraps_the_frontend(self):
        config = SimulationConfig.scaled(
            "web_search", "baseline", 64, scale=256,
            system_overrides={"extra_l2_bytes": 16384},
        )
        system = build_system(config)
        assert isinstance(system.frontend, L2Cache)
        assert system.frontend.backing is system.cache
        assert system.frontend.capacity_bytes == 16384
        assert system.frontend.hit_latency == 0

    def test_no_extra_l2_frontend_is_the_cache(self):
        config = SimulationConfig.scaled("web_search", "baseline", 64, scale=256)
        system = build_system(config)
        assert system.frontend is system.cache

    def test_reset_stats_covers_the_frontend(self):
        config = SimulationConfig.scaled(
            "web_search", "baseline", 64, scale=256,
            system_overrides={"extra_l2_bytes": 16384},
        )
        system = build_system(config)
        for i, request in enumerate(system.workload.requests(200)):
            system.frontend.access(request, i * 10)
        assert system.frontend.accesses == 200
        system.reset_stats()
        assert system.frontend.accesses == 0
        assert system.cache.accesses == 0

    @pytest.mark.parametrize("extra_l2_bytes", (0, 16384), ids=("no-l2", "l2"))
    @pytest.mark.parametrize(
        "design",
        ("baseline", "ideal", "block", "page", "footprint", "subblock", "chop"),
    )
    def test_reset_stats_restores_every_counter(self, design, extra_l2_bytes):
        """After a reset, every ``int`` of the cache and of the frontend
        is what a freshly built system holds."""

        def ints(component):
            return {
                name: value for name, value in vars(component).items()
                if type(value) is int
            }

        config = SimulationConfig.scaled(
            "web_search", design, 64, scale=256,
            system_overrides={"extra_l2_bytes": extra_l2_bytes},
        )
        fresh = build_system(config)
        system = build_system(config)
        for i, request in enumerate(system.workload.requests(3000)):
            system.frontend.access(request, i * 10)
        assert system.cache.accesses > 0
        assert ints(system.cache) != ints(fresh.cache)
        system.reset_stats()
        assert ints(system.cache) == ints(fresh.cache)
        assert ints(system.frontend) == ints(fresh.frontend)
