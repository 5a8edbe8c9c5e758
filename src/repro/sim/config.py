"""Simulation configuration (the paper's Tables 3 and 4 in code).

``SystemConfig`` captures the pod architecture (Table 3), ``CacheConfig``
one DRAM cache design point (Table 4), ``TimingConfig`` the DRAM device
variant per role (named preset plus override knobs like ``latency_scale``
— Fig. 1's half-latency stacked DRAM is ``TimingConfig(latency_scale=0.5)``),
and ``SimulationConfig`` a full experiment: workload + system + cache +
timing + scaling + trace length.  A ``SimulationConfig`` is *complete*:
``build_system(config)`` takes nothing else, so every degree of freedom
participates in the experiment engine's content hashes
(:meth:`repro.exp.ExperimentPoint.key`).

The set of valid ``CacheConfig.design`` values is the design registry's
(:mod:`repro.caches.registry`): designs registered through
``@register_design`` — including third-party ones — validate, build and
sweep like the built-ins.

Scaling: the paper simulates 64-512MB caches against 16-32GB datasets.
Cycle-level simulation in Python cannot stream the paper's 20-40 billion
instructions per core, so the default configuration divides capacities and
datasets by ``scale`` (64 by default).  Because server miss rates follow a
power law (Section 7, "Cache capacity"), ratios — which determine every
normalised result — are preserved.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Mapping, Optional

from repro.caches.registry import design_names, get_design
from repro.core.overheads import missmap_entries_for, overheads_for
from repro.dram.timing import DramTiming, timing_preset

MB = 1024 * 1024


def __getattr__(name: str):
    # DESIGNS is a live view of the design registry (PEP 562): custom
    # designs registered at runtime appear without re-importing.
    if name == "DESIGNS":
        return design_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class TimingConfig:
    """Declarative DRAM device variant for one role (stacked or off-chip).

    ``preset`` names an entry of :data:`repro.dram.timing.TIMING_PRESETS`
    (``"default"`` resolves to the role's Table 3 device).  The override
    fields then derive a variant device: ``latency_scale`` scales every
    core timing latency (0.5 = the Fig. 1 half-latency part), ``bus_mhz``
    re-clocks the interface.
    """

    preset: str = "default"
    latency_scale: float = 1.0
    bus_mhz: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.preset:
            raise ValueError("preset must be a non-empty name")
        if self.latency_scale <= 0:
            raise ValueError("latency_scale must be positive")
        if self.bus_mhz is not None and self.bus_mhz <= 0:
            raise ValueError("bus_mhz must be positive")

    def resolve(self, role: str) -> DramTiming:
        """The concrete :class:`DramTiming` this variant denotes."""
        timing = timing_preset(self.preset, role=role)
        if self.bus_mhz is not None:
            timing = replace(timing, bus_mhz=self.bus_mhz)
        if self.latency_scale != 1.0:
            timing = timing.with_latency_scale(self.latency_scale)
        return timing


@dataclass(frozen=True)
class SystemConfig:
    """Pod-level architecture parameters (paper Table 3).

    One pod: 16 ARM Cortex-A15-like 3-way OoO cores at 3GHz, a 4MB L2,
    one off-chip DDR3-1600 channel, four stacked DDR3-3200 channels.
    ``extra_l2_bytes`` grows the existing L2 by that many bytes — the
    Section 6.3 enhanced baseline spends a DRAM cache's tag-SRAM budget
    there instead; the added capacity is modelled without extra lookup
    latency (``extra_l2_hit_latency``), as the paper grows the existing
    array.
    """

    num_cores: int = 16
    cpu_mhz: int = 3000
    base_cpi: float = 0.55
    exposed_latency_fraction: float = 0.7
    offchip_channels: int = 1
    offchip_banks_per_channel: int = 8
    stacked_channels: int = 4
    stacked_banks_per_channel: int = 8
    dram_row_bytes: int = 2048
    extra_l2_bytes: int = 0
    extra_l2_hit_latency: int = 0

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ValueError("num_cores must be positive")
        if self.cpu_mhz <= 0:
            raise ValueError("cpu_mhz must be positive")
        if self.base_cpi <= 0:
            raise ValueError("base_cpi must be positive")
        if not 0.0 < self.exposed_latency_fraction <= 1.0:
            raise ValueError("exposed_latency_fraction must be in (0, 1]")
        for name in (
            "offchip_channels",
            "offchip_banks_per_channel",
            "stacked_channels",
            "stacked_banks_per_channel",
            "dram_row_bytes",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.extra_l2_bytes < 0:
            raise ValueError("extra_l2_bytes must be non-negative")
        if self.extra_l2_hit_latency < 0:
            raise ValueError("extra_l2_hit_latency must be non-negative")


def make_system_config(overrides: Mapping[str, Any] = ()) -> SystemConfig:
    """A :class:`SystemConfig` from declarative field overrides.

    Unknown field names raise ``ValueError`` (not ``TypeError``) so
    sweep-grid validation reports them like any other bad axis value.
    """
    overrides = dict(overrides)
    unknown = set(overrides) - set(SystemConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(
            f"unknown SystemConfig field(s) {sorted(unknown)}; "
            f"one of {tuple(SystemConfig.__dataclass_fields__)}"
        )
    return SystemConfig(**overrides)


@dataclass(frozen=True)
class CacheConfig:
    """One DRAM cache design point.

    ``tag_latency`` of None derives the latency from the design's metadata
    SRAM size via the Table 4 model (:mod:`repro.core.overheads`).
    """

    design: str = "footprint"
    capacity_bytes: int = 4 * MB
    page_size: int = 2048
    associativity: int = 16
    tag_latency: Optional[int] = None
    fht_entries: int = 16384
    fht_associativity: int = 16
    fht_index_mode: str = "pc_offset"
    singleton_optimization: bool = True
    singleton_entries: int = 512
    chop_hot_threshold: int = 4
    chop_filter_entries: int = 16384
    block_data_blocks_per_row: int = 30
    missmap_entries: Optional[int] = None
    missmap_associativity: int = 24

    def __post_init__(self) -> None:
        if self.design not in design_names():
            raise ValueError(
                f"unknown design {self.design!r}; one of {design_names()}"
            )
        if self.capacity_bytes <= 0 and not get_design(self.design).capacity_independent:
            raise ValueError("capacity_bytes must be positive")
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError("page_size must be a positive power of two")
        if self.associativity <= 0:
            raise ValueError("associativity must be positive")

    def resolved_tag_latency(self) -> int:
        """Tag/MissMap lookup latency for this design point."""
        if self.tag_latency is not None:
            return self.tag_latency
        return overheads_for(
            self.design,
            max(self.capacity_bytes, 1),
            page_size=self.page_size,
            associativity=self.associativity,
        ).latency_cycles


@dataclass(frozen=True)
class SimulationConfig:
    """A full experiment definition.

    Complete by construction: workload, cache design point, pod
    architecture, and both DRAM device variants.  ``build_system`` takes
    a ``SimulationConfig`` and nothing else.
    """

    workload: str = "web_search"
    cache: CacheConfig = field(default_factory=CacheConfig)
    system: SystemConfig = field(default_factory=SystemConfig)
    stacked_timing: TimingConfig = field(default_factory=TimingConfig)
    offchip_timing: TimingConfig = field(default_factory=TimingConfig)
    num_requests: int = 200_000
    warmup_fraction: float = 0.5
    seed: int = 0
    dataset_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.num_requests <= 0:
            raise ValueError("num_requests must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if self.dataset_scale <= 0:
            raise ValueError("dataset_scale must be positive")

    @property
    def warmup_requests(self) -> int:
        """Requests processed before statistics are reset (Section 5.4)."""
        return int(self.num_requests * self.warmup_fraction)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form; :meth:`from_dict` round-trips exactly."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationConfig":
        """Rebuild a config from :meth:`to_dict` output (or spec JSON)."""
        payload = dict(data)
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(
                f"unknown SimulationConfig field(s) {sorted(unknown)}; "
                f"one of {tuple(cls.__dataclass_fields__)}"
            )
        if isinstance(payload.get("cache"), Mapping):
            payload["cache"] = CacheConfig(**payload["cache"])
        if isinstance(payload.get("system"), Mapping):
            payload["system"] = make_system_config(payload["system"])
        for role in ("stacked_timing", "offchip_timing"):
            if isinstance(payload.get(role), Mapping):
                payload[role] = TimingConfig(**payload[role])
        return cls(**payload)

    def to_json(self, indent: Optional[int] = None) -> str:
        """This config as JSON text."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SimulationConfig":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    @staticmethod
    def scaled(
        workload: str,
        design: str,
        capacity_mb: int,
        scale: int = 256,
        num_requests: int = 200_000,
        seed: int = 0,
        page_size: int = 2048,
        system_overrides: Mapping[str, Any] = (),
        stacked_timing: Optional[TimingConfig] = None,
        offchip_timing: Optional[TimingConfig] = None,
        **cache_kwargs,
    ) -> "SimulationConfig":
        """Experiment at the paper's nominal capacity, scaled down.

        ``capacity_mb`` is the *paper* capacity (64-512); the simulated
        cache holds ``capacity_mb / scale`` MB and the dataset shrinks by
        the same factor relative to the profile defaults (which are stored
        pre-scaled for ``scale == 64``).  ``system_overrides`` replaces
        :class:`SystemConfig` fields; the timing arguments select the DRAM
        device variants.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        if capacity_mb * MB % scale:
            raise ValueError("capacity must be divisible by scale")
        if "tag_latency" not in cache_kwargs and get_design(design).overheads is not None:
            # Tag latency reflects the *paper-sized* SRAM, not the scaled
            # one: scaling shrinks the arrays but the real design would pay
            # the Table 4 latency.
            cache_kwargs["tag_latency"] = overheads_for(
                design, capacity_mb * MB, page_size=page_size
            ).latency_cycles
        if "missmap_entries" not in cache_kwargs and design == "block":
            # Scale the MissMap with the cache so its coverage-to-capacity
            # ratio (and hence forced-eviction behaviour) matches the paper.
            nominal = missmap_entries_for(capacity_mb * MB)
            cache_kwargs["missmap_entries"] = max(96, nominal // scale)
        cache = CacheConfig(
            design=design,
            capacity_bytes=capacity_mb * MB // scale,
            page_size=page_size,
            **cache_kwargs,
        )
        return SimulationConfig(
            workload=workload,
            cache=cache,
            system=make_system_config(system_overrides),
            stacked_timing=stacked_timing or TimingConfig(),
            offchip_timing=offchip_timing or TimingConfig(),
            num_requests=num_requests,
            seed=seed,
            dataset_scale=64.0 / scale,
        )

    @staticmethod
    def full_scale(
        workload: str, design: str, capacity_mb: int, num_requests: int = 5_000_000
    ) -> "SimulationConfig":
        """The paper-sized configuration (slow: for users with patience)."""
        return SimulationConfig.scaled(
            workload, design, capacity_mb, scale=1, num_requests=num_requests
        )
