"""Declarative experiment grids.

An :class:`ExperimentPoint` names one simulation — (workload, design,
capacity, seed, page size, cache/system/timing overrides) — and knows how
to turn itself into a :class:`repro.sim.config.SimulationConfig` and into
a stable content hash for the :class:`repro.exp.store.ResultStore`.  An
:class:`ExperimentSpec` is the cross product of axis values: exactly the
(design x capacity x workload) grids behind every figure of the paper,
written as one hashable object instead of nested loops.  System and
timing variants are first-class axes, so studies like Fig. 1 (half-latency
stacked DRAM) and Section 6.3 (extra L2 in the baseline) are one-spec
sweeps like everything else::

    ExperimentSpec(workloads="web_search", designs="ideal",
                   timing_variants=({}, {"stacked_latency_scale": 0.5}))

Hashing is over the *resolved* configuration, so two spellings of the
same experiment (say, ``singleton_optimization=True`` written out versus
left at its default) share one store entry, and the capacity-independent
no-cache baseline hashes identically at every nominal capacity.  Because
the resolved config embeds the system and timing variants, points that
differ only in a variant hash — and therefore cache — distinctly.

Specs serialise: :meth:`ExperimentSpec.to_json` /
:meth:`ExperimentSpec.from_json` round-trip exactly, and
``python -m repro sweep --spec spec.json`` runs a sweep from a file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from itertools import product
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

from repro.caches.registry import design_names, get_design
from repro.exp.plugins import load_plugins
from repro.sim.config import (
    MB,
    SimulationConfig,
    TimingConfig,
    make_system_config,
)
from repro.workloads.profiles import is_builtin_profile, profile_for, profile_names

ENGINE_VERSION = "2"
"""Bump to invalidate every stored result when simulator semantics change.

The version is hashed into every :meth:`ExperimentPoint.key`, so a bump
makes every previously stored result unreachable at once — no manual
pruning, no risk of serving results computed by older simulator
semantics.  Bump it whenever a change alters *what a simulation
computes* (timing model fixes, new default behaviour, workload generator
changes); do NOT bump for pure refactors, reporting changes, or new
optional knobs left at their defaults, since those keep old results
valid.  Old-version records stay on disk until
``python -m repro store compact`` (or :meth:`ResultStore.compact`)
rewrites the store without them.

History: "1" — the original engine; "2" — the declarative-configuration
redesign (timing/system variants entered the resolved config and every
hash).
"""

CacheKwargs = Tuple[Tuple[str, Any], ...]

_TIMING_ROLES = ("stacked", "offchip")
_TIMING_FIELDS = tuple(f.name for f in fields(TimingConfig))
_TIMING_KEYS = tuple(
    f"{role}_{name}" for role in _TIMING_ROLES for name in _TIMING_FIELDS
)


def default_requests(capacity_mb: int, scale: int = 256) -> int:
    """Capacity-aware trace length: bigger caches need more evictions.

    Mirrors the benches' sizing rule (see DESIGN notes in
    ``benchmarks/common.py``): at least 120k requests, and 120 per
    simulated 2KB page so large caches still warm their footprint history.
    """
    pages = capacity_mb * MB // scale // 2048
    return max(120_000, pages * 120)


def point_key(description: Mapping[str, Any]) -> str:
    """Store key of a point's :meth:`ExperimentPoint.describe` payload.

    The sha256 prefix of its sorted JSON.  ``describe()`` output is pure
    JSON, so a payload loaded back from a store line hashes to the key
    it was stored under; a store line whose key differs is orphaned
    (:meth:`repro.exp.store.ResultStore.stats`).
    """
    text = json.dumps(description, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def freeze_kwargs(kwargs: Union[Mapping[str, Any], Sequence[Tuple[str, Any]]]) -> CacheKwargs:
    """Normalise override kwargs to a sorted, hashable tuple of pairs."""
    items = kwargs.items() if isinstance(kwargs, Mapping) else tuple(kwargs)
    return tuple(sorted((str(key), value) for key, value in items))


def split_timing_kwargs(
    kwargs: Union[Mapping[str, Any], Sequence[Tuple[str, Any]]],
) -> Tuple[TimingConfig, TimingConfig]:
    """Turn role-prefixed timing overrides into the two timing configs.

    Keys are ``stacked_<field>`` / ``offchip_<field>`` where ``<field>``
    is a :class:`~repro.sim.config.TimingConfig` field, e.g.
    ``{"stacked_latency_scale": 0.5}`` or ``{"offchip_preset": "ddr3_3200"}``.
    """
    per_role: Dict[str, Dict[str, Any]] = {role: {} for role in _TIMING_ROLES}
    for key, value in freeze_kwargs(kwargs):
        if key not in _TIMING_KEYS:
            raise ValueError(
                f"unknown timing override {key!r}; one of {_TIMING_KEYS}"
            )
        role, _, name = key.partition("_")
        per_role[role][name] = value
    return (
        TimingConfig(**per_role["stacked"]),
        TimingConfig(**per_role["offchip"]),
    )


@dataclass(frozen=True)
class ExperimentPoint:
    """One simulation in a sweep.

    Parameters
    ----------
    workload:
        A registered workload profile
        (:func:`~repro.workloads.profiles.profile_names`): one of the
        paper's :data:`~repro.workloads.cloudsuite.WORKLOAD_NAMES` or a
        plugin-registered custom profile.
    design:
        A registered cache design (:func:`~repro.caches.registry.design_names`).
    capacity_mb:
        The *paper* capacity; the simulated capacity is this divided by
        ``scale``.  The baseline design is capacity-independent, so its
        capacity is normalised to 0 and every nominal capacity maps to
        one stored result.
    scale:
        Capacity/dataset scale-down factor (256 = benches' default,
        1 = paper-sized).
    num_requests:
        Trace length; 0 means "capacity-aware default"
        (:func:`default_requests`).
    seed / page_size:
        Trace seed and cache page size in bytes.
    cache_kwargs / system_kwargs / timing_kwargs:
        Declarative overrides of :class:`~repro.sim.config.CacheConfig`,
        :class:`~repro.sim.config.SystemConfig` and (role-prefixed, see
        :func:`split_timing_kwargs`) :class:`~repro.sim.config.TimingConfig`
        fields.  Normalised to sorted tuples so points hash and compare
        by value.

    Key stability: :meth:`key` hashes the *resolved* configuration (plus
    :data:`ENGINE_VERSION`), not this dataclass — see :meth:`describe`
    for exactly what enters the hash and why.  Construction fails fast
    on unknown designs, capacities, system fields and timing keys or
    presets, so a bad point never reaches a worker process.
    """

    workload: str
    design: str = "footprint"
    capacity_mb: int = 256
    scale: int = 256
    num_requests: int = 0
    seed: int = 0
    page_size: int = 2048
    cache_kwargs: CacheKwargs = ()
    system_kwargs: CacheKwargs = ()
    timing_kwargs: CacheKwargs = ()

    def __post_init__(self) -> None:
        if self.workload not in profile_names():
            raise ValueError(
                f"unknown workload {self.workload!r}; one of {profile_names()}"
            )
        if self.design not in design_names():
            raise ValueError(
                f"unknown design {self.design!r}; one of {design_names()}"
            )
        if self.capacity_mb < 0:
            raise ValueError("capacity_mb must be non-negative")
        object.__setattr__(self, "cache_kwargs", freeze_kwargs(self.cache_kwargs))
        object.__setattr__(self, "system_kwargs", freeze_kwargs(self.system_kwargs))
        object.__setattr__(self, "timing_kwargs", freeze_kwargs(self.timing_kwargs))
        make_system_config(dict(self.system_kwargs))  # fail fast on bad fields
        # Fail fast on bad timing keys AND bad values (unknown presets
        # would otherwise only explode mid-sweep, at key()/build time).
        stacked_timing, offchip_timing = split_timing_kwargs(self.timing_kwargs)
        stacked_timing.resolve("stacked")
        offchip_timing.resolve("offchip")
        if get_design(self.design).capacity_independent:
            object.__setattr__(self, "capacity_mb", 0)

    @property
    def resolved_requests(self) -> int:
        """Trace length after applying the capacity-aware default."""
        return self.num_requests or default_requests(self.capacity_mb, self.scale)

    def config(self) -> SimulationConfig:
        """The full :class:`SimulationConfig` this point denotes."""
        stacked_timing, offchip_timing = split_timing_kwargs(self.timing_kwargs)
        return SimulationConfig.scaled(
            self.workload,
            self.design,
            self.capacity_mb,
            scale=self.scale,
            num_requests=self.resolved_requests,
            seed=self.seed,
            page_size=self.page_size,
            system_overrides=dict(self.system_kwargs),
            stacked_timing=stacked_timing,
            offchip_timing=offchip_timing,
            **dict(self.cache_kwargs),
        )

    def describe(self) -> Dict[str, Any]:
        """Canonical description hashed into :meth:`key`.

        Deliberately tagged with :data:`ENGINE_VERSION` only — not the
        package version — so routine releases keep the store warm and
        bumping the engine version is the one invalidation knob.  The
        resolved config embeds system and timing variants, so every
        degree of freedom of a run is visible to the hash.

        Timing configs are hashed as the *resolved device parameters*,
        not the preset name: a user-registered preset redefined between
        runs must not serve stale results, and two spellings of the same
        device (``preset="ddr3_3200"`` on the stacked role versus the
        default) must share one store entry.  The device's display
        ``name`` is cosmetic and excluded.  The registered design's
        declarative traits are hashed for the same reason — a custom
        design re-registered with, say, a different interleaving must
        not alias its earlier results (its *code* cannot be hashed; see
        :meth:`repro.caches.registry.DesignSpec.traits`).

        Custom workload profiles are pure data, so their *full payload*
        is hashed (under ``workload_profile``): a profile re-registered
        with different parameters between runs cannot alias its earlier
        results.  Built-in profiles contribute no such entry — their
        content only changes with the engine itself, which
        :data:`ENGINE_VERSION` already versions, and omitting the entry
        keeps every historically stored key reachable.
        """
        spec = get_design(self.design)
        config = self.config()
        payload = config.to_dict()
        for role in ("stacked", "offchip"):
            timing = asdict(getattr(config, f"{role}_timing").resolve(role))
            del timing["name"]
            payload[f"{role}_timing"] = timing
        if not spec.needs_stacked:
            # No stacked controller is ever built (the baseline): stacked
            # timing is a degenerate degree of freedom, normalised away
            # like the baseline's capacity so a Fig. 1-style grid does
            # not fork (or re-run) identical baseline simulations.
            payload["stacked_timing"] = None
        if not is_builtin_profile(self.workload):
            payload["workload_profile"] = asdict(profile_for(self.workload))
        return {
            "engine": ENGINE_VERSION,
            "design_traits": spec.traits(),
            "config": payload,
        }

    def key(self) -> str:
        """Stable content hash of the resolved config + engine version tag.

        Computed once per point (the runner consults it several times per
        sweep, and resolving the config is not free).
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = point_key(self.describe())
            object.__setattr__(self, "_key", cached)
        return cached

    def label(self) -> str:
        """Short human-readable name for progress lines."""
        capacity = (
            "-"
            if get_design(self.design).capacity_independent
            else f"{self.capacity_mb}MB"
        )
        extras = "".join(
            f" {k}={v}"
            for k, v in self.cache_kwargs + self.system_kwargs + self.timing_kwargs
        )
        return f"{self.workload}/{self.design}/{capacity}{extras}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able payload that :meth:`from_dict` reconstructs exactly.

        This is the wire format of the distributed sweep protocol: the
        coordinator ships points to workers as JSON, and the worker-side
        reconstruction must produce the same :meth:`key` (the resolved
        config is a pure function of these fields, so it does).
        """
        return {
            "workload": self.workload,
            "design": self.design,
            "capacity_mb": self.capacity_mb,
            "scale": self.scale,
            "num_requests": self.num_requests,
            "seed": self.seed,
            "page_size": self.page_size,
            "cache_kwargs": [list(pair) for pair in self.cache_kwargs],
            "system_kwargs": [list(pair) for pair in self.system_kwargs],
            "timing_kwargs": [list(pair) for pair in self.timing_kwargs],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentPoint":
        """Rebuild a point from :meth:`to_dict` output (JSON round-trip safe)."""
        if not isinstance(payload, Mapping):
            raise ValueError("point payload must be a JSON object")
        known = {field.name for field in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown point fields: {sorted(unknown)}")
        data = dict(payload)
        for name in ("capacity_mb", "scale", "num_requests", "seed", "page_size"):
            value = data.get(name, 0)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"point field {name!r} must be an integer")
        for name in ("cache_kwargs", "system_kwargs", "timing_kwargs"):
            if name in data:
                data[name] = freeze_kwargs(
                    (str(key), value) for key, value in data[name]
                )
        return cls(**data)


def _str_tuple(value: Union[str, Sequence[str]]) -> Tuple[str, ...]:
    return (value,) if isinstance(value, str) else tuple(value)


def _int_tuple(value: Union[int, Sequence[int]]) -> Tuple[int, ...]:
    return (int(value),) if isinstance(value, int) else tuple(int(v) for v in value)


def _variant_tuple(value: Any) -> Tuple[CacheKwargs, ...]:
    if isinstance(value, Mapping):
        value = (value,)
    return tuple(freeze_kwargs(v) for v in value)


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative grid of :class:`ExperimentPoint`.

    Every axis accepts a scalar or a sequence; the ``*_variants`` axes
    accept a dict (one variant) or a sequence of dicts / item tuples.
    The grid is the cross product of all axes, deduplicated (the baseline
    design collapses across capacities).

    ``plugins`` names modules (dotted names or ``.py`` paths, see
    :mod:`repro.exp.plugins`) whose import registers the custom designs
    and workload profiles the grid references.  They are loaded when the
    spec is constructed — so a spec file is self-contained: ``--spec``
    works without a separate ``--plugin`` flag — and every execution
    backend re-loads them inside its worker processes.  Plugins are
    *environment*, not configuration: they never enter ``points()`` or
    any store key (what they register does, through design traits and
    custom-profile payloads).

    Guarantees:

    * ``points()`` order is deterministic — grid order, independent of
      the process, platform or store state — so progress output and
      result tables are stable across runs.
    * Two specs that spell the same grid differently (scalar vs
      one-element tuple, defaults written out) produce equal points and
      therefore identical store keys.
    * ``to_dict``/``from_dict`` (and ``to_json``/``from_json``, the
      ``--spec`` file format) round-trip exactly; unknown fields are
      rejected rather than ignored.

    >>> spec = ExperimentSpec(workloads="web_search",
    ...                       designs=("page", "footprint"),
    ...                       capacities_mb=(64, 256))
    >>> len(spec)
    4
    """

    workloads: Union[str, Tuple[str, ...]] = ("web_search",)
    designs: Union[str, Tuple[str, ...]] = ("footprint",)
    capacities_mb: Union[int, Tuple[int, ...]] = (256,)
    seeds: Union[int, Tuple[int, ...]] = (0,)
    page_sizes: Union[int, Tuple[int, ...]] = (2048,)
    cache_variants: Any = ((),)
    system_variants: Any = ((),)
    timing_variants: Any = ((),)
    scale: int = 256
    num_requests: int = 0
    plugins: Union[str, Tuple[str, ...]] = ()

    def __post_init__(self) -> None:
        # Plugins load first: they may register the very designs and
        # workload profiles the axis validation below checks against.
        object.__setattr__(self, "plugins", _str_tuple(self.plugins))
        load_plugins(self.plugins)
        object.__setattr__(self, "workloads", _str_tuple(self.workloads))
        object.__setattr__(self, "designs", _str_tuple(self.designs))
        object.__setattr__(self, "capacities_mb", _int_tuple(self.capacities_mb))
        object.__setattr__(self, "seeds", _int_tuple(self.seeds))
        object.__setattr__(self, "page_sizes", _int_tuple(self.page_sizes))
        for name in ("cache_variants", "system_variants", "timing_variants"):
            object.__setattr__(self, name, _variant_tuple(getattr(self, name)))
        for name in ("workloads", "designs", "capacities_mb", "seeds", "page_sizes",
                     "cache_variants", "system_variants", "timing_variants"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for workload in self.workloads:
            if workload not in profile_names():
                raise ValueError(
                    f"unknown workload {workload!r}; one of {profile_names()}"
                )
        for design in self.designs:
            if design not in design_names():
                raise ValueError(
                    f"unknown design {design!r}; one of {design_names()}"
                )

    def points(self) -> Tuple[ExperimentPoint, ...]:
        """The deduplicated cross product, in deterministic grid order.

        Computed once per spec, like :meth:`ExperimentPoint.key`: every
        call returns the same points, so their memoised keys are reused
        by every sweep, job and results fetch over this spec.
        """
        cached = self.__dict__.get("_points")
        if cached is not None:
            return cached
        seen = set()
        out = []
        for (workload, design, capacity, seed, page_size,
             cache_variant, system_variant, timing_variant) in product(
            self.workloads,
            self.designs,
            self.capacities_mb,
            self.seeds,
            self.page_sizes,
            self.cache_variants,
            self.system_variants,
            self.timing_variants,
        ):
            point = ExperimentPoint(
                workload=workload,
                design=design,
                capacity_mb=capacity,
                scale=self.scale,
                num_requests=self.num_requests,
                seed=seed,
                page_size=page_size,
                cache_kwargs=cache_variant,
                system_kwargs=system_variant,
                timing_kwargs=timing_variant,
            )
            if point not in seen:
                seen.add(point)
                out.append(point)
        object.__setattr__(self, "_points", tuple(out))
        return self._points

    def __iter__(self) -> Iterator[ExperimentPoint]:
        return iter(self.points())

    def __len__(self) -> int:
        return len(self.points())

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form; :meth:`from_dict` round-trips exactly."""
        return {
            "workloads": list(self.workloads),
            "designs": list(self.designs),
            "capacities_mb": list(self.capacities_mb),
            "seeds": list(self.seeds),
            "page_sizes": list(self.page_sizes),
            "cache_variants": [dict(v) for v in self.cache_variants],
            "system_variants": [dict(v) for v in self.system_variants],
            "timing_variants": [dict(v) for v in self.timing_variants],
            "scale": self.scale,
            "num_requests": self.num_requests,
            "plugins": list(self.plugins),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (or a spec file)."""
        payload = dict(data)
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(
                f"unknown ExperimentSpec field(s) {sorted(unknown)}; "
                f"one of {tuple(cls.__dataclass_fields__)}"
            )
        return cls(**payload)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """This spec as JSON text (the ``--spec`` file format)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Inverse of :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"spec is not valid JSON: {error}") from None
        if not isinstance(data, Mapping):
            raise ValueError("spec JSON must be an object of axis values")
        return cls.from_dict(data)
