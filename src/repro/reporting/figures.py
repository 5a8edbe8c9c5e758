"""Every figure and table of the paper, registered as runnable figures.

Each :func:`~repro.reporting.registry.register_figure` entry below pairs
the declarative :class:`~repro.exp.spec.ExperimentSpec` grid(s) behind
one paper deliverable (Fig. 1, Figs. 4-12, Tables 1/4, the Section
6.3/6.5/6.7 studies, and the DESIGN.md ablations) with the renderer that
turns sweep results into the canonical text artifact under
``benchmarks/results/``.  Renderers only read sweep results (plus, for
Fig. 4 and Fig. 12's coverage panel, deterministic trace analyses that
involve no simulation) — running any missing simulations is
:func:`~repro.reporting.registry.run_figure`'s job, so a warm result
store renders every figure without simulating anything.

Fig. 4 and Fig. 12 analyse the same trace: :func:`trace_analyses`
generates each workload's trace once, as an int64 address column, runs
both column analyses over it, and keeps only their immutable results
in a small per-process memo.  Each renderer builds fresh figure data
from the memo, so one render cannot corrupt the next.

The benches under ``benchmarks/`` are thin wrappers over these entries;
``python -m repro report`` drives them from the shell.
"""

from __future__ import annotations

import functools
from operator import attrgetter

import numpy as np

from repro.analysis.coverage import access_counts_per_page, coverage_curve
from repro.analysis.page_density import (
    DENSITY_BUCKETS,
    bucket_fractions,
    density_bincount,
    mean_density,
)
from repro.analysis.report import format_table, percent
from repro.core.overheads import table4
from repro.exp.spec import ExperimentSpec
from repro.obs.spans import tracer
from repro.perf.stats import geometric_mean
from repro.reporting.registry import register_figure
from repro.workloads.cloudsuite import WORKLOAD_NAMES, make_workload

MB = 1024 * 1024
SCALE = 256
CAPACITIES_MB = (64, 128, 256, 512)
SEED = 0

#: Trace length of the fixed-length studies (Fig. 1, Section 6.3, and
#: every baseline run); capacity-dependent grids use the engine's
#: capacity-aware default instead.
BASELINE_REQUESTS = 120_000

PRETTY = {
    "data_serving": "Data Serving",
    "mapreduce": "MapReduce",
    "multiprogrammed": "Multiprogrammed",
    "sat_solver": "SAT Solver",
    "web_frontend": "Web Frontend",
    "web_search": "Web Search",
}


def _spec(**axes) -> ExperimentSpec:
    """An :class:`ExperimentSpec` at the paper reproduction's scale/seed."""
    axes.setdefault("scale", SCALE)
    axes.setdefault("seeds", (SEED,))
    return ExperimentSpec(**axes)


def _baseline_spec(workloads) -> ExperimentSpec:
    """The no-DRAM-cache baseline grid for ``workloads``.

    The baseline is capacity-independent, so one fixed-length run per
    workload serves every figure that normalises against it.
    """
    return _spec(
        workloads=workloads, designs=("baseline",), num_requests=BASELINE_REQUESTS
    )


def geomean_improvement(improvements) -> float:
    """Geometric-mean improvement over a set of per-workload speedups."""
    return geometric_mean([1.0 + i for i in improvements]) - 1.0


# ----------------------------------------------------------------------
# Fig. 1 — the die-stacking opportunity
# ----------------------------------------------------------------------

HALF_LATENCY = {"stacked_latency_scale": 0.5}


@register_figure(
    "fig01",
    title="Fig. 1 - Performance improvement with die-stacked main memory",
    artifacts=("fig01_opportunity",),
    specs={
        "ideal": _spec(
            workloads=WORKLOAD_NAMES,
            designs=("ideal",),
            capacities_mb=(256,),
            num_requests=BASELINE_REQUESTS,
            timing_variants=({}, HALF_LATENCY),
        ),
        "baseline": _baseline_spec(WORKLOAD_NAMES),
    },
)
def render_fig01(ctx):
    """High-BW and High-BW & Low-Latency bars per workload, plus geomean."""
    ideal = ctx.sweep("ideal")
    baselines = ctx.sweep("baseline")
    rows = []
    high_bw_all, low_lat_all = [], []
    for workload in WORKLOAD_NAMES:
        baseline = baselines.get(workload=workload)
        high_bw = ideal.get(workload=workload, timing_kwargs=())
        low_latency = ideal.get(workload=workload, stacked_latency_scale=0.5)
        bw_gain = high_bw.improvement_over(baseline)
        lat_gain = low_latency.improvement_over(baseline)
        high_bw_all.append(bw_gain)
        low_lat_all.append(lat_gain)
        rows.append((PRETTY[workload], percent(bw_gain), percent(lat_gain)))
    rows.append(
        (
            "Geomean",
            percent(geomean_improvement(high_bw_all)),
            percent(geomean_improvement(low_lat_all)),
        )
    )
    headers = ("Workload", "High-BW", "High-BW & Low-Latency")
    ctx.emit(
        "fig01_opportunity",
        format_table(
            headers,
            rows,
            title="Fig. 1 - Performance improvement with die-stacked main memory",
        ),
        headers=headers,
        rows=rows,
    )
    return rows


# ----------------------------------------------------------------------
# Figs. 4 and 12 — one analysed trace per workload (no simulation)
# ----------------------------------------------------------------------

#: Length of the one trace per workload that Figs. 4 and 12 both analyse.
ANALYSIS_REQUESTS = 160_000

#: Workloads whose analysis results the per-process memo keeps.
ANALYSIS_MEMO_ENTRIES = len(WORKLOAD_NAMES)


def density_profiles(addresses):
    """Fig. 4's density bincount at each of :data:`CAPACITIES_MB`."""
    return tuple(
        density_bincount(addresses, capacity * MB // SCALE)
        for capacity in CAPACITIES_MB
    )


@functools.lru_cache(maxsize=ANALYSIS_MEMO_ENTRIES)
def trace_analyses(workload: str):
    """Fig. 4's bincounts and Fig. 12's ranked 4KB page counts, memoized.

    The workload's trace is generated once, as an int64 address column,
    and dropped once both analyses have read it; only their immutable
    results stay in the memo.  With tracing on, each computation is one
    ``analysis.trace`` span (a memo hit costs nothing and emits none).
    """
    with tracer().span(
        "analysis.trace", workload=workload, requests=ANALYSIS_REQUESTS, memo=False
    ):
        requests = make_workload(
            workload, seed=SEED, dataset_scale=64 / SCALE
        ).requests(ANALYSIS_REQUESTS)
        addresses = np.fromiter(
            map(attrgetter("address"), requests), dtype=np.int64, count=ANALYSIS_REQUESTS
        )
        densities = density_profiles(addresses)
        counts = access_counts_per_page(addresses, page_size=4096)
        ranked = tuple(np.sort(counts)[::-1].tolist())
    return densities, ranked


# ----------------------------------------------------------------------
# Fig. 4 — page access density
# ----------------------------------------------------------------------


@register_figure(
    "fig04",
    title="Fig. 4 - Page access density vs cache capacity (2KB pages)",
    artifacts=("fig04_density",),
)
def render_fig04(ctx):
    """Block-per-page-residency histograms per workload and capacity."""
    all_profiles = {}
    for workload in WORKLOAD_NAMES:
        densities, _ = trace_analyses(workload)
        profiles = all_profiles[workload] = {}
        for capacity, bincount in zip(CAPACITIES_MB, densities):
            profiles[capacity] = (bucket_fractions(bincount), mean_density(bincount))
    labels = [label for _, _, label in DENSITY_BUCKETS]
    rows = []
    for workload in WORKLOAD_NAMES:
        for capacity in CAPACITIES_MB:
            fractions, mean = all_profiles[workload][capacity]
            rows.append(
                (PRETTY[workload], f"{capacity}MB")
                + tuple(percent(fractions[label]) for label in labels)
                + (f"{mean:.1f}",)
            )
    headers = ("Workload", "Capacity") + tuple(labels) + ("Mean",)
    ctx.emit(
        "fig04_density",
        format_table(
            headers,
            rows,
            title="Fig. 4 - Page access density vs cache capacity (2KB pages)",
        ),
        headers=headers,
        rows=rows,
    )
    return all_profiles


# ----------------------------------------------------------------------
# Fig. 5 — miss ratio and off-chip bandwidth of the three designs
# ----------------------------------------------------------------------

FIG05_DESIGNS = ("page", "footprint", "block")


@register_figure(
    "fig05",
    title="Fig. 5 - DRAM cache miss ratio and off-chip bandwidth",
    artifacts=("fig05a_miss_ratio", "fig05b_offchip_bw", "fig05_headlines"),
    specs={
        "main": _spec(
            workloads=WORKLOAD_NAMES,
            designs=FIG05_DESIGNS,
            capacities_mb=CAPACITIES_MB,
        ),
    },
)
def render_fig05(ctx):
    """Both panels for every workload/capacity, plus Section 6.2 headlines."""
    sweep = ctx.sweep("main")
    results = {
        (workload, capacity, design): sweep.get(
            workload=workload, design=design, capacity_mb=capacity
        )
        for workload in WORKLOAD_NAMES
        for capacity in CAPACITIES_MB
        for design in FIG05_DESIGNS
    }

    miss_rows, bw_rows = [], []
    for workload in WORKLOAD_NAMES:
        for capacity in CAPACITIES_MB:
            point = {d: results[(workload, capacity, d)] for d in FIG05_DESIGNS}
            miss_rows.append(
                (PRETTY[workload], f"{capacity}MB")
                + tuple(percent(point[d].miss_ratio) for d in FIG05_DESIGNS)
            )
            bw_rows.append(
                (PRETTY[workload], f"{capacity}MB")
                + tuple(
                    f"{point[d].offchip_traffic_normalized:.2f}"
                    for d in FIG05_DESIGNS
                )
            )

    headers = ("Workload", "Capacity", "Page", "Footprint", "Block")
    ctx.emit(
        "fig05a_miss_ratio",
        format_table(headers, miss_rows, title="Fig. 5a - DRAM cache miss ratio"),
        headers=headers,
        rows=miss_rows,
    )
    ctx.emit(
        "fig05b_offchip_bw",
        format_table(
            headers,
            bw_rows,
            title="Fig. 5b - Off-chip bandwidth (normalized to baseline)",
        ),
        headers=headers,
        rows=bw_rows,
    )

    # Section 6.2 headlines, averaged over all workload/capacity points.
    traffic_ratios, hit_ratios = [], []
    for workload in WORKLOAD_NAMES:
        for capacity in CAPACITIES_MB:
            page = results[(workload, capacity, "page")]
            footprint = results[(workload, capacity, "footprint")]
            block = results[(workload, capacity, "block")]
            traffic_ratios.append(
                page.offchip_traffic_normalized
                / max(footprint.offchip_traffic_normalized, 1e-9)
            )
            hit_ratios.append(footprint.hit_ratio / max(block.hit_ratio, 1e-3))
    headline = (
        f"Headline (paper: 2.6x traffic cut vs page, 4.7x hit ratio vs block):\n"
        f"  off-chip traffic, page/footprint geomean = "
        f"{geometric_mean(traffic_ratios):.2f}x\n"
        f"  hit ratio, footprint/block geomean       = "
        f"{geometric_mean(hit_ratios):.2f}x"
    )
    ctx.emit("fig05_headlines", headline)
    return results


# ----------------------------------------------------------------------
# Fig. 6 — performance improvement over the baseline (Fig. 7 covers
# Data Serving separately)
# ----------------------------------------------------------------------

FIG6_WORKLOADS = tuple(w for w in WORKLOAD_NAMES if w != "data_serving")
FIG6_DESIGNS = ("block", "page", "footprint", "ideal")


@register_figure(
    "fig06",
    title="Fig. 6 - Performance improvement over baseline",
    artifacts=("fig06_performance", "fig06_headlines"),
    specs={
        "main": _spec(
            workloads=FIG6_WORKLOADS,
            designs=FIG6_DESIGNS,
            capacities_mb=CAPACITIES_MB,
        ),
        "baseline": _baseline_spec(FIG6_WORKLOADS),
    },
)
def render_fig06(ctx):
    """Per-workload/capacity improvements, geomean panel, 6.3 headlines."""
    sweep = ctx.sweep("main")
    baselines = ctx.sweep("baseline")
    improvements = {}
    for workload in FIG6_WORKLOADS:
        baseline = baselines.get(workload=workload)
        for capacity in CAPACITIES_MB:
            for design in FIG6_DESIGNS:
                result = sweep.get(
                    workload=workload, design=design, capacity_mb=capacity
                )
                improvements[(workload, capacity, design)] = result.improvement_over(
                    baseline
                )

    rows = []
    for workload in FIG6_WORKLOADS:
        for capacity in CAPACITIES_MB:
            rows.append(
                (PRETTY[workload], f"{capacity}MB")
                + tuple(
                    percent(improvements[(workload, capacity, d)])
                    for d in FIG6_DESIGNS
                )
            )
    for capacity in CAPACITIES_MB:
        rows.append(
            ("Geomean", f"{capacity}MB")
            + tuple(
                percent(
                    geomean_improvement(
                        [improvements[(w, capacity, d)] for w in FIG6_WORKLOADS]
                    )
                )
                for d in FIG6_DESIGNS
            )
        )

    headers = ("Workload", "Capacity", "Block", "Page", "Footprint", "Ideal")
    ctx.emit(
        "fig06_performance",
        format_table(
            headers, rows, title="Fig. 6 - Performance improvement over baseline"
        ),
        headers=headers,
        rows=rows,
    )

    # Headlines at 512MB (the paper's '57%, 82% of Ideal' operating point).
    footprint_512 = [improvements[(w, 512, "footprint")] for w in FIG6_WORKLOADS]
    ideal_512 = [improvements[(w, 512, "ideal")] for w in FIG6_WORKLOADS]
    fp = geomean_improvement(footprint_512)
    ideal = geomean_improvement(ideal_512)
    ctx.emit(
        "fig06_headlines",
        "Headline (paper: +57% over baseline, 82% of Ideal at 512MB):\n"
        f"  footprint geomean improvement = {percent(fp)}\n"
        f"  fraction of Ideal performance = {percent((1 + fp) / (1 + ideal))}",
    )
    return improvements


# ----------------------------------------------------------------------
# Fig. 7 — Data Serving, plotted separately in the paper
# ----------------------------------------------------------------------


@register_figure(
    "fig07",
    title="Fig. 7 - Data Serving performance improvement over baseline",
    artifacts=("fig07_data_serving",),
    specs={
        "main": _spec(
            workloads=("data_serving",),
            designs=FIG6_DESIGNS,
            capacities_mb=CAPACITIES_MB,
        ),
        "baseline": _baseline_spec(("data_serving",)),
    },
)
def render_fig07(ctx):
    """The bandwidth-hungry outlier: page-based hurts, footprint tracks ideal."""
    sweep = ctx.sweep("main")
    baseline = ctx.sweep("baseline").get(workload="data_serving")
    improvements = {
        (capacity, design): sweep.get(design=design, capacity_mb=capacity)
        .improvement_over(baseline)
        for capacity in CAPACITIES_MB
        for design in FIG6_DESIGNS
    }

    rows = [
        (f"{capacity}MB",)
        + tuple(percent(improvements[(capacity, d)]) for d in FIG6_DESIGNS)
        for capacity in CAPACITIES_MB
    ]
    headers = ("Capacity", "Block", "Page", "Footprint", "Ideal")
    ctx.emit(
        "fig07_data_serving",
        format_table(
            headers,
            rows,
            title="Fig. 7 - Data Serving performance improvement over baseline",
        ),
        headers=headers,
        rows=rows,
    )
    return improvements


# ----------------------------------------------------------------------
# Fig. 8 — predictor accuracy vs page size
# ----------------------------------------------------------------------

PAGE_SIZES = (1024, 2048, 4096)
FIG08_REQUESTS = 160_000


@register_figure(
    "fig08",
    title="Fig. 8 - Predictor accuracy vs page size (256MB, 16K FHT)",
    artifacts=("fig08_predictor_accuracy",),
    specs={
        "main": _spec(
            workloads=WORKLOAD_NAMES,
            designs=("footprint",),
            capacities_mb=(256,),
            page_sizes=PAGE_SIZES,
            cache_variants={"fht_entries": 16384},
            num_requests=FIG08_REQUESTS,
        ),
    },
)
def render_fig08(ctx):
    """Covered / underpredicted / overpredicted blocks per page size."""
    sweep = ctx.sweep("main")
    breakdowns = {
        (workload, page_size): sweep.get(workload=workload, page_size=page_size)
        for workload in WORKLOAD_NAMES
        for page_size in PAGE_SIZES
    }

    rows = []
    for workload in WORKLOAD_NAMES:
        for page_size in PAGE_SIZES:
            b = breakdowns[(workload, page_size)]
            rows.append(
                (
                    PRETTY[workload],
                    f"{page_size}B",
                    percent(b.predictor_coverage),
                    percent(b.predictor_underprediction),
                    percent(b.predictor_overprediction),
                )
            )
    headers = ("Workload", "Page", "Covered", "Underpredictions", "Overpredictions")
    ctx.emit(
        "fig08_predictor_accuracy",
        format_table(
            headers,
            rows,
            title="Fig. 8 - Predictor accuracy vs page size (256MB, 16K FHT)",
        ),
        headers=headers,
        rows=rows,
    )
    return breakdowns


# ----------------------------------------------------------------------
# Fig. 9 — hit ratio vs footprint history size
# ----------------------------------------------------------------------

FHT_SIZES = (256, 1024, 4096, 16384)
FIG09_REQUESTS = 160_000


@register_figure(
    "fig09",
    title="Fig. 9 - Hit ratio vs FHT size (256MB cache, 2KB pages)",
    artifacts=("fig09_fht_sensitivity",),
    specs={
        "main": _spec(
            workloads=WORKLOAD_NAMES,
            designs=("footprint",),
            capacities_mb=(256,),
            cache_variants=tuple({"fht_entries": entries} for entries in FHT_SIZES),
            num_requests=FIG09_REQUESTS,
        ),
    },
)
def render_fig09(ctx):
    """The paper's knee: 16K FHT entries are comfortably past it."""
    sweep = ctx.sweep("main")
    results = {
        (workload, entries): sweep.get(workload=workload, fht_entries=entries)
        for workload in WORKLOAD_NAMES
        for entries in FHT_SIZES
    }

    rows = [
        (PRETTY[workload],)
        + tuple(percent(results[(workload, e)].hit_ratio) for e in FHT_SIZES)
        for workload in WORKLOAD_NAMES
    ]
    headers = ("Workload",) + tuple(f"{e} entries" for e in FHT_SIZES)
    ctx.emit(
        "fig09_fht_sensitivity",
        format_table(
            headers,
            rows,
            title="Fig. 9 - Hit ratio vs FHT size (256MB cache, 2KB pages)",
        ),
        headers=headers,
        rows=rows,
    )
    return results


# ----------------------------------------------------------------------
# Fig. 10 — off-chip DRAM dynamic energy per instruction
# ----------------------------------------------------------------------

ENERGY_DESIGNS = ("block", "page", "footprint")


@register_figure(
    "fig10",
    title="Fig. 10 - Off-chip DRAM energy per instruction (norm. to baseline)",
    artifacts=("fig10_offchip_energy", "fig10_headline"),
    specs={
        "main": _spec(
            workloads=WORKLOAD_NAMES, designs=ENERGY_DESIGNS, capacities_mb=(256,)
        ),
        "baseline": _baseline_spec(WORKLOAD_NAMES),
    },
)
def render_fig10(ctx):
    """Activate/precharge vs burst energy split, normalised to baseline."""
    sweep = ctx.sweep("main")
    baselines = ctx.sweep("baseline")

    rows = []
    reductions = {d: [] for d in ENERGY_DESIGNS}
    for workload in WORKLOAD_NAMES:
        base = baselines.get(workload=workload)
        base_epi = base.offchip_energy_per_instruction()
        row = [PRETTY[workload], "100.0%"]
        for design in ENERGY_DESIGNS:
            r = sweep.get(workload=workload, design=design)
            instructions = max(1, r.performance.instructions)
            act = r.offchip_activate_nj / instructions / base_epi
            burst = r.offchip_read_write_nj / instructions / base_epi
            reductions[design].append(max(1e-3, act + burst))
            row.append(
                f"{percent(act + burst)} (act {percent(act)} / rw {percent(burst)})"
            )
        rows.append(tuple(row))

    geo_row = ["Geomean", "100.0%"]
    for design in ENERGY_DESIGNS:
        geo_row.append(percent(geometric_mean(reductions[design])))
    rows.append(tuple(geo_row))

    headers = ("Workload", "Baseline", "Block", "Page", "Footprint")
    ctx.emit(
        "fig10_offchip_energy",
        format_table(
            headers,
            rows,
            title="Fig. 10 - Off-chip DRAM energy per instruction (norm. to baseline)",
        ),
        headers=headers,
        rows=rows,
    )

    fp = geometric_mean(reductions["footprint"])
    ctx.emit(
        "fig10_headline",
        "Headline (paper: footprint cuts off-chip dynamic energy by 78%):\n"
        f"  footprint energy reduction = {percent(1 - fp)}",
    )
    return reductions


# ----------------------------------------------------------------------
# Fig. 11 — stacked DRAM dynamic energy per instruction
# ----------------------------------------------------------------------


@register_figure(
    "fig11",
    title="Fig. 11 - Stacked DRAM energy per instruction (norm. to block)",
    artifacts=("fig11_stacked_energy", "fig11_headline"),
    specs={
        "main": _spec(
            workloads=WORKLOAD_NAMES, designs=ENERGY_DESIGNS, capacities_mb=(256,)
        ),
    },
)
def render_fig11(ctx):
    """Stacked-side energy, normalised to the block-based design."""
    sweep = ctx.sweep("main")
    results = {
        (workload, design): sweep.get(workload=workload, design=design)
        for workload in WORKLOAD_NAMES
        for design in ENERGY_DESIGNS
    }

    rows = []
    normalised = {d: [] for d in ENERGY_DESIGNS}
    for workload in WORKLOAD_NAMES:
        block = results[(workload, "block")]
        block_epi = max(1e-9, block.stacked_energy_per_instruction())
        row = [PRETTY[workload]]
        for design in ENERGY_DESIGNS:
            r = results[(workload, design)]
            epi = r.stacked_energy_per_instruction() / block_epi
            normalised[design].append(max(1e-3, epi))
            row.append(percent(epi))
        rows.append(tuple(row))
    rows.append(
        ("Geomean",)
        + tuple(percent(geometric_mean(normalised[d])) for d in ENERGY_DESIGNS)
    )

    headers = ("Workload", "Block", "Page", "Footprint")
    ctx.emit(
        "fig11_stacked_energy",
        format_table(
            headers,
            rows,
            title="Fig. 11 - Stacked DRAM energy per instruction (norm. to block)",
        ),
        headers=headers,
        rows=rows,
    )

    fp = geometric_mean(normalised["footprint"])
    page = geometric_mean(normalised["page"])
    ctx.emit(
        "fig11_headline",
        "Headline (paper: footprint -24%, page -17% vs block):\n"
        f"  footprint stacked-energy reduction = {percent(1 - fp)}\n"
        f"  page stacked-energy reduction      = {percent(1 - page)}",
    )
    return normalised


# ----------------------------------------------------------------------
# Fig. 12 — ideal cache size for coverage (trace analysis; no simulation)
# ----------------------------------------------------------------------

COVERAGE_POINTS = (0.2, 0.4, 0.6, 0.8)


@register_figure(
    "fig12",
    title="Fig. 12 - Ideal cache size to cover a fraction of accesses",
    artifacts=("fig12_chop_coverage",),
)
def render_fig12(ctx):
    """Scale-out workloads have no compact hot page set (4KB pages)."""
    curves = {}
    for workload in WORKLOAD_NAMES:
        _, counts = trace_analyses(workload)
        curves[workload] = (coverage_curve(counts, points=COVERAGE_POINTS), len(counts))

    rows = []
    for workload in WORKLOAD_NAMES:
        curve, _touched_pages = curves[workload]
        # Rescale simulated bytes back to paper-equivalent megabytes.
        row = [PRETTY[workload]] + [
            f"{size * SCALE / (1024 * 1024):.0f}MB" for _, size in curve
        ]
        rows.append(tuple(row))
    headers = ("Workload",) + tuple(percent(p, 0) for p in COVERAGE_POINTS)
    ctx.emit(
        "fig12_chop_coverage",
        format_table(
            headers,
            rows,
            title="Fig. 12 - Ideal cache size to cover a fraction of accesses "
            "(4KB pages, paper-equivalent MB)",
        ),
        headers=headers,
        rows=rows,
    )
    return curves


# ----------------------------------------------------------------------
# Section 6.7 — the CHOP-style hot-page filter cache
# ----------------------------------------------------------------------

CHOP_WORKLOADS = ("data_serving", "web_search")


@register_figure(
    "sec67",
    title="Section 6.7 - CHOP-style hot-page filter cache (256MB)",
    artifacts=("sec67_chop_cache",),
    specs={
        "chop": _spec(
            workloads=CHOP_WORKLOADS, designs=("chop",), capacities_mb=(256,)
        ),
        "footprint": _spec(
            workloads=CHOP_WORKLOADS, designs=("footprint",), capacities_mb=(256,)
        ),
    },
)
def render_sec67(ctx):
    """A hot-page filter bypasses most traffic and hits rarely."""
    chop = ctx.sweep("chop")
    footprint = ctx.sweep("footprint")
    results = {
        workload: chop.get(workload=workload) for workload in CHOP_WORKLOADS
    }
    rows = [
        (PRETTY[w], percent(r.hit_ratio), percent(r.bypass_ratio))
        for w, r in results.items()
    ]
    headers = ("Workload", "Hit ratio", "Bypassed")
    ctx.emit(
        "sec67_chop_cache",
        format_table(
            headers,
            rows,
            title="Section 6.7 - CHOP-style hot-page filter cache (256MB)",
        ),
        headers=headers,
        rows=rows,
    )
    return {
        "chop": results,
        "footprint": {
            workload: footprint.get(workload=workload)
            for workload in CHOP_WORKLOADS
        },
    }


# ----------------------------------------------------------------------
# Section 6.3 — the enhanced baseline (extra L2 instead of cache tags)
# ----------------------------------------------------------------------

# 2MB of extra SRAM, scaled like everything else.
EXTRA_L2_BYTES = max(16 * 1024, 2 * 1024 * 1024 // SCALE)

# The paper grows the *existing* L2, so the extra capacity adds no lookup
# latency to misses; the variant models the pure capacity effect.
ENHANCED = {"extra_l2_bytes": EXTRA_L2_BYTES}


@register_figure(
    "sec63",
    title="Section 6.3 - enhanced baseline (extra L2 instead of tags)",
    artifacts=("sec63_enhanced_baseline",),
    specs={
        "main": _spec(
            workloads=WORKLOAD_NAMES,
            designs=("baseline",),
            num_requests=BASELINE_REQUESTS,
            system_variants=({}, ENHANCED),
        ),
    },
)
def render_sec63(ctx):
    """Spending a cache's tag-SRAM budget on L2 closes none of the gap."""
    sweep = ctx.sweep("main")
    rows = []
    for workload in WORKLOAD_NAMES:
        plain = sweep.get(workload=workload, system_kwargs=())
        enhanced = sweep.get(workload=workload, extra_l2_bytes=EXTRA_L2_BYTES)
        benefit = enhanced.aggregate_ipc / plain.aggregate_ipc - 1.0
        rows.append((PRETTY[workload], percent(benefit)))
    headers = ("Workload", "Benefit of +2MB L2")
    ctx.emit(
        "sec63_enhanced_baseline",
        format_table(
            headers,
            rows,
            title="Section 6.3 - enhanced baseline (extra L2 instead of tags)",
        ),
        headers=headers,
        rows=rows,
    )
    return rows


# ----------------------------------------------------------------------
# Section 6.5 — the singleton capacity optimisation
# ----------------------------------------------------------------------

SEC65_CAPACITIES = (64, 128)


@register_figure(
    "sec65",
    title="Section 6.5 - Singleton optimisation: miss-rate impact",
    artifacts=("sec65_singleton", "sec65_headline"),
    specs={
        # Writing the enabled default out explicitly keeps both variants in
        # one grid; the store hashes it identically to plain footprint points.
        "main": _spec(
            workloads=WORKLOAD_NAMES,
            designs=("footprint",),
            capacities_mb=SEC65_CAPACITIES,
            cache_variants=(
                {"singleton_optimization": True},
                {"singleton_optimization": False},
            ),
        ),
    },
)
def render_sec65(ctx):
    """Miss-rate impact of not allocating singleton pages."""
    sweep = ctx.sweep("main")
    results = {
        (workload, capacity, enabled): sweep.get(
            workload=workload, capacity_mb=capacity,
            singleton_optimization=enabled,
        )
        for workload in WORKLOAD_NAMES
        for capacity in SEC65_CAPACITIES
        for enabled in (True, False)
    }

    rows = []
    relative = []
    for workload in WORKLOAD_NAMES:
        for capacity in SEC65_CAPACITIES:
            with_opt = results[(workload, capacity, True)]
            without = results[(workload, capacity, False)]
            change = with_opt.miss_ratio / max(without.miss_ratio, 1e-9)
            relative.append(max(0.01, change))
            rows.append(
                (
                    PRETTY[workload],
                    f"{capacity}MB",
                    percent(without.miss_ratio),
                    percent(with_opt.miss_ratio),
                    percent(with_opt.bypass_ratio),
                    f"{(1 - change) * 100:+.1f}%",
                )
            )
    headers = ("Workload", "Capacity", "MR (no ST)", "MR (ST)", "Bypassed", "MR reduction")
    ctx.emit(
        "sec65_singleton",
        format_table(
            headers,
            rows,
            title="Section 6.5 - Singleton optimisation: miss-rate impact",
        ),
        headers=headers,
        rows=rows,
    )

    average_reduction = 1 - geometric_mean(relative)
    ctx.emit(
        "sec65_headline",
        "Headline (paper: ~10% average miss-rate reduction):\n"
        f"  measured average reduction = {average_reduction * 100:.1f}%",
    )
    return {"rows": rows, "average_reduction": average_reduction}


# ----------------------------------------------------------------------
# Table 1 — qualitative design comparison, measured
# ----------------------------------------------------------------------

ACTIVATE_PAIR_NJ = 20.0  # DramEnergyModel.off_chip().activate_precharge_nj


def _bytes_per_activation(result) -> float:
    """Off-chip bytes moved per row activation (DRAM locality metric)."""
    activations = result.offchip_activate_nj / ACTIVATE_PAIR_NJ
    if activations == 0:
        return float("inf")
    return result.offchip_bytes / activations


@register_figure(
    "table1",
    title="Table 1 (extended) - design comparison, measured at 256MB",
    artifacts=("table1_comparison",),
    specs={
        "main": _spec(
            workloads=("web_search",),
            designs=("block", "page", "footprint"),
            capacities_mb=(256,),
        ),
    },
)
def render_table1(ctx):
    """The paper's check marks, justified by measured quantities."""
    sweep = ctx.sweep("main")
    results = {
        design: sweep.get(design=design)
        for design in ("block", "page", "footprint")
    }
    block, page, footprint = results["block"], results["page"], results["footprint"]

    def yesno(flag):
        return "yes" if flag else "no"

    rows = [
        (
            "Small and fast tag storage",
            yesno(False),  # block: MissMap ~2MB + tags in DRAM
            yesno(True),
            yesno(True),
        ),
        (
            "Low off-chip traffic",
            yesno(block.offchip_traffic_normalized < 1.2),
            yesno(page.offchip_traffic_normalized < 1.2),
            yesno(footprint.offchip_traffic_normalized < 1.2),
        ),
        (
            "High hit ratio",
            yesno(block.hit_ratio > 0.7),
            yesno(page.hit_ratio > 0.7),
            yesno(footprint.hit_ratio > 0.7),
        ),
        ("Low hit latency", yesno(False), yesno(True), yesno(True)),
        (
            # Locality = bytes moved per row activation: page-organised
            # designs amortise one activation over a whole page/footprint.
            "High DRAM locality",
            yesno(_bytes_per_activation(block) > 192),
            yesno(_bytes_per_activation(page) > 192),
            yesno(_bytes_per_activation(footprint) > 192),
        ),
        (
            "Efficient capacity mgmt",
            yesno(True),
            yesno(False),
            yesno(footprint.bypass_ratio > 0.0),
        ),
    ]
    headers = ("Feature", "Block-based", "Page-based", "Footprint")
    ctx.emit(
        "table1_comparison",
        format_table(
            headers,
            rows,
            title="Table 1 (extended) - design comparison, measured at 256MB",
        ),
        headers=headers,
        rows=rows,
    )
    return rows


# ----------------------------------------------------------------------
# Table 4 — metadata overheads (pure model; no simulation)
# ----------------------------------------------------------------------


@register_figure(
    "table4",
    title="Table 4 - Tag/metadata storage and latency",
    artifacts=("table4_overheads",),
)
def render_table4(ctx):
    """The tag-storage/latency model, per design and capacity."""
    table = table4()
    rows = []
    for design in ("footprint", "block", "page"):
        for capacity, overheads in sorted(table[design].items()):
            rows.append(
                (
                    design,
                    f"{capacity}MB",
                    f"{overheads.storage_mb:.2f}MB",
                    f"{overheads.latency_cycles} cycles",
                )
            )
    headers = ("Design", "Capacity", "Metadata SRAM", "Lookup latency")
    ctx.emit(
        "table4_overheads",
        format_table(
            headers,
            rows,
            title="Table 4 - Tag/metadata storage and latency",
        ),
        headers=headers,
        rows=rows,
    )
    return table


# ----------------------------------------------------------------------
# Ablations beyond the paper (DESIGN.md §6)
# ----------------------------------------------------------------------

PREDICTOR_WORKLOADS = ("web_search", "data_serving", "mapreduce")


@register_figure(
    "ablation_predictor",
    title="Ablation - footprint prediction vs demand-fetch sub-blocking (256MB)",
    artifacts=("ablation_predictor_value",),
    specs={
        "main": _spec(
            workloads=PREDICTOR_WORKLOADS,
            designs=("subblock", "footprint"),
            capacities_mb=(256,),
        ),
    },
)
def render_ablation_predictor(ctx):
    """Same allocation, no prefetch: what footprint prediction buys."""
    sweep = ctx.sweep("main")
    results = {
        (workload, design): sweep.get(workload=workload, design=design)
        for workload in PREDICTOR_WORKLOADS
        for design in ("subblock", "footprint")
    }
    rows = []
    for workload in PREDICTOR_WORKLOADS:
        sub = results[(workload, "subblock")]
        fp = results[(workload, "footprint")]
        rows.append(
            (
                PRETTY[workload],
                percent(sub.miss_ratio),
                percent(fp.miss_ratio),
                f"{sub.offchip_traffic_normalized:.2f}",
                f"{fp.offchip_traffic_normalized:.2f}",
            )
        )
    headers = (
        "Workload", "MR subblock", "MR footprint", "Traffic subblock", "Traffic footprint"
    )
    ctx.emit(
        "ablation_predictor_value",
        format_table(
            headers,
            rows,
            title="Ablation - footprint prediction vs demand-fetch sub-blocking (256MB)",
        ),
        headers=headers,
        rows=rows,
    )
    return results


INDEX_MODES = ("pc_offset", "pc", "offset")
INDEXING_WORKLOADS = ("web_search", "sat_solver")


@register_figure(
    "ablation_indexing",
    title="Ablation - FHT index mode (256MB, 16K entries)",
    artifacts=("ablation_fht_indexing",),
    specs={
        "main": _spec(
            workloads=INDEXING_WORKLOADS,
            designs=("footprint",),
            capacities_mb=(256,),
            cache_variants=tuple({"fht_index_mode": mode} for mode in INDEX_MODES),
        ),
    },
)
def render_ablation_indexing(ctx):
    """PC & offset vs PC-only vs offset-only history indexing."""
    sweep = ctx.sweep("main")
    results = {
        (workload, mode): sweep.get(workload=workload, fht_index_mode=mode)
        for workload in INDEXING_WORKLOADS
        for mode in INDEX_MODES
    }
    rows = []
    for workload in INDEXING_WORKLOADS:
        row = [PRETTY[workload]]
        for mode in INDEX_MODES:
            r = results[(workload, mode)]
            row.append(
                f"hit {percent(r.hit_ratio)} / over {percent(r.predictor_overprediction)}"
            )
        rows.append(tuple(row))
    headers = ("Workload", "PC & offset", "PC only", "offset only")
    ctx.emit(
        "ablation_fht_indexing",
        format_table(
            headers,
            rows,
            title="Ablation - FHT index mode (256MB, 16K entries)",
        ),
        headers=headers,
        rows=rows,
    )
    return results
