"""Unit tests for the Table 4 overhead model."""

import pytest

from repro.core.overheads import (
    DesignOverheads,
    footprint_tag_bytes,
    missmap_bytes,
    missmap_entries_for,
    overheads_for,
    page_tag_bytes,
    sram_latency_cycles,
    table4,
)

MB = 1024 * 1024

# Table 4 of the paper: (capacity MB, design) -> (storage MB, latency).
PAPER_TABLE4 = {
    ("footprint", 64): (0.40, 4),
    ("footprint", 128): (0.80, 6),
    ("footprint", 256): (1.58, 9),
    ("footprint", 512): (3.12, 11),
    ("page", 64): (0.22, 4),
    ("page", 128): (0.44, 5),
    ("page", 256): (0.86, 6),
    ("page", 512): (1.69, 9),
    ("block", 64): (1.95, 9),
    ("block", 128): (1.95, 9),
    ("block", 256): (1.95, 9),
    ("block", 512): (2.92, 11),
}


class TestTable4Reproduction:
    @pytest.mark.parametrize(("design", "capacity_mb"), sorted(PAPER_TABLE4))
    def test_storage_matches_paper(self, design, capacity_mb):
        paper_mb, _ = PAPER_TABLE4[(design, capacity_mb)]
        overheads = overheads_for(design, capacity_mb * MB)
        assert overheads.storage_mb == pytest.approx(paper_mb, rel=0.15)

    @pytest.mark.parametrize(("design", "capacity_mb"), sorted(PAPER_TABLE4))
    def test_latency_matches_paper(self, design, capacity_mb):
        _, paper_latency = PAPER_TABLE4[(design, capacity_mb)]
        overheads = overheads_for(design, capacity_mb * MB)
        assert abs(overheads.latency_cycles - paper_latency) <= 1

    def test_table4_helper_covers_all(self):
        table = table4()
        assert set(table) == {"footprint", "block", "page"}
        for rows in table.values():
            assert set(rows) == {64, 128, 256, 512}


class TestLatencyModel:
    def test_monotonic_in_size(self):
        sizes = [int(0.1 * MB), int(0.5 * MB), MB, 2 * MB, 4 * MB]
        latencies = [sram_latency_cycles(s) for s in sizes]
        assert latencies == sorted(latencies)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sram_latency_cycles(-1)

    def test_huge_array_capped(self):
        assert sram_latency_cycles(100 * MB) == 13


class TestComponents:
    def test_footprint_larger_than_page_tags(self):
        # The footprint entry carries two bit vectors and an FHT pointer.
        assert footprint_tag_bytes(64 * MB) > page_tag_bytes(64 * MB)

    def test_paper_tag_storage_64mb(self):
        # Table 4: 0.40MB for a 64MB Footprint Cache.
        assert footprint_tag_bytes(64 * MB) == pytest.approx(0.40 * MB, rel=0.05)

    def test_paper_tag_storage_512mb(self):
        # Table 4: 3.12MB for a 512MB Footprint Cache.
        assert footprint_tag_bytes(512 * MB) == pytest.approx(3.12 * MB, rel=0.05)

    def test_tags_scale_linearly(self):
        assert footprint_tag_bytes(128 * MB) == pytest.approx(
            2 * footprint_tag_bytes(64 * MB), rel=0.05
        )

    def test_larger_pages_shrink_tags(self):
        assert footprint_tag_bytes(64 * MB, page_size=4096) < footprint_tag_bytes(
            64 * MB, page_size=2048
        )

    def test_missmap_entries_rule(self):
        assert missmap_entries_for(64 * MB) == 192 * 1024
        assert missmap_entries_for(256 * MB) == 192 * 1024
        assert missmap_entries_for(512 * MB) == 288 * 1024

    def test_missmap_bytes_positive(self):
        assert missmap_bytes(1024) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            overheads_for("unknown", 64 * MB)
        with pytest.raises(ValueError):
            footprint_tag_bytes(0)
        with pytest.raises(ValueError):
            missmap_entries_for(0)
        with pytest.raises(ValueError):
            missmap_bytes(0)

    def test_no_metadata_designs(self):
        for design in ("ideal", "baseline"):
            overheads = overheads_for(design, 64 * MB)
            assert overheads.storage_bytes == 0
            assert overheads.latency_cycles == 0
