"""The figure registry and the ``repro report`` pipeline."""

import dataclasses
import os

import pytest

from repro.__main__ import main
from repro.exp import ExperimentSpec, ResultStore
from repro.reporting import (
    figure_names,
    get_figure,
    iter_figures,
    referenced_points,
    register_figure,
    run_figure,
    write_artifacts,
)
from repro.reporting import registry as registry_module

TINY_SPEC = ExperimentSpec(
    workloads="web_search", designs=("page",), capacities_mb=64, num_requests=2000
)


@pytest.fixture
def test_figure():
    """Register a tiny throwaway figure; unregister on teardown."""
    name = "_testfig"

    @register_figure(
        name,
        title="Test figure",
        artifacts=("_testfig_table", "_testfig_headline"),
        specs={"main": TINY_SPEC},
    )
    def render(ctx):
        result = ctx.sweep("main").get(design="page")
        rows = [("page", f"{result.miss_ratio:.3f}")]
        ctx.emit("_testfig_table", "design | MR", headers=("design", "MR"), rows=rows)
        ctx.emit("_testfig_headline", "headline text")
        return result

    yield name
    registry_module._REGISTRY.pop(name, None)


class TestRegistryIntegrity:
    EXPECTED = (
        "fig01", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
        "fig10", "fig11", "fig12", "sec63", "sec65", "sec67",
        "table1", "table4", "ablation_predictor", "ablation_indexing",
    )

    def test_all_paper_figures_registered(self):
        for name in self.EXPECTED:
            assert name in figure_names(), name

    def test_artifact_names_unique_across_registry(self):
        seen = set()
        for figure in iter_figures():
            for artifact in figure.artifacts:
                assert artifact not in seen, artifact
                seen.add(artifact)

    def test_every_figure_resolves_its_points(self):
        # Grids must validate and hash; simulation-free figures are empty.
        for figure in iter_figures():
            points = figure.points()
            if figure.specs:
                assert points
            for point in points:
                assert len(point.key()) == 20

    def test_referenced_points_cover_every_figure(self):
        referenced = set(referenced_points())
        for figure in iter_figures():
            assert referenced.issuperset(figure.points()), figure.name

    def test_figures_share_grid_points(self):
        # The registry must preserve the benches' cross-figure sharing:
        # Fig. 5's (workload, design, capacity) runs also feed Figs. 10/11.
        fig05 = set(get_figure("fig05").points())
        assert fig05.issuperset(
            p for p in get_figure("fig10").points() if p.design != "baseline"
        )
        assert fig05.issuperset(get_figure("fig11").points())

    def test_get_figure_unknown_name(self):
        with pytest.raises(KeyError, match="unknown figure 'nope'"):
            get_figure("nope")

    def test_spec_points_are_computed_once(self):
        # A figure job reads its grid at submit and again to run and
        # fetch it; every read must return the same (key-memoised)
        # points.  Copies made with dataclasses.replace (as tracing
        # wrappers rebuild the registry) share the specs, so theirs too.
        figure = get_figure("fig01")
        for spec in figure.specs.values():
            assert spec.points() is spec.points()
        copy = dataclasses.replace(figure, render=lambda ctx: None)
        assert all(
            mine is theirs
            for mine, theirs in zip(copy.points(), figure.points(), strict=True)
        )


class TestRegistration:
    def test_duplicate_figure_name_rejected(self, test_figure):
        with pytest.raises(ValueError, match="already registered"):
            register_figure(test_figure, title="x", artifacts=("other",))(lambda ctx: None)

    def test_claimed_artifact_rejected(self):
        with pytest.raises(ValueError, match="already claimed"):
            register_figure(
                "_testfig_clash", title="x", artifacts=("fig01_opportunity",)
            )(lambda ctx: None)
        assert "_testfig_clash" not in figure_names()


class TestRunFigure:
    def test_simulates_then_serves_from_store(self, test_figure, tmp_path):
        store = ResultStore(str(tmp_path))
        first = run_figure(test_figure, store=store)
        assert first.points == 1
        assert first.simulated == 1
        assert first.hits == 0
        second = run_figure(test_figure, store=store)
        assert second.simulated == 0
        assert second.hits == 1
        assert second.artifacts == first.artifacts

    def test_data_and_artifacts_surface(self, test_figure, tmp_path):
        output = run_figure(test_figure, store=ResultStore(str(tmp_path)))
        assert 0.0 <= output.data.miss_ratio <= 1.0
        names = [a.name for a in output.artifacts]
        assert names == ["_testfig_table", "_testfig_headline"]

    def test_write_artifacts_txt_and_csv(self, test_figure, tmp_path):
        output = run_figure(test_figure, store=ResultStore(str(tmp_path / "s")))
        out_dir = str(tmp_path / "results")
        paths = write_artifacts(output, out_dir, with_csv=True)
        # Text for both artifacts; CSV only for the tabular one.
        assert [os.path.basename(p) for p in paths] == [
            "_testfig_table.txt", "_testfig_table.csv", "_testfig_headline.txt"
        ]
        with open(paths[0]) as handle:
            assert handle.read() == "design | MR\n"  # text + trailing newline
        with open(paths[1]) as handle:
            assert handle.read().splitlines()[0] == "design,MR"

    def test_undeclared_artifact_rejected(self, tmp_path):
        @register_figure("_testfig_bad_emit", title="x", artifacts=("declared",),
                         specs={"main": TINY_SPEC})
        def render(ctx):
            ctx.emit("undeclared", "text")

        try:
            with pytest.raises(ValueError, match="does not declare artifact"):
                run_figure("_testfig_bad_emit", store=ResultStore(str(tmp_path)))
        finally:
            registry_module._REGISTRY.pop("_testfig_bad_emit", None)

    def test_missing_declared_artifact_rejected(self, tmp_path):
        @register_figure("_testfig_missing", title="x", artifacts=("declared",),
                         specs={"main": TINY_SPEC})
        def render(ctx):
            return None

        try:
            with pytest.raises(RuntimeError, match="did not emit"):
                run_figure("_testfig_missing", store=ResultStore(str(tmp_path)))
        finally:
            registry_module._REGISTRY.pop("_testfig_missing", None)

    def test_unknown_sweep_name_rejected(self, tmp_path):
        @register_figure("_testfig_sweep", title="x", artifacts=("a",),
                         specs={"main": TINY_SPEC})
        def render(ctx):
            ctx.sweep("wrong")

        try:
            with pytest.raises(KeyError, match="has no spec 'wrong'"):
                run_figure("_testfig_sweep", store=ResultStore(str(tmp_path)))
        finally:
            registry_module._REGISTRY.pop("_testfig_sweep", None)


class TestReportCLI:
    def test_list_figures(self, capsys):
        assert main(["report", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out
        assert "fig01_opportunity" in out

    def test_unknown_figure_rejected(self, capsys):
        assert main(["report", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown figure" in err
        assert "fig01" in err  # the known names are suggested

    def test_report_runs_and_writes_artifacts(self, test_figure, tmp_path, capsys):
        argv = ["report", test_figure, "--store", str(tmp_path / "store"),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 simulated" in out
        assert "_testfig_table.txt" in out
        assert os.path.exists(tmp_path / "out" / "_testfig_table.txt")

        # Re-run: fully store-served, artifacts byte-identical.
        with open(tmp_path / "out" / "_testfig_table.txt") as handle:
            before = handle.read()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "all points served from the result store" in out
        with open(tmp_path / "out" / "_testfig_table.txt") as handle:
            assert handle.read() == before

    def test_report_quiet_suppresses_tables_and_progress(
        self, test_figure, tmp_path, capsys
    ):
        argv = ["report", test_figure, "--quiet",
                "--store", str(tmp_path / "store"), "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "headline text" not in out
        assert "[1/" not in out  # per-point progress suppressed too
        assert f"{test_figure}:" in out

    def test_analysis_only_report_does_not_claim_store_service(self, tmp_path, capsys):
        argv = ["report", "table4", "--quiet",
                "--store", str(tmp_path / "store"), "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 points" in out
        assert "all points served" not in out

    def test_store_override_does_not_redirect_artifacts(self, monkeypatch, tmp_path):
        from repro.exp.store import default_results_dir

        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path))
        assert default_results_dir().endswith(os.path.join("benchmarks", "results"))

    def test_report_csv(self, test_figure, tmp_path, capsys):
        argv = ["report", test_figure, "--csv", "--quiet",
                "--store", str(tmp_path / "store"), "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert os.path.exists(tmp_path / "out" / "_testfig_table.csv")
