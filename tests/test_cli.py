"""Unit tests for the command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.workload == "web_search"
        assert args.design == "footprint"
        assert args.capacity == 256
        assert args.scale == 256

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--workload", "bogus"])

    def test_unknown_design_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--design", "bogus"])


class TestSweepParser:
    def test_sweep_grid_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--workloads", "web_search,mapreduce",
             "--designs", "footprint,page", "--capacities", "64,256",
             "--jobs", "2", "--no-cache"]
        )
        assert args.command == "sweep"
        assert args.workloads == ("web_search", "mapreduce")
        assert args.designs == ("footprint", "page")
        assert args.capacities == (64, 256)
        assert args.jobs == 2
        assert args.no_cache

    def test_sweep_defaults(self):
        # Axis flags default to None sentinels (so --spec conflicts are
        # detectable); the effective defaults live in _sweep_spec.
        args = build_parser().parse_args(["sweep"])
        assert args.workloads is None
        assert args.designs is None
        assert args.spec is None
        assert args.jobs == 1
        assert not args.no_cache
        assert args.store is None

    def test_sweep_effective_defaults(self):
        from repro.__main__ import _sweep_spec

        spec = _sweep_spec(build_parser().parse_args(["sweep"]))
        assert spec.workloads == ("web_search",)
        assert spec.designs == ("footprint",)
        assert spec.capacities_mb == (256,)
        assert spec.scale == 256

    def test_explicitly_empty_axis_rejected(self, capsys):
        # An empty flag value (e.g. an unset shell variable) must error,
        # not silently fall back to the default axis.
        assert main(["sweep", "--workloads", ""]) == 2
        assert "must not be empty" in capsys.readouterr().err

    def test_single_run_has_no_command(self):
        assert build_parser().parse_args([]).command is None


class TestSweepMain:
    def test_sweep_runs_and_recaches(self, tmp_path, capsys):
        argv = ["sweep", "--workloads", "web_search", "--designs", "page",
                "--capacities", "64,256", "--requests", "3000",
                "--store", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 simulated" in out
        assert "web_search/page/64MB" in out

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "all points served from cache" in out
        assert "2 cache hits" in out

    def test_sweep_rejects_bad_grid_values(self, capsys):
        for argv, message in (
            (["sweep", "--workloads", "bogus"], "unknown workload"),
            (["sweep", "--designs", "bogus"], "unknown design"),
            (["sweep", "--capacities", "100"], "whole number of sets"),
            (["sweep", "--page-sizes", "1000"], "power of two"),
            (["sweep", "--requests", "-5"], "num_requests"),
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error:"), argv
            assert message in err, argv

    def test_sweep_no_cache_resimulates(self, tmp_path, capsys):
        argv = ["sweep", "--workloads", "web_search", "--designs", "page",
                "--capacities", "64", "--requests", "3000",
                "--store", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "1 simulated" in out

    def test_sweep_no_cache_rerun_leaves_store_unchanged(self, tmp_path, capsys):
        argv = ["sweep", "--workloads", "web_search", "--designs", "page",
                "--capacities", "64", "--requests", "3000",
                "--store", str(tmp_path)]
        assert main(argv) == 0
        store_file = tmp_path / "results.jsonl"
        before = store_file.read_bytes()
        assert main(argv + ["--no-cache"]) == 0
        assert "1 simulated" in capsys.readouterr().out
        assert store_file.read_bytes() == before


class TestBackendFlags:
    def test_backend_shard_plugin_parse(self):
        args = build_parser().parse_args(
            ["sweep", "--jobs", "2", "--shard", "2/3",
             "--plugin", "mod_a", "--plugin", "mod_b"]
        )
        assert args.jobs == 2
        assert args.shard == (2, 3)
        assert args.plugin == ["mod_a", "mod_b"]

    def test_backend_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.jobs == 1
        assert args.shard is None
        assert args.plugin is None

    def test_bad_shard_rejected(self):
        for shard in ("3/2", "0/2", "x/y", "2"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["sweep", "--shard", shard])

    def test_unloadable_plugin_reported(self, capsys):
        assert main(["sweep", "--plugin", "no.such.module"]) == 2
        assert "cannot load plugin" in capsys.readouterr().err

    def test_sharded_sweeps_merge_to_single_run_store(self, tmp_path, capsys):
        grid = ["--workloads", "web_search", "--designs", "page",
                "--capacities", "64,256", "--requests", "3000"]
        assert main(["sweep", *grid, "--shard", "1/2",
                     "--store", str(tmp_path / "s1")]) == 0
        assert "shard 1/2: 1 points" in capsys.readouterr().out
        assert main(["sweep", *grid, "--shard", "2/2",
                     "--store", str(tmp_path / "s2")]) == 0
        assert "shard 2/2: 1 points" in capsys.readouterr().out

        assert main(["store", "merge", str(tmp_path / "s1"),
                     str(tmp_path / "s2"), "--into",
                     str(tmp_path / "merged")]) == 0
        assert "2 record(s) from 2 store(s)" in capsys.readouterr().out

        assert main(["sweep", *grid, "--store", str(tmp_path / "single")]) == 0
        capsys.readouterr()

        def lines(name):
            with open(tmp_path / name / "results.jsonl") as handle:
                return sorted(filter(None, handle.read().splitlines()))

        assert lines("merged") == lines("single")

        # The merged store serves the full grid.
        assert main(["sweep", *grid, "--store", str(tmp_path / "merged")]) == 0
        assert "all points served from cache" in capsys.readouterr().out


class TestStoreMergeCLI:
    def test_merge_requires_sources_and_into(self, capsys):
        assert main(["store", "merge"]) == 2
        assert "at least one SRC" in capsys.readouterr().err
        assert main(["store", "merge", "somewhere"]) == 2
        assert "--into" in capsys.readouterr().err

    def test_merge_rejects_store_flag(self, tmp_path, capsys):
        assert main(["store", "merge", "a", "--into", "b",
                     "--store", str(tmp_path)]) == 2
        assert "--into, not --store" in capsys.readouterr().err

    def test_non_merge_actions_reject_merge_arguments(self, tmp_path, capsys):
        assert main(["store", "stats", "extra", "--store", str(tmp_path)]) == 2
        assert "only apply to 'store merge'" in capsys.readouterr().err

    def test_missing_source_reported(self, tmp_path, capsys):
        assert main(["store", "merge", str(tmp_path / "nope"),
                     "--into", str(tmp_path / "dst")]) == 2
        assert "no results file" in capsys.readouterr().err


class TestPluginSweep:
    def test_plugin_registered_profile_sweeps_and_recaches(self, tmp_path, capsys):
        plugin = tmp_path / "plug.py"
        plugin.write_text(
            "from repro.workloads.profiles import (\n"
            "    AccessFunctionSpec, WorkloadProfile, register_profile)\n"
            "register_profile(WorkloadProfile(\n"
            "    name='cli_plug', dataset_bytes=8 * 1024 * 1024,\n"
            "    functions=(AccessFunctionSpec(kind='full', weight=1.0),),\n"
            "), exist_ok=True)\n"
        )
        grid = ["sweep", "--plugin", str(plugin), "--workloads", "cli_plug",
                "--designs", "page", "--capacities", "64",
                "--requests", "3000", "--store", str(tmp_path / "store")]
        try:
            assert main(grid + ["--jobs", "2"]) == 0
            out = capsys.readouterr().out
            assert "cli_plug/page/64MB" in out
            assert "1 simulated" in out
            # Serial re-run keys identically: everything is a cache hit.
            assert main(grid) == 0
            assert "all points served from cache" in capsys.readouterr().out
        finally:
            from repro.workloads.profiles import profile_names, unregister_profile

            if "cli_plug" in profile_names():
                unregister_profile("cli_plug")


class TestSpecFile:
    def _write_spec(self, tmp_path, **axes):
        from repro.exp import ExperimentSpec

        path = tmp_path / "spec.json"
        path.write_text(ExperimentSpec(**axes).to_json())
        return str(path)

    def test_sweep_from_spec_file(self, tmp_path, capsys):
        path = self._write_spec(
            tmp_path, workloads="web_search", designs=("page",),
            capacities_mb=64, num_requests=3000,
            timing_variants=({}, {"stacked_latency_scale": 0.5}),
        )
        assert main(["sweep", "--spec", path, "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "2 simulated" in out
        assert "stacked_latency_scale=0.5" in out

    def test_spec_conflicts_with_grid_flags(self, tmp_path, capsys):
        path = self._write_spec(tmp_path, workloads="web_search", num_requests=3000)
        assert main(["sweep", "--spec", path, "--designs", "page"]) == 2
        err = capsys.readouterr().err
        assert "--spec cannot be combined" in err
        assert "--designs" in err

    def test_missing_spec_file_reported(self, tmp_path, capsys):
        assert main(["sweep", "--spec", str(tmp_path / "nope.json")]) == 2
        assert "cannot read spec file" in capsys.readouterr().err

    def test_malformed_spec_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["sweep", "--spec", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_spec_field_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"designz": ["page"]}')
        assert main(["sweep", "--spec", str(path)]) == 2
        assert "designz" in capsys.readouterr().err


class TestMain:
    def test_runs_footprint(self, capsys):
        code = main(
            ["--workload", "web_search", "--design", "footprint",
             "--capacity", "128", "--requests", "6000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "miss ratio" in out
        assert "predictor coverage" in out

    def test_runs_baseline_comparison(self, capsys):
        code = main(
            ["--workload", "mapreduce", "--design", "page",
             "--capacity", "64", "--requests", "6000", "--baseline"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "improvement over baseline" in out

    def test_no_singleton_flag(self, capsys):
        code = main(
            ["--design", "footprint", "--capacity", "64",
             "--requests", "6000", "--no-singleton"]
        )
        assert code == 0

    def test_non_footprint_has_no_predictor_rows(self, capsys):
        main(["--design", "block", "--capacity", "64", "--requests", "6000"])
        out = capsys.readouterr().out
        assert "predictor coverage" not in out
