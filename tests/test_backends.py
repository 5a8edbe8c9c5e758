"""Execution backends: parity, sharding, store merge, plugin loading."""

import json
import multiprocessing
import os
import textwrap

import pytest

from repro.exp import (
    ExperimentPoint,
    ExperimentSpec,
    ProcessBackend,
    ResultStore,
    SerialBackend,
    ShardBackend,
    StoreMergeConflict,
    SweepRunner,
    load_plugin,
    load_plugins,
    make_backend,
    merge_plugins,
    parse_shard,
)
from repro.workloads.profiles import (
    AccessFunctionSpec,
    WorkloadProfile,
    is_builtin_profile,
    profile_names,
    register_profile,
    unregister_profile,
)

N = 3000  # requests per point: enough to exercise the paths, still fast


def small_spec(**overrides):
    axes = dict(
        workloads="web_search",
        designs=("baseline", "page"),
        capacities_mb=(64, 256),
        num_requests=N,
    )
    axes.update(overrides)
    return ExperimentSpec(**axes)


def store_lines(store):
    with open(store.path) as handle:
        return sorted(line for line in handle.read().splitlines() if line)


def tiny_profile(name):
    return WorkloadProfile(
        name=name,
        functions=(AccessFunctionSpec(kind="full", weight=1.0),),
        dataset_bytes=8 * 1024 * 1024,
    )


PROFILE_PLUGIN = textwrap.dedent(
    """
    from repro.workloads.profiles import (
        AccessFunctionSpec, WorkloadProfile, register_profile,
    )

    register_profile(
        WorkloadProfile(
            name={name!r},
            functions=(AccessFunctionSpec(kind="sequential", weight=1.0,
                                          min_blocks=2, max_blocks=6,
                                          zipf_alpha=0.9),),
            dataset_bytes=8 * 1024 * 1024,
        ),
        exist_ok=True,
    )
    """
)


@pytest.fixture
def profile_plugin(tmp_path):
    """A plugin file registering the custom profile ``plugtest``."""
    path = tmp_path / "plug_profile.py"
    path.write_text(PROFILE_PLUGIN.format(name="plugtest"))
    yield str(path)
    if "plugtest" in profile_names():
        unregister_profile("plugtest")


class TestParseShard:
    def test_parses(self):
        assert parse_shard("1/2") == (1, 2)
        assert parse_shard("3/3") == (3, 3)

    @pytest.mark.parametrize("text", ["", "2", "0/2", "3/2", "a/b", "1/0", "-1/2"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_shard(text)


class TestShardBackend:
    def test_partition_is_disjoint_and_covers(self):
        points = small_spec().points()
        shards = [ShardBackend(i, 3).select(points) for i in (1, 2, 3)]
        combined = [p for shard in shards for p in shard]
        assert len(combined) == len(points)
        assert set(combined) == set(points)
        for index, shard in enumerate(shards):
            for other in shards[index + 1:]:
                assert not set(shard) & set(other)

    def test_partition_is_deterministic_round_robin(self):
        points = small_spec().points()
        assert ShardBackend(1, 2).select(points) == points[0::2]
        assert ShardBackend(2, 2).select(points) == points[1::2]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ShardBackend(0, 2)
        with pytest.raises(ValueError):
            ShardBackend(3, 2)

    def test_runner_runs_only_the_shard(self, tmp_path):
        spec = small_spec()
        shard = SweepRunner(
            store=ResultStore(str(tmp_path)), backend=ShardBackend(1, 2)
        ).run(spec)
        assert len(shard) == len(spec.points()[0::2])
        assert tuple(shard) == spec.points()[0::2]


class TestMakeBackend:
    def test_defaults_follow_jobs(self):
        assert isinstance(make_backend(jobs=1), SerialBackend)
        assert isinstance(make_backend(jobs=4), ProcessBackend)
        assert isinstance(make_backend(jobs=0), ProcessBackend)

    def test_shard_wraps_the_jobs_backend(self):
        backend = make_backend(jobs=2, shard=(2, 3))
        assert isinstance(backend, ShardBackend)
        assert (backend.index, backend.count) == (2, 3)
        assert isinstance(backend.inner, ProcessBackend)


class TestBackendParity:
    def test_serial_process_and_sharded_merge_identical_records(self, tmp_path):
        """The acceptance criterion: byte-identical store records."""
        spec = small_spec()
        serial = ResultStore(str(tmp_path / "serial"))
        SweepRunner(store=serial, backend=SerialBackend()).run(spec)

        process = ResultStore(str(tmp_path / "process"))
        SweepRunner(store=process, jobs=2).run(spec)

        shard_stores = []
        for index in (1, 2):
            shard = ResultStore(str(tmp_path / f"shard{index}"))
            SweepRunner(store=shard, backend=ShardBackend(index, 2)).run(spec)
            shard_stores.append(shard)
        merged = ResultStore(str(tmp_path / "merged"))
        stats = merged.merge(shard_stores)
        assert stats.merged == len(spec.points())

        reference = store_lines(serial)
        assert store_lines(process) == reference
        assert store_lines(merged) == reference

        # And the merged store serves every point of the full grid.
        served = SweepRunner(store=merged).run(spec)
        assert served.hits == len(spec.points()) and served.misses == 0


class TestStoreMerge:
    def put_one(self, directory, **point_kwargs):
        from repro.exp import run_point

        point = ExperimentPoint(
            workload="web_search", design="page", capacity_mb=64,
            num_requests=N, **point_kwargs,
        )
        store = ResultStore(str(directory))
        store.put(point, run_point(point))
        return store, point

    def test_duplicates_skipped_conflicts_raise(self, tmp_path):
        a, point = self.put_one(tmp_path / "a")
        b, _ = self.put_one(tmp_path / "b")
        dest = ResultStore(str(tmp_path / "dest"))
        stats = dest.merge([a])
        assert (stats.merged, stats.duplicates) == (1, 0)
        # b holds the identical record: a duplicate, not a conflict.
        stats = dest.merge([b])
        assert (stats.merged, stats.duplicates) == (0, 1)

        # Forge a record with the same key but different result bytes.
        with open(b.path) as handle:
            record = json.loads(handle.read().splitlines()[0])
        record["result"]["miss_ratio"] = 0.123456
        evil_dir = tmp_path / "evil"
        os.makedirs(evil_dir)
        with open(evil_dir / "results.jsonl", "w") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        before = store_lines(dest)
        with pytest.raises(StoreMergeConflict) as excinfo:
            dest.merge([ResultStore(str(evil_dir))])
        assert excinfo.value.conflicts[0][0] == point.key()
        # Nothing was written by the failed merge.
        assert store_lines(dest) == before

    def test_non_live_source_lines_ignored(self, tmp_path):
        a, point = self.put_one(tmp_path / "a")
        with open(a.path, "a") as handle:
            handle.write("{torn line\n")
        dest = ResultStore(str(tmp_path / "dest"))
        stats = dest.merge([a])
        assert stats.merged == 1
        assert dest.get(point) is not None
        assert len(store_lines(dest)) == 1

    def test_append_after_torn_newlineless_tail(self, tmp_path):
        # A crash mid-append can leave the destination ending in a torn
        # line with no newline; appenders must not glue onto it.
        a, point = self.put_one(tmp_path / "a")
        dest = ResultStore(str(tmp_path / "dest"))
        os.makedirs(dest.directory)
        with open(dest.path, "w") as handle:
            handle.write('{"torn": ')  # no trailing newline
        stats = dest.merge([a])
        assert stats.merged == 1
        dest.invalidate()
        assert dest.get(point) is not None
        # put() repairs the same way.
        other = ResultStore(str(tmp_path / "other"))
        os.makedirs(other.directory)
        with open(other.path, "w") as handle:
            handle.write('{"torn": ')
        from repro.exp import run_point

        other.put(point, run_point(point))
        assert ResultStore(str(tmp_path / "other")).get(point) is not None

    def test_self_and_missing_sources_rejected(self, tmp_path):
        a, _ = self.put_one(tmp_path / "a")
        with pytest.raises(ValueError, match="itself"):
            a.merge([ResultStore(str(tmp_path / "a"))])
        with pytest.raises(ValueError, match="no results file"):
            a.merge([ResultStore(str(tmp_path / "missing"))])


class TestPluginLoading:
    def test_file_plugin_loads_once_per_process(self, tmp_path):
        path = tmp_path / "counting_plugin.py"
        marker = tmp_path / "count.txt"
        path.write_text(
            "with open({marker!r}, 'a') as h:\n    h.write('x')\n".format(
                marker=str(marker)
            )
        )
        first = load_plugin(str(path))
        second = load_plugin(str(path))
        assert first is second
        assert marker.read_text() == "x"

    def test_dotted_module_plugin(self):
        import json as expected

        assert load_plugin("json") is expected

    def test_bad_plugins_raise_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot load plugin"):
            load_plugin("no.such.module")
        broken = tmp_path / "broken.py"
        broken.write_text("this is not python(")
        with pytest.raises(ValueError, match="cannot load plugin"):
            load_plugin(str(broken))
        # A failed load is not cached: fixing the file fixes the plugin.
        broken.write_text("VALUE = 7\n")
        assert load_plugin(str(broken)).VALUE == 7

    def test_merge_plugins_dedups_in_order(self):
        assert merge_plugins(("a", "b"), ("b", "c"), ("a",)) == ("a", "b", "c")


class TestProfileRegistry:
    def test_register_and_unregister(self):
        profile = register_profile(tiny_profile("reg_rt"))
        try:
            assert "reg_rt" in profile_names()
            assert not is_builtin_profile("reg_rt")
            with pytest.raises(ValueError, match="already registered"):
                register_profile(tiny_profile("reg_rt"))
            # exist_ok keeps the first registration.
            again = register_profile(tiny_profile("reg_rt"), exist_ok=True)
            assert again is profile
        finally:
            unregister_profile("reg_rt")
        assert "reg_rt" not in profile_names()

    def test_decorator_factory_form(self):
        @register_profile
        def reg_factory():
            return tiny_profile("reg_factory")

        try:
            # The bound name is the registered profile, not the factory.
            assert isinstance(reg_factory, WorkloadProfile)
            assert "reg_factory" in profile_names()
        finally:
            unregister_profile("reg_factory")

    def test_decorator_with_arguments_form(self):
        @register_profile(exist_ok=True)
        def reg_args():
            return tiny_profile("reg_args")

        try:
            assert isinstance(reg_args, WorkloadProfile)
            assert reg_args.name == "reg_args"

            # exist_ok re-registration binds the registration in effect.
            @register_profile(exist_ok=True)
            def reg_args_again():
                return tiny_profile("reg_args")

            assert reg_args_again is reg_args
        finally:
            unregister_profile("reg_args")

    def test_exist_ok_rejects_different_payload(self):
        register_profile(tiny_profile("clash"))
        try:
            changed = WorkloadProfile(
                name="clash",
                functions=(AccessFunctionSpec(kind="singleton", weight=1.0),),
                dataset_bytes=16 * 1024 * 1024,
            )
            # exist_ok tolerates re-importing the same profile, never a
            # different one fighting over the name.
            with pytest.raises(ValueError, match="different parameters"):
                register_profile(changed, exist_ok=True)
        finally:
            unregister_profile("clash")

    def test_design_exist_ok_rejects_different_traits(self):
        from repro.caches.registry import (
            register_design,
            unregister_design,
        )

        @register_design("clash_design", description="one")
        def build_one(config, stacked, offchip):
            raise NotImplementedError

        try:
            # Same traits + description: a harmless re-import.
            @register_design("clash_design", exist_ok=True, description="one")
            def build_again(config, stacked, offchip):
                raise NotImplementedError

            with pytest.raises(ValueError, match="different traits"):
                @register_design("clash_design", exist_ok=True,
                                 description="one", page_organised=True)
                def build_other(config, stacked, offchip):
                    raise NotImplementedError
        finally:
            unregister_design("clash_design")

    def test_builtins_protected(self):
        assert is_builtin_profile("web_search")
        with pytest.raises(ValueError, match="built-in"):
            unregister_profile("web_search")

    def test_non_profile_rejected(self):
        with pytest.raises(TypeError):
            register_profile(lambda: "not a profile")

    def test_unknown_workload_fails_fast(self):
        with pytest.raises(ValueError, match="unknown workload"):
            ExperimentPoint(workload="nope", design="page", num_requests=N)
        with pytest.raises(ValueError, match="unknown workload"):
            ExperimentSpec(workloads="nope")


class TestCustomProfileHashing:
    def test_builtin_points_have_no_profile_payload(self):
        point = ExperimentPoint(workload="web_search", design="page",
                                capacity_mb=64, num_requests=N)
        assert "workload_profile" not in point.describe()["config"]

    def test_custom_profile_payload_enters_the_key(self):
        register_profile(tiny_profile("hash_rt"))
        try:
            point = ExperimentPoint(workload="hash_rt", design="page",
                                    capacity_mb=64, num_requests=N)
            payload = point.describe()["config"]["workload_profile"]
            assert payload["name"] == "hash_rt"
            first_key = point.key()
        finally:
            unregister_profile("hash_rt")
        # Re-register with different parameters: the key must change.
        changed = tiny_profile("hash_rt")
        changed = WorkloadProfile(
            name="hash_rt", functions=changed.functions,
            dataset_bytes=changed.dataset_bytes * 2,
        )
        register_profile(changed)
        try:
            repoint = ExperimentPoint(workload="hash_rt", design="page",
                                      capacity_mb=64, num_requests=N)
            assert repoint.key() != first_key
        finally:
            unregister_profile("hash_rt")


class TestSpecPlugins:
    def test_plugins_load_at_spec_construction(self, profile_plugin):
        spec = ExperimentSpec(workloads="plugtest", designs="page",
                              capacities_mb=64, num_requests=N,
                              plugins=profile_plugin)
        assert spec.plugins == (profile_plugin,)
        assert "plugtest" in profile_names()
        assert len(spec.points()) == 1

    def test_spec_json_round_trip_with_plugins(self, profile_plugin):
        spec = ExperimentSpec(workloads="plugtest", designs="page",
                              capacities_mb=64, num_requests=N,
                              plugins=(profile_plugin,))
        data = spec.to_dict()
        assert data["plugins"] == [profile_plugin]
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert [p.key() for p in restored.points()] == [
            p.key() for p in spec.points()
        ]

    def test_plugins_do_not_affect_point_keys(self, profile_plugin):
        # plugins are environment: the same grid with and without the
        # field hashes identically (given the registrations exist).
        with_plugin = ExperimentSpec(workloads="plugtest", designs="page",
                                     capacities_mb=64, num_requests=N,
                                     plugins=profile_plugin)
        without = ExperimentSpec(workloads="plugtest", designs="page",
                                 capacities_mb=64, num_requests=N)
        assert [p.key() for p in with_plugin.points()] == [
            p.key() for p in without.points()
        ]


class TestWorkerSidePluginLoading:
    def test_spawn_workers_bootstrap_plugins(self, tmp_path, profile_plugin):
        """Workers must rebuild the registries from nothing.

        ``spawn`` gives fresh interpreters (no fork inheritance), so
        this passes only if the backend's worker bootstrap loads the
        plugin before simulating — the property that makes
        plugin-extended sweeps parallelisable at all.
        """
        spec = ExperimentSpec(workloads="plugtest", designs="page",
                              capacities_mb=64, seeds=(0, 1), num_requests=N,
                              plugins=profile_plugin)
        backend = ProcessBackend(
            jobs=2, mp_context=multiprocessing.get_context("spawn")
        )
        parallel = SweepRunner(store=None, backend=backend).run(spec)
        serial = SweepRunner(store=None).run(spec)
        assert len(parallel) == 2
        for point in spec.points():
            assert parallel[point].to_dict() == serial[point].to_dict()


class TestRunFigureBackend:
    def test_shard_backend_rejected_for_figures(self):
        from repro.reporting import run_figure

        with pytest.raises(ValueError, match="subset"):
            run_figure("fig01", store=ResultStore(), backend=ShardBackend(1, 2))

    def test_figure_spec_plugins_reach_workers(self, tmp_path, profile_plugin):
        """A figure whose spec needs a plugin must bootstrap workers.

        ``spawn`` workers inherit nothing, and the runner is supplied by
        the caller (so it carries no plugins of its own): this only
        passes if run_figure forwards the spec's plugins per-call.
        """
        import repro.reporting.registry as registry_module
        from repro.reporting import register_figure, run_figure

        name = "_testfig_spec_plugins"
        spec = ExperimentSpec(workloads="plugtest", designs="page",
                              capacities_mb=64, seeds=(0, 1), num_requests=N,
                              plugins=profile_plugin)

        @register_figure(name, title="spec-plugin smoke",
                         artifacts=(name,), specs={"main": spec})
        def render(ctx):
            ctx.emit(name, f"{len(ctx.sweep('main'))} points")

        try:
            runner = SweepRunner(
                store=ResultStore(str(tmp_path)),
                backend=ProcessBackend(
                    jobs=2, mp_context=multiprocessing.get_context("spawn")
                ),
            )
            output = run_figure(name, runner=runner)
            assert output.simulated == 2
            assert output.artifacts[0].text == "2 points"
        finally:
            registry_module._REGISTRY.pop(name, None)


class TestProcessBackendErrorContext:
    """Worker failures must name the experiment point that died.

    A bare "division by zero" out of a 300-point sweep is undebuggable;
    the backend rebuilds worker exceptions with the failing point's
    label in the message (preserving the type so callers' ``except``
    clauses keep working, and chaining the original as ``__cause__``).
    """

    def failing_point(self):
        return ExperimentPoint(
            workload="web_search", design="page", capacity_mb=64,
            num_requests=N,
        )

    def test_in_process_path_names_the_point(self, monkeypatch):
        import repro.exp.runner as runner_module

        point = self.failing_point()

        def explode(_point):
            raise ValueError("boom")

        monkeypatch.setattr(runner_module, "run_point", explode)
        backend = ProcessBackend(jobs=1)
        with pytest.raises(ValueError, match="failed: boom") as excinfo:
            list(backend.execute([point]))
        assert point.label() in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_pool_path_names_the_originating_point(self, monkeypatch):
        # Under fork the children inherit the patched runner module, and
        # ``_worker``'s late import reads the patched attribute.
        import repro.exp.runner as runner_module

        points = [
            self.failing_point(),
            ExperimentPoint(workload="web_search", design="baseline",
                            num_requests=N),
        ]

        def explode(point):
            raise ValueError(f"boom seed={point.seed}")

        monkeypatch.setattr(runner_module, "run_point", explode)
        backend = ProcessBackend(
            jobs=2, mp_context=multiprocessing.get_context("fork")
        )
        with pytest.raises(ValueError, match="^point .* failed: boom") as excinfo:
            list(backend.execute(points))
        assert any(p.label() in str(excinfo.value) for p in points)

    def test_unrebuildable_exception_degrades_to_runtime_error(self, monkeypatch):
        import repro.exp.runner as runner_module

        class Picky(Exception):
            def __init__(self, code, detail):
                super().__init__(code, detail)

        def explode(_point):
            raise Picky(42, "no single-arg constructor")

        monkeypatch.setattr(runner_module, "run_point", explode)
        backend = ProcessBackend(jobs=1)
        point = self.failing_point()
        with pytest.raises(RuntimeError, match="failed") as excinfo:
            list(backend.execute([point]))
        assert point.label() in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, Picky)
