"""Docs stay consistent with the CLI (same check CI runs)."""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_docs_reference_only_real_cli_commands():
    result = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "tools", "check_docs.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    # The check must actually be exercising fences, not matching nothing.
    assert "README.md: 0 CLI" not in result.stdout


def test_docs_exist():
    for doc in ("README.md", "ARCHITECTURE.md", os.path.join("benchmarks", "README.md")):
        assert os.path.exists(os.path.join(REPO_ROOT, doc)), doc


def test_checker_catches_bad_flags_and_values():
    """The checker validates flag *values*, not just flag names."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    try:
        from check_docs import check_command

        from repro.__main__ import build_parser

        parser = build_parser()
        clean = (
            "python -m repro sweep --shard 1/2 --jobs 2",
            "python -m repro sweep --plugin examples/custom_design.py",
            "python -m repro store merge shard1 shard2 --into merged",
            "python -m repro report fig01 --jobs 2",
        )
        for command in clean:
            assert check_command(command, parser) == [], command
        dirty = (
            "python -m repro sweep --shard 3/2",           # bad shard value
            "python -m repro sweep --jobs lots",           # bad int
            "python -m repro store merge x --wrong-flag",  # unknown flag
            "python -m repro store mend",                  # bad store action
        )
        for command in dirty:
            assert check_command(command, parser), command
    finally:
        sys.path.remove(os.path.join(REPO_ROOT, "tools"))
        sys.path.remove(os.path.join(REPO_ROOT, "src"))


def test_checker_catches_stale_env_vars():
    """A doc may only name REPRO_* variables that the code reads."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
    try:
        from check_docs import env_vars_read, stale_env_vars

        known = env_vars_read(REPO_ROOT)
        assert {"REPRO_RESULT_STORE", "REPRO_TRACE", "REPRO_BENCH_JOBS"} <= known
        text = (
            "Point `$REPRO_RESULT_STORE` at a scratch store.\n"
            "Set `$REPRO_IMAGINARY_KNOB=0` to turn it off.\n"
        )
        assert list(stale_env_vars(text, known)) == [(2, "REPRO_IMAGINARY_KNOB")]
    finally:
        sys.path.remove(os.path.join(REPO_ROOT, "tools"))


def test_checker_catches_deleted_modules_in_the_module_map():
    """The ARCHITECTURE.md module map may only name files that exist."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
    try:
        from check_docs import missing_modules, module_map_names

        with open(os.path.join(REPO_ROOT, "ARCHITECTURE.md")) as handle:
            assert list(missing_modules(handle.read(), REPO_ROOT)) == []
        text = (
            "```\n"
            "src/repro/\n"
            "├── caches/      The competing designs\n"
            "│     sram_cache.py, imaginary_policy.py\n"
            "└── exp/         Experiment engine\n"
            "│     serial.py, sram_cache.py\n"
            "```\n"
            "Prose after the fence: not_mapped.py\n"
        )
        assert len(list(module_map_names(text))) == 4
        assert list(missing_modules(text, REPO_ROOT)) == [
            (4, "caches/imaginary_policy.py"),
            (6, "exp/sram_cache.py"),
        ]
    finally:
        sys.path.remove(os.path.join(REPO_ROOT, "tools"))


def test_checker_catches_modules_missing_from_the_module_map(tmp_path):
    """Every module under src/repro/ (``__init__.py`` aside) must be mapped."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
    try:
        from check_docs import unmapped_modules

        with open(os.path.join(REPO_ROOT, "ARCHITECTURE.md")) as handle:
            assert list(unmapped_modules(handle.read(), REPO_ROOT)) == []
        package = tmp_path / "src" / "repro"
        (package / "exp" / "backends").mkdir(parents=True)
        for module in (
            "__init__.py", "__main__.py", "bitops.py", "exp/__init__.py",
            "exp/store.py", "exp/backends/base.py", "exp/backends/imaginary.py",
        ):
            (package / module).write_text("")
        text = (
            "```\n"
            "src/repro/\n"
            "├── __main__.py  the CLI\n"
            "└── exp/         Experiment engine\n"
            "│     store.py, backends/ (base.py)\n"
            "```\n"
        )
        assert list(unmapped_modules(text, str(tmp_path))) == [
            "bitops.py",
            os.path.join("exp", "backends", "imaginary.py"),
        ]
    finally:
        sys.path.remove(os.path.join(REPO_ROOT, "tools"))


def test_checker_validates_worker_flags_and_coordinator_routes():
    """The distributed surface is held to the same standard.

    ``worker`` invocations must use real flags, and the coordinator
    routes must both (a) validate when documented and (b) be *required*
    to appear in the docs (reverse coverage).
    """
    sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    try:
        from check_docs import check_api_call, check_command

        from repro.__main__ import build_parser
        from repro.serve import API_ROUTES

        parser = build_parser()
        clean = (
            "python -m repro worker --coordinator http://localhost:8000 --jobs 2",
            "python -m repro worker --coordinator http://h:1 --max-idle 30",
            "python -m repro worker --coordinator http://h:1 --kill-after 3",
        )
        for command in clean:
            assert check_command(command, parser) == [], command
        dirty = (
            "python -m repro worker --coordinator http://h:1 --jobs lots",
            "python -m repro worker --url http://h:1",          # unknown flag
            "python -m repro worker --coordinator http://h:1 --poll soon",
        )
        for command in dirty:
            assert check_command(command, parser), command

        assert check_api_call("POST", "/api/v1/coordinator/lease", API_ROUTES) == []
        assert check_api_call(
            "GET", "/api/v1/coordinator/runs/$RUN/results", API_ROUTES
        ) == []
        # Wrong method / unknown route are still caught.
        assert check_api_call("GET", "/api/v1/coordinator/lease", API_ROUTES)
        assert check_api_call("POST", "/api/v1/coordinator/nope", API_ROUTES)
    finally:
        sys.path.remove(os.path.join(REPO_ROOT, "tools"))
        sys.path.remove(os.path.join(REPO_ROOT, "src"))


def test_every_route_must_be_demonstrated():
    """Deleting a route's doc fence makes the check fail (reverse coverage)."""
    import re
    import shutil
    import subprocess
    import tempfile

    scratch = tempfile.mkdtemp(prefix="repro-docs-")
    try:
        stage = os.path.join(scratch, "repo")
        os.makedirs(os.path.join(stage, "benchmarks"))
        os.makedirs(os.path.join(stage, "tools"))
        for doc in ("README.md", "ARCHITECTURE.md"):
            shutil.copy(os.path.join(REPO_ROOT, doc), os.path.join(stage, doc))
        shutil.copy(
            os.path.join(REPO_ROOT, "benchmarks", "README.md"),
            os.path.join(stage, "benchmarks", "README.md"),
        )
        shutil.copy(
            os.path.join(REPO_ROOT, "tools", "check_docs.py"),
            os.path.join(stage, "tools", "check_docs.py"),
        )
        os.symlink(
            os.path.join(REPO_ROOT, "src"), os.path.join(stage, "src")
        )
        readme = os.path.join(stage, "README.md")
        with open(readme) as handle:
            text = handle.read()
        stripped = re.sub(r".*coordinator/lease.*\n", "", text)
        assert stripped != text  # the fence line existed and was removed
        with open(readme, "w") as handle:
            handle.write(stripped)
        result = subprocess.run(
            [sys.executable, os.path.join(stage, "tools", "check_docs.py")],
            capture_output=True, text=True,
        )
        assert result.returncode == 1, result.stdout + result.stderr
        assert "coordinator/lease is never demonstrated" in result.stdout
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
