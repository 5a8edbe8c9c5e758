"""Tests of the benchmark itself (not collected by the repository's suite).

    python -m pytest perfbench/selftest.py -q

The smoke runs use ``--smoke``: the same workloads on reduced figure
sets and a short serve loop, so the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import self_times  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, timeout=170):
    """Run the benchmark; return (exit code, parsed last stdout line)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    status, result, stderr = bench("--workload", workload, "--seed", "0",
                                   "--seconds", "3", "--trace", str(trace),
                                   "--smoke")
    assert status == 0, stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, stderr
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        # Full-size traced runs cover at least 90%; a smoke report lasts
        # milliseconds, so CLI start-up dominates it.
        assert 0 < result["metrics"]["obs.coverage"]["value"] <= 1.0


def copy_checkout(target: Path) -> Path:
    """The files a benchmark checkout holds: sources, goldens, the benchmark."""
    ignore = shutil.ignore_patterns("__pycache__", "*.csv", "*.tmp")
    shutil.copytree(ROOT / "src", target / "src", ignore=ignore)
    shutil.copytree(ROOT / "benchmarks" / "results", target / "benchmarks" / "results",
                    ignore=ignore)
    shutil.copytree(HERE, target / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", target)
    return target


def test_corrupted_golden_counts_as_failure(tmp_path):
    checkout = copy_checkout(tmp_path / "checkout")
    golden = checkout / "benchmarks" / "results" / "table1_comparison.txt"
    data = bytearray(golden.read_bytes())
    data[len(data) // 2] ^= 0x01
    golden.write_bytes(bytes(data))
    status, result, stderr = bench("--workload", "report-warm", "--seconds", "1",
                                   "--smoke", cwd=checkout)
    assert status == 0, stderr
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "table1_comparison" in stderr


def test_killed_server_counts_failures_without_hanging():
    status, result, stderr = bench("--workload", "serve-mixed", "--seconds", "4",
                                   "--smoke", "--fault", "kill-server", timeout=120)
    assert status == 0, stderr
    assert not result["correct"]
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    status, result, _ = bench("--workload", "report-warm", cwd=tmp_path, timeout=60)
    assert status != 0
    assert result is None


def test_self_time_subtracts_children_and_generator_busy_time():
    def record(span, parent, duration, **attrs):
        return {"span": span, "parent": parent, "duration": duration, "attrs": attrs}

    records = [
        record("a" * 16, None, 10.0),
        record("b" * 16, "a" * 16, 4.0),
        record("c" * 16, "b" * 16, 3.5, busy_s=1.5),
    ]
    own = self_times(records)
    assert own == {"a" * 16: 6.0, "b" * 16: 2.5, "c" * 16: 1.5}
