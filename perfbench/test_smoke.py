"""Smoke test of the benchmark itself: each workload, untraced and traced, at minimal size.

    python3 -m pytest perfbench/test_smoke.py -q

Each run must pass its answer checks and print every metric that
BENCHMARK.json names, with that metric's unit.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--minimal"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["lattice", "ideals", "poly"])
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    done = _run(CHECKOUT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith(f"# {metric['name']} ") and
                   line.endswith(f" {metric['unit']}") for line in lines)
    assert any(line.startswith("# failed_share ") for line in lines)
    assert any(line.startswith("# answer check: PASS") for line in lines)
    if trace:
        assert "# traced outputs byte-identical to untraced: True" in lines
        assert any(line.startswith("# nested-call check:") and line.endswith("PASS")
                   for line in lines)
        assert any(line.startswith("# tracing overhead ") for line in lines)


def test_fails_without_the_library(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "lattice", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
