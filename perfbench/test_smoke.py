"""Smoke test of the benchmark itself, at the smallest sample count the CLI accepts.

    python3 -m pytest perfbench/test_smoke.py -q

Takes under a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL_T = "30"


def run_benchmark(capsys, name, trace, tamper=None):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--t", SMALL_T], tamper=tamper)
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(capsys, name, trace):
    text, result = run_benchmark(capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for metric, unit in [*wanted.items(), ("error_rate", "ratio")]:
        assert any(line.split()[:1] == [metric] and unit in line.split() for line in text), metric


def test_a_wrong_answer_counts_as_a_failure(capsys):
    def wrong_degree(report):
        report["degree"] = 7

    _, result = run_benchmark(capsys, "chain200-k8", 0, tamper=wrong_degree)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "chain200-k8",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
