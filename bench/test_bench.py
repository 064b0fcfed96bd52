"""Self-test of the benchmark at tiny sizes; run from the repository root with

    python3 -m pytest -q bench

It checks that every metric named in BENCHMARK.json is emitted with its unit,
that a wrong reference or a raising task shows up as failed checks rather than
a crash, and that the benchmark refuses to run without the package sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few small tasks and one period."""
    monkeypatch.chdir(ROOT)
    for var in run.BLAS_THREAD_VARS:  # restored afterwards; run.main pins them
        monkeypatch.setenv(var, "1")
    monkeypatch.delenv("SPINWEHRL_TOL", raising=False)
    monkeypatch.setattr(run, "SETUP_ROUNDS", 1)
    monkeypatch.setattr(workloads, "HAAR_BATCH", {1: 1, 2: 2})
    monkeypatch.setattr(workloads, "FIGURE_SAMPLES", 2)
    monkeypatch.setattr(workloads, "MIXED_PROJECTION", ((2, 20),))
    monkeypatch.setattr(workloads, "PRIMAL_DUAL", ((1, 1), (2, 2)))
    monkeypatch.setattr(workloads, "SCAN_TWICE_L", 1)
    monkeypatch.setattr(workloads, "MAJORIZE_GRID", [(2, 1, 1)])
    monkeypatch.setattr(workloads, "MAJORIZE_SAMPLES", 2)
    monkeypatch.setattr(workloads, "DECOMPOSE_GRID", [(2, 1, 1)])
    monkeypatch.setattr(workloads, "TRACE_PERIODS", dict.fromkeys(workloads.WORKLOADS, 1))


def run_tiny(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(SPEC["paths"]) == {BENCH.name}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_emitted_with_unit(tiny, capsys, workload, trace):
    result = run_tiny(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
        assert trace or metric["value"] > 0


def test_wrong_reference_raises_fail_ratio(tiny, capsys, monkeypatch):
    monkeypatch.setattr(workloads, "coherent_wehrl", lambda twice_l: twice_l / (twice_l + 1.0) + 1e-3)
    result = run_tiny(capsys, "wehrl-haar")
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]


def test_raising_task_counts_as_failed(tiny, capsys, monkeypatch):
    def broken(sw, argv):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads, "run_cli", broken)
    result = run_tiny(capsys, "scan-wehrl")
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "wehrl-haar",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
