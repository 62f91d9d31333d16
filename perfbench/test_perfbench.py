"""Tests of the benchmark itself, at the small workload size.

    python3 -m pytest perfbench

Each workload is run once untraced and twice traced with one seed. The
traced runs must give outputs bit-identical to the untraced passes (the
run reports ``correct`` only then), repeat every per-layer count exactly,
and report the tracing overhead.
"""

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, TRACE_METRICS, WORKLOADS, tail_percentile  # noqa: E402
from spans import COUNTS, PER_LAYER  # noqa: E402

SEED = 5
#: workloads that run by name but are not listed in BENCHMARK.json (README.md says why)
UNLISTED = ("fit_free", "map_extract")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@lru_cache(maxsize=None)
def run_small(workload: str, trace: int, repeat: int = 0) -> tuple[dict, dict]:
    """(report line, result line) of a one-second run at the small size."""
    proc = _run(ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
                "--trace", str(trace), "--size", "small")
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report), json.loads(result)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    report, result = run_small(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["fail_ratio"] == 0.0
    assert report["environment"]["nproc"] >= 1 and report["seed"] == SEED


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_match_untraced_and_overhead_is_reported(workload):
    report, result = run_small(workload, 1)
    # a traced pass whose output digest differs from the untraced pass counts as failed
    assert result["correct"] is True and result["failed"] == 0
    assert report["passes"]["traced"] >= 2 and report["passes"]["untraced"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {**PER_LAYER, **TRACE_METRICS}
    assert "trace.overhead_s" in result["metrics"]
    assert report["counts_repeat"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat_across_traced_runs(workload):
    _, first = run_small(workload, 1)
    _, second = run_small(workload, 1, repeat=1)
    assert {c: first["metrics"][c]["value"] for c in COUNTS} == {c: second["metrics"][c]["value"] for c in COUNTS}


def test_each_workload_exercises_its_layers():
    calls = {w: run_small(w, 1)[1]["metrics"] for w in WORKLOADS}
    assert calls["fit_free"]["fitstack.fd_eval_share"]["value"] > 0.8
    assert calls["select_fixed"]["potentials.fourier_u.calls"]["value"] == 1
    assert calls["select_fixed"]["fitstack.least_squares.budget_exhausted"]["value"] >= 1
    assert calls["map_extract"]["fitstack.least_squares.calls"]["value"] == 0
    assert calls["map_extract"]["fitstack.extract.kept"]["value"] > 0
    assert calls["cli_batch"]["analysis.gate_sweep_regimes.calls"]["value"] == 1
    assert calls["cli_batch"]["cli.io.bytes"]["value"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == [w for w in WORKLOADS if w not in UNLISTED]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {**PER_LAYER, **TRACE_METRICS}
    setup_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound for m in bench["end_to_end"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "map_extract", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile(list(range(1, 21))) == (50.0, 10)
    assert tail_percentile(list(range(1, 101))) == (90.0, 90)
