"""Smoke test of the benchmark at tiny sizes, on the code of this checkout:

    python3 -m pytest bench -q

Every workload makes two passes untraced, and two traced. The test checks that
every metric named in BENCHMARK.json is printed with its unit, that every
wrapped public function was found, that the output checks and determinism
checks pass, and that the benchmark refuses to run without package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, Sizes, batches  # noqa: E402

TINY = Sizes(flow_budget=60, panel=1, screen_coupled=40, screen_vco=30, screen_batch=20, screen_checked=2)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_metrics_and_checks(workload, trace):
    result, detail = run.bench(workload, 1, 0.0, trace, TINY, setup_reps=1, min_passes=2, min_rounds=2)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["errors"]
    ops = len(batches(TINY)) if workload == "screen" else TINY.panel
    # two passes, and with tracing two traced passes besides
    assert result["attempted"] == 2 * ops * (1 + trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert detail["absent"] == []
    if trace:
        metrics = {n: m["value"] for n, m in result["metrics"].items()}
        assert metrics["behavior.calls"] > 0 and metrics["optimizer.evaluate_record.calls"] > 0
        # spans cover the traced run, apart from the benchmark's own timing code
        assert 0 <= metrics["bench.unattributed_s"] < 0.05 * metrics["bench.traced_run_s"]
        if workload == "screen":
            assert metrics["surrogate.update.calls"] == 0
        else:
            assert metrics["optimizer.step.calls"] > 0 and metrics["surrogate.update.calls"] > 0


def test_benchmark_json_matches_the_script():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "codesign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
