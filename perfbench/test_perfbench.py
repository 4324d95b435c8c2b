"""Self-tests of the benchmark at tiny scale.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = {"count", "flop", "B"}


def bench(workload: str, seed: int, trace: int, root: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300,
    )
    return done


def result(workload: str, seed: int, trace: int) -> dict:
    done = bench(workload, seed, trace)
    assert done.returncode == 0, done.stderr.decode()[-2000:]
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced runs per workload with the same seed."""
    return {w: [result(w, 5, 1) for _ in range(2)] for w in WORKLOADS}


def assert_metrics(res: dict, spec: list[dict]) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_checks(workload, seed):
    res = result(workload, seed, 0)
    assert_metrics(res, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(traced, workload):
    first, second = traced[workload]
    for res in (first, second):
        assert_metrics(res, SPEC["per_layer"])
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] in COUNT_UNITS} for r in (first, second)]
    assert counts[0] == counts[1]


def test_layer_counts_follow_the_workload(traced):
    pipeline = traced["pipeline-polarized"][0]["metrics"]
    assert pipeline["ingest.parse_passes"]["value"] == 4
    assert pipeline["ideology.iterations"]["value"] > 0
    assert pipeline["graph.index_of_calls"]["value"] > 0
    calibration = traced["calibration-engagement"][0]["metrics"]
    for name, m in calibration.items():
        if name.split(".")[0] in ("graph", "ideology", "mediabias", "report") \
                and m["unit"] in COUNT_UNITS:
            assert m["value"] == 0, name


def test_rationale_covers_every_metric():
    rationale = json.loads((BENCH / "rationale.json").read_text(encoding="utf-8"))
    listed = [n for layer in rationale["layers"].values() for n in layer["metrics"]]
    assert sorted(listed) == sorted(m["name"] for m in SPEC["per_layer"])
    assert set(rationale["workloads"]) == set(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".results", "__pycache__"))
    done = bench(WORKLOADS[0], 1, 0, root=tmp_path)
    assert done.returncode != 0
    assert b'"metrics"' not in done.stdout


def test_compare_refuses_mixed_backends(tmp_path):
    for side, backend in (("a", "fallback"), ("b", "compiled")):
        (tmp_path / side).mkdir()
        record = {"workload": "w", "environment": {"kernel_backend": backend,
                                                   "seed": 1},
                  "artifact_sha256": "0", "metrics": {}}
        (tmp_path / side / "r.json").write_text(json.dumps(record))
    done = subprocess.run([sys.executable, str(BENCH / "compare.py"),
                           str(tmp_path / "a"), str(tmp_path / "b")],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert done.returncode == 2
    assert b"refusing" in done.stderr
