"""Smoke tests of the scripts under ``tools/`` and of the benchmark's
tracer against ``src/``."""

import json
import os
import re
import subprocess
import sys

from conftest import FIXTURES, ROOT


def test_peak_rss_runs_each_tree_once_in_its_own_directory(tmp_path):
    """One run per tree, each writing to its own ``{out}``, which is removed
    once measured."""
    work = tmp_path / "work"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "peak_rss.py"), "--tree", str(ROOT),
         "--tree", str(ROOT), "--runs", "1", "--work", str(work), "--",
         "engagement", "--input", str(FIXTURES / "mini_corpus.jsonl"),
         "--domains", str(FIXTURES / "mini_domains.csv"), "--out-dir", "{out}"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert re.fullmatch(rf"{re.escape(str(ROOT))}: median wall \d+\.\d{{3}} s, "
                            r"median peak RSS \d+\.\d MB \(peaks \d+\.\d\)", line), line
    assert sorted(p.name for p in tmp_path.iterdir()) == ["work"]
    assert list(work.iterdir()) == []


def test_benchmark_tracer_runs_against_src(tmp_path):
    """``perfbench/tracer.py`` wraps functions of ``src/`` by name, and the
    benchmark imports ``echoaudit.kernels`` at cold start: removing any of
    those names fails every workload of the benchmark."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cold = subprocess.run(
        [sys.executable, "-c", "import echoaudit.cli, echoaudit.kernels"],
        capture_output=True, text=True, env=env, timeout=60)
    assert cold.returncode == 0, cold.stderr
    spans = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), "t", "--",
         "pipeline", "--preset", "mini", "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    names = {s["name"] for s in json.loads(spans.read_text())["spans"]}
    assert "cli.pipeline" in names
