"""Smoke tests of the scripts under ``tools/``."""

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
