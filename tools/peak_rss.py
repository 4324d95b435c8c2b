#!/usr/bin/env python3
"""Compare the wall time and peak RSS of one echoaudit command on two trees.

Runs ``python -m echoaudit.cli ARGS`` with each tree's ``src/`` on
``PYTHONPATH``, ``--runs`` times per tree, alternating which tree runs first
in each round, and prints each tree's median wall time and median peak RSS.
The peak RSS is ``ru_maxrss`` from ``wait4``: the largest of the command's
process and every child it reaped.

In ARGS, ``{out}`` stands for a fresh directory under ``--work``.  Its name
differs on every run, so no run can reuse another's output, and a peak that
moves with the name of the output directory (it can, by a MB or so) is
spread over every run instead of sitting on one tree.  Each run's directory
is removed once the run is measured, so a large corpus needs room for one
output tree at a time::

    python tools/peak_rss.py --tree ../parent --tree . --runs 3 --work /tmp/w \\
        -- engagement --input filtered.jsonl --out-dir {out}

Only the standard library is used.  Exit status 1 means a run failed; its
stderr is printed.
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(tree: Path, args: list[str], out: Path) -> tuple[float, float]:
    """Run the command once on ``tree``; returns (wall s, peak RSS MB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "echoaudit.cli",
            *(arg.replace("{out}", str(out)) for arg in args)]
    started = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          env=env) as proc:
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        # Reaped here, so Popen does not wait for it again.
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.buffer.write(stderr)
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, action="append", required=True,
                        help="a source tree holding src/echoaudit; give two")
    parser.add_argument("--runs", type=int, default=3, help="runs per tree")
    parser.add_argument("--work", type=Path, required=True,
                        help="directory for the runs' output directories")
    parser.add_argument("args", nargs=argparse.REMAINDER,
                        help="the echoaudit arguments, after --")
    opts = parser.parse_args(argv)
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
    if len(opts.tree) != 2 or not args or opts.runs < 1:
        parser.error("give two --tree, --runs of at least 1, and the command")
    trees = [tree.resolve() for tree in opts.tree]
    results: list[list[tuple[float, float]]] = [[], []]
    for k in range(opts.runs):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        for side in order:
            out = opts.work / f"run{k}-tree{side}"
            results[side].append(run_once(trees[side], args, out))
            shutil.rmtree(out, ignore_errors=True)
    for tree, runs in zip(trees, results):
        walls, peaks = zip(*runs)
        print(f"{tree}: median wall {statistics.median(walls):.3f} s, "
              f"median peak RSS {statistics.median(peaks):.1f} MB "
              f"(peaks {', '.join(f'{p:.1f}' for p in peaks)})")


if __name__ == "__main__":
    main()
