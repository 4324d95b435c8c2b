"""Compare two sets of benchmark records written by ``run.py``.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are record files or directories of them (``perfbench/.results``
of two checkouts, say).  For every workload and metric it prints each side's
median and quartiles, the change of the median, and for end-to-end metrics
whether the change stays within the bound fixed in ``BENCHMARK.json``.
Artifact digests that differ between the sides are reported, not gated.

Records measured with different kernel backends are not comparable: the
script refuses them and exits with status 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(arg: str) -> list[dict]:
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text(encoding="utf-8")) for f in files]
    return [r for r in records if "environment" in r]


def spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load(argv[0]), load(argv[1])
    if not base or not head:
        print("error: no benchmark records found", file=sys.stderr)
        return 2
    backends = {r["environment"]["kernel_backend"] for r in base + head}
    if len(backends) != 1:
        print(f"error: records use different kernel backends {sorted(map(str, backends))}; "
              "refusing to compare", file=sys.stderr)
        return 2

    bounds = {}
    if SPEC.is_file():
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
        bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

    values = defaultdict(lambda: ([], []))
    digests = defaultdict(lambda: (set(), set()))
    for side, records in enumerate((base, head)):
        for r in records:
            seed = r["environment"]["seed"]
            digests[(r["workload"], seed)][side].add(r["artifact_sha256"])
            for name, m in r["metrics"].items():
                values[(r["workload"], name, m["unit"])][side].append(m["value"])

    worse = 0
    print("workload metric unit: base q1/median/q3 (n) -> head q1/median/q3 (n), change")
    for (workload, name, unit), (b, h) in sorted(values.items()):
        if not b or not h:
            continue
        bq, hq = spread(b), spread(h)
        change = (hq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        line = (f"{workload} {name} {unit}: {bq[0]:.6g}/{bq[1]:.6g}/{bq[2]:.6g} ({len(b)})"
                f" -> {hq[0]:.6g}/{hq[1]:.6g}/{hq[2]:.6g} ({len(h)}), {change:+.2%}")
        if name in bounds:
            bound, better = bounds[name]
            regress = change > bound if better == "lower" else change < -bound
            worse += regress
            line += f" [{'WORSE than' if regress else 'within'} bound {bound:.0%}]"
        print(line)
    for (workload, seed), (b, h) in sorted(digests.items()):
        if b and h and b != h:
            print(f"{workload} seed {seed}: artifact digest changed "
                  f"{sorted(d[:12] for d in b)} -> {sorted(d[:12] for d in h)}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
