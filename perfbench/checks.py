"""Output checks applied to every timed run of the benchmark.

The thresholds are the acceptance thresholds of ``tests/test_acceptance.py``
(criteria 3, 4 and 7), applied to the artifacts the CLI wrote rather than to
in-process results.  Each check returns ``(name, ok, detail)``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import defaultdict
from pathlib import Path

SIGN_AGREEMENT_MIN = 0.95
DIAGONAL_MASS_MIN = 0.90
MEAN_AE_REL_TOL = 0.05
LOG_PEARSON_ABS_TOL = 0.02


def _user_scores(scores_csv: Path) -> dict[str, float]:
    with open(scores_csv, encoding="utf-8", newline="") as fh:
        return {row["id"]: float(row["score"]) for row in csv.DictReader(fh)
                if row["kind"] == "user"}


def polarized(truth_json: Path, scores_csv: Path, meta_json: Path,
              report_dir: Path) -> list[tuple[str, bool, str]]:
    """Community recovery, echo-chamber share and grid mass conservation."""
    community = json.loads(truth_json.read_text(encoding="utf-8"))["community"]
    anchor = json.loads(meta_json.read_text(encoding="utf-8"))["anchor_id"]
    negative_side = community[anchor]
    users = _user_scores(scores_csv)
    known = [(uid, s) for uid, s in users.items() if uid in community]
    agree = sum(1 for uid, s in known if (s < 0) == (community[uid] == negative_side))
    share = agree / len(known) if known else 0.0

    summary = json.loads((report_dir / "summary.json").read_text(encoding="utf-8"))
    grid = json.loads((report_dir / "neighbor_grid.json").read_text(encoding="utf-8"))
    diagonal = summary["diagonal_mass_share"]
    skipped = sum(grid["meta"]["skipped"].values())
    binned = grid["total_count"]
    return [
        ("sign_agreement", share >= SIGN_AGREEMENT_MIN,
         f"{share:.4f} over {len(known)} users (>= {SIGN_AGREEMENT_MIN})"),
        ("diagonal_mass_share", diagonal >= DIAGONAL_MASS_MIN,
         f"{diagonal:.4f} (>= {DIAGONAL_MASS_MIN})"),
        ("grid_mass_conserved", binned + skipped == len(users),
         f"{binned} binned + {skipped} skipped vs {len(users)} users"),
    ]


def calibration(truth_json: Path, engagement_dir: Path) -> list[tuple[str, bool, str]]:
    """Table-1 reproduction: tweet-level mean AE and log-log Pearson r."""
    truth = json.loads(truth_json.read_text(encoding="utf-8"))
    targets_ae = truth["target_ae_by_group"]["all"]
    targets_r = truth["target_log_pearson"]

    sums: dict[str, float] = defaultdict(float)
    n: dict[str, int] = defaultdict(int)
    with open(engagement_dir / "ae_tweet.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            sums[row["action"]] += float(row["ae"])
            n[row["action"]] += 1
    with open(engagement_dir / "correlations.csv", encoding="utf-8", newline="") as fh:
        pearson = {row["action"]: float(row["pearson_r"]) for row in csv.DictReader(fh)}

    out = []
    for action in sorted(targets_ae):
        mean = sums[action] / n[action] if n[action] else math.nan
        rel = abs(mean - targets_ae[action]) / targets_ae[action]
        out.append((f"mean_ae_{action}", rel <= MEAN_AE_REL_TOL,
                    f"{mean:.6f} vs {targets_ae[action]} ({rel:.2%}, <= 5%)"))
        err = abs(pearson.get(action, math.nan) - targets_r[action])
        out.append((f"log_pearson_{action}", err <= LOG_PEARSON_ABS_TOL,
                    f"{pearson.get(action)} vs {targets_r[action]} "
                    f"(|d| {err:.4f}, <= {LOG_PEARSON_ABS_TOL})"))
    return out


def tree_digest(root: Path) -> str:
    """sha256 over the sorted relative paths and bytes of a directory tree."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix().encode()
        data = path.read_bytes()
        h.update(len(rel).to_bytes(8, "big") + rel)
        h.update(len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
