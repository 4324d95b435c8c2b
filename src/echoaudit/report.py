"""Plot-ready analysis artifacts: histograms, density grids, echo diagnostics.

Everything here is a pure transformation of scores, graphs and engagement
records into binned count data plus JSON metadata; no images are rendered.
All outputs are deterministic given inputs and flags, and every grid or
histogram conserves mass (counted-in plus skipped equals the population).
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from itertools import repeat
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .dip import dip_statistic
from .engagement import ACTIONS, OriginalsTable
from .graph import RetweetGraph
from .ideology import IdeologyScores
from .blocks import write_columns
from .ingest import tally, write_json

log = logging.getLogger(__name__)

DEFAULT_GRID_BINS = 100
DEFAULT_HIST_BINS = 50
DEFAULT_TOP_INFLUENCERS = 10
DEFAULT_MIN_SHARES = 2

__all__ = [
    "DensityGrid",
    "HistogramSeries",
    "dip_statistic",
    "dip_threshold",
    "neighbor_opinion_grid",
    "ideology_histograms",
    "leaning_ideology_distributions",
    "ae_followers_density",
    "write_grid",
    "write_histogram",
]


@dataclass(frozen=True)
class DensityGrid:
    x_edges: np.ndarray
    y_edges: np.ndarray
    counts: np.ndarray          # int64, shape (len(x_edges)-1, len(y_edges)-1)
    x_label: str
    y_label: str
    meta: dict = field(default_factory=dict)

    @property
    def log_density(self) -> np.ndarray:
        """log10(count + 1): finite everywhere, monotone in the raw counts."""
        return np.log10(self.counts.astype(np.float64) + 1.0)

    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class HistogramSeries:
    bin_edges: np.ndarray
    series: dict[str, np.ndarray]       # name -> int64 counts
    meta: dict = field(default_factory=dict)


def dip_threshold(n: int, alpha: float = 0.01) -> float:
    """Critical dip value for rejecting unimodality at the given level.

    Values come from the bundled Monte Carlo table (uniform null); between
    grid sizes the sqrt(n)-scaled threshold is interpolated in log n, and
    sizes outside the grid use sqrt(n) scaling from the nearest entry.
    """
    text = (
        resources.files("echoaudit.data")
        .joinpath("dip_thresholds.json")
        .read_text(encoding="utf-8")
    )
    table = json.loads(text)
    key = str(alpha)
    if key not in {str(a) for a in table["alphas"]}:
        raise ValueError(f"no thresholds for alpha={alpha}; have {table['alphas']}")
    grid = sorted(int(k) for k in table["thresholds"])
    scaled = {m: table["thresholds"][str(m)][key] * math.sqrt(m) for m in grid}
    if n <= grid[0]:
        return scaled[grid[0]] / math.sqrt(n)
    if n >= grid[-1]:
        return scaled[grid[-1]] / math.sqrt(n)
    for a, b in zip(grid, grid[1:]):
        if a <= n <= b:
            frac = (math.log(n) - math.log(a)) / (math.log(b) - math.log(a))
            value = scaled[a] + frac * (scaled[b] - scaled[a])
            return value / math.sqrt(n)
    raise AssertionError("unreachable")


def _edges(lo: float, hi: float, bins: int) -> np.ndarray:
    if not (hi > lo):
        lo, hi = lo - 0.5, hi + 0.5
    return np.linspace(lo, hi, bins + 1)


def _scatter(g: RetweetGraph, ids: Sequence[str], values: np.ndarray,
             score: np.ndarray, has_score: np.ndarray) -> np.ndarray:
    """Set ``score`` and ``has_score`` at the node of each id in ``g``;
    return the node of each id, -1 for one not in ``g``."""
    nodes = np.fromiter(map(g.index.get, ids, repeat(-1)), dtype=np.int64, count=len(ids))
    found = nodes >= 0
    score[nodes[found]] = values[found]
    has_score[nodes[found]] = True
    return nodes


def neighbor_opinion_grid(
    scores: IdeologyScores,
    g: RetweetGraph,
    bins: int = DEFAULT_GRID_BINS,
    use_in_neighbors: bool = False,
    stats: Optional[Counter] = None,
) -> DensityGrid:
    """Own score vs edge-weighted mean score of retweeted accounts.

    One point per scored non-influencer user with at least one scored
    neighbor; neighbors are out-neighbors by default (the accounts the user
    retweeted — the endorsement direction), switchable to in-neighbors.
    Binned on [-1, 1]^2.  The share of mass in the two sign-agreeing
    quadrants lands in ``meta["diagonal_mass_share"]``.

    The per-user sums run over the edge arrays with ``np.bincount``, which
    adds each user's edges in (src, dst) order, so the means are
    bit-identical to a per-user loop over its neighbors in id order.
    """
    if stats is None:
        stats = Counter()

    x_edges = _edges(-1.0, 1.0, bins)
    y_edges = _edges(-1.0, 1.0, bins)

    # Score per node plus a mask, so a NaN score still counts as scored;
    # an id scored as both kinds takes its influencer score.
    score = np.zeros(g.n_nodes, dtype=np.float64)
    has_score = np.zeros(g.n_nodes, dtype=bool)
    user_nodes = _scatter(g, scores.user_ids, scores.user_score, score, has_score)
    _scatter(g, scores.influencer_ids, scores.influencer_score, score, has_score)

    owner = np.repeat(np.arange(g.n_nodes), np.diff(g.out_indptr))
    neigh, weights = g.out_targets, g.out_weights
    if use_in_neighbors:
        owner, neigh = neigh, owner
    keep = has_score[neigh]
    owner, neigh, weights = owner[keep], neigh[keep], weights[keep]
    with np.errstate(invalid="ignore"):
        acc = np.bincount(owner, weights=weights * score[neigh], minlength=g.n_nodes)
    total_w = np.bincount(owner, weights=weights, minlength=g.n_nodes)

    excluded = np.fromiter(map(set(scores.influencer_ids).__contains__, scores.user_ids),
                           dtype=bool, count=len(scores.user_ids))
    nodes, own = user_nodes[~excluded], scores.user_score[~excluded]
    in_graph = nodes >= 0
    nodes, own = nodes[in_graph], own[in_graph]
    binned = total_w[nodes] != 0.0
    nodes, own = nodes[binned], own[binned]
    with np.errstate(invalid="ignore"):
        mean_neighbor = acc[nodes] / total_w[nodes]

    # The top edge closes the last bin; values outside [-1, 1] clip to the ends.
    xi = np.clip(np.searchsorted(x_edges, own, side="right") - 1, 0, bins - 1)
    yi = np.clip(np.searchsorted(y_edges, mean_neighbor, side="right") - 1, 0, bins - 1)
    counts = np.bincount(xi * bins + yi, minlength=bins * bins)
    counts = counts.reshape(bins, bins).astype(np.int64, copy=False)

    for key, n in (
        ("influencers_excluded", int(np.count_nonzero(excluded))),
        ("scored_user_not_in_graph", int(np.count_nonzero(~in_graph))),
        ("users_without_scored_neighbors", int(np.count_nonzero(~binned))),
        ("users_binned", int(nodes.size)),
    ):
        if n:
            stats[key] += n

    centers_x = (x_edges[:-1] + x_edges[1:]) / 2.0
    centers_y = (y_edges[:-1] + y_edges[1:]) / 2.0
    same_sign = np.add.outer(np.sign(centers_x), np.sign(centers_y))
    diag_mass = int(counts[np.abs(same_sign) == 2].sum())
    total = int(counts.sum())
    share = diag_mass / total if total else math.nan

    return DensityGrid(
        x_edges=x_edges,
        y_edges=y_edges,
        counts=counts,
        x_label="user_score",
        y_label="mean_neighbor_score",
        meta={
            "diagonal_mass_share": share,
            "neighbor_direction": "in" if use_in_neighbors else "out",
            "skipped": {k: stats[k] for k in sorted(stats) if k != "users_binned"},
        },
    )


def ideology_histograms(
    scores: IdeologyScores,
    bins: int = DEFAULT_HIST_BINS,
    g: Optional[RetweetGraph] = None,
    top_k: int = DEFAULT_TOP_INFLUENCERS,
) -> HistogramSeries:
    """User and influencer score histograms on shared [-1, 1] edges.

    When a graph is supplied, a histogram of the user scores of each
    influencer's distinct retweeters (itself included, if it retweeted
    itself) is added for the ``top_k`` influencers in the graph by unique
    in-degree, ties by id, as series named ``retweeters:<influencer id>``.
    The user series' dip statistic is
    recorded in the metadata for the bimodality check.
    """
    edges = _edges(-1.0, 1.0, bins)
    user_vals = np.sort(scores.user_score, kind="stable")
    infl_vals = np.sort(scores.influencer_score, kind="stable")
    series = {
        "users": np.histogram(user_vals, bins=edges)[0].astype(np.int64),
        "influencers": np.histogram(infl_vals, bins=edges)[0].astype(np.int64),
    }
    meta = {
        "n_users": int(user_vals.size),
        "n_influencers": int(infl_vals.size),
        "user_dip": dip_statistic(user_vals),
    }

    if g is not None and top_k > 0:
        user_score = np.zeros(g.n_nodes, dtype=np.float64)
        is_user = np.zeros(g.n_nodes, dtype=bool)
        _scatter(g, scores.user_ids, scores.user_score, user_score, is_user)
        ranked = sorted(
            (cid for cid in scores.influencer_ids if cid in g),
            key=lambda cid: (-int(g.unique_in_degree[g.index_of(cid)]), cid),
        )
        for cid in ranked[:top_k]:
            # The source of each edge into cid: the slice that holds it.
            into = np.flatnonzero(g.out_targets == g.index_of(cid))
            sources = np.searchsorted(g.out_indptr, into, side="right") - 1
            series[f"retweeters:{cid}"] = np.histogram(
                user_score[sources[is_user[sources]]], bins=edges
            )[0].astype(np.int64)

    return HistogramSeries(bin_edges=edges, series=series, meta=meta)


def leaning_ideology_distributions(
    scores: IdeologyScores,
    class_counts: Mapping[str, Mapping[str, int]],
    min_shares: int = DEFAULT_MIN_SHARES,
    bins: int = DEFAULT_HIST_BINS,
) -> dict[str, HistogramSeries]:
    """Score histograms per leaning class of repeatedly shared domains.

    An account joins a class when it shared that class of domains at least
    ``min_shares`` times; accounts may appear in several classes.  Users and
    influencers form separate series on shared edges.
    """
    edges = _edges(-1.0, 1.0, bins)
    influencer_score = dict(zip(scores.influencer_ids, scores.influencer_score.tolist()))
    user_score = dict(zip(scores.user_ids, scores.user_score.tolist()))
    out: dict[str, HistogramSeries] = {}
    members: dict[str, tuple[list[float], list[float]]] = {}
    for account, counts in class_counts.items():
        for label, n in counts.items():
            if n < min_shares:
                continue
            users, infl = members.setdefault(label, ([], []))
            if account in influencer_score:
                infl.append(influencer_score[account])
            elif account in user_score:
                users.append(user_score[account])
    for label in sorted(members):
        users, infl = members[label]
        out[label] = HistogramSeries(
            bin_edges=edges,
            series={
                "users": np.histogram(np.asarray(sorted(users)), bins=edges)[0].astype(np.int64),
                "influencers": np.histogram(np.asarray(sorted(infl)), bins=edges)[0].astype(np.int64),
            },
            meta={
                "leaning_class": label,
                "min_shares": min_shares,
                "n_users": len(users),
                "n_influencers": len(infl),
                "user_median": float(np.median(users)) if users else math.nan,
            },
        )
    return out


def ae_followers_density(
    originals: OriginalsTable,
    bins: int = DEFAULT_GRID_BINS,
    stats: Optional[Counter] = None,
) -> dict[str, DensityGrid]:
    """Per-action grids over (log10 followers, log10 AE) for original tweets.

    Log axes need positive values, so only tweets with followers > 0,
    impressions > 0 and a nonzero count of the action under study enter the
    grid for that action; exclusions are counted per reason.  The logarithms
    are ``math.log10``, whose rounding the grid edges depend on.
    """
    if stats is None:
        stats = Counter()
    impressions = originals.impressions
    followers = originals.followers
    zero_impressions = impressions == 0
    zero_followers = ~zero_impressions & (followers <= 0)
    usable = ~zero_impressions & ~zero_followers
    out: dict[str, DensityGrid] = {}
    for action in ACTIONS:
        counts = originals.action_counts(action)
        keep = usable & (counts > 0)
        for reason, mask in (("zero_impressions", zero_impressions),
                             ("zero_followers", zero_followers),
                             ("zero_actions", usable & ~keep)):
            tally(stats, f"{action}:{reason}", int(np.count_nonzero(mask)))
        xs = list(map(math.log10, followers[keep].tolist()))
        ys = list(map(math.log10, (counts[keep] / impressions[keep]).tolist()))
        if xs:
            x_edges = _edges(min(xs), max(xs), bins)
            y_edges = _edges(min(ys), max(ys), bins)
            grid, _, _ = np.histogram2d(xs, ys, bins=(x_edges, y_edges))
        else:
            x_edges = _edges(0.0, 1.0, bins)
            y_edges = _edges(0.0, 1.0, bins)
            grid = np.zeros((bins, bins))
        out[action] = DensityGrid(
            x_edges=x_edges,
            y_edges=y_edges,
            counts=grid.astype(np.int64),
            x_label="log10_followers",
            y_label=f"log10_ae_{action}",
            meta={
                "action": action,
                "n_tweets": len(xs),
                "skipped": {
                    k.split(":", 1)[1]: stats[k]
                    for k in sorted(stats)
                    if k.startswith(f"{action}:")
                },
            },
        )
    return out


def write_grid(grid: DensityGrid, csv_path: str | Path, sidecar_path: str | Path) -> None:
    """Long-form CSV ``x_bin,y_bin,count,log_density`` plus a JSON sidecar."""
    x_bin, y_bin = np.indices(grid.counts.shape)
    write_columns(csv_path, ("x_bin", "y_bin", "count", "log_density"),
                  [x_bin.ravel(), y_bin.ravel(), grid.counts.ravel(), grid.log_density.ravel()])
    write_json(sidecar_path, {
        "x_label": grid.x_label,
        "y_label": grid.y_label,
        "x_edges": grid.x_edges.tolist(),
        "y_edges": grid.y_edges.tolist(),
        "total_count": grid.total(),
        "meta": grid.meta,
    })


def write_histogram(hist: HistogramSeries, path: str | Path) -> None:
    """CSV ``bin_left,bin_right,series,count`` with series in sorted order."""
    edges = hist.bin_edges.tolist()
    names = sorted(hist.series)
    write_columns(path, ("bin_left", "bin_right", "series", "count"), [
        edges[:-1] * len(names), edges[1:] * len(names),
        [name for name in names for _ in edges[1:]],
        [count for name in names for count in hist.series[name].tolist()]])
