"""Per-user loop oracle for the echo-chamber neighbour-opinion grid.

This is the original, one-user-at-a-time form of
``report.neighbor_opinion_grid``: for every scored user it looks the node up
by id, walks its neighbours in id order (out-neighbours from its adjacency
slice, in-neighbours from a map of each id's retweeters) and accumulates
the edge-weighted neighbour mean in Python floats.  The production function
computes the same sums with array operations; tests compare the two on
counts, metadata and the skip counter.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional

import numpy as np

from echoaudit.graph import RetweetGraph
from echoaudit.ideology import IdeologyScores
from echoaudit.report import DensityGrid

from _matrix_helpers import edge_list, influencer_scores, out_edges, user_scores


def _edges(lo: float, hi: float, bins: int) -> np.ndarray:
    if not (hi > lo):
        lo, hi = lo - 0.5, hi + 0.5
    return np.linspace(lo, hi, bins + 1)


def _bin_index(edges: np.ndarray, value: float) -> int:
    """Index of the bin containing value; the top edge closes the last bin."""
    idx = int(np.searchsorted(edges, value, side="right")) - 1
    return min(max(idx, 0), len(edges) - 2)


def loop_neighbor_opinion_grid(
    scores: IdeologyScores,
    g: RetweetGraph,
    bins: int = 100,
    use_in_neighbors: bool = False,
    stats: Optional[Counter] = None,
) -> DensityGrid:
    if stats is None:
        stats = Counter()
    users = user_scores(scores)
    neighbor_score = dict(users)
    neighbor_score.update(influencer_scores(scores))

    x_edges = _edges(-1.0, 1.0, bins)
    y_edges = _edges(-1.0, 1.0, bins)
    counts = np.zeros((bins, bins), dtype=np.int64)

    # Each node's retweeters with their weights, in ascending id order.
    retweeters: dict[str, list[tuple[str, int]]] = {}
    for src, dst, w in edge_list(g):
        retweeters.setdefault(dst, []).append((src, w))

    influencer_ids = set(scores.influencer_ids)
    for uid, own in users.items():
        if uid in influencer_ids:
            stats["influencers_excluded"] += 1
            continue
        try:
            node = g.index_of(uid)
        except KeyError:
            stats["scored_user_not_in_graph"] += 1
            continue
        if use_in_neighbors:
            neighbors = retweeters.get(uid, [])
        else:
            neigh, weights = out_edges(g, node)
            neighbors = zip(map(g.node_ids.__getitem__, neigh.tolist()), weights.tolist())
        total_w = 0.0
        acc = 0.0
        for nb, w in neighbors:
            ns = neighbor_score.get(nb)
            if ns is None:
                continue
            acc += w * ns
            total_w += w
        if total_w == 0.0:
            stats["users_without_scored_neighbors"] += 1
            continue
        mean_neighbor = acc / total_w
        counts[_bin_index(x_edges, own), _bin_index(y_edges, mean_neighbor)] += 1
        stats["users_binned"] += 1

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
