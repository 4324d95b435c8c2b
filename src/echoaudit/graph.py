"""Weighted directed retweet network and influencer selection.

An edge ``A -> B`` means user A retweeted content authored by B; its weight is
the number of such retweet records.  Node indexing is deterministic (sorted by
user id) so repeated runs over the same corpus produce identical graphs.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import EmptySelectionError, InputError
from .ingest import TweetRecord, open_maybe_gzip, read_table, write_table

log = logging.getLogger(__name__)

DEFAULT_MIN_UNIQUE_IN_DEGREE = 100

EDGE_LIST_HEADER = ("src", "dst", "weight")


@dataclass(frozen=True)
class RetweetGraph:
    """Immutable weighted digraph in compressed sparse form.

    Adjacency is stored keyed by destination (the dominant query is "who
    retweeted user j") with a transposed copy keyed by source for neighbor
    lookups.  ``unique_in_degree`` counts distinct retweeters per node; by
    construction it may include or exclude self-loops (see ``build_graph``).
    """

    node_ids: tuple[str, ...]                # sorted user ids; index = position
    in_indptr: np.ndarray                    # int64, per-destination slices
    in_sources: np.ndarray                   # int64, source index per in-edge
    in_weights: np.ndarray                   # int64, retweet multiplicity
    out_indptr: np.ndarray                   # int64, per-source slices
    out_targets: np.ndarray                  # int64, destination index per out-edge
    out_weights: np.ndarray                  # int64
    unique_in_degree: np.ndarray             # int64 per node
    counts_self_loops: bool
    index: dict[str, int] = field(compare=False, repr=False)  # id -> position

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return int(self.in_sources.shape[0])

    def index_of(self, user_id: str) -> int:
        return self.index[user_id]

    def __contains__(self, user_id: str) -> bool:
        return user_id in self.index

    def in_edges(self, node_index: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.in_indptr[node_index], self.in_indptr[node_index + 1]
        return self.in_sources[lo:hi], self.in_weights[lo:hi]

    def out_edges(self, node_index: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.out_indptr[node_index], self.out_indptr[node_index + 1]
        return self.out_targets[lo:hi], self.out_weights[lo:hi]

    def edge_list(self) -> Iterable[tuple[str, str, int]]:
        """Yield ``(src_id, dst_id, weight)`` sorted by (src, dst)."""
        for src in range(self.n_nodes):
            dsts, ws = self.out_edges(src)
            for dst, w in zip(dsts.tolist(), ws.tolist()):
                yield self.node_ids[src], self.node_ids[dst], w


@dataclass(frozen=True)
class InfluencerSet:
    members: tuple[str, ...]                 # rank order
    seed_source: str
    min_unique_in_degree: int

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


class RetweetCounts:
    """Retweet multiplicity per (retweeter, author) pair, one record at a time.

    Records are added one by one, so the counts can be gathered while another
    consumer streams the same records; ``graph`` assembles them.  Records
    that are not retweets, or lack a target, are skipped and counted in
    ``skipped``.
    """

    def __init__(self, skipped: Optional[Counter] = None):
        self.weights: dict[tuple[str, str], int] = {}
        self.skipped = Counter() if skipped is None else skipped

    def add(self, rec: TweetRecord) -> None:
        if rec.kind != "retweet":
            self.skipped["not_a_retweet"] += 1
        elif not rec.retweeted_author_id:
            self.skipped["missing_retweeted_author"] += 1
        else:
            key = (rec.author_id, rec.retweeted_author_id)
            self.weights[key] = self.weights.get(key, 0) + 1

    def graph(self, count_self_loops: bool = False) -> RetweetGraph:
        return _assemble(self.weights, count_self_loops)


def build_graph(
    records: Iterable[TweetRecord],
    skipped: Optional[Counter] = None,
    count_self_loops: bool = False,
) -> RetweetGraph:
    """Fold a retweet-record stream into the weighted digraph.

    Nodes are all retweeting users plus all retweeted authors.  Retweet
    records lacking a target are skipped and counted.  Self-loops are kept as
    edges; by default they do not contribute to ``unique_in_degree``.
    """
    counts = RetweetCounts(skipped)
    add = counts.add
    for rec in records:
        add(rec)
    return counts.graph(count_self_loops)


def _assemble(
    weights: dict[tuple[str, str], int], count_self_loops: bool
) -> RetweetGraph:
    node_set: set[str] = set()
    for src, dst in weights:
        node_set.add(src)
        node_set.add(dst)
    node_ids = tuple(sorted(node_set))
    index = {uid: i for i, uid in enumerate(node_ids)}
    n = len(node_ids)
    m = len(weights)

    src_idx = np.empty(m, dtype=np.int64)
    dst_idx = np.empty(m, dtype=np.int64)
    w = np.empty(m, dtype=np.int64)
    for k, ((s, d), wt) in enumerate(weights.items()):
        src_idx[k] = index[s]
        dst_idx[k] = index[d]
        w[k] = wt

    # Destination-major order (ties by source) for the in-adjacency.
    order_in = np.lexsort((src_idx, dst_idx))
    in_sources = src_idx[order_in]
    in_weights = w[order_in]
    in_indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(in_indptr, dst_idx + 1, 1)
    np.cumsum(in_indptr, out=in_indptr)

    order_out = np.lexsort((dst_idx, src_idx))
    out_targets = dst_idx[order_out]
    out_weights = w[order_out]
    out_indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(out_indptr, src_idx + 1, 1)
    np.cumsum(out_indptr, out=out_indptr)

    dst_per_in_edge = np.repeat(np.arange(n), np.diff(in_indptr))
    if count_self_loops:
        keep = np.ones(m, dtype=bool)
    else:
        keep = in_sources != dst_per_in_edge
    uid_counts = np.zeros(n, dtype=np.int64)
    np.add.at(uid_counts, dst_per_in_edge[keep], 1)

    return RetweetGraph(
        node_ids=node_ids,
        in_indptr=in_indptr,
        in_sources=in_sources,
        in_weights=in_weights,
        out_indptr=out_indptr,
        out_targets=out_targets,
        out_weights=out_weights,
        unique_in_degree=uid_counts,
        counts_self_loops=count_self_loops,
        index=index,
    )


def rank_by_in_degree(g: RetweetGraph) -> list[tuple[str, int]]:
    """All nodes, descending by unique in-degree, ties broken by user id.

    Node indices follow sorted user id, so a stable sort on degree alone
    breaks ties by id.
    """
    order = np.argsort(-g.unique_in_degree, kind="stable")
    return [(g.node_ids[i], int(d))
            for i, d in zip(order.tolist(), g.unique_in_degree[order].tolist())]


def select_influencers(
    g: RetweetGraph,
    seeds: Sequence[str],
    threshold: int = DEFAULT_MIN_UNIQUE_IN_DEGREE,
    seed_source: str = "<memory>",
) -> InfluencerSet:
    """Filter seed accounts by unique in-degree and order them by rank.

    Seeds absent from the graph are reported, not fatal; an empty result is
    fatal because the ideology stage cannot run without columns.
    """
    seed_set = set(seeds)
    missing = sorted(s for s in seed_set if s not in g)
    for s in missing:
        log.warning("influencer seed %r not present in graph", s)

    members = [
        uid for uid, deg in rank_by_in_degree(g)
        if uid in seed_set and deg >= threshold
    ]
    below = len(seed_set) - len(missing) - len(members)
    if below:
        log.info("%d seed(s) below the in-degree threshold %d", below, threshold)
    if not members:
        raise EmptySelectionError(
            f"no seed from {seed_source} has unique in-degree >= {threshold}; "
            "ideology estimation cannot run"
        )
    return InfluencerSet(
        members=tuple(members),
        seed_source=str(seed_source),
        min_unique_in_degree=threshold,
    )


def read_seeds(path: str | Path) -> list[str]:
    """Read one user id per line; blank lines and ``#`` comments ignored."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"seed file not found: {path}")
    out = []
    with open_maybe_gzip(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(line)
    return out


def write_edge_list(g: RetweetGraph, path: str | Path) -> None:
    write_table(path, EDGE_LIST_HEADER, g.edge_list())


def read_edge_list(path: str | Path, count_self_loops: bool = False) -> RetweetGraph:
    """Rebuild a graph from a ``src,dst,weight`` CSV export."""
    weights: dict[tuple[str, str], int] = {}
    for lineno, (src, dst, w) in read_table(path, EDGE_LIST_HEADER, "edge list"):
        # A retweet count: plain ASCII digits, at least 1.
        if not (w.isascii() and w.isdigit()) or (wt := int(w)) < 1:
            raise InputError(
                f"{path}:{lineno}: weight {w!r} is not an integer >= 1"
            )
        weights[(src, dst)] = weights.get((src, dst), 0) + wt
    return _assemble(weights, count_self_loops)
