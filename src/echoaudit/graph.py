"""Weighted directed retweet network and influencer selection.

An edge ``A -> B`` means user A retweeted content authored by B; its weight is
the number of such retweet records.  Node indexing is deterministic (sorted by
user id as Python strings, see :func:`ingest.sorted_codes`) so repeated runs
over the same corpus produce identical graphs.
"""

from __future__ import annotations

import io
import logging
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import EmptySelectionError, InputError
from .blocks import CorpusColumns, read_table, tally_rows
from .ingest import (KINDS, MAX_COUNT, TweetRecord, intern_ids, open_atomic, open_maybe_gzip,
                     sorted_codes)

log = logging.getLogger(__name__)

DEFAULT_MIN_UNIQUE_IN_DEGREE = 100

EDGE_LIST_HEADER = ("src", "dst", "weight")


class WeightOverflowError(InputError):
    """The summed weight of one (src, dst) pair is above ``MAX_COUNT``."""

    def __init__(self, src: str, dst: str):
        super().__init__(f"summed weight of {src},{dst} is above {MAX_COUNT}")
        self.pair = (src, dst)


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


class RetweetCounts:
    """Retweet multiplicity per (retweeter, author) pair.

    Ids are interned in first-seen order; each edge is appended as (source
    code, target code, weight) to int64 columns, and ``graph`` sums repeated
    pairs.  Records that are not retweets, or lack a target, are skipped and
    counted in ``skipped``.  Records are added a run of columns at a time
    (:meth:`extend_columns`), edges a batch at a time (:meth:`add_edges`).
    """

    def __init__(self, skipped: Optional[Counter] = None):
        self._vocab: dict[str, int] = {}
        self._src, self._dst, self._weight = array("q"), array("q"), array("q")
        self.skipped = Counter() if skipped is None else skipped

    @classmethod
    def from_columns(cls, runs: Iterable[CorpusColumns]) -> "RetweetCounts":
        counts = cls()
        for run in runs:
            counts.extend_columns(run)
        return counts

    def extend_columns(self, run: CorpusColumns) -> None:
        """Add the edge of each retweet in ``run`` that has a target, and
        count every other record in ``skipped``."""
        retweet = run.kind == KINDS.index("retweet")
        target = np.fromiter(map(bool, run.retweeted_author_id), bool, len(run))
        tally_rows(self.skipped, not_a_retweet=~retweet,
                   missing_retweeted_author=retweet & ~target)
        edges = (retweet & target).tolist()
        self.add_edges(compress(run.author_id, edges),
                       compress(run.retweeted_author_id, edges))

    def add_edges(self, src: Iterable[str], dst: Iterable[str],
                  weights: Optional[np.ndarray] = None) -> None:
        """Add ``weight`` (at most ``MAX_COUNT``) retweets of ``dst`` by
        ``src`` for each ``(src, dst, weight)``, in order; every weight is 1
        without ``weights``."""
        codes = intern_ids(self._vocab, list(chain.from_iterable(zip(src, dst))))
        self._src.frombytes(codes[0::2].tobytes())
        self._dst.frombytes(codes[1::2].tobytes())
        if weights is None:
            weights = np.ones(len(codes) // 2, dtype=np.int64)
        self._weight.frombytes(weights.astype(np.int64, copy=False).tobytes())

    def extend(self, other: "RetweetCounts") -> None:
        """Append ``other``'s edges and skip counts, as if each of its records
        were added here after this one's own."""
        codes = intern_ids(self._vocab, other._vocab)
        for column, theirs in ((self._src, other._src), (self._dst, other._dst)):
            column.frombytes(codes[np.frombuffer(theirs, dtype=np.int64)].tobytes())
        self._weight.extend(other._weight)
        self.skipped.update(other.skipped)

    def graph(self, count_self_loops: bool = False) -> RetweetGraph:
        """The graph so far; a pair summing above ``MAX_COUNT`` raises
        :class:`WeightOverflowError`."""
        node_ids, rank = sorted_codes(self._vocab)
        n = len(node_ids)
        src, dst, w = (np.frombuffer(c, dtype=np.int64)
                       for c in (self._src, self._dst, self._weight))
        # Sorted keys run in (src, dst) order: the out-adjacency.
        keys, pair = np.unique(rank[src] * n + rank[dst], return_inverse=True)
        # Each weight, and each partial sum up to MAX_COUNT, is an exact
        # float64; a sum beyond it rounds to at least 2**53.
        sums = np.bincount(pair, weights=w, minlength=len(keys))
        out_sources, out_targets = np.divmod(keys, n)
        if len(keys) and sums.max() > MAX_COUNT:
            k = sums.argmax()
            raise WeightOverflowError(node_ids[out_sources[k]], node_ids[out_targets[k]])
        out_weights = sums.astype(np.int64)
        # A stable sort by dst of (src, dst) order gives (dst, src) order.
        order_in = np.argsort(out_targets, kind="stable")
        in_indptr, out_indptr = (
            np.concatenate(([0], np.bincount(heads, minlength=n).cumsum()))
            for heads in (out_targets, out_sources))
        retweeters = out_targets[(out_sources != out_targets) | count_self_loops]
        return RetweetGraph(
            node_ids=tuple(node_ids),
            in_indptr=in_indptr,
            in_sources=out_sources[order_in],
            in_weights=out_weights[order_in],
            out_indptr=out_indptr,
            out_targets=out_targets,
            out_weights=out_weights,
            unique_in_degree=np.bincount(retweeters, minlength=n),
            counts_self_loops=count_self_loops,
            index={uid: i for i, uid in enumerate(node_ids)},
        )


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
    # Per record for the tests' reference; perfbench/tracer.py wraps it by name.
    counts = RetweetCounts(skipped)
    counts.extend_columns(CorpusColumns.of_records(list(records)))
    return counts.graph(count_self_loops)


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
) -> tuple[str, ...]:
    """Filter seed accounts by unique in-degree and return them in rank order.

    Seeds absent from the graph are reported, not fatal; an empty result is
    fatal because the ideology stage cannot run without columns.
    """
    seed_set = set(seeds)
    missing = sorted(s for s in seed_set if s not in g)
    for s in missing:
        log.warning("influencer seed %r not present in graph", s)

    members = tuple(
        uid for uid, deg in rank_by_in_degree(g)
        if uid in seed_set and deg >= threshold
    )
    below = len(seed_set) - len(missing) - len(members)
    if below:
        log.info("%d seed(s) below the in-degree threshold %d", below, threshold)
    if not members:
        raise EmptySelectionError(
            f"no seed from {seed_source} has unique in-degree >= {threshold}; "
            "ideology estimation cannot run"
        )
    return members


def read_seeds(path: str | Path) -> list[str]:
    """Read one user id per line; blank lines and ``#`` comments ignored."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"seed file not found: {path}")
    with open_maybe_gzip(path) as fh:
        return [line for line in map(str.strip, fh) if line and not line.startswith("#")]


# Edges formatted at a time by write_edge_list.
_WRITE_CHUNK = 8192


def write_edge_list(g: RetweetGraph, out: str | Path | io.TextIOBase) -> None:
    """The ``src,dst,weight`` CSV of the edges in (src, dst) order, the bytes
    :func:`~echoaudit.ingest.write_table` writes for those rows.

    ``out`` is a path, written all at once, or a text file opened with
    ``newline=""``.  The rows are formatted a chunk of the out-CSR columns at
    a time rather than one generated edge at a time, which takes about a
    third as long.
    """
    if isinstance(out, (str, Path)):
        with open_atomic(out, newline="") as fh:
            return write_edge_list(g, fh)
    out.write(",".join(EDGE_LIST_HEADER) + "\n")
    ids = g.node_ids
    sources = np.repeat(np.arange(g.n_nodes), np.diff(g.out_indptr))
    for lo in range(0, len(sources), _WRITE_CHUNK):
        hi = lo + _WRITE_CHUNK
        out.write("".join([f"{src},{dst},{w}\n" for src, dst, w in zip(
            map(ids.__getitem__, sources[lo:hi].tolist()),
            map(ids.__getitem__, g.out_targets[lo:hi].tolist()),
            g.out_weights[lo:hi].tolist())]))


# The text of a retweet count that read_edge_list accepts: 1 to 16 ASCII
# digits.
_WEIGHT = re.compile("[0-9]{1,16}")


def read_edge_list(path: str | Path, count_self_loops: bool = False) -> RetweetGraph:
    """Rebuild a graph from a ``src,dst,weight`` CSV export; rows of one
    pair add up, and neither a row nor a sum may exceed ``MAX_COUNT``."""
    counts = RetweetCounts()
    for lineno, (src, dst, w) in read_table(path, EDGE_LIST_HEADER, "edge list"):
        digits = "".join(w)
        ok = digits.isascii() and digits.isdigit() and "" not in w and max(map(len, w)) <= 16
        weights = (np.fromstring(",".join(w), dtype=np.int64, sep=",") if ok
                   else np.array([int(x) if _WEIGHT.fullmatch(x) else 0 for x in w]))
        bad = np.flatnonzero((weights < 1) | (weights > MAX_COUNT))
        if bad.size:
            raise InputError(f"{path}:{lineno + bad[0]}: weight {w[bad[0]]!r} is not an "
                             f"integer in [1, {MAX_COUNT}]")
        counts.add_edges(src, dst, weights)
    try:
        return counts.graph(count_self_loops)
    except WeightOverflowError as exc:
        # Read the pair's rows again to name the one that passed the bound.
        total = 0
        for lineno, columns in read_table(path, EDGE_LIST_HEADER, "edge list"):
            for k, (src, dst, w) in enumerate(zip(*columns)):
                if (src, dst) == exc.pair and (total := total + int(w)) > MAX_COUNT:
                    raise InputError(f"{path}:{lineno + k}: {exc}") from None
        raise
