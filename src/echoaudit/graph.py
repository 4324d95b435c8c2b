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
from typing import Iterable, NoReturn, Optional, Sequence

import numpy as np

from .errors import EmptySelectionError, InputError
from .blocks import Codes, CorpusColumns, read_table, tally_rows, write_columns
from .ingest import (KINDS, KINDS_FOR_NETWORK, MAX_COUNT, TweetRecord, intern_ids,
                     open_maybe_gzip, sorted_codes)

log = logging.getLogger(__name__)

DEFAULT_MIN_UNIQUE_IN_DEGREE = 100

EDGE_LIST_HEADER = ("src", "dst", "weight")

# Whether records of each kind are retweet edges, by kind code.
_RETWEET = np.array([kind in KINDS_FOR_NETWORK for kind in KINDS])


@dataclass(frozen=True)
class RetweetGraph:
    """Immutable weighted digraph in compressed sparse row form.

    Each edge is stored once, keyed by source in (src, dst) order: the
    edges of node i are ``out_targets`` and ``out_weights`` from
    ``out_indptr[i]`` to ``out_indptr[i + 1]``.  The edges into a node are
    those whose target it is, and they come in ascending source order.
    ``unique_in_degree`` counts distinct retweeters per node; by
    construction it may include or exclude self-loops (see ``build_graph``).
    """

    node_ids: tuple[str, ...]                # sorted user ids; index = position
    out_indptr: np.ndarray                   # int64, per-source slices
    out_targets: np.ndarray                  # int64, destination index per edge
    out_weights: np.ndarray                  # int64, retweet multiplicity
    unique_in_degree: np.ndarray             # int64 per node
    index: dict[str, int] = field(compare=False, repr=False)  # id -> position

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return int(self.out_targets.shape[0])

    def index_of(self, user_id: str) -> int:
        return self.index[user_id]

    def __contains__(self, user_id: str) -> bool:
        return user_id in self.index


def _assemble(node_ids: Sequence[str], keys: np.ndarray, weights: np.ndarray,
              count_self_loops: bool) -> RetweetGraph:
    """The graph on ``node_ids`` whose edges are ``keys``, each
    ``src * n + dst`` by position in ``node_ids``, sorted and unique, with
    ``weights`` retweets each."""
    n = len(node_ids)
    sources, targets = np.divmod(keys, n)
    retweeters = targets[(sources != targets) | count_self_loops]
    return RetweetGraph(
        node_ids=tuple(node_ids),
        out_indptr=np.concatenate(([0], np.bincount(sources, minlength=n).cumsum())),
        out_targets=targets,
        out_weights=weights,
        unique_in_degree=np.bincount(retweeters, minlength=n),
        index=dict(zip(node_ids, range(n))),
    )


class RetweetCounts:
    """The (retweeter, author) pair of every retweet so far.

    Ids are interned in first-seen order and each edge is appended as a
    (source code, target code) pair to int64 columns; ``graph`` weighs each
    pair by the number of times it came.  Retweets that lack a target are
    skipped and counted in ``skipped``; records of other kinds are not read.
    Records are added a run of columns at a time (:meth:`extend_columns`).
    """

    def __init__(self, skipped: Optional[Counter] = None):
        self._vocab: dict[str, int] = {}
        self._src, self._dst = array("q"), array("q")
        self.skipped = Counter() if skipped is None else skipped

    @classmethod
    def from_columns(cls, runs: Iterable[CorpusColumns]) -> "RetweetCounts":
        counts = cls()
        for run in runs:
            counts.extend_columns(run)
        return counts

    def extend_columns(self, run: CorpusColumns) -> None:
        """Add the edge of each retweet in ``run`` that has a target, and
        count every other retweet in ``skipped``."""
        retweet = _RETWEET[run.kind]
        target = np.fromiter(map(bool, run.retweeted_author_id), bool, len(run))
        tally_rows(self.skipped, missing_retweeted_author=retweet & ~target)
        edges = (retweet & target).tolist()
        self.add_edges(compress(run.author_id, edges),
                       compress(run.retweeted_author_id, edges))

    def add_edges(self, src: Iterable[str], dst: Iterable[str]) -> None:
        """Add an edge from ``src`` to ``dst`` for each pair, in order."""
        codes = intern_ids(self._vocab, list(chain.from_iterable(zip(src, dst))))
        self._src.frombytes(codes[0::2].tobytes())
        self._dst.frombytes(codes[1::2].tobytes())

    def extend(self, other: "RetweetCounts") -> None:
        """Append ``other``'s edges and skip counts, as if each of its records
        were added here after this one's own."""
        codes = intern_ids(self._vocab, other._vocab)
        for column, theirs in ((self._src, other._src), (self._dst, other._dst)):
            column.frombytes(codes[np.frombuffer(theirs, dtype=np.int64)].tobytes())
        self.skipped.update(other.skipped)

    def _keys(self) -> tuple[list[str], np.ndarray]:
        """The ids in sorted order, and the key ``src * n + dst`` of each
        edge so far by position in them, in the order the edges came."""
        node_ids, rank = sorted_codes(self._vocab)
        src, dst = (rank[np.frombuffer(c, dtype=np.int64)] for c in (self._src, self._dst))
        return node_ids, src * len(node_ids) + dst

    def graph(self, count_self_loops: bool = False) -> RetweetGraph:
        """The graph so far."""
        node_ids, keys = self._keys()
        # Sorted keys run in (src, dst) order; a pair weighs its run length.
        keys, weights = np.unique(keys, return_counts=True)
        return _assemble(node_ids, keys, weights, count_self_loops)


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


def rank_by_in_degree(g: RetweetGraph) -> np.ndarray:
    """The node indices by descending unique in-degree, ties broken by id.

    Node indices follow sorted user id, so a stable sort on degree alone
    breaks ties by id.
    """
    return np.argsort(-g.unique_in_degree, kind="stable")


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

    order = rank_by_in_degree(g)
    ranked = order[g.unique_in_degree[order] >= threshold].tolist()
    members = tuple(uid for uid in map(g.node_ids.__getitem__, ranked) if uid in seed_set)
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


def write_edge_list(g: RetweetGraph, out: str | Path | io.TextIOBase) -> None:
    """The ``src,dst,weight`` CSV of the edges in (src, dst) order, to
    ``out`` as :func:`~echoaudit.blocks.write_columns` writes it."""
    sources = np.repeat(np.arange(g.n_nodes), np.diff(g.out_indptr))
    write_columns(out, EDGE_LIST_HEADER, [Codes(g.node_ids, sources),
                                          Codes(g.node_ids, g.out_targets), g.out_weights])


# The text of a retweet count that read_edge_list accepts: 1 to 16 ASCII
# digits.
_WEIGHT = re.compile("[0-9]{1,16}")


def read_edge_list(path: str | Path, count_self_loops: bool = False) -> RetweetGraph:
    """Rebuild a graph from a ``src,dst,weight`` CSV export: each weight an
    integer in [1, ``MAX_COUNT``] and each (src, dst) pair on one row, as
    :func:`write_edge_list` writes them, in any order."""
    edges, weights = RetweetCounts(), array("q")
    try:
        for _, (src, dst, w) in read_table(path, EDGE_LIST_HEADER, "edge list"):
            digits = "".join(w)
            if not (digits.isascii() and digits.isdigit() and "" not in w
                    and max(map(len, w)) <= 16):
                break
            block = np.fromstring(",".join(w), dtype=np.int64, sep=",")
            if ((block < 1) | (block > MAX_COUNT)).any():
                break
            edges.add_edges(src, dst)
            weights.frombytes(block.tobytes())
        else:
            node_ids, keys = edges._keys()
            # Stable, so linear on the (src, dst) order that graph writes.
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            if (np.diff(keys) > 0).all():
                return _assemble(node_ids, keys, np.frombuffer(weights, dtype=np.int64)[order],
                                 count_self_loops)
    except InputError:
        pass  # read again below, so that an earlier repeated pair comes first
    _raise_first_bad_edge(path)


def _raise_first_bad_edge(path: str | Path) -> NoReturn:
    """Read ``path`` again and raise the error of its first row that breaks
    a rule of :func:`read_edge_list`: its weight, or a pair that came
    before; or the error that the table itself raises first."""
    seen = set()
    for first, columns in read_table(path, EDGE_LIST_HEADER, "edge list"):
        for lineno, (src, dst, w) in enumerate(zip(*columns), start=first):
            if not (_WEIGHT.fullmatch(w) and 1 <= int(w) <= MAX_COUNT):
                raise InputError(f"{path}:{lineno}: weight {w!r} is not an integer "
                                 f"in [1, {MAX_COUNT}]")
            if (src, dst) in seen:
                raise InputError(f"{path}:{lineno}: repeated edge {src},{dst}")
            seen.add((src, dst))
    raise InputError(f"{path}: changed while it was read")
