"""Tables, graphs and corpus lines built through the package's own paths,
one call per test case."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from echoaudit import ingest as ing
from echoaudit import mediabias as mb
from echoaudit.blocks import CorpusColumns
from echoaudit.engagement import OriginalsTable
from echoaudit.graph import RetweetGraph, _assemble


def originals_table(
    records: Sequence[ing.TweetRecord],
    domains: Optional[Mapping[str, mb.DomainProfile]] = None,
) -> OriginalsTable:
    """The table of ``records``, filled as one run of columns."""
    return OriginalsTable.from_columns([CorpusColumns.of_records(list(records))], domains)


def edge_graph(edges: Iterable[tuple[str, str, int]],
               count_self_loops: bool = False) -> RetweetGraph:
    """The graph of ``(src, dst, weight)`` triples, the weights of a repeated
    pair summed, put together by the assembly that ``read_edge_list`` uses."""
    weights = Counter()
    for src, dst, w in edges:
        weights[src, dst] += w
    node_ids = sorted({uid for pair in weights for uid in pair})
    index = {uid: i for i, uid in enumerate(node_ids)}
    pairs = sorted(weights)
    keys = [index[src] * len(node_ids) + index[dst] for src, dst in pairs]
    return _assemble(node_ids, np.array(keys, dtype=np.int64),
                     np.array([weights[pair] for pair in pairs], dtype=np.int64),
                     count_self_loops)


def flat_line(tweet_id, author_id, created_at, lang, kind, retweeted_author_id,
              impressions, likes, replies, retweets, quotes, urls,
              author_followers) -> str:
    """The ``flat`` line of one record, newline included; ``created_at`` is
    the already formatted timestamp."""
    return ing.flat_lines((created_at,), ((
        tweet_id, author_id, lang, kind, retweeted_author_id, impressions, likes,
        replies, retweets, quotes, urls, author_followers),))
