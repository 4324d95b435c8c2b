"""Tables and corpus lines built through the package's column path, one
call per test case."""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from echoaudit import ingest as ing
from echoaudit import mediabias as mb
from echoaudit.blocks import CorpusColumns
from echoaudit.engagement import OriginalsTable
from echoaudit.graph import RetweetCounts


def originals_table(
    records: Sequence[ing.TweetRecord],
    domains: Optional[Mapping[str, mb.DomainProfile]] = None,
) -> OriginalsTable:
    """The table of ``records``, filled as one run of columns."""
    return OriginalsTable.from_columns([CorpusColumns.of_records(list(records))], domains)


def edge_counts(edges: Iterable[tuple[str, str, int]]) -> RetweetCounts:
    """The counts of ``(src, dst, weight)`` triples, added as one batch."""
    edges = list(edges)
    counts = RetweetCounts()
    counts.add_edges([src for src, _, _ in edges], [dst for _, dst, _ in edges],
                     np.array([w for _, _, w in edges], dtype=np.int64))
    return counts


def flat_line(tweet_id, author_id, created_at, lang, kind, retweeted_author_id,
              impressions, likes, replies, retweets, quotes, urls,
              author_followers) -> str:
    """The ``flat`` line of one record, newline included; ``created_at`` is
    the already formatted timestamp."""
    return ing.flat_lines((created_at,), ((
        tweet_id, author_id, lang, kind, retweeted_author_id, impressions, likes,
        replies, retweets, quotes, urls, author_followers),))
