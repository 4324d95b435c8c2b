"""Per-record fills of the originals table and the retweet counts.

These are the original ``OriginalsTable.add`` and ``RetweetCounts.add`` and
``add_edge``: each appends one record, or one edge, to the columns that the
production ``extend_columns`` and ``add_edges`` fill a run at a time.  As
there, each table reads only the records of its own kinds.  Only the
equivalence properties use them; every other test fills its tables through
the column path (``_tables``).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Optional

from echoaudit import mediabias as mb
from echoaudit.engagement import OriginalsTable
from echoaudit.graph import RetweetCounts
from echoaudit.ingest import KINDS_FOR_ENGAGEMENT, KINDS_FOR_NETWORK, TweetRecord


def add_original(table: OriginalsTable, rec: TweetRecord) -> None:
    vocab = table._tweet_vocab
    table._tweet.append(vocab.setdefault(rec.tweet_id, len(vocab)))
    vocab = table._author_vocab
    table._author.append(vocab.setdefault(rec.author_id, len(vocab)))
    table._impressions.append(rec.impressions)
    table._followers.append(rec.author_followers)
    actions = table._actions
    actions["retweet"].append(rec.retweets)
    actions["reply"].append(rec.replies)
    actions["like"].append(rec.likes)
    actions["quote"].append(rec.quotes)
    if table.domains is not None:
        for url in rec.urls:
            code = table._domain_code.get(mb.extract_domain(url))
            if code is None:
                table.unmatched_urls += 1
            else:
                table._url_domains.append(code)
    table._indptr.append(len(table._url_domains))


def originals_by_record(
    records: Iterable[TweetRecord],
    domains: Optional[Mapping[str, mb.DomainProfile]] = None,
) -> OriginalsTable:
    table = OriginalsTable(domains)
    for rec in records:
        if rec.kind in KINDS_FOR_ENGAGEMENT:
            add_original(table, rec)
    return table


def add_edge(counts: RetweetCounts, src: str, dst: str) -> None:
    """Add a retweet of ``dst`` by ``src``."""
    vocab = counts._vocab
    counts._src.append(vocab.setdefault(src, len(vocab)))
    counts._dst.append(vocab.setdefault(dst, len(vocab)))


def add_retweet(counts: RetweetCounts, rec: TweetRecord) -> None:
    if rec.kind not in KINDS_FOR_NETWORK:
        return
    if not rec.retweeted_author_id:
        counts.skipped["missing_retweeted_author"] += 1
    else:
        add_edge(counts, rec.author_id, rec.retweeted_author_id)


def counts_by_record(records: Iterable[TweetRecord],
                     skipped: Optional[Counter] = None) -> RetweetCounts:
    counts = RetweetCounts(skipped)
    for rec in records:
        add_retweet(counts, rec)
    return counts
