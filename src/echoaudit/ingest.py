"""Corpus ingestion: parse newline-delimited tweet records and filter them.

Two record layouts are understood (selected by a schema id):

``flat``
    One JSON object per line using this package's field names directly:
    ``tweet_id, author_id, created_at, lang, kind, retweeted_author_id,
    impressions, likes, replies, retweets, quotes, urls, author_followers``.

``api``
    A raw-API-shaped dump: ``id``/``author_id``/``created_at``/``lang`` at the
    top level, counters under ``public_metrics``, the record kind derived from
    ``referenced_tweets[0].type``, shared links under ``entities.urls`` and
    follower counts under ``author.public_metrics.followers_count``.

Malformed lines never abort a run; they are skipped and counted by reason.
Files ending in ``.gz`` are transparently decompressed.
"""

from __future__ import annotations

import gzip
import io
import json
import logging
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .errors import InputError

log = logging.getLogger(__name__)

KINDS = ("original", "retweet", "quote", "reply")

# Cutoff below which per-tweet impression counts do not exist on the platform.
IMPRESSIONS_AVAILABLE_FROM = datetime(2022, 12, 15, tzinfo=timezone.utc)

_COUNT_FIELDS = ("impressions", "likes", "replies", "retweets", "quotes")


@dataclass(slots=True)
class TweetRecord:
    tweet_id: str
    author_id: str
    created_at: datetime
    lang: str
    kind: str
    retweeted_author_id: Optional[str]
    impressions: int
    likes: int
    replies: int
    retweets: int
    quotes: int
    urls: list[str]
    author_followers: int

    @property
    def is_self_retweet(self) -> bool:
        return (
            self.kind in ("retweet", "quote")
            and self.retweeted_author_id == self.author_id
        )


@dataclass(frozen=True)
class CorpusFilter:
    """Date/language filter plus the per-analysis record-kind subsets."""

    min_date: datetime = IMPRESSIONS_AVAILABLE_FROM
    allowed_langs: frozenset[str] = frozenset({"en"})
    kinds_for_engagement: frozenset[str] = frozenset({"original"})
    kinds_for_network: frozenset[str] = frozenset({"retweet"})


def parse_timestamp(value: str, diagnostics: Optional[Counter] = None) -> datetime:
    """Parse an ISO-8601 timestamp as UTC.

    A trailing ``Z`` is accepted; naive timestamps are assumed UTC and tallied
    in ``diagnostics`` so data-quality reports can surface them.
    """
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        if diagnostics is not None:
            diagnostics["naive_timestamp_assumed_utc"] += 1
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def format_timestamp(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _require_str(obj: dict, key: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise ValueError(f"missing_{key}")
    return value


def _require_count(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"bad_count_{name}")
    if value < 0:
        raise ValueError(f"negative_count_{name}")
    return value


def _record_from_flat(obj: dict, diagnostics: Counter) -> TweetRecord:
    kind = _require_str(obj, "kind")
    if kind not in KINDS:
        raise ValueError("unknown_kind")
    urls = obj.get("urls", [])
    if not isinstance(urls, list) or any(not isinstance(u, str) for u in urls):
        raise ValueError("bad_urls")
    retweeted = obj.get("retweeted_author_id")
    if retweeted is not None and not isinstance(retweeted, str):
        raise ValueError("bad_retweeted_author_id")
    counts = {f: _require_count(obj.get(f, 0), f) for f in _COUNT_FIELDS}
    return TweetRecord(
        tweet_id=_require_str(obj, "tweet_id"),
        author_id=_require_str(obj, "author_id"),
        created_at=parse_timestamp(_require_str(obj, "created_at"), diagnostics),
        lang=_require_str(obj, "lang").lower(),
        kind=kind,
        retweeted_author_id=retweeted,
        urls=list(urls),
        author_followers=_require_count(obj.get("author_followers", 0), "author_followers"),
        **counts,
    )


_API_KIND_MAP = {"retweeted": "retweet", "quoted": "quote", "replied_to": "reply"}


def _record_from_api(obj: dict, diagnostics: Counter) -> TweetRecord:
    kind = "original"
    retweeted = None
    refs = obj.get("referenced_tweets") or []
    if refs:
        ref = refs[0]
        kind = _API_KIND_MAP.get(ref.get("type"))
        if kind is None:
            raise ValueError("unknown_kind")
        retweeted = ref.get("author_id")
        if retweeted is not None and not isinstance(retweeted, str):
            raise ValueError("bad_retweeted_author_id")
    metrics = obj.get("public_metrics") or {}
    urls = [
        u.get("expanded_url") or u.get("url")
        for u in (obj.get("entities") or {}).get("urls", [])
    ]
    if any(not isinstance(u, str) for u in urls):
        raise ValueError("bad_urls")
    followers = ((obj.get("author") or {}).get("public_metrics") or {}).get(
        "followers_count", 0
    )
    return TweetRecord(
        tweet_id=_require_str(obj, "id"),
        author_id=_require_str(obj, "author_id"),
        created_at=parse_timestamp(_require_str(obj, "created_at"), diagnostics),
        lang=_require_str(obj, "lang").lower(),
        kind=kind,
        retweeted_author_id=retweeted,
        impressions=_require_count(metrics.get("impression_count", 0), "impressions"),
        likes=_require_count(metrics.get("like_count", 0), "likes"),
        replies=_require_count(metrics.get("reply_count", 0), "replies"),
        retweets=_require_count(metrics.get("retweet_count", 0), "retweets"),
        quotes=_require_count(metrics.get("quote_count", 0), "quotes"),
        urls=urls,
        author_followers=_require_count(followers, "author_followers"),
    )


_SCHEMAS = {"flat": _record_from_flat, "api": _record_from_api}


def record_to_flat_dict(rec: TweetRecord) -> dict:
    return {
        "tweet_id": rec.tweet_id,
        "author_id": rec.author_id,
        "created_at": format_timestamp(rec.created_at),
        "lang": rec.lang,
        "kind": rec.kind,
        "retweeted_author_id": rec.retweeted_author_id,
        "impressions": rec.impressions,
        "likes": rec.likes,
        "replies": rec.replies,
        "retweets": rec.retweets,
        "quotes": rec.quotes,
        "urls": list(rec.urls),
        "author_followers": rec.author_followers,
    }


@contextmanager
def open_maybe_gzip(
    path: str | Path, mode: str = "rt", newline: Optional[str] = None
) -> Iterator[io.TextIOBase]:
    """Open a UTF-8 text file, through gzip if its name ends in ``.gz``.

    While reading, bytes that do not decode or gzip data that does not
    decompress raise :class:`InputError` naming the file (and the first bad
    line) from anywhere inside the ``with`` block.
    """
    path = Path(path)
    if path.suffix == ".gz":
        fh = gzip.open(path, mode, encoding="utf-8", newline=newline)
    else:
        fh = open(path, mode, encoding="utf-8", newline=newline)
    with fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise InputError(f"{path}:{_first_undecodable_line(path)}: "
                             "not valid UTF-8") from None
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise InputError(f"{path}: corrupt gzip data: {exc}") from None


def _first_undecodable_line(path: Path) -> int:
    """Number of the first line that is not UTF-8, counting lines as text mode does."""
    lineno = 0
    with gzip.open(path, "rb") if path.suffix == ".gz" else open(path, "rb") as fh:
        for chunk in fh:
            # Binary iteration splits only at b"\n"; text mode also ends a
            # line at a lone b"\r", as splitlines() does.
            for line in chunk.splitlines():
                lineno += 1
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError:
                    return lineno
    return lineno


def parse_corpus(
    path: str | Path,
    schema: str = "flat",
    rejects: Optional[Counter] = None,
) -> Iterator[TweetRecord]:
    """Stream syntactically valid records from a newline-delimited file.

    ``rejects`` (a ``Counter``) is filled with per-reason skip counts as the
    stream is consumed.  An unreadable file raises :class:`InputError`; a
    malformed line is skipped, never fatal.  Output order follows input order.
    """
    if schema not in _SCHEMAS:
        raise InputError(f"unknown schema id: {schema!r}")
    build = _SCHEMAS[schema]
    if rejects is None:
        rejects = Counter()
    path = Path(path)
    if not path.is_file():
        raise InputError(f"corpus file not found: {path}")

    def _stream() -> Iterator[TweetRecord]:
        with open_maybe_gzip(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    rejects["invalid_json"] += 1
                    log.debug("%s:%d: invalid JSON", path, lineno)
                    continue
                if not isinstance(obj, dict):
                    rejects["not_an_object"] += 1
                    continue
                try:
                    rec = build(obj, rejects)
                except ValueError as exc:
                    rejects[str(exc)] += 1
                    log.debug("%s:%d: %s", path, lineno, exc)
                    continue
                if rec.is_self_retweet:
                    rejects["self_retweet_kept"] += 1
                if rec.kind in ("retweet", "quote") and rec.retweeted_author_id is None:
                    # Tolerated here; the graph stage skips and counts these.
                    rejects["retweet_missing_target_kept"] += 1
                yield rec

    return _stream()


def apply_filters(
    records: Iterable[TweetRecord],
    corpus_filter: CorpusFilter = CorpusFilter(),
    exclusions: Optional[Counter] = None,
) -> Iterator[TweetRecord]:
    """Keep records with ``created_at >= min_date`` and an allowed language.

    Exclusion counts are tallied per reason (a record failing both checks is
    counted once, under the date reason).  Filtering is total and idempotent.
    """
    if exclusions is None:
        exclusions = Counter()
    for rec in records:
        if rec.created_at < corpus_filter.min_date:
            exclusions["before_min_date"] += 1
            continue
        if rec.lang not in corpus_filter.allowed_langs:
            exclusions["lang_not_allowed"] += 1
            continue
        exclusions["retained"] += 1
        yield rec


def engagement_subset(
    records: Iterable[TweetRecord],
    corpus_filter: CorpusFilter = CorpusFilter(),
) -> Iterator[TweetRecord]:
    """Keep only the record kinds whose impressions measure audience reach."""
    keep = corpus_filter.kinds_for_engagement
    return (rec for rec in records if rec.kind in keep)


def network_subset(
    records: Iterable[TweetRecord],
    corpus_filter: CorpusFilter = CorpusFilter(),
) -> Iterator[TweetRecord]:
    """Keep only the record kinds that define interaction-network edges."""
    keep = corpus_filter.kinds_for_network
    return (rec for rec in records if rec.kind in keep)


def write_count_report(counts: Counter, path: str | Path) -> None:
    """Write a ``reason,count`` CSV, rows sorted by reason for determinism."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("reason,count\n")
        for reason in sorted(counts):
            fh.write(f"{reason},{counts[reason]}\n")


def write_corpus(records: Iterable[TweetRecord], path: str | Path) -> int:
    """Serialize records back to the flat schema; returns the record count."""
    n = 0
    with open_maybe_gzip(path, "wt") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_flat_dict(rec), sort_keys=True))
            fh.write("\n")
            n += 1
    return n
