"""Dict-and-``json.dumps`` oracle for the flat corpus line.

This is the original form of the flat writer: build one dict per record and
hand it to ``json.dumps(..., sort_keys=True)``.  ``ingest.flat_line`` writes
the same bytes from a fixed layout; tests compare the two.  The timestamp is
formatted here with ``isoformat`` rather than ``ingest.format_timestamp``, so
the oracle does not share that code either.
"""

from __future__ import annotations

import json
from datetime import timezone

from echoaudit.ingest import TweetRecord


def record_to_flat_dict(rec: TweetRecord) -> dict:
    created = rec.created_at.astimezone(timezone.utc).replace(tzinfo=None)
    return {
        "tweet_id": rec.tweet_id,
        "author_id": rec.author_id,
        "created_at": created.isoformat(timespec="seconds") + "Z",
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


def flat_corpus(records) -> str:
    """The flat corpus text that ``ingest.write_corpus`` writes for ``records``."""
    return "".join(json.dumps(record_to_flat_dict(rec), sort_keys=True) + "\n"
                   for rec in records)
