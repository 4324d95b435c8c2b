"""Active engagement: visible actions per impression, at three granularities.

For a tweet, AE_action = action_count / impressions (absent when the tweet
has no impressions).  User- and domain-level AE pools totals first
(sum of actions / sum of impressions) rather than averaging per-tweet ratios;
the mean of ratios is exported alongside for comparison.  AE can legitimately
exceed 1 on real data (impressions and actions are measured at different
times); such values are flagged, never clamped.

Original tweets are held as an :class:`OriginalsTable` of NumPy columns,
filled a run of corpus columns at a time as the corpus streams past, and
every consumer works on those columns.  Pooled sums are exact: a subject's
terms are summed with ``math.fsum``, so a result does not depend on record
order.  Ingest caps every count at ``2**53 - 1``, so the float64 ratios
equal Python's correctly rounded ``int / int``.
"""

from __future__ import annotations

import logging
import math
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import mediabias as mb
from .errors import EchoauditError
from .blocks import CorpusColumns
from .ingest import intern_ids, open_atomic, sorted_codes, tally, write_table

log = logging.getLogger(__name__)

ACTIONS = ("retweet", "reply", "like", "quote")

GRANULARITIES = ("tweet", "user", "domain")

# Rows per chunk of the engagement CSV writer.
_WRITE_CHUNK = 8192


def _view(column: array) -> np.ndarray:
    return np.frombuffer(column, dtype=np.int64)


class OriginalsTable:
    """Original tweets as columns, appended one run of corpus columns at a
    time (:meth:`extend_columns`).

    * ``tweet_codes``/``author_codes`` number the distinct ids in first-seen
      order (``author_ids`` lists the authors in that order);
    * ``impressions``, ``followers`` and ``action_counts(action)`` are int64;
    * given a domain table, each record's URLs whose registrable domain is
      in the table, as a CSR row of domain codes in URL order and with
      multiplicity (:meth:`matched_urls`); a code indexes :meth:`profiles`.
      Each URL occurrence goes through :func:`mediabias.extract_domain` once,
      as it is added; ``unmatched_urls`` counts the URLs outside the table.
      Without a domain table every row is empty.

    The column views share memory with the growing buffers: while one is
    alive, every method that appends raises ``BufferError``.  A pickled
    table leaves its domain table behind: its domain codes index the
    profiles of the table it is merged into by :meth:`extend`.
    """

    def __init__(self, domains: Optional[Mapping[str, mb.DomainProfile]] = None):
        self.domains = domains
        self._tweet_vocab: dict[str, int] = {}
        self._author_vocab: dict[str, int] = {}
        self._tweet = array("q")
        self._author = array("q")
        self._impressions = array("q")
        self._followers = array("q")
        self._actions = {a: array("q") for a in ACTIONS}
        names = sorted(domains) if domains is not None else []
        self._profiles = [domains[d] for d in names]
        self._domain_code = {d: i for i, d in enumerate(names)}
        self.unmatched_urls = 0
        self._indptr = array("q", [0])
        self._url_domains = array("q")

    @classmethod
    def from_columns(
        cls,
        runs: Iterable[CorpusColumns],
        domains: Optional[Mapping[str, mb.DomainProfile]] = None,
    ) -> "OriginalsTable":
        table = cls(domains)
        for run in runs:
            table.extend_columns(run)
        return table

    def extend_columns(self, run: CorpusColumns) -> None:
        """Append the records of ``run`` in order."""
        for column, vocab, ids in ((self._tweet, self._tweet_vocab, run.tweet_id),
                                   (self._author, self._author_vocab, run.author_id)):
            column.frombytes(intern_ids(vocab, ids).tobytes())
        for column, values in ((self._impressions, run.impressions),
                               (self._followers, run.author_followers),
                               (self._actions["retweet"], run.retweets),
                               (self._actions["reply"], run.replies),
                               (self._actions["like"], run.likes),
                               (self._actions["quote"], run.quotes)):
            column.frombytes(values.tobytes())
        matched = np.zeros(len(run), dtype=np.int64)
        if self.domains is not None:
            url_lists = run.url_lists()
            codes = [self._domain_code.get(mb.extract_domain(url))
                     for urls in url_lists for url in urls]
            found = np.array([code is not None for code in codes], dtype=bool)
            owners = np.repeat(np.arange(len(run)),
                               np.fromiter(map(len, url_lists), np.int64, len(run)))
            matched = np.bincount(owners[found], minlength=len(run))
            self.unmatched_urls += len(codes) - len(owners[found])
            self._url_domains.extend([code for code in codes if code is not None])
        self._indptr.frombytes((self._indptr[-1] + matched.cumsum()).tobytes())

    def extend(self, other: "OriginalsTable") -> None:
        """Append ``other``'s records, as if each were added here after this
        table's own; ``other`` was filled against the same domain table."""
        for column, vocab, codes, ids in (
                (self._tweet, self._tweet_vocab, other._tweet, other._tweet_vocab),
                (self._author, self._author_vocab, other._author, other._author_vocab)):
            column.frombytes(intern_ids(vocab, ids)[_view(codes)].tobytes())
        self._impressions.extend(other._impressions)
        self._followers.extend(other._followers)
        for a in ACTIONS:
            self._actions[a].extend(other._actions[a])
        self.unmatched_urls += other.unmatched_urls
        self._indptr.frombytes((_view(other._indptr)[1:] + len(self._url_domains)).tobytes())
        self._url_domains.extend(other._url_domains)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.update(domains=None, _profiles=[], _domain_code={})
        return state

    def __len__(self) -> int:
        return len(self._tweet)

    @property
    def author_ids(self) -> list[str]:
        return list(self._author_vocab)

    @property
    def tweet_codes(self) -> np.ndarray:
        return _view(self._tweet)

    @property
    def author_codes(self) -> np.ndarray:
        return _view(self._author)

    @property
    def impressions(self) -> np.ndarray:
        return _view(self._impressions)

    @property
    def followers(self) -> np.ndarray:
        return _view(self._followers)

    def action_counts(self, action: str) -> np.ndarray:
        return _view(self._actions[action])

    def profiles(self) -> list[mb.DomainProfile]:
        """The domain profile of each domain code, in sorted domain order."""
        return list(self._profiles)

    def matched_urls(self) -> tuple[np.ndarray, np.ndarray]:
        """Record index and domain code of every matched URL occurrence.

        Occurrences run in record order, then URL order.
        """
        owners = np.repeat(np.arange(len(self)), np.diff(_view(self._indptr)))
        return owners, _view(self._url_domains)

    def sorted_authors(self) -> tuple[list[str], np.ndarray]:
        """Author ids in ``str`` order, and each author code's rank in it."""
        return sorted_codes(self._author_vocab)

    def sorted_tweets(self) -> tuple[list[str], np.ndarray]:
        """Tweet ids in ``str`` order, and each tweet code's rank in it."""
        return sorted_codes(self._tweet_vocab)


@dataclass(frozen=True)
class EngagementTable:
    """Pooled AE per subject; rows in sorted subject order, columns as arrays."""

    granularity: str
    subject_ids: list[str]
    impressions: np.ndarray              # float64; integral unless fractional
    counts: dict[str, np.ndarray]        # per action
    ae: dict[str, np.ndarray]            # pooled: counts / impressions
    mean_ae: dict[str, np.ndarray]       # mean of per-tweet ratios; NaN if none
    n_tweets: np.ndarray                 # int64

    def __len__(self) -> int:
        return len(self.subject_ids)


def _fsum_groups(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per-group ``math.fsum`` of values laid out group by group.

    A one-term group passes its value through, which is what fsum returns.
    Integer terms are at most ``2**53 - 1``, so each is an exact float.
    """
    values = values.astype(np.float64, copy=False)
    sums = values[starts]
    multi = np.flatnonzero(sizes > 1)
    if multi.size:
        terms = values.tolist()
        lo = starts[multi].tolist()
        hi = (starts[multi] + sizes[multi]).tolist()
        sums[multi] = [math.fsum(terms[a:b]) for a, b in zip(lo, hi)]
    return sums


def _groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and sizes of the runs of equal values in sorted ``keys``."""
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return starts, np.diff(np.r_[starts, keys.size])


def aggregate_ae(
    originals: OriginalsTable,
    granularity: str,
    fractional: bool = False,
    drop_zero_impressions: bool = False,
    stats: Optional[Counter] = None,
) -> EngagementTable:
    """Pool impressions and actions per subject and form AE ratios.

    A tweet's subject is its tweet id, its author, or each distinct domain
    its URLs match in the domain table (a tweet with none is skipped and
    counted).  With ``fractional=True`` a multi-domain tweet splits its
    counts evenly instead of contributing fully to every domain.  Subjects
    whose pooled impressions are zero are omitted and counted.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")
    if stats is None:
        stats = Counter()
    n = len(originals)
    impressions = originals.impressions
    keep = np.ones(n, dtype=bool)
    if drop_zero_impressions:
        keep = impressions != 0
        tally(stats, "zero_impression_tweets_dropped", n - int(np.count_nonzero(keep)))

    # One occurrence per (tweet, subject) pair: the tweet's row and the
    # subject's rank in sorted subject order.
    weight = None
    if granularity == "domain":
        names = [p.domain for p in originals.profiles()]
        width = max(len(names), 1)
        owners, codes = originals.matched_urls()
        pairs = np.unique(owners * width + codes)
        row, key = pairs // width, pairs % width
        n_keys = np.bincount(row, minlength=n)
        tally(stats, "unkeyed_records", int(np.count_nonzero(keep & (n_keys == 0))))
        if fractional:
            weight = 1.0 / n_keys[row]
    else:
        if granularity == "tweet":
            names, rank = originals.sorted_tweets()
            key = rank[originals.tweet_codes]
        else:
            names, rank = originals.sorted_authors()
            key = rank[originals.author_codes]
        row = np.arange(n)
    # Kept occurrences, grouped by subject; rows stay ascending in a group.
    sel = np.flatnonzero(keep[row])
    sel = sel[np.argsort(key[sel], kind="stable")]
    row, key = row[sel], key[sel]
    if weight is not None:
        weight = weight[sel]
    if not row.size:
        none = {a: np.zeros(0) for a in ACTIONS}
        return EngagementTable(granularity, [], np.zeros(0), none, none, none,
                               np.zeros(0, dtype=np.int64))
    starts, sizes = _groups(key)

    def pooled(column: np.ndarray) -> np.ndarray:
        terms = column[row]
        if weight is not None:
            terms = weight * terms
        return _fsum_groups(terms, starts, sizes)

    imp = pooled(impressions)
    totals = {a: pooled(originals.action_counts(a)) for a in ACTIONS}

    # Per-tweet ratios, pooled over the tweets that have impressions.
    has_ratio = impressions[row] != 0
    ratio_row, ratio_key = row[has_ratio], key[has_ratio]
    ratio_n = np.zeros(starts.size, dtype=np.int64)
    ratio_sums = {a: np.zeros(starts.size) for a in ACTIONS}
    if ratio_row.size:
        ratio_starts, ratio_sizes = _groups(ratio_key)
        slot = np.searchsorted(key[starts], ratio_key[ratio_starts])
        ratio_n[slot] = ratio_sizes
        ratio_imp = impressions[ratio_row]
        for a in ACTIONS:
            ratios = originals.action_counts(a)[ratio_row] / ratio_imp
            ratio_sums[a][slot] = _fsum_groups(ratios, ratio_starts, ratio_sizes)

    nonzero = imp != 0
    tally(stats, "zero_impression_subjects_omitted", int(np.count_nonzero(~nonzero)))
    imp = imp[nonzero]
    counts = {a: totals[a][nonzero] for a in ACTIONS}
    ae = {a: counts[a] / imp for a in ACTIONS}
    for a in ACTIONS:
        tally(stats, f"ae_over_unity_{a}", int(np.count_nonzero(ae[a] > 1.0)))
    ratio_n = ratio_n[nonzero]
    with np.errstate(invalid="ignore"):
        mean_ae = {a: np.where(ratio_n > 0, ratio_sums[a][nonzero] / ratio_n, np.nan)
                   for a in ACTIONS}
    subject_keys = key[starts][nonzero].tolist()
    return EngagementTable(
        granularity=granularity,
        subject_ids=[names[k] for k in subject_keys],
        impressions=imp,
        counts=counts,
        ae=ae,
        mean_ae=mean_ae,
        n_tweets=sizes[nonzero],
    )


@dataclass(frozen=True)
class CorrelationReport:
    action: str
    n: int
    pearson_r: float
    filter: str


def log_pearson(pairs: Sequence[tuple[float, float]] | np.ndarray) -> float:
    """Pearson correlation of (log10 x, log10 y) over strictly positive pairs."""
    if len(pairs) < 2:
        raise EchoauditError(f"correlation needs at least 2 points, got {len(pairs)}")
    arr = np.asarray(pairs, dtype=np.float64)
    if (arr <= 0).any():
        raise EchoauditError("log-scale correlation requires strictly positive values")
    x = np.log10(arr[:, 0])
    y = np.log10(arr[:, 1])
    xd = x - x.mean()
    yd = y - y.mean()
    denom = math.sqrt(float(xd @ xd) * float(yd @ yd))
    if denom == 0.0:
        raise EchoauditError("undefined correlation: zero variance in a coordinate")
    return float(xd @ yd) / denom


def followers_ae_pairs(originals: OriginalsTable, action: str) -> np.ndarray:
    """(followers, AE) rows per tweet, restricted to positive followers and a
    nonzero count of the action under study (log scales require positivity)."""
    impressions = originals.impressions
    followers = originals.followers
    counts = originals.action_counts(action)
    keep = (impressions != 0) & (followers > 0) & (counts > 0)
    return np.column_stack((followers[keep].astype(np.float64),
                            counts[keep] / impressions[keep]))


def correlation_report(originals: OriginalsTable, action: str) -> CorrelationReport:
    pairs = followers_ae_pairs(originals, action)
    return CorrelationReport(
        action=action,
        n=len(pairs),
        pearson_r=log_pearson(pairs),
        filter=f"original tweets with {action} count > 0 and followers > 0",
    )


@dataclass(frozen=True)
class GroupSummary:
    group: str
    action: str
    n: int
    mean: float
    q1: float
    median: float
    q3: float
    whisker_lo: float
    whisker_hi: float


def group_ae(
    records: EngagementTable,
    groups: Mapping[str, str],
    stats: Optional[Counter] = None,
) -> list[GroupSummary]:
    """Boxplot-ready five-number summaries of AE per (group, action).

    Whiskers follow the 1.5*IQR rule: the extreme data points within
    ``[q1 - 1.5 IQR, q3 + 1.5 IQR]``.  Subjects without a group label are
    skipped and counted; groups that end up empty are omitted with a warning.
    A group's values stay in sorted subject order, the order its mean sums.
    """
    if stats is None:
        stats = Counter()
    by_group: dict[str, list[int]] = defaultdict(list)
    unlabelled = 0
    for i, subject in enumerate(records.subject_ids):
        label = groups.get(subject)
        if label is None:
            unlabelled += 1
        else:
            by_group[label].append(i)
    tally(stats, "unlabelled_subjects", unlabelled)

    missing = set(groups.values()) - set(by_group)
    for label in sorted(missing):
        log.warning("group %r has no engagement records; omitted", label)

    out: list[GroupSummary] = []
    for label in sorted(by_group):
        members = np.asarray(by_group[label])
        for action in ACTIONS:
            values = records.ae[action][members]
            q1, median, q3 = np.quantile(values, [0.25, 0.5, 0.75])
            iqr = q3 - q1
            inside = values[(values >= q1 - 1.5 * iqr) & (values <= q3 + 1.5 * iqr)]
            if not inside.size:
                # Two values a few ulps apart can have both quartiles, and so
                # both fences, rounded strictly between them; in exact
                # arithmetic both values lie inside.
                inside = values
            out.append(
                GroupSummary(
                    group=label,
                    action=action,
                    n=int(values.size),
                    mean=float(values.mean()),
                    q1=float(q1),
                    median=float(median),
                    q3=float(q3),
                    whisker_lo=float(inside.min()),
                    whisker_hi=float(inside.max()),
                )
            )
    return out


def write_engagement(records: EngagementTable, path: str | Path) -> None:
    """Long-form CSV: one row per subject and action.

    This writer formats whole chunks of columns instead of going through
    :func:`~echoaudit.ingest.write_table`: on two 100k-subject tables that
    row-at-a-time path takes more than twice as long for the same bytes.
    """
    with open_atomic(path, newline="") as fh:
        fh.write("subject,granularity,action,impressions,count,ae,mean_ae\n")
        for lo in range(0, len(records), _WRITE_CHUNK):
            hi = lo + _WRITE_CHUNK
            heads = [f"{subject},{records.granularity},"
                     for subject in records.subject_ids[lo:hi]]
            impressions = list(map(repr, records.impressions[lo:hi].tolist()))
            per_action = []
            for a in ACTIONS:
                counts = map(repr, records.counts[a][lo:hi].tolist())
                ae = records.ae[a][lo:hi].tolist()
                ae_text = list(map(repr, ae))
                # A one-tweet subject's mean ratio usually equals its pooled
                # AE, and reusing that text saves a repr per row, about two
                # fifths of the writer's time.  Ingest rejects negative
                # counts, so neither value is -0.0 and equal floats have
                # equal text.
                means = [text if mean == value else "" if mean != mean else repr(mean)
                         for mean, value, text in zip(
                             records.mean_ae[a][lo:hi].tolist(), ae, ae_text)]
                per_action.append([
                    f"{head}{a},{imp},{count},{text},{mean}\n"
                    for head, imp, count, text, mean in zip(
                        heads, impressions, counts, ae_text, means)
                ])
            fh.write("".join(map("".join, zip(*per_action))))


def write_correlations(reports: Sequence[CorrelationReport], path: str | Path) -> None:
    write_table(path, ("action", "n", "pearson_r", "filter"),
                ((rep.action, rep.n, rep.pearson_r, rep.filter) for rep in reports))


def write_group_summaries(summaries: Sequence[GroupSummary], path: str | Path) -> None:
    write_table(
        path,
        ("group", "action", "n", "mean", "q1", "median", "q3",
         "whisker_lo", "whisker_hi"),
        ((s.group, s.action, s.n, s.mean, s.q1, s.median, s.q3,
          s.whisker_lo, s.whisker_hi) for s in summaries),
    )
