"""Record-at-a-time oracle for the engagement and report consumers.

This is the original form of the engagement layer: one ``TweetRecord`` per
original tweet, per-key Python lists reduced with ``math.fsum``, and a
domain lookup per URL occurrence.  The package now runs the same
computations on the columns of an ``OriginalsTable``; tests compare the
artifacts of the two byte for byte.  ``write_engagement_artifacts`` and
``write_report_artifacts`` replay the engagement and report stages of the
CLI on this code, writing with plain ``open`` rather than the package's
writers.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from echoaudit import mediabias as mb
from echoaudit import report as rep
from echoaudit.engagement import (ACTIONS, GRANULARITIES, CorrelationReport,
                                  GroupSummary, log_pearson)
from echoaudit.errors import EchoauditError
from echoaudit.ingest import TweetRecord

_ACTION_FIELD = {"retweet": "retweets", "reply": "replies", "like": "likes", "quote": "quotes"}


def action_count(rec: TweetRecord, action: str) -> int:
    return getattr(rec, _ACTION_FIELD[action])


def tweet_ae(rec: TweetRecord) -> Optional[dict[str, float]]:
    """Per-action AE ratios for one tweet; None when impressions are zero."""
    if rec.impressions == 0:
        return None
    return {a: action_count(rec, a) / rec.impressions for a in ACTIONS}


@dataclass(frozen=True)
class UserLeaning:
    user_id: str
    n_urls: int
    score: Optional[float]


@dataclass(frozen=True)
class EngagementRecord:
    subject_id: str
    granularity: str
    impressions: float               # integer unless fractional attribution
    counts: dict[str, float]         # per action
    ae: dict[str, float]             # pooled: counts / impressions
    mean_ae: dict[str, Optional[float]]  # mean of per-tweet ratios
    n_tweets: int


def aggregate_ae(
    records: Iterable[TweetRecord],
    granularity: str,
    key_fn: Callable[[TweetRecord], object],
    fractional: bool = False,
    drop_zero_impressions: bool = False,
    stats: Optional[Counter] = None,
) -> list[EngagementRecord]:
    """Pool impressions and actions per subject and form AE ratios.

    ``key_fn`` maps a record to a subject key, a list of keys (a tweet that
    names several domains contributes to each), or None to skip.  With
    ``fractional=True`` a multi-key record splits its counts evenly instead
    of contributing fully to every key.  Subjects whose pooled impressions
    are zero are omitted and counted.  Order-independent by construction.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")
    if stats is None:
        stats = Counter()

    # Per-key contribution lists, reduced with exact summation at the end,
    # so the result is independent of record order (and of any partitioning
    # a parallel caller might have used).
    impressions: dict[str, list[float]] = defaultdict(list)
    counts: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: {a: [] for a in ACTIONS}
    )
    ratio_sums: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: {a: [] for a in ACTIONS}
    )
    ratio_n: dict[str, int] = defaultdict(int)
    n_tweets: dict[str, int] = defaultdict(int)

    for rec in records:
        if drop_zero_impressions and rec.impressions == 0:
            stats["zero_impression_tweets_dropped"] += 1
            continue
        keys = key_fn(rec)
        if keys is None:
            stats["unkeyed_records"] += 1
            continue
        if isinstance(keys, str):
            keys = [keys]
        else:
            keys = list(keys)
            if not keys:
                stats["unkeyed_records"] += 1
                continue
        weight = (1.0 / len(keys)) if fractional else 1.0
        ratios = tweet_ae(rec)
        for key in keys:
            impressions[key].append(weight * rec.impressions)
            n_tweets[key] += 1
            for a in ACTIONS:
                counts[key][a].append(weight * action_count(rec, a))
            if ratios is not None:
                ratio_n[key] += 1
                for a in ACTIONS:
                    ratio_sums[key][a].append(ratios[a])

    out: list[EngagementRecord] = []
    for key in sorted(impressions):
        imp = math.fsum(impressions[key])
        if imp == 0:
            stats["zero_impression_subjects_omitted"] += 1
            continue
        total = {a: math.fsum(counts[key][a]) for a in ACTIONS}
        ae = {a: total[a] / imp for a in ACTIONS}
        for a in ACTIONS:
            if ae[a] > 1.0:
                stats[f"ae_over_unity_{a}"] += 1
        mean_ae: dict[str, Optional[float]] = {
            a: (math.fsum(ratio_sums[key][a]) / ratio_n[key] if ratio_n[key] else None)
            for a in ACTIONS
        }
        out.append(
            EngagementRecord(
                subject_id=key,
                granularity=granularity,
                impressions=imp,
                counts=total,
                ae=ae,
                mean_ae=mean_ae,
                n_tweets=n_tweets[key],
            )
        )
    return out


def tweet_level_mean_ae(records: Iterable[TweetRecord]) -> dict[str, tuple[float, int]]:
    """Mean per-tweet AE including zero-action tweets, per action.

    Tweets without impressions carry no ratio and are excluded from the mean.
    Returns ``action -> (mean, n)``.
    """
    sums = {a: 0.0 for a in ACTIONS}
    n = 0
    for rec in records:
        ratios = tweet_ae(rec)
        if ratios is None:
            continue
        n += 1
        for a in ACTIONS:
            sums[a] += ratios[a]
    if n == 0:
        return {a: (math.nan, 0) for a in ACTIONS}
    return {a: (sums[a] / n, n) for a in ACTIONS}


def followers_ae_pairs(
    records: Iterable[TweetRecord], action: str
) -> list[tuple[float, float]]:
    """(followers, AE) per tweet, restricted to positive followers and a
    nonzero count of the action under study (log scales require positivity)."""
    pairs = []
    for rec in records:
        if rec.impressions == 0 or rec.author_followers <= 0:
            continue
        count = action_count(rec, action)
        if count <= 0:
            continue
        pairs.append((float(rec.author_followers), count / rec.impressions))
    return pairs


def correlation_report(records: Sequence[TweetRecord], action: str) -> CorrelationReport:
    pairs = followers_ae_pairs(records, action)
    return CorrelationReport(
        action=action,
        n=len(pairs),
        pearson_r=log_pearson(pairs),
        filter=f"original tweets with {action} count > 0 and followers > 0",
    )


def group_ae(
    records: Sequence[EngagementRecord], groups: Mapping[str, str]
) -> list[GroupSummary]:
    by_group: dict[str, list[EngagementRecord]] = defaultdict(list)
    for rec in records:
        label = groups.get(rec.subject_id)
        if label is not None:
            by_group[label].append(rec)
    out: list[GroupSummary] = []
    for label in sorted(by_group):
        for action in ACTIONS:
            values = np.asarray([r.ae[action] for r in by_group[label]])
            q1, median, q3 = np.quantile(values, [0.25, 0.5, 0.75])
            iqr = q3 - q1
            inside = values[(values >= q1 - 1.5 * iqr) & (values <= q3 + 1.5 * iqr)]
            if not inside.size:
                # Two values a few ulps apart can have both quartiles, and so
                # both fences, rounded strictly between them; in exact
                # arithmetic both values lie inside.
                inside = values
            out.append(GroupSummary(
                group=label, action=action, n=int(values.size),
                mean=float(values.mean()), q1=float(q1), median=float(median),
                q3=float(q3), whisker_lo=float(inside.min()),
                whisker_hi=float(inside.max()),
            ))
    return out


def matched_profiles(
    record: TweetRecord,
    table: Mapping[str, mb.DomainProfile],
) -> list[mb.DomainProfile]:
    """Profiles for every URL occurrence in a record (with multiplicity)."""
    out = []
    for url in record.urls:
        domain = mb.extract_domain(url)
        if domain is not None and domain in table:
            out.append(table[domain])
    return out


def user_leaning(
    user_id: str,
    records: Iterable[TweetRecord],
    table: Mapping[str, mb.DomainProfile],
) -> UserLeaning:
    total = 0.0
    n = 0
    for rec in records:
        for profile in matched_profiles(rec, table):
            if profile.leaning_score is not None:
                total += profile.leaning_score
                n += 1
    return UserLeaning(user_id=user_id, n_urls=n, score=(total / n if n else None))


def user_class_counts(
    records_by_user: Mapping[str, Iterable[TweetRecord]],
    table: Mapping[str, mb.DomainProfile],
) -> dict[str, Counter]:
    out: dict[str, Counter] = {}
    for user_id, records in records_by_user.items():
        counts: Counter = Counter()
        for rec in records:
            for profile in matched_profiles(rec, table):
                if profile.leaning_label is not None:
                    counts[profile.leaning_label] += 1
        if counts:
            out[user_id] = counts
    return out


def ae_followers_density(
    records: Sequence[TweetRecord], bins: int
) -> dict[str, rep.DensityGrid]:
    stats: Counter = Counter()
    out: dict[str, rep.DensityGrid] = {}
    for action in ACTIONS:
        xs: list[float] = []
        ys: list[float] = []
        for rec in records:
            if rec.impressions == 0:
                stats[f"{action}:zero_impressions"] += 1
                continue
            if rec.author_followers <= 0:
                stats[f"{action}:zero_followers"] += 1
                continue
            count = action_count(rec, action)
            if count <= 0:
                stats[f"{action}:zero_actions"] += 1
                continue
            xs.append(math.log10(rec.author_followers))
            ys.append(math.log10(count / rec.impressions))
        if xs:
            x_edges = rep._edges(min(xs), max(xs), bins)
            y_edges = rep._edges(min(ys), max(ys), bins)
            counts, _, _ = np.histogram2d(xs, ys, bins=(x_edges, y_edges))
        else:
            x_edges = rep._edges(0.0, 1.0, bins)
            y_edges = rep._edges(0.0, 1.0, bins)
            counts = np.zeros((bins, bins))
        out[action] = rep.DensityGrid(
            x_edges=x_edges, y_edges=y_edges, counts=counts.astype(np.int64),
            x_label="log10_followers", y_label=f"log10_ae_{action}",
            meta={
                "action": action,
                "n_tweets": len(xs),
                "skipped": {k.split(":", 1)[1]: stats[k] for k in sorted(stats)
                            if k.startswith(f"{action}:")},
            },
        )
    return out


def _write_lines(path: Path, header: str, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def write_engagement_artifacts(
    originals: Sequence[TweetRecord],
    table: Optional[Mapping[str, mb.DomainProfile]],
    user_scores: Optional[Mapping[str, float]],
    out_dir: Path,
    fractional: bool = False,
    drop_zero_impressions: bool = False,
) -> None:
    """The ``engagement`` stage with ``--granularity all`` and every
    ``--group-by``, as the CLI ran it on records."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stats: Counter = Counter()
    key_fns = {
        "tweet": lambda rec: rec.tweet_id,
        "user": lambda rec: rec.author_id,
        "domain": lambda rec: sorted({p.domain for p in matched_profiles(rec, table)}),
    }
    results = {}
    for granularity in GRANULARITIES:
        if granularity == "domain" and not table:
            continue
        records = aggregate_ae(
            originals, granularity, key_fns[granularity],
            fractional=fractional and granularity == "domain",
            drop_zero_impressions=drop_zero_impressions, stats=stats,
        )
        results[granularity] = records
        _write_lines(
            out_dir / f"ae_{granularity}.csv",
            "subject,granularity,action,impressions,count,ae,mean_ae",
            (f"{r.subject_id},{r.granularity},{a},{r.impressions!r},"
             f"{r.counts[a]!r},{r.ae[a]!r},"
             f"{'' if r.mean_ae[a] is None else repr(r.mean_ae[a])}"
             for r in records for a in ACTIONS),
        )

    reports = []
    for action in ACTIONS:
        try:
            reports.append(correlation_report(originals, action))
        except EchoauditError:
            pass
    _write_lines(out_dir / "correlations.csv", "action,n,pearson_r,filter",
                 (f"{r.action},{r.n},{r.pearson_r!r},{r.filter}" for r in reports))

    if table:
        by_author: dict[str, list[TweetRecord]] = defaultdict(list)
        for rec in originals:
            by_author[rec.author_id].append(rec)
        leanings = [user_leaning(uid, recs, table)
                    for uid, recs in sorted(by_author.items())]
        _write_lines(out_dir / "user_leanings.csv", "user_id,n_urls,score",
                     (f"{ul.user_id},{ul.n_urls},"
                      f"{'' if ul.score is None else repr(ul.score)}"
                      for ul in leanings))

    groupings = {}
    if user_scores is not None:
        groupings["ideology"] = ("user", {
            uid: ("negative" if s < 0 else "positive") for uid, s in user_scores.items()})
    if "domain" in results:
        groupings["reliability"] = ("domain", {d: p.reliability for d, p in table.items()})
        groupings["leaning"] = ("domain", {d: p.leaning_label for d, p in table.items()
                                           if p.leaning_label is not None})
    for group_by, (granularity, groups) in groupings.items():
        _write_lines(
            out_dir / f"groups_{group_by}.csv",
            "group,action,n,mean,q1,median,q3,whisker_lo,whisker_hi",
            (f"{s.group},{s.action},{s.n},{s.mean!r},{s.q1!r},{s.median!r},"
             f"{s.q3!r},{s.whisker_lo!r},{s.whisker_hi!r}"
             for s in group_ae(results[granularity], groups)),
        )
    _write_lines(out_dir / "engagement_stats.csv", "reason,count",
                 (f"{k},{stats[k]}" for k in sorted(stats)))


def write_report_artifacts(
    originals: Sequence[TweetRecord],
    table: Optional[Mapping[str, mb.DomainProfile]],
    scores,
    out_dir: Path,
    bins: int,
) -> None:
    """The ``ae_density_*`` and ``leaning_hist_*`` artifacts of ``report``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for action, density in sorted(ae_followers_density(originals, bins).items()):
        rep.write_grid(density, out_dir / f"ae_density_{action}.csv",
                       out_dir / f"ae_density_{action}.json")
    if table is not None:
        by_author: dict[str, list[TweetRecord]] = defaultdict(list)
        for rec in originals:
            by_author[rec.author_id].append(rec)
        per_class = rep.leaning_ideology_distributions(
            scores, user_class_counts(by_author, table), bins=bins)
        for label, series in sorted(per_class.items()):
            rep.write_histogram(series, out_dir / f"leaning_hist_{label.lower()}.csv")
