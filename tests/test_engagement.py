from collections import Counter, defaultdict
from unittest import mock

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echoaudit import blocks as blk
from echoaudit import engagement as eng
from echoaudit import graph as gr
from echoaudit import ideology as ideo
from echoaudit import ingest as ing
from echoaudit import mediabias as mb
from echoaudit import report as rep
from echoaudit.errors import EchoauditError

import _engagement_oracle as oracle
from _csv_oracle import write_table
from _tables import originals_table as table
from conftest import make_record, retweet

CUTOFF = "2022-12-15T00:00:00Z"


def tweet(imps, likes=0, replies=0, retweets=0, quotes=0, **kw):
    return make_record(
        impressions=imps, likes=likes, replies=replies,
        retweets=retweets, quotes=quotes, **kw,
    )


def domain_table(*names):
    return {d: mb.DomainProfile(domain=d, leaning_label=None, leaning_score=None,
                                reliability="reliable") for d in names}


def row(result, i=0):
    """Row ``i`` of an aggregation result, as plain Python values."""
    return {
        "subject_id": result.subject_ids[i],
        "impressions": float(result.impressions[i]),
        "counts": {a: float(result.counts[a][i]) for a in eng.ACTIONS},
        "ae": {a: float(result.ae[a][i]) for a in eng.ACTIONS},
        "mean_ae": {a: float(result.mean_ae[a][i]) for a in eng.ACTIONS},
        "n_tweets": int(result.n_tweets[i]),
    }


def rows(result):
    return [row(result, i) for i in range(len(result))]


class TestTweetAE:
    def test_zero_actions_give_zero_ratio(self):
        ratios = oracle.tweet_ae(tweet(500))
        assert ratios == {"retweet": 0.0, "reply": 0.0, "like": 0.0, "quote": 0.0}

    def test_direct_ratio(self):
        ratios = oracle.tweet_ae(tweet(1000, retweets=3))
        assert ratios["retweet"] == 0.003

    def test_absent_when_no_impressions(self):
        assert oracle.tweet_ae(tweet(0, likes=5)) is None

    def test_exact_rational_ratios(self):
        ratios = oracle.tweet_ae(tweet(640, likes=16, replies=5, retweets=80, quotes=1))
        assert abs(ratios["like"] - 16 / 640) <= 1e-15
        assert abs(ratios["reply"] - 5 / 640) <= 1e-15
        assert abs(ratios["retweet"] - 0.125) <= 1e-15
        assert abs(ratios["quote"] - 1 / 640) <= 1e-15


class TestAggregateAE:
    def test_pooled_ratio_not_mean_of_ratios(self):
        records = [
            tweet(100, likes=1, author_id="u", tweet_id="a"),
            tweet(300, likes=3, author_id="u", tweet_id="b"),
        ]
        (rec,) = rows(eng.aggregate_ae(table(records), "user"))
        assert rec["ae"]["like"] == 4 / 400 == 0.01
        assert rec["mean_ae"]["like"] == pytest.approx((0.01 + 0.01) / 2)
        assert rec["n_tweets"] == 2

    def test_single_tweet_subject_equals_tweet_ae(self):
        t = tweet(777, likes=3, retweets=2, author_id="solo")
        (rec,) = rows(eng.aggregate_ae(table([t]), "user"))
        assert rec["ae"] == oracle.tweet_ae(t)

    def test_reorder_invariance(self):
        records = [
            tweet(100, likes=i + 1, author_id=f"u{i % 3}", tweet_id=f"t{i}")
            for i in range(9)
        ]
        a = rows(eng.aggregate_ae(table(records), "user"))
        b = rows(eng.aggregate_ae(table(records[::-1]), "user"))
        assert a == b

    def test_zero_impression_subject_omitted_and_counted(self):
        stats = Counter()
        records = [tweet(0, likes=2, author_id="ghost")]
        out = rows(eng.aggregate_ae(table(records), "user", stats=stats))
        assert out == []
        assert stats["zero_impression_subjects_omitted"] == 1

    def test_drop_zero_impressions_flag(self):
        stats = Counter()
        records = [
            tweet(0, likes=2, author_id="u"),
            tweet(100, likes=1, author_id="u"),
        ]
        (rec,) = rows(eng.aggregate_ae(
            table(records), "user",
            drop_zero_impressions=True, stats=stats,
        ))
        assert rec["ae"]["like"] == 0.01
        assert stats["zero_impression_tweets_dropped"] == 1
        # kept by default: the zero-impression tweet's likes enter the pool
        (pooled,) = rows(eng.aggregate_ae(table(records), "user"))
        assert pooled["ae"]["like"] == 3 / 100

    def test_ae_over_unity_flagged_never_clamped(self):
        stats = Counter()
        (rec,) = rows(eng.aggregate_ae(
            table([tweet(10, likes=25, author_id="viral")]),
            "user", stats=stats,
        ))
        assert rec["ae"]["like"] == 2.5
        assert stats["ae_over_unity_like"] == 1

    def test_multi_domain_full_attribution(self):
        rec = tweet(100, likes=2, tweet_id="t",
                    urls=["https://a.test/1", "https://www.b.test/2"])
        out = rows(eng.aggregate_ae(
            table([rec], domain_table("a.test", "b.test")), "domain"
        ))
        assert len(out) == 2
        for domain_rec in out:
            assert domain_rec["impressions"] == 100
            assert domain_rec["ae"]["like"] == 0.02

    def test_multi_domain_fractional_attribution(self):
        rec = tweet(100, likes=2, tweet_id="t",
                    urls=["https://a.test/1", "https://www.b.test/2"])
        out = rows(eng.aggregate_ae(
            table([rec], domain_table("a.test", "b.test")), "domain",
            fractional=True,
        ))
        for domain_rec in out:
            assert domain_rec["impressions"] == 50
            assert domain_rec["counts"]["like"] == 1
            assert domain_rec["ae"]["like"] == 0.02

    def test_repeated_domain_counts_once_per_tweet(self):
        rec = tweet(100, likes=2, urls=["https://a.test/1", "http://a.test/2",
                                        "https://b.test/3"])
        out = rows(eng.aggregate_ae(
            table([rec], domain_table("a.test", "b.test")), "domain",
            fractional=True,
        ))
        assert [(r["subject_id"], r["impressions"], r["n_tweets"]) for r in out] == [
            ("a.test", 50.0, 1), ("b.test", 50.0, 1)]

    def test_unkeyed_records_counted(self):
        stats = Counter()
        out = rows(eng.aggregate_ae(
            table([tweet(10, urls=["https://elsewhere.test/"])],
                  domain_table("a.test")),
            "domain", stats=stats,
        ))
        assert out == [] and stats["unkeyed_records"] == 1

    def test_unknown_granularity(self):
        with pytest.raises(ValueError):
            eng.aggregate_ae(table([]), "planet")

    def test_len_is_subject_count(self):
        records = [tweet(10, tweet_id="a"), tweet(10, tweet_id="a"),
                   tweet(10, tweet_id="b", author_id="bob")]
        assert len(eng.aggregate_ae(table(records), "tweet")) == 2
        assert len(eng.aggregate_ae(table(records), "user")) == 2
        assert len(eng.aggregate_ae(table([]), "user")) == 0

    def test_duplicate_and_nul_ids_sort_as_python_strings(self):
        ids = ["b", "a\x00", "a", "a\x00\x00", "a", "\x00"]
        records = [tweet(10 + i, likes=i, tweet_id=t) for i, t in enumerate(ids)]
        got = eng.aggregate_ae(table(records), "tweet")
        want = oracle.aggregate_ae(records, "tweet", lambda r: r.tweet_id)
        assert got.subject_ids == sorted(set(ids)) == [r.subject_id for r in want]
        assert rows(got) == [
            {"subject_id": r.subject_id, "impressions": r.impressions,
             "counts": r.counts, "ae": r.ae, "mean_ae": r.mean_ae,
             "n_tweets": r.n_tweets} for r in want]

    def test_sums_equal_fsum_near_the_count_limit(self):
        """1100 maximal counts overflow int64; the sum must still be exact."""
        big = 2**53 - 1
        records = [tweet(big, likes=big, author_id="u", tweet_id=f"t{i}")
                   for i in range(1100)] + [tweet(1, likes=1, author_id="u")]
        (rec,) = rows(eng.aggregate_ae(table(records), "user"))
        assert rec["impressions"] == math.fsum([float(big)] * 1100 + [1.0])
        (want,) = oracle.aggregate_ae(records, "user", lambda r: r.author_id)
        assert rec["mean_ae"] == want.mean_ae and rec["ae"] == want.ae

    def test_mini_per_domain_matches_independent_aggregation(
        self, mini_raw, mini_retained, fixtures_dir
    ):
        profiles = mb.load_domain_table(fixtures_dir / "mini_domains.csv")
        originals = [r for r in mini_retained if r.kind == "original"]
        got = rows(eng.aggregate_ae(table(originals, profiles), "domain"))
        # independent aggregation from the raw json lines
        imp = defaultdict(int)
        likes = defaultdict(int)
        for o in mini_raw:
            if (o["kind"] != "original" or o["lang"] != "en"
                    or o["created_at"] < CUTOFF):
                continue
            domains = set()
            for url in o["urls"]:
                host = url.split("://", 1)[1].split("/", 1)[0]
                domain = host.removeprefix("www.")
                if domain in profiles:
                    domains.add(domain)
            for d in domains:
                imp[d] += o["impressions"]
                likes[d] += o["likes"]
        expected = {d: likes[d] / imp[d] for d in imp if imp[d]}
        assert {r["subject_id"] for r in got} == set(expected)
        for rec in got:
            assert rec["ae"]["like"] == pytest.approx(expected[rec["subject_id"]], abs=1e-12)


class TestTweetLevelMean:
    def test_includes_zero_action_tweets(self):
        records = [tweet(100, likes=1), tweet(100, likes=0)]
        means = oracle.tweet_level_mean_ae(records)
        assert means["like"] == (0.005, 2)

    def test_excludes_zero_impression_tweets(self):
        records = [tweet(100, likes=1), tweet(0, likes=9)]
        mean, n = oracle.tweet_level_mean_ae(records)["like"]
        assert (mean, n) == (0.01, 1)


class TestLogPearson:
    def test_identity_gives_one(self):
        pairs = [(float(x), float(x)) for x in range(1, 11)]
        assert eng.log_pearson(pairs) == pytest.approx(1.0, abs=1e-12)

    def test_reciprocal_gives_minus_one(self):
        pairs = [(float(x), 1.0 / x) for x in range(1, 11)]
        assert eng.log_pearson(pairs) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_scipy_on_random_data(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(3)
        x = 10 ** rng.normal(3, 1, 200)
        y = 10 ** (0.5 * np.log10(x) + rng.normal(0, 0.4, 200))
        got = eng.log_pearson(list(zip(x, y)))
        want = scipy_stats.pearsonr(np.log10(x), np.log10(y)).statistic
        assert got == pytest.approx(want, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(EchoauditError):
            eng.log_pearson([(1.0, 1.0)])

    def test_requires_positive_values(self):
        with pytest.raises(EchoauditError):
            eng.log_pearson([(1.0, 0.0), (2.0, 3.0)])

    def test_zero_variance_undefined(self):
        with pytest.raises(EchoauditError, match="undefined correlation"):
            eng.log_pearson([(5.0, 1.0), (5.0, 2.0), (5.0, 3.0)])

    @given(
        scale_x=st.floats(0.001, 1000.0),
        scale_y=st.floats(0.001, 1000.0),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_positive_rescaling(self, scale_x, scale_y, seed):
        rng = np.random.default_rng(seed)
        x = 10 ** rng.normal(0, 1, 30)
        y = 10 ** rng.normal(0, 1, 30)
        base = eng.log_pearson(list(zip(x, y)))
        scaled = eng.log_pearson(list(zip(x * scale_x, y * scale_y)))
        assert scaled == pytest.approx(base, abs=1e-9)


class TestCorrelationReport:
    def test_inclusion_rule(self):
        records = [
            tweet(100, retweets=1, author_followers=10),
            tweet(100, retweets=0, author_followers=10),   # zero action: excluded
            tweet(100, retweets=2, author_followers=0),    # zero followers: excluded
            tweet(0, retweets=2, author_followers=10),     # no impressions: excluded
            tweet(200, retweets=1, author_followers=1000),
        ]
        report = eng.correlation_report(table(records), "retweet")
        assert report.n == 2
        assert "retweet" in report.filter


class TestGroupAE:
    def make_records(self, values, prefixes=("s",)):
        records = []
        for prefix in prefixes:
            for i, v in enumerate(values):
                records.append(
                    tweet(1000, likes=int(v * 1000), author_id=f"{prefix}{i}",
                          tweet_id=f"{prefix}{i}")
                )
        return eng.aggregate_ae(table(records), "user")

    def test_single_subject_group(self):
        recs = self.make_records([0.02])
        (summary,) = [
            s for s in eng.group_ae(recs, {"s0": "only"}) if s.action == "like"
        ]
        assert summary.q1 == summary.median == summary.q3 == summary.mean == 0.02
        assert summary.whisker_lo == summary.whisker_hi == 0.02
        assert summary.n == 1

    def test_identical_multisets_identical_summaries(self):
        recs = self.make_records([0.01, 0.02, 0.03], prefixes=("a", "b"))
        groups = {f"a{i}": "g1" for i in range(3)}
        groups.update({f"b{i}": "g2" for i in range(3)})
        summaries = eng.group_ae(recs, groups)
        by_group = defaultdict(dict)
        for s in summaries:
            by_group[s.group][s.action] = (
                s.n, s.mean, s.q1, s.median, s.q3, s.whisker_lo, s.whisker_hi
            )
        assert by_group["g1"] == by_group["g2"]

    def test_unlabelled_subjects_skipped_and_counted(self):
        stats = Counter()
        recs = self.make_records([0.01, 0.02])
        summaries = eng.group_ae(recs, {"s0": "g"}, stats=stats)
        assert stats["unlabelled_subjects"] == 1
        assert all(s.n == 1 for s in summaries)

    def test_empty_group_omitted_with_warning(self, caplog):
        recs = self.make_records([0.01])
        with caplog.at_level("WARNING"):
            summaries = eng.group_ae(recs, {"s0": "g", "phantom-subject": "empty"})
        assert {s.group for s in summaries} == {"g"}
        assert any("empty" in m for m in caplog.messages)

    def test_group_sizes_partition_grouped_subjects(self):
        recs = self.make_records([0.01, 0.02, 0.03, 0.04])
        groups = {"s0": "x", "s1": "x", "s2": "y", "s3": "y"}
        summaries = eng.group_ae(recs, groups)
        per_action = defaultdict(int)
        for s in summaries:
            per_action[s.action] += s.n
        assert all(total == 4 for total in per_action.values())

    def test_whisker_rule(self):
        values = [0.01, 0.011, 0.012, 0.013, 0.5]  # one far outlier
        recs = self.make_records(values)
        groups = {f"s{i}": "g" for i in range(5)}
        (summary,) = [s for s in eng.group_ae(recs, groups) if s.action == "like"]
        assert summary.whisker_hi < 0.5
        assert summary.whisker_lo == 0.01

    def test_two_values_ulps_apart_keep_their_whiskers(self):
        # np.quantile puts q1, the median and q3 of these strictly between them.
        lo, hi = 1.5326621776204509e-16, 1.5326621776204514e-16
        ae = np.array([lo, hi])
        recs = eng.EngagementTable(
            granularity="user", subject_ids=["s0", "s1"], impressions=np.ones(2),
            counts={a: np.zeros(2) for a in eng.ACTIONS}, ae={a: ae for a in eng.ACTIONS},
            mean_ae={a: ae for a in eng.ACTIONS}, n_tweets=np.ones(2, dtype=np.int64),
        )
        (summary,) = [s for s in eng.group_ae(recs, {"s0": "g", "s1": "g"})
                      if s.action == "like"]
        assert (summary.whisker_lo, summary.whisker_hi) == (lo, hi)

    def test_mini_unreliable_domains_double_ae(
        self, mini_retained, mini_truth, fixtures_dir
    ):
        profiles = mb.load_domain_table(fixtures_dir / "mini_domains.csv")
        originals = [r for r in mini_retained if r.kind == "original"]
        domain_records = eng.aggregate_ae(table(originals, profiles), "domain")
        groups = {
            d: ("unreliable" if p.reliability != "reliable" else "reliable")
            for d, p in profiles.items()
        }
        summaries = {
            (s.group, s.action): s for s in eng.group_ae(domain_records, groups)
        }
        for action in eng.ACTIONS:
            ratio = (
                summaries[("unreliable", action)].median
                / summaries[("reliable", action)].median
            )
            assert ratio == pytest.approx(2.0, rel=0.15), action


class TestPooledBounds:
    @given(
        data=st.lists(
            st.tuples(st.integers(1, 10_000), st.integers(0, 200)),
            min_size=1, max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_pooled_ae_between_min_and_max_tweet_ae(self, data):
        records = [
            tweet(imps, likes=lk, author_id="u", tweet_id=f"t{i}")
            for i, (imps, lk) in enumerate(data)
        ]
        (rec,) = rows(eng.aggregate_ae(table(records), "user"))
        ratios = [lk / imps for imps, lk in data]
        assert min(ratios) - 1e-12 <= rec["ae"]["like"] <= max(ratios) + 1e-12


class TestExports:
    def test_engagement_csv_shape(self, tmp_path):
        records = [tweet(100, likes=1, author_id="u", tweet_id="t")]
        out = eng.aggregate_ae(table(records), "user")
        path = tmp_path / "ae.csv"
        eng.write_engagement(out, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "subject,granularity,action,impressions,count,ae,mean_ae"
        assert len(lines) == 1 + 4  # one row per action

    def test_correlations_csv(self, tmp_path):
        records = [
            tweet(100, retweets=1, author_followers=10),
            tweet(200, retweets=3, author_followers=500),
            tweet(150, retweets=2, author_followers=50),
        ]
        reports = [eng.correlation_report(table(records), "retweet")]
        path = tmp_path / "corr.csv"
        eng.write_correlations(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "action,n,pearson_r,filter"
        assert lines[1].startswith("retweet,3,")

    def test_group_summary_csv(self, tmp_path):
        records = [tweet(100, likes=1, author_id="u", tweet_id="t")]
        out = eng.aggregate_ae(table(records), "user")
        summaries = eng.group_ae(out, {"u": "g"})
        path = tmp_path / "groups.csv"
        eng.write_group_summaries(summaries, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "group,action,n,mean,q1,median,q3,whisker_lo,whisker_hi"
        assert len(lines) == 1 + 4


_csv_ids = st.text(
    st.characters(exclude_categories=["Cs"], exclude_characters=",\n\r"),
    min_size=1, max_size=4,
) | st.sampled_from(["\x00", "é", "日本", "u 1"])
_amounts = st.sampled_from([0.0, 5e-324, 1e16, 0.5, 1 / 3, float(ing.MAX_COUNT)]) | st.floats(
    min_value=0.0, max_value=1e17, allow_nan=False)
_counts = st.integers(0, ing.MAX_COUNT).map(float) | st.sampled_from(
    [0.0, 2.5, float(ing.MAX_COUNT)])


@st.composite
def engagement_rows(draw):
    """One subject: impressions, and per action a count, an AE and a mean
    that is the AE, NaN or another value."""
    subject = draw(_csv_ids)
    impressions = draw(_amounts)
    per_action = []
    for _ in eng.ACTIONS:
        ae = draw(_amounts)
        mean = draw(st.sampled_from([ae, math.nan]) | _amounts)
        per_action.append((draw(_counts), ae, mean))
    return subject, impressions, per_action


@given(subjects=st.lists(engagement_rows(), max_size=12),
       granularity=st.sampled_from(eng.GRANULARITIES),
       chunk=st.sampled_from([1, 3, eng._WRITE_CHUNK]))
@settings(max_examples=200, deadline=None)
def test_engagement_bytes_match_write_table_property(tmp_path_factory, subjects,
                                                     granularity, chunk):
    """The chunked writer writes the bytes ``write_table`` writes one row at
    a time, a NaN mean as an empty field, whatever its chunk size."""
    def column(k):
        return {a: np.array([per_action[i][k] for _, _, per_action in subjects])
                for i, a in enumerate(eng.ACTIONS)}

    records = eng.EngagementTable(
        granularity=granularity, subject_ids=[s for s, _, _ in subjects],
        impressions=np.array([imp for _, imp, _ in subjects]),
        counts=column(0), ae=column(1), mean_ae=column(2),
        n_tweets=np.ones(len(subjects), dtype=np.int64))
    root = tmp_path_factory.mktemp("engagement")
    with mock.patch.object(eng, "_WRITE_CHUNK", chunk):
        eng.write_engagement(records, root / "columns.csv")
    write_table(
        root / "rows.csv",
        ("subject", "granularity", "action", "impressions", "count", "ae", "mean_ae"),
        ((subject, granularity, a, imp, count, ae, None if math.isnan(mean) else mean)
         for subject, imp, per_action in subjects
         for a, (count, ae, mean) in zip(eng.ACTIONS, per_action)))
    assert (root / "columns.csv").read_bytes() == (root / "rows.csv").read_bytes()


class Boom:
    """A value whose text form raises, to fail a writer part-way."""

    def __repr__(self):
        raise RuntimeError("boom")

    __str__ = __repr__


def engagement_table_failing_late():
    n = 2 * eng._WRITE_CHUNK + 5
    zeros = np.zeros(n)
    ids = [f"s{i:05d}" for i in range(n)]
    ids[-1] = Boom()
    return eng.EngagementTable(
        granularity="user", subject_ids=ids, impressions=np.ones(n),
        counts={a: zeros for a in eng.ACTIONS}, ae={a: zeros for a in eng.ACTIONS},
        mean_ae={a: zeros for a in eng.ACTIONS}, n_tweets=np.ones(n, dtype=np.int64),
    )


def grid_failing_late():
    class Count(Boom):
        def __float__(self):
            return 1.0

    counts = np.array([[1, 2], [3, Count()]], dtype=object)
    edges = np.linspace(0.0, 1.0, 3)
    return rep.DensityGrid(x_edges=edges, y_edges=edges, counts=counts,
                           x_label="x", y_label="y")


def histogram_failing_late():
    return rep.HistogramSeries(
        bin_edges=np.linspace(-1.0, 1.0, 3),
        series={"a": np.array([1, 2]), "b": np.array([3, Boom()], dtype=object)})


def scores_failing_late():
    return ideo.IdeologyScores(
        user_ids=["a", "b"], user_score=np.array([0.5, Boom()], dtype=object),
        influencer_ids=[], influencer_score=np.array([]),
        raw_user_score=np.array([0.5, 0.5]), raw_influencer_score=np.array([]),
        sigma1=1.0, anchor_id="", iterations=1, residual=0.0)


def graph_failing_late():
    g = gr.build_graph([retweet("A", "B", "t1"), retweet("C", "B", "t2")])
    return dataclasses.replace(g, out_weights=np.array([1, Boom()], dtype=object))


class BoomDict(dict):
    """A non-empty mapping whose items raise, to fail a JSON writer part-way."""

    def items(self):
        raise RuntimeError("boom")


def write_grid(grid, path):
    rep.write_grid(grid, path, path.with_suffix(".json"))


def write_json(obj, path):
    ing.write_json(path, obj)


class TestAtomicWriters:
    @pytest.mark.parametrize("write,rows", [
        (eng.write_engagement, engagement_table_failing_late),
        (eng.write_correlations, lambda: [
            eng.CorrelationReport("like", 3, 0.5, "f"),
            eng.CorrelationReport("quote", 3, Boom(), "f")]),
        (eng.write_group_summaries, lambda: [
            eng.GroupSummary("g", "like", 1, *[0.5] * 6),
            eng.GroupSummary("g", "quote", 1, Boom(), *[0.5] * 5)]),
        (lambda rows, path: blk.write_columns(path, rows._fields, rows), lambda:
            mb.UserLeanings(["a", "b"], np.array([1, 1]), [0.5, Boom()])),
        (blk.write_count_report, lambda: Counter({"a": 1, "b": Boom()})),
        (write_grid, grid_failing_late),
        (rep.write_histogram, histogram_failing_late),
        (ideo.write_scores, scores_failing_late),
        (gr.write_edge_list, graph_failing_late),
        (write_json, lambda: {"a": 1, "b": BoomDict(c=2)}),
    ])
    def test_writer_failing_midway_leaves_no_file(self, tmp_path, write, rows):
        with pytest.raises(RuntimeError, match="boom"):
            write(rows(), tmp_path / "out.csv")
        assert list(tmp_path.iterdir()) == []
