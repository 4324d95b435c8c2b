"""The columnar engagement and report stages against the record-at-a-time oracle.

Random original tweets go through ``ingest.write_corpus``; ``cmd_engagement``
and ``cmd_report`` read that corpus, and ``_engagement_oracle`` replays the
same stages on ``TweetRecord`` lists.  Every engagement artifact and the
report's ``ae_density_*`` and ``leaning_hist_*`` files must match byte for
byte.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from echoaudit import cli
from echoaudit import graph as gr
from echoaudit import ingest as ing
from echoaudit import mediabias as mb

import _engagement_oracle as oracle
from _matrix_helpers import scores_of
from conftest import make_record, retweet

DOMAINS_CSV = (
    "domain,leaning_label,reliability\n"
    "left.test,Left,reliable\n"
    "right.test,Right,reliable\n"
    "center.test,LeastBiased,reliable\n"
    "shady.test,ExtremeRight,questionable\n"
    "noise.test,,conspiracy_pseudoscience\n"
)

URLS = [
    "https://left.test/a", "http://www.left.test/b", "https://news.left.test/c",
    "https://right.test/x", "https://center.test/", "https://shady.test/1",
    "https://noise.test/n", "https://unknown.test/z", "ftp://", "not a url", "",
]

TWEET_IDS = ["t1", "t2", "t1\x00", "\x00", "t\x00\x00", "é", "T"]
AUTHORS = ["a", "b", "a\x00", "\x00", "c", "é"]

INFLUENCERS = {"inf": 0.25}
MAX_COUNT = 2**53 - 1
BINS = 8
counts = st.one_of(st.integers(0, 3), st.integers(0, 10**6),
                   st.integers(2**52, MAX_COUNT), st.just(MAX_COUNT))


@st.composite
def records(draw):
    return make_record(
        tweet_id=draw(st.sampled_from(TWEET_IDS)),
        author_id=draw(st.sampled_from(AUTHORS)),
        kind=draw(st.sampled_from(["original", "original", "original", "reply"])),
        impressions=draw(st.one_of(st.just(0), counts)),
        likes=draw(counts), replies=draw(counts),
        retweets=draw(counts), quotes=draw(counts),
        urls=draw(st.lists(st.sampled_from(URLS), max_size=4)),
        author_followers=draw(counts),
    )


def run_stages(tmp, corpus, domains, user_scores, flags):
    """The columnar stages through the CLI entry points."""
    argv = ["engagement", "--input", str(corpus), "--granularity", "all",
            "--group-by", "ideology", "--group-by", "reliability",
            "--group-by", "leaning", "--out-dir", str(tmp / "new")] + flags
    report_argv = ["report", "--input", str(corpus), "--graph", "unused.csv",
                   "--scores", "unused.csv", "--bins", str(BINS),
                   "--hist-bins", str(BINS), "--out-dir", str(tmp / "new")]
    if domains is not None:
        argv += ["--domains", str(domains)]
        report_argv += ["--domains", str(domains)]
    parse = cli._parser().parse_args
    scores = scores_of(user_scores, INFLUENCERS)
    cli.cmd_engagement(parse(argv), scores=scores)
    g = gr.build_graph([retweet(AUTHORS[0], AUTHORS[1])])
    cli.cmd_report(parse(report_argv), g=g, scores=scores)


def compared_files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()
            if p.name.startswith(("ae_", "correlations", "groups_", "user_leanings",
                                  "engagement_stats", "leaning_hist_"))}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(
    corpus=st.lists(records(), max_size=30),
    # report needs a scored user for its dip threshold.
    user_scores=st.dictionaries(st.sampled_from(AUTHORS),
                                st.floats(-1.0, 1.0, allow_nan=False), min_size=1),
    with_domains=st.booleans(),
    fractional=st.booleans(),
    drop_zero=st.booleans(),
)
@example(
    corpus=[
        make_record(tweet_id="t1", author_id="a", impressions=MAX_COUNT,
                    likes=MAX_COUNT, retweets=1, replies=2, quotes=3,
                    author_followers=MAX_COUNT,
                    urls=["https://left.test/a", "https://right.test/x",
                          "https://left.test/a", "https://unknown.test/z"]),
        make_record(tweet_id="t1", author_id="a\x00", impressions=MAX_COUNT,
                    likes=7, author_followers=10, urls=["https://right.test/x"]),
        make_record(tweet_id="t\x00\x00", author_id="a", impressions=0, likes=4,
                    author_followers=3, urls=["https://shady.test/1"]),
        make_record(tweet_id="\x00", author_id="b", impressions=3, likes=2,
                    retweets=1, author_followers=100,
                    urls=["https://center.test/", "https://noise.test/n"]),
    ],
    user_scores={"a": -0.5, "a\x00": 0.25, "b": 0.75},
    with_domains=True, fractional=True, drop_zero=True,
)
def test_stages_equal_the_oracle_byte_for_byte(tmp_path_factory, corpus, user_scores,
                                               with_domains, fractional, drop_zero):
    tmp = tmp_path_factory.mktemp("equivalence")
    corpus_path = tmp / "corpus.jsonl"
    ing.write_corpus(corpus, corpus_path)
    domains = None
    if with_domains:
        domains = tmp / "domains.csv"
        domains.write_text(DOMAINS_CSV, encoding="utf-8")
    flags = (["--fractional-domains"] if fractional else []) + \
        (["--drop-zero-impressions"] if drop_zero else [])
    run_stages(tmp, corpus_path, domains, user_scores, flags)

    originals = list(ing.engagement_subset(ing.parse_corpus(corpus_path)))
    table = mb.load_domain_table(domains) if domains is not None else None
    oracle.write_engagement_artifacts(originals, table, user_scores, tmp / "old",
                                      fractional=fractional,
                                      drop_zero_impressions=drop_zero)
    oracle.write_report_artifacts(originals, table, scores_of(user_scores, INFLUENCERS),
                                  tmp / "old", bins=BINS)

    new, old = compared_files(tmp / "new"), compared_files(tmp / "old")
    assert sorted(new) == sorted(old)
    for name in old:
        assert new[name] == old[name], name
