import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from echoaudit import graph as gr
from echoaudit import ideology as ideo
from echoaudit import ingest as ing
from echoaudit import synth

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


def read_truth(path) -> synth.GroundTruth:
    """The ground truth that :meth:`synth.GroundTruth.to_json` wrote."""
    with open(path, encoding="utf-8") as fh:
        return synth.GroundTruth(**json.load(fh))


def make_record(
    tweet_id="t1",
    author_id="alice",
    created_at="2023-01-05T12:00:00Z",
    lang="en",
    kind="original",
    retweeted_author_id=None,
    impressions=0,
    likes=0,
    replies=0,
    retweets=0,
    quotes=0,
    urls=(),
    author_followers=0,
) -> ing.TweetRecord:
    return ing.TweetRecord(
        tweet_id=tweet_id,
        author_id=author_id,
        created_at=ing.parse_timestamp(created_at),
        lang=lang,
        kind=kind,
        retweeted_author_id=retweeted_author_id,
        impressions=impressions,
        likes=likes,
        replies=replies,
        retweets=retweets,
        quotes=quotes,
        urls=list(urls),
        author_followers=author_followers,
    )


def retweet(author, target, tweet_id="r", created_at="2023-01-05T12:00:00Z"):
    return make_record(
        tweet_id=tweet_id, author_id=author, kind="retweet",
        retweeted_author_id=target, created_at=created_at,
    )


def dense_residual(a: np.ndarray) -> np.ndarray:
    """Independent dense construction of the standardized residual matrix."""
    a = np.asarray(a, dtype=float)
    p = a / a.sum()
    r = p.sum(axis=1)
    c = p.sum(axis=0)
    return (p - np.outer(r, c)) / np.sqrt(np.outer(r, c))


def random_count_matrix(rng: np.random.Generator, n_rows: int, n_cols: int) -> np.ndarray:
    """Random non-negative integer matrix without zero rows or columns."""
    a = rng.poisson(1.2, size=(n_rows, n_cols)).astype(float)
    for i in np.flatnonzero(a.sum(axis=1) == 0):
        a[i, int(rng.integers(n_cols))] = 1 + int(rng.integers(3))
    for j in np.flatnonzero(a.sum(axis=0) == 0):
        a[int(rng.integers(n_rows)), j] = 1 + int(rng.integers(3))
    return a


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def mini_corpus_path() -> Path:
    return FIXTURES / "mini_corpus.jsonl"


@pytest.fixture(scope="session")
def mini_raw(mini_corpus_path) -> list[dict]:
    """The fixture lines parsed with plain json; the independent recount base."""
    return [
        json.loads(line)
        for line in mini_corpus_path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


@pytest.fixture(scope="session")
def mini_truth() -> synth.GroundTruth:
    return read_truth(FIXTURES / "mini_ground_truth.json")


@pytest.fixture(scope="session")
def mini_retained(mini_corpus_path) -> list[ing.TweetRecord]:
    return list(ing.apply_filters(ing.parse_corpus(mini_corpus_path)))


@pytest.fixture(scope="session")
def mini_graph(mini_corpus_path) -> gr.RetweetGraph:
    records = ing.network_subset(ing.apply_filters(ing.parse_corpus(mini_corpus_path)))
    return gr.build_graph(records)


@pytest.fixture(scope="session")
def mini_influencers(mini_graph, mini_truth) -> tuple[str, ...]:
    return gr.select_influencers(mini_graph, mini_truth.planted_hubs, threshold=5)


@pytest.fixture(scope="session")
def mini_scores(mini_graph, mini_influencers, mini_truth) -> ideo.IdeologyScores:
    matrix = ideo.build_interaction_matrix(mini_graph, mini_influencers, min_distinct=2)
    norm = ideo.normalize(matrix)
    triplet = ideo.leading_singular_triplet(norm)
    anchor = next(h for h in mini_truth.planted_hubs
                  if mini_truth.community[h] == "A")
    return ideo.score_users_and_influencers(norm, triplet, anchor)


@pytest.fixture(scope="session")
def default_corpus(tmp_path_factory) -> synth.SynthResult:
    out = tmp_path_factory.mktemp("default_corpus")
    return synth.generate(synth.default_config(), out)


UTC = timezone.utc


def dt(text: str) -> datetime:
    return ing.parse_timestamp(text)
