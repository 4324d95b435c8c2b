import gzip
import json
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echoaudit import ingest as ing
from echoaudit.errors import InputError

from conftest import make_record

CUTOFF = "2022-12-15T00:00:00Z"


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def flat_line(**overrides):
    obj = {
        "tweet_id": "t1", "author_id": "alice",
        "created_at": "2023-01-05T12:00:00Z", "lang": "en", "kind": "original",
        "retweeted_author_id": None, "impressions": 100, "likes": 1,
        "replies": 0, "retweets": 2, "quotes": 0, "urls": [],
        "author_followers": 10,
    }
    obj.update(overrides)
    return json.dumps(obj)


class TestParseCorpus:
    def test_valid_plus_malformed_lines(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", [
            flat_line(tweet_id="t1"),
            flat_line(tweet_id="t2"),
            "{this is not json",
            flat_line(tweet_id="t3"),
        ])
        rejects = Counter()
        records = list(ing.parse_corpus(path, rejects=rejects))
        assert [r.tweet_id for r in records] == ["t1", "t2", "t3"]
        assert rejects["invalid_json"] == 1

    def test_empty_file(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", [""])
        rejects = Counter()
        assert list(ing.parse_corpus(path, rejects=rejects)) == []
        assert sum(rejects.values()) == 0

    def test_mini_fixture_record_count(self, mini_corpus_path, mini_raw):
        # independent count: non-empty lines of the file
        n_lines = sum(
            1 for line in mini_corpus_path.read_text().splitlines() if line.strip()
        )
        records = list(ing.parse_corpus(mini_corpus_path))
        assert len(records) == n_lines == len(mini_raw) == 962

    def test_mini_fixture_zero_rejects(self, mini_corpus_path):
        rejects = Counter()
        list(ing.parse_corpus(mini_corpus_path, rejects=rejects))
        assert {k: v for k, v in rejects.items() if not k.endswith("_kept")} == {}

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(InputError):
            ing.parse_corpus(tmp_path / "nope.jsonl")

    def test_unknown_schema_fatal(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", [flat_line()])
        with pytest.raises(InputError):
            ing.parse_corpus(path, schema="parquet")

    @pytest.mark.parametrize("mutation,reason", [
        ({"likes": -1}, "negative_count_likes"),
        ({"kind": "broadcast"}, "unknown_kind"),
        ({"urls": "https://x.test"}, "bad_urls"),
        ({"created_at": "yesterday"}, None),
        ({"tweet_id": ""}, "missing_tweet_id"),
        ({"impressions": 3.5}, "bad_count_impressions"),
    ])
    def test_malformed_records_skipped(self, tmp_path, mutation, reason):
        path = write_lines(tmp_path / "c.jsonl", [flat_line(**mutation), flat_line()])
        rejects = Counter()
        records = list(ing.parse_corpus(path, rejects=rejects))
        assert len(records) == 1
        assert sum(rejects.values()) == 1
        if reason is not None:
            assert rejects[reason] == 1

    def test_gzip_by_extension(self, tmp_path):
        data = "\n".join([flat_line(tweet_id=f"t{i}") for i in range(5)]) + "\n"
        path = tmp_path / "c.jsonl.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(data)
        assert len(list(ing.parse_corpus(path))) == 5

    @pytest.mark.parametrize("damage", ["truncated", "not_gzip"])
    def test_corrupt_gzip_is_input_error(self, tmp_path, damage):
        data = gzip.compress(("\n".join(flat_line(tweet_id=f"t{i}")
                                         for i in range(200)) + "\n").encode())
        path = tmp_path / "c.jsonl.gz"
        path.write_bytes(data[:len(data) // 2] if damage == "truncated"
                         else b"plain text\n")
        with pytest.raises(InputError, match="corrupt gzip data"):
            list(ing.parse_corpus(path))

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_undecodable_line_counted_as_text_mode_counts(self, tmp_path, newline):
        lines = [flat_line(tweet_id=f"t{i}").encode() for i in range(4)]
        lines[2] = lines[2].replace(b"t2", b"t\xe92")
        path = tmp_path / "c.jsonl"
        path.write_bytes(newline.join(lines) + newline)
        with pytest.raises(InputError, match=r"c\.jsonl:3: not valid UTF-8"):
            list(ing.parse_corpus(path))

    def test_naive_timestamp_assumed_utc(self, tmp_path):
        path = write_lines(
            tmp_path / "c.jsonl", [flat_line(created_at="2023-01-05T12:00:00")]
        )
        rejects = Counter()
        (rec,) = ing.parse_corpus(path, rejects=rejects)
        assert rec.created_at == ing.parse_timestamp("2023-01-05T12:00:00Z")
        assert rejects["naive_timestamp_assumed_utc"] == 1

    def test_retweet_without_target_is_kept_and_tallied(self, tmp_path):
        path = write_lines(
            tmp_path / "c.jsonl",
            [flat_line(kind="retweet", retweeted_author_id=None)],
        )
        rejects = Counter()
        (rec,) = ing.parse_corpus(path, rejects=rejects)
        assert rec.kind == "retweet" and rec.retweeted_author_id is None
        assert rejects["retweet_missing_target_kept"] == 1

    def test_self_retweet_kept_and_flagged(self, tmp_path):
        path = write_lines(
            tmp_path / "c.jsonl",
            [flat_line(kind="retweet", retweeted_author_id="alice")],
        )
        rejects = Counter()
        (rec,) = ing.parse_corpus(path, rejects=rejects)
        assert rec.is_self_retweet
        assert rejects["self_retweet_kept"] == 1

    def test_api_schema(self, tmp_path):
        obj = {
            "id": "901", "author_id": "bob", "created_at": "2023-01-09T08:00:00.000Z",
            "lang": "EN",
            "referenced_tweets": [{"type": "retweeted", "author_id": "carol"}],
            "public_metrics": {
                "impression_count": 1234, "like_count": 5, "reply_count": 1,
                "retweet_count": 7, "quote_count": 2,
            },
            "entities": {"urls": [{"expanded_url": "https://example.com/a"}]},
            "author": {"public_metrics": {"followers_count": 99}},
        }
        path = write_lines(tmp_path / "api.jsonl", [json.dumps(obj)])
        (rec,) = ing.parse_corpus(path, schema="api")
        assert rec.tweet_id == "901"
        assert rec.kind == "retweet"
        assert rec.retweeted_author_id == "carol"
        assert rec.lang == "en"
        assert (rec.impressions, rec.likes, rec.replies, rec.retweets, rec.quotes) == \
            (1234, 5, 1, 7, 2)
        assert rec.urls == ["https://example.com/a"]
        assert rec.author_followers == 99

    def test_roundtrip_through_flat_writer(self, tmp_path, mini_corpus_path):
        records = list(ing.parse_corpus(mini_corpus_path))
        out = tmp_path / "again.jsonl"
        ing.write_corpus(records, out)
        again = list(ing.parse_corpus(out))
        assert again == records


class TestApplyFilters:
    def test_pre_cutoff_excluded(self):
        rec = make_record(created_at="2022-12-10T00:00:00Z")
        exclusions = Counter()
        assert list(ing.apply_filters([rec], exclusions=exclusions)) == []
        assert exclusions["before_min_date"] == 1

    def test_english_post_cutoff_retained(self):
        rec = make_record(created_at="2023-01-05T00:00:00Z", lang="en")
        assert list(ing.apply_filters([rec])) == [rec]

    def test_cutoff_boundary_is_inclusive(self):
        rec = make_record(created_at=CUTOFF)
        assert list(ing.apply_filters([rec])) == [rec]

    def test_language_filter(self):
        rec = make_record(lang="de")
        exclusions = Counter()
        assert list(ing.apply_filters([rec], exclusions=exclusions)) == []
        assert exclusions["lang_not_allowed"] == 1

    def test_mini_retained_count_matches_independent_recount(
        self, mini_corpus_path, mini_raw
    ):
        expected = sum(
            1 for o in mini_raw
            if o["created_at"] >= CUTOFF and o["lang"] == "en"
        )
        retained = list(ing.apply_filters(ing.parse_corpus(mini_corpus_path)))
        assert len(retained) == expected == 908

    def test_counts_partition_input(self, mini_corpus_path, mini_raw):
        exclusions = Counter()
        retained = list(
            ing.apply_filters(ing.parse_corpus(mini_corpus_path), exclusions=exclusions)
        )
        assert exclusions["retained"] == len(retained)
        assert sum(exclusions.values()) == len(mini_raw)
        assert exclusions["before_min_date"] == 27
        assert exclusions["lang_not_allowed"] == 27


records_strategy = st.lists(
    st.builds(
        make_record,
        tweet_id=st.text(alphabet="abc123", min_size=1, max_size=4),
        created_at=st.sampled_from([
            "2022-11-30T00:00:00Z", "2022-12-14T23:59:59Z", CUTOFF,
            "2023-01-01T00:00:00Z", "2023-02-28T12:00:00Z",
        ]),
        lang=st.sampled_from(["en", "de", "uk", "en-gb"]),
        kind=st.sampled_from(["original", "retweet", "quote", "reply"]),
    ),
    max_size=40,
)


class TestFilterProperties:
    @given(records=records_strategy)
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, records):
        once = list(ing.apply_filters(records))
        twice = list(ing.apply_filters(once))
        assert twice == once

    @given(records=records_strategy)
    @settings(max_examples=60, deadline=None)
    def test_partition(self, records):
        exclusions = Counter()
        retained = list(ing.apply_filters(records, exclusions=exclusions))
        assert exclusions["retained"] == len(retained)
        assert sum(exclusions.values()) == len(records)


class TestSubsets:
    def test_engagement_subset_drops_reply(self):
        reply = make_record(kind="reply")
        original = make_record(kind="original")
        assert list(ing.engagement_subset([reply, original])) == [original]

    def test_engagement_subset_mini_originals(self, mini_retained, mini_raw):
        expected = sum(
            1 for o in mini_raw
            if o["created_at"] >= CUTOFF and o["lang"] == "en"
            and o["kind"] == "original"
        )
        got = list(ing.engagement_subset(mini_retained))
        assert len(got) == expected == 357

    def test_network_subset_keeps_only_retweets(self, mini_retained):
        got = list(ing.network_subset(mini_retained))
        assert got and all(r.kind == "retweet" for r in got)


class TestStreaming:
    def test_peak_memory_independent_of_corpus_size(self, tmp_path, mini_corpus_path):
        base = mini_corpus_path.read_text(encoding="utf-8")
        small = tmp_path / "x1.jsonl"
        small.write_text(base, encoding="utf-8")
        big = tmp_path / "x10.jsonl"
        big.write_text(base * 10, encoding="utf-8")

        def peak(path) -> int:
            tracemalloc.start()
            n = 0
            for _ in ing.apply_filters(ing.parse_corpus(path)):
                n += 1
            _, top = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert n > 0
            return top

        p1 = peak(small)
        p10 = peak(big)
        assert p10 < 2.5 * p1, f"peak grew with input size: {p1} -> {p10}"


def test_count_report_format(tmp_path):
    out = tmp_path / "rejects.csv"
    ing.write_count_report(Counter({"b_reason": 2, "a_reason": 5}), out)
    assert out.read_text() == "reason,count\na_reason,5\nb_reason,2\n"
