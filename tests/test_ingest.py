import dataclasses
import gzip
import itertools
import json
import re
import string
import time
import tracemalloc
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echoaudit import ingest as ing
from echoaudit import synth
from echoaudit.errors import InputError

import _tables as tables
from _flat_oracle import flat_corpus
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

    @pytest.mark.parametrize("field", ["tweet_id", "author_id", "retweeted_author_id"])
    @pytest.mark.parametrize("value", ["a,b", "a\nb", "a\rb", " a", "a\t",
                                       "a\u2028", "a\ud800"])
    def test_id_unsafe_for_csv_rejected(self, tmp_path, field, value):
        bad = {"kind": "retweet", "retweeted_author_id": "bob", field: value}
        path = write_lines(tmp_path / "c.jsonl", [flat_line(**bad), flat_line()])
        rejects = Counter()
        records = list(ing.parse_corpus(path, rejects=rejects))
        assert [r.tweet_id for r in records] == ["t1"]
        assert rejects == Counter({"id_not_csv_safe": 1})

    @pytest.mark.parametrize("value", ["a b", "caf\u00e9", "\u4e2d", "#1", "a\"b"])
    def test_id_with_inner_space_or_non_ascii_kept(self, tmp_path, value):
        path = write_lines(tmp_path / "c.jsonl", [flat_line(author_id=value)])
        (rec,) = ing.parse_corpus(path)
        assert rec.author_id == value

    @pytest.mark.parametrize("where", ["id", "author_id", "referenced"])
    def test_api_id_unsafe_for_csv_rejected(self, tmp_path, where):
        obj = {"id": "901", "author_id": "bob", "created_at": "2023-01-09T08:00:00Z",
               "lang": "en",
               "referenced_tweets": [{"type": "retweeted", "author_id": "carol"}]}
        if where == "referenced":
            obj["referenced_tweets"][0]["author_id"] = "car,ol"
        else:
            obj[where] = obj[where] + " "
        path = write_lines(tmp_path / "api.jsonl", [json.dumps(obj)])
        rejects = Counter()
        assert list(ing.parse_corpus(path, schema="api", rejects=rejects)) == []
        assert rejects == Counter({"id_not_csv_safe": 1})

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

    @pytest.mark.parametrize("value", [
        "yesterday", "garbage, with comma", "2023-13-01T00:00:00Z",
        # Valid ISO-8601, but out of range once moved to UTC.
        "0001-01-01T00:00:00+01:00", "9999-12-31T23:00:00-02:00",
    ])
    def test_bad_created_at_one_reason_in_both_schemas(self, tmp_path, value):
        api = {"id": "9", "author_id": "bob", "created_at": value, "lang": "en"}
        for schema, line in (("flat", flat_line(created_at=value)),
                             ("api", json.dumps(api))):
            path = write_lines(tmp_path / f"{schema}.jsonl", [line])
            rejects = Counter()
            assert list(ing.parse_corpus(path, schema=schema, rejects=rejects)) == []
            assert rejects == Counter({"bad_created_at": 1})

    @pytest.mark.parametrize("field,api_path", [
        ("impressions", ("public_metrics", "impression_count")),
        ("likes", ("public_metrics", "like_count")),
        ("replies", ("public_metrics", "reply_count")),
        ("retweets", ("public_metrics", "retweet_count")),
        ("quotes", ("public_metrics", "quote_count")),
        ("author_followers", ("author", "public_metrics", "followers_count")),
    ])
    def test_count_above_exact_float_limit_rejected_in_both_schemas(
            self, tmp_path, field, api_path):
        """Such counts used to pass ingest and crash engagement's float64."""
        for value, reason in ((2**53 - 1, None), (2**53, f"count_too_large_{field}"),
                              (10**400, f"count_too_large_{field}")):
            api = {"id": "9", "author_id": "bob", "lang": "en",
                   "created_at": "2023-01-05T12:00:00Z"}
            node = api
            for key in api_path[:-1]:
                node = node.setdefault(key, {})
            node[api_path[-1]] = value
            for schema, line in (("flat", flat_line(**{field: value})),
                                 ("api", json.dumps(api))):
                path = write_lines(tmp_path / f"{schema}.jsonl", [line])
                rejects = Counter()
                records = list(ing.parse_corpus(path, schema=schema, rejects=rejects))
                if reason is None:
                    assert getattr(records[0], field) == value and not rejects
                else:
                    assert records == [] and rejects == Counter({reason: 1})

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

    @pytest.mark.parametrize("override,reason", [
        ({"public_metrics": [1]}, "bad_public_metrics"),
        ({"public_metrics": "x"}, "bad_public_metrics"),
        ({"referenced_tweets": [{"type": ["x"]}]}, "unknown_kind"),
        ({"referenced_tweets": [{"type": {"a": 1}}]}, "unknown_kind"),
        ({"referenced_tweets": [{"type": 3}]}, "unknown_kind"),
        ({"referenced_tweets": ["retweeted"]}, "bad_referenced_tweets"),
        ({"referenced_tweets": [[]]}, "bad_referenced_tweets"),
        ({"referenced_tweets": "retweeted"}, "bad_referenced_tweets"),
        ({"referenced_tweets": {"type": "retweeted"}}, "bad_referenced_tweets"),
        ({"author": {"public_metrics": 7}}, "bad_author"),
        ({"author": ["bob"]}, "bad_author"),
        ({"entities": [1]}, "bad_urls"),
        ({"entities": "x"}, "bad_urls"),
        ({"entities": {"urls": ["https://a.test/"]}}, "bad_urls"),
        ({"entities": {"urls": "https://a.test/"}}, "bad_urls"),
        ({"entities": {"urls": [{"expanded_url": 5}]}}, "bad_urls"),
        # A reason met before the bad object is read keeps its place.
        ({"public_metrics": [1], "id": None}, "missing_id"),
        ({"public_metrics": [1], "lang": 5}, "missing_lang"),
        ({"author": 7, "referenced_tweets": [{"type": "liked"}]}, "unknown_kind"),
    ])
    def test_api_bad_objects_counted_not_raised(self, tmp_path, override, reason):
        """Each used to end in an AttributeError or TypeError traceback."""
        obj = {"id": "901", "author_id": "bob", "created_at": "2023-01-09T08:00:00Z",
               "lang": "en", **override}
        path = write_lines(tmp_path / "api.jsonl", [json.dumps(obj)])
        rejects = Counter()
        assert list(ing.parse_corpus(path, schema="api", rejects=rejects)) == []
        assert rejects == Counter({reason: 1})

    @pytest.mark.parametrize("override", [
        {"public_metrics": []}, {"public_metrics": 0}, {"referenced_tweets": {}},
        {"entities": ""}, {"entities": {"urls": {}}}, {"entities": {"urls": None}},
        {"author": {"public_metrics": None}},
    ])
    def test_api_false_objects_stand_for_absent(self, tmp_path, override):
        obj = {"id": "901", "author_id": "bob", "created_at": "2023-01-09T08:00:00Z",
               "lang": "en", **override}
        path = write_lines(tmp_path / "api.jsonl", [json.dumps(obj)])
        (rec,) = ing.parse_corpus(path, schema="api")
        assert rec.kind == "original" and rec.urls == [] and rec.impressions == 0

    def test_roundtrip_through_flat_writer(self, tmp_path, mini_corpus_path):
        records = list(ing.parse_corpus(mini_corpus_path))
        out = tmp_path / "again.jsonl"
        ing.write_corpus(records, out)
        again = list(ing.parse_corpus(out))
        assert again == records


# Keys ingest reads, at the top level of either schema and inside the api
# schema's nested objects.
_DECODER_KEYS = (
    "tweet_id", "author_id", "created_at", "lang", "kind", "retweeted_author_id",
    "impressions", "likes", "replies", "retweets", "quotes", "urls",
    "author_followers", "id", "referenced_tweets", "public_metrics", "entities",
    "author",
)
_NESTED_KEYS = ("type", "author_id", "urls", "expanded_url", "url",
                "public_metrics", "followers_count", "impression_count",
                "like_count", "reply_count", "retweet_count", "quote_count")
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4)
    | st.sampled_from(["retweeted", "quoted", "replied_to", "original", "en",
                       "2023-01-05T12:00:00Z", "2023-01-05T12:00:00",
                       "https://a.test/x", "bob"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(_NESTED_KEYS) | st.text(max_size=2),
                                     inner, max_size=4)),
    max_leaves=12,
)
# Counted alongside a kept record; every other key is a reject reason.
_DIAGNOSTICS = {"naive_timestamp_assumed_utc", "self_retweet_kept",
                "retweet_missing_target_kept"}


@given(obj=st.fixed_dictionaries(
    {}, optional={key: _json_values for key in _DECODER_KEYS}))
@settings(max_examples=500, deadline=None)
@example(obj={"public_metrics": [1]})
@example(obj={"referenced_tweets": [{"type": ["x"]}]})
@example(obj={"author": {"public_metrics": 7}})
@example(obj={"entities": {"urls": [1]}})
def test_any_object_gives_a_record_or_one_reason(tmp_path_factory, obj):
    path = write_lines(tmp_path_factory.mktemp("decode") / "c.jsonl", [json.dumps(obj)])
    for schema in ("flat", "api"):
        rejects = Counter()
        records = list(ing.parse_corpus(path, schema=schema, rejects=rejects))
        reasons = {k: n for k, n in rejects.items() if k not in _DIAGNOSTICS}
        if records:
            assert len(records) == 1 and reasons == {}, (schema, reasons)
        else:
            assert list(reasons.values()) == [1], (schema, rejects)


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


class TestOpenAtomic:
    def test_error_keeps_old_file_and_leaves_no_temporary(self, tmp_path):
        out = tmp_path / "a.csv"
        out.write_text("old\n", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with ing.open_atomic(out) as fh:
                fh.write("half")
                raise RuntimeError("stop")
        assert out.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]

    @pytest.mark.parametrize("name", ["a.csv", "a.jsonl.gz"])
    def test_replaces_on_success(self, tmp_path, name):
        out = tmp_path / name
        out.write_text("old\n", encoding="utf-8")
        with ing.open_atomic(out) as fh:
            fh.write("new\n")
        data = out.read_bytes()
        if name.endswith(".gz"):
            data = gzip.decompress(data)
        assert data == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_gzip_bytes_depend_on_the_text_alone(self, tmp_path):
        """The header used to hold the write time and the temporary name."""
        written = []
        for run in ("a", "b"):
            if written:
                time.sleep(1.1)  # the header's time has whole seconds
            out = tmp_path / run / "x.jsonl.gz"
            out.parent.mkdir()
            with ing.open_atomic(out) as fh:
                fh.write("same text\n")
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert gzip.decompress(written[0]) == b"same text\n"
        # FNAME flag set, then the name after the 10-byte fixed header.
        assert written[0][3] & 0x08 and written[0][10:18] == b"x.jsonl\0"


def test_count_report_format(tmp_path):
    out = tmp_path / "rejects.csv"
    ing.write_count_report(Counter({"b_reason": 2, "a_reason": 5}), out)
    assert out.read_text() == "reason,count\na_reason,5\nb_reason,2\n"


# Any text, including control characters, quotes, backslashes, non-BMP
# characters and lone surrogates.
any_text = st.text(st.characters(exclude_categories=()), max_size=12)
fixed_offsets = st.builds(
    timezone, st.timedeltas(min_value=timedelta(hours=-23, minutes=-59),
                            max_value=timedelta(hours=23, minutes=59)))
# A margin of one year keeps every offset inside datetime's range.
any_datetime = st.datetimes(min_value=datetime(2, 1, 1),
                            max_value=datetime(9998, 12, 31), timezones=fixed_offsets)
counts = st.integers(min_value=0, max_value=2**70)

flat_records = st.builds(
    ing.TweetRecord,
    tweet_id=any_text, author_id=any_text, created_at=any_datetime,
    lang=any_text, kind=any_text, retweeted_author_id=st.none() | any_text,
    impressions=counts, likes=counts, replies=counts, retweets=counts,
    quotes=counts, urls=st.lists(any_text, max_size=3), author_followers=counts,
)

UNUSUAL = make_record(
    tweet_id='t"1\\', author_id="café 中\U0001f600",
    created_at="0999-06-01T03:04:05-07:30", lang="e\ud800n", kind="re\x00\x1f\x7f",
    retweeted_author_id="\udfff", impressions=2**64, likes=10**30,
    urls=["https://x.test/ ", "\n\r\t\b\f", "\ud83d", ""], author_followers=1,
)


EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
# Whole seconds since the epoch, from 0001-01-01T00:00:00Z to the last
# second of 9999, with both ends drawn often.
epoch_seconds = st.sampled_from([-62135596800, 253402300799]) | st.integers(
    min_value=-62135596800, max_value=253402300799)
small_counts = st.sampled_from([0, ing.MAX_COUNT]) | st.integers(0, ing.MAX_COUNT)
# A row of flat_lines, with its time in epoch seconds.
flat_rows = st.tuples(
    epoch_seconds,
    st.tuples(any_text, any_text, any_text, st.sampled_from(ing.KINDS),
              st.none() | any_text, small_counts, small_counts, small_counts,
              small_counts, small_counts, st.lists(any_text, max_size=3), small_counts))


@st.composite
def flat_blocks(draw):
    """Up to four distinct rows, and the order of a block that repeats them
    in turn: 0 rows, 1 row, each once, or one row more than synth writes at
    a time."""
    distinct = draw(st.lists(flat_rows, min_size=1, max_size=4))
    n = draw(st.sampled_from([0, 1, len(distinct), synth._BLOCK + 1]))
    return distinct, list(itertools.islice(itertools.cycle(range(len(distinct))), n))


class TestFlatLine:
    @given(block=flat_blocks())
    @settings(max_examples=60, deadline=None)
    def test_block_equals_flat_line_and_json_dumps_oracle(self, block):
        distinct, order = block
        stamps = ing.format_epoch_seconds([seconds for seconds, _ in distinct])
        # Each distinct row's line, checked once against the oracle.
        lines = []
        for ts, (seconds, row) in zip(stamps, distinct):
            line = tables.flat_line(row[0], row[1], ts, *row[2:])
            record = ing.TweetRecord(row[0], row[1], EPOCH + timedelta(seconds=seconds),
                                     *row[2:])
            assert line == flat_corpus([record])
            lines.append(line)
        text = ing.flat_lines(ing.format_epoch_seconds([distinct[i][0] for i in order]),
                              [distinct[i][1] for i in order])
        assert text == "".join(lines[i] for i in order)

    @given(records=st.lists(flat_records, max_size=5))
    @example(records=[UNUSUAL, make_record(retweeted_author_id="bob", urls=["a", "b"])])
    @settings(max_examples=200, deadline=None)
    def test_write_corpus_equals_json_dumps_oracle(self, tmp_path_factory, records):
        out = tmp_path_factory.mktemp("flat") / "out.jsonl"
        assert ing.write_corpus(records, out) == len(records)
        assert out.read_bytes() == flat_corpus(records).encode("ascii")

    @given(ts=any_datetime)
    @example(ts=datetime(999, 6, 1, tzinfo=timezone.utc))
    @example(ts=datetime(1, 1, 1, tzinfo=timezone.utc))
    def test_timestamp_round_trip_keeps_four_digit_year(self, ts):
        text = ing.format_timestamp(ts)
        assert len(text) == 20 and text[4] == "-" and text.endswith("Z")
        assert ing.parse_timestamp(text) == ts.astimezone(timezone.utc).replace(microsecond=0)

    def test_timestamp_matches_strftime_from_year_1000(self):
        for ts in (datetime(1000, 1, 1, tzinfo=timezone.utc),
                   datetime(2023, 2, 3, 4, 5, 6, 789, tzinfo=timezone.utc),
                   datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc)):
            assert ing.format_timestamp(ts) == ts.strftime("%Y-%m-%dT%H:%M:%SZ")

    def test_record_before_year_1000_survives_reingest(self, tmp_path):
        """Filtered output is valid input: a year-999 record used to be
        written as ``999-06-01...`` and rejected on the next pass."""
        path = write_lines(tmp_path / "c.jsonl",
                           [flat_line(created_at="0999-06-01T00:00:00Z"), flat_line()])
        keep_all = ing.CorpusFilter(min_date=datetime(1, 1, 1, tzinfo=timezone.utc))
        first = list(ing.apply_filters(ing.parse_corpus(path), keep_all))
        assert len(first) == 2
        out = tmp_path / "filtered.jsonl"
        ing.write_corpus(first, out)
        assert '"created_at": "0999-06-01T00:00:00Z"' in out.read_text()
        rejects = Counter()
        assert list(ing.parse_corpus(out, rejects=rejects)) == first
        assert not rejects


# Ordinary values that flat_lines writes as they are, and for each field
# values at and just past the edges of that fixed layout: what it copies,
# what it escapes, and what only the JSON path accepts or rejects.
_ids = st.text(string.ascii_letters + string.digits + "_-.:", min_size=1, max_size=8)
_COUNTS = ("impressions", "likes", "replies", "retweets", "quotes", "author_followers")
_ORDINARY = {
    "tweet_id": _ids, "author_id": _ids,
    "created_at": st.datetimes(timezones=st.just(timezone.utc)).map(ing.format_timestamp),
    "lang": st.sampled_from(["en", "fr", "und"]),
    "kind": st.sampled_from(ing.KINDS),
    "retweeted_author_id": st.none() | _ids,
    "urls": st.lists(st.sampled_from(["https://a.test/x", "", "a, b", "x y"]), max_size=3),
    **{name: st.integers(min_value=0, max_value=10**9) for name in _COUNTS},
}
# Printable ASCII, the characters flat_lines escapes, and whitespace that
# str.strip removes.
_edge_text = st.text(string.printable + '"\\\x00\x1f\x7f\x85\xa0é中\u2028\U0001f600',
                     max_size=4)
_edge_ids = st.sampled_from(
    ["a b", "x!#$%&'()*+-./:;<=>?@[]^_`{|}~", "", "a,b", " a", "a ", 'a"b', "a\\b",
     "café", "a\x01b", "\x7f", "\ud800"]) | _edge_text
_edge_counts = st.sampled_from(
    [0, 10**15 - 1, 10**15, ing.MAX_COUNT, ing.MAX_COUNT + 1, 2**64])
_EDGES = {
    "tweet_id": _edge_ids, "author_id": _edge_ids, "retweeted_author_id": _edge_ids,
    "created_at": st.sampled_from(
        ["0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z", "2024-02-29T23:59:59Z",
         "2023-02-30T00:00:00Z", "0000-06-01T00:00:00Z", "2023-01-01T00:00:60Z",
         "2023-01-01T24:00:00Z", "2023-01-05T12:00:00z", "2023-01-05T12:00:00",
         "2023-01-05T12:00:00+01:00", "2023-1-05T12:00:00Z",
         "\uff12\uff10\uff12\uff13-01-05T12:00:00Z", ""]),
    "lang": st.sampled_from(["EN", "eN", "", " ", "a,b", "é", 'e"n']),
    "kind": st.sampled_from(["Retweet", "", "other"]),
    "urls": st.lists(_edge_text, max_size=3),
    **{name: _edge_counts for name in _COUNTS},
}


def _leading_zero(line):
    return line.replace('"likes": ', '"likes": 0', 1)


def _raw_control_character(line):
    return line.replace('"author_id": "', '"author_id": "\t', 1)


def _reordered_keys(line):
    return json.dumps(dict(reversed(json.loads(line).items())))


def _compact(line):
    return json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))


def _negative_count(line):
    return line.replace('"quotes": ', '"quotes": -', 1)


def _float_count(line):
    return line.replace('"replies": 0,', '"replies": 0.0,', 1)


def _extra_key(line):
    return line[:-1] + ', "zz": 1}'


def _cut(line):
    return line[:len(line) // 2]


def _unescaped(line):
    """Non-ASCII characters written raw, as ``ensure_ascii=False`` does."""
    text = json.dumps(json.loads(line), sort_keys=True, ensure_ascii=False)
    # A lone surrogate has no UTF-8 form, so it stays escaped.
    return line if re.search("[\ud800-\udfff]", text) else text


_MUTATIONS = (_leading_zero, _raw_control_character, _reordered_keys,
              _compact, _negative_count, _float_count, _extra_key, _cut,
              _unescaped)


@st.composite
def corpus_lines(draw):
    """A flat_lines line, often with one edge value, and often changed after
    it was written."""
    fields = draw(st.fixed_dictionaries(_ORDINARY))
    edge = draw(st.none() | st.sampled_from(sorted(_EDGES)))
    if edge is not None:
        fields[edge] = draw(_EDGES[edge])
    line = tables.flat_line(**fields).rstrip("\n")
    mutate = draw(st.none() | st.sampled_from(_MUTATIONS))
    return line if mutate is None else mutate(line)


def decoded_as_json(lines):
    """The records and rejects of the JSON path, one line at a time."""
    records, rejects = [], Counter()
    for line in lines:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            rejects["invalid_json"] += 1
            continue
        try:
            rec = ing._record_from_flat(obj, rejects)
        except ValueError as exc:
            rejects[str(exc)] += 1
            continue
        if rec.is_self_retweet:
            rejects["self_retweet_kept"] += 1
        if rec.kind in ("retweet", "quote") and rec.retweeted_author_id is None:
            rejects["retweet_missing_target_kept"] += 1
        records.append(rec)
    return records, rejects


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` for one test; returns the list of its calls."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestFixedLayout:
    @given(lines=st.lists(corpus_lines(), min_size=1, max_size=6))
    @example(lines=[tables.flat_line("t1", "bob", "2023-01-05T12:00:00Z", "en", "retweet",
                                     "bob", ing.MAX_COUNT, 0, 0, 0, 0, ["a", ""], 1)
                    .rstrip("\n")])
    @settings(max_examples=500, deadline=None)
    def test_same_records_and_rejects_as_the_json_path(self, tmp_path_factory, lines):
        path = write_lines(tmp_path_factory.mktemp("layout") / "c.jsonl", lines)
        rejects = Counter()
        records = list(ing.parse_corpus(path, rejects=rejects))
        want_records, want_rejects = decoded_as_json(lines)
        assert rejects == want_rejects
        assert records == want_records
        out = path.with_name("out.jsonl")
        ing.write_corpus(records, out)
        assert out.read_bytes() == flat_corpus(records).encode("ascii")

    def test_mini_fixture_decodes_without_json(self, mini_corpus_path, monkeypatch):
        calls = _count_calls(monkeypatch, json, "loads")
        records = list(ing.parse_corpus(mini_corpus_path))
        assert len(records) == 962 and calls == []

    def test_unchanged_records_written_without_encoding(
            self, mini_corpus_path, tmp_path, monkeypatch):
        records = list(ing.parse_corpus(mini_corpus_path))
        calls = _count_calls(monkeypatch, ing, "flat_lines")
        out = tmp_path / "again.jsonl"
        assert ing.write_corpus(records, out) == 962 and calls == []
        assert out.read_bytes() == mini_corpus_path.read_bytes()

    def test_replaced_record_is_encoded_again(self, mini_corpus_path, tmp_path):
        rec = next(ing.parse_corpus(mini_corpus_path))
        changed = dataclasses.replace(rec, lang="fr")
        assert rec.line is not None and changed.line is None
        out = tmp_path / "changed.jsonl"
        ing.write_corpus([changed], out)
        assert out.read_text(encoding="ascii") == flat_corpus([changed])
        assert '"lang": "fr"' in out.read_text(encoding="ascii")
