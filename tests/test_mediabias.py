import json
from collections import Counter
from fractions import Fraction
from itertools import chain
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echoaudit import blocks as blk
from echoaudit import mediabias as mb
from echoaudit.errors import InputError

from _tables import originals_table as originals
from conftest import make_record

EXPECTED_MAPPING = {
    "ExtremeLeft": -1.0,
    "Left": -0.66,
    "LeftCenter": -0.33,
    "LeastBiased": 0.0,
    "RightCenter": 0.33,
    "Right": 0.66,
    "ExtremeRight": 1.0,
}


class TestLeaningMapping:
    def test_all_seven_scores_bit_exact(self):
        assert mb.LEANING_SCORES == EXPECTED_MAPPING
        for label, score in EXPECTED_MAPPING.items():
            assert mb.LEANING_SCORES[label] == score

    def test_right_reliable_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "domain,leaning_label,reliability\nexample.com,Right,reliable\n"
        )
        table = mb.load_domain_table(path)
        profile = table["example.com"]
        assert profile.leaning_score == 0.66
        assert profile.reliability == "reliable"


class TestLoadDomainTable:
    def write(self, tmp_path, rows):
        path = tmp_path / "domains.csv"
        path.write_text("domain,leaning_label,reliability\n" + "".join(
            f"{r}\n" for r in rows
        ))
        return path

    def test_label_format_variants_normalize(self, tmp_path):
        path = self.write(tmp_path, [
            "a.test,extreme left,reliable",
            "b.test,Left-Center,reliable",
            "c.test,LEAST_BIASED,reliable",
            "d.test,right center,reliable",
        ])
        table = mb.load_domain_table(path)
        assert table["a.test"].leaning_label == "ExtremeLeft"
        assert table["b.test"].leaning_label == "LeftCenter"
        assert table["c.test"].leaning_label == "LeastBiased"
        assert table["d.test"].leaning_label == "RightCenter"

    def test_unknown_label_skipped_and_logged(self, tmp_path, caplog):
        path = self.write(tmp_path, [
            "ok.test,Left,reliable",
            "bad.test,Centrist,reliable",
        ])
        with caplog.at_level("WARNING"):
            table = mb.load_domain_table(path)
        assert set(table) == {"ok.test"}
        assert any("Centrist" in m for m in caplog.messages)

    def test_unknown_reliability_skipped(self, tmp_path):
        path = self.write(tmp_path, ["x.test,Left,dubious"])
        assert mb.load_domain_table(path) == {}

    def test_reliability_variants(self, tmp_path):
        path = self.write(tmp_path, [
            "a.test,,conspiracy-pseudoscience",
            "b.test,,Questionable",
        ])
        table = mb.load_domain_table(path)
        assert table["a.test"].reliability == "conspiracy_pseudoscience"
        assert table["b.test"].reliability == "questionable"

    def test_missing_label_allowed(self, tmp_path):
        path = self.write(tmp_path, ["q.test,,questionable"])
        profile = table = mb.load_domain_table(path)["q.test"]
        assert profile.leaning_label is None
        assert profile.leaning_score is None

    def test_duplicate_domain_last_wins_with_warning(self, tmp_path, caplog):
        path = self.write(tmp_path, [
            "dup.test,Left,reliable",
            "DUP.test,Right,reliable",
        ])
        with caplog.at_level("WARNING"):
            table = mb.load_domain_table(path)
        assert table["dup.test"].leaning_label == "Right"
        assert caplog.messages == [
            f"{path}:3: duplicate domain 'dup.test'; keeping the last row"]

    def test_warnings_name_the_line_a_row_starts_on(self, tmp_path, caplog):
        """A quoted domain holding a line break is skipped, and the rows
        after it keep their line numbers; blank lines count too."""
        path = tmp_path / "d4.csv"
        path.write_text('domain,leaning_label,reliability\n"a.test\nb",Left,reliable\n'
                        "x.test,Left,bogus\n\n\"  tab\tsep.test  \",Left,reliable\n"
                        "ok.test,Left,reliable\n")
        with caplog.at_level("WARNING"):
            table = mb.load_domain_table(path)
        assert set(table) == {"ok.test"}
        assert caplog.messages == [
            f"{path}:2: domain 'a.test\\nb' holds whitespace; row skipped",
            f"{path}:4: unknown reliability 'bogus'; row skipped",
            f"{path}:6: domain 'tab\\tsep.test' holds whitespace; row skipped",
        ]

    def test_thirty_row_fixture(self, fixtures_dir):
        path = fixtures_dir / "domains_fixture.csv"
        n_rows = sum(1 for l in path.read_text().splitlines()[1:] if l.strip())
        table = mb.load_domain_table(path)
        assert len(table) == n_rows == 30

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(InputError):
            mb.load_domain_table(tmp_path / "none.csv")

    def test_missing_columns_fatal(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("domain,bias\nx.test,Left\n")
        with pytest.raises(InputError):
            mb.load_domain_table(path)


# Hosts built from labels of the bundled rules (wildcards and exceptions
# included), other labels, labels no rule allows, and mixed case and dots.
_labels = st.sampled_from(["com", "co", "uk", "jp", "kawasaki", "city", "ck",
                           "www", "bd", "gov", "example", "a-b", "1", "", "_",
                           "xn--p1ai", "UK", "Www"]) | st.text("ab.-1Z", max_size=4)
_hosts = st.lists(_labels, min_size=1, max_size=5).map(".".join) | st.sampled_from(
    ["192.168.0.1", "[::1]", ".example.com.", "a..b.com", "é.com"])


# Hosts of a few labels that the domain table below holds, in forms that
# PLAIN_URL takes and forms it must leave to extract_domain.
_url_hosts = st.sampled_from(["example.com", "www.example.com", "news.example.co.uk",
                              "example.co.uk", "co.uk", "deep-rumors-0.test",
                              "www.left-news-0.test", "192.168.0.1", "a..b.com",
                              "example.com.", "EXAMPLE.com", "Www.Example.Com",
                              "xn--bcher-kva.de", "bücher.de", "ex_ample.com"]) | _hosts
_url_hosts_plus = st.one_of(
    _url_hosts,
    st.tuples(_url_hosts | st.just("u"), st.sampled_from(["@", ":pw@"]),
              _url_hosts).map("".join),
    st.tuples(_url_hosts, st.sampled_from([":80", ":", ":443x", ":0"])).map("".join),
    st.sampled_from(["[::1]", "[2001:db8::1]:8080", "[::1", "::1]", "[v1.x]"]))
_urls = st.tuples(
    st.sampled_from(["", " ", "\t", "\n"]),
    st.sampled_from(["https://", "http://", "HTTPS://", "Http://", "ftp://", "//", "",
                     "https:/", "https:///"]),
    _url_hosts_plus,
    st.sampled_from(["", "/", "/story/1", "?q=1", "#top", "/a b", "\\x", ":8/",
                     "/x\n", "\t/"]),
    st.sampled_from(["", " ", "\n", "\r\n"]),
).map("".join) | st.text(max_size=12)

_URL_DOMAINS = ("domain,leaning_label,reliability\n"
                "example.com,Left,reliable\nexample.co.uk,Right,reliable\n"
                "deep-rumors-0.test,,conspiracy_pseudoscience\n"
                "left-news-0.test,Left,reliable\nxn--bcher-kva.de,LeastBiased,reliable\n"
                "b.com,Right,questionable\n")


@given(url_lists=st.lists(st.lists(_urls, max_size=4), max_size=8))
@settings(max_examples=300, deadline=None)
def test_url_codes_equal_extract_domain_property(tmp_path_factory, url_lists):
    """Each URL's domain code in the originals table, whether its host was
    resolved once for every URL of that host or the URL went through
    ``extract_domain`` alone, is the code of ``extract_domain``'s domain:
    userinfo, ports, IPv6 literals, upper case, IDN labels, surrounding
    whitespace, and ``//`` and scheme-less forms included."""
    path = tmp_path_factory.mktemp("urls") / "domains.csv"
    path.write_text(_URL_DOMAINS, encoding="utf-8")
    domains = mb.load_domain_table(path)
    table = originals([make_record(tweet_id=f"t{k}", urls=list(urls))
                       for k, urls in enumerate(url_lists + url_lists)], domains)
    codes = {d: k for k, d in enumerate(sorted(domains))}
    want = [[codes.get(mb.extract_domain(url)) for url in urls]
            for urls in url_lists + url_lists]
    owners, got = table.matched_urls()
    assert [[int(c) for o, c in zip(owners, got) if o == k] for k in range(len(want))] == \
        [[c for c in row if c is not None] for row in want]
    assert table.unmatched_urls == sum(row.count(None) for row in want)
    # What the table relies on: a plain URL's domain is its host's.
    for url in chain.from_iterable(url_lists):
        if plain := mb.PLAIN_URL.match(url):
            assert mb.extract_domain(url) == mb.extract_domain(f"http://{plain[1]}/"), url


class TestExtractDomain:
    def test_oracle_cases(self, fixtures_dir):
        cases = json.loads(
            (fixtures_dir / "psl_cases.json").read_text(encoding="utf-8")
        )["cases"]
        for url, expected in cases:
            assert mb.extract_domain(url) == expected, url

    def test_total_function_on_junk(self):
        for junk in (None, 123, "", "   ", "::::", "https://???"):
            assert mb.extract_domain(junk) is None

    def test_memoised_equals_unmemoised_on_oracle_cases(self, fixtures_dir):
        cases = json.loads(
            (fixtures_dir / "psl_cases.json").read_text(encoding="utf-8")
        )["cases"]
        memo = mb.PublicSuffixes.bundled()
        for url, _ in cases + cases:
            assert (mb.extract_domain(url, memo)
                    == mb.extract_domain(url, mb.PublicSuffixes.bundled())), url

    @given(hosts=st.lists(_hosts, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_memoised_equals_unmemoised_on_any_host(self, hosts):
        memo, fresh = mb.PublicSuffixes.bundled(), mb.PublicSuffixes.bundled()
        for host in hosts + hosts[::-1]:
            assert memo.registrable_domain(host) == fresh._resolve(host), host


def leaning_table(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "domain,leaning_label,reliability\n"
        "leftie.test,Left,reliable\n"
        "rightie.test,Right,reliable\n"
        "farright.test,ExtremeRight,reliable\n"
        "shady.test,Right,questionable\n"
        "noise.test,,conspiracy_pseudoscience\n"
    )
    return mb.load_domain_table(path)


def rec_with_urls(urls, author="alice"):
    return make_record(author_id=author, urls=[f"https://{u}/x" for u in urls])


def leaning(records, table, **kwargs):
    """The leaning of the one author of ``records``."""
    _, (n_urls,), (score,) = mb.user_leaning(originals(records, table), **kwargs)
    return SimpleNamespace(n_urls=n_urls, score=score)


class TestUserLeaning:
    def test_symmetric_mean_is_zero(self, tmp_path):
        table = leaning_table(tmp_path)
        ul = leaning([rec_with_urls(["leftie.test", "rightie.test"])], table)
        assert ul.n_urls == 2
        assert ul.score == 0.0

    def test_two_left_one_extreme_right(self, tmp_path):
        table = leaning_table(tmp_path)
        ul = leaning(
            [rec_with_urls(["leftie.test", "leftie.test", "farright.test"])], table
        )
        expected = float(Fraction(-66, 100) * 2 + 1) / 3
        assert ul.score == pytest.approx(expected, abs=1e-12)
        assert ul.score == pytest.approx(-0.1067, abs=1e-4)

    def test_no_matches_gives_absent_score(self, tmp_path):
        table = leaning_table(tmp_path)
        unmatched = Counter()
        ul = leaning([rec_with_urls(["unknown.test"])], table, unmatched=unmatched)
        assert ul.score is None and ul.n_urls == 0
        assert unmatched["url_not_in_table"] == 1

    def test_multiplicity_counts(self, tmp_path):
        table = leaning_table(tmp_path)
        three = leaning([rec_with_urls(["leftie.test"] * 3 + ["rightie.test"])], table)
        assert three.n_urls == 4
        expected = (3 * -0.66 + 0.66) / 4
        assert three.score == pytest.approx(expected, abs=1e-12)

    def test_unlabelled_domain_ignored_but_counted(self, tmp_path):
        table = leaning_table(tmp_path)
        unmatched = Counter()
        ul = leaning([rec_with_urls(["noise.test", "leftie.test"])], table,
                     unmatched=unmatched)
        assert ul.n_urls == 1
        assert ul.score == -0.66
        assert unmatched["no_leaning_label"] == 1

    def test_unreliable_outlets_count(self, tmp_path):
        table = leaning_table(tmp_path)
        records = [rec_with_urls(["shady.test", "leftie.test"])]
        inclusive = leaning(records, table)
        assert inclusive.n_urls == 2
        assert inclusive.score == pytest.approx((0.66 - 0.66) / 2, abs=1e-12)

    def test_subdomains_collapse(self, tmp_path):
        table = leaning_table(tmp_path)
        ul = leaning([make_record(urls=["https://www.news.leftie.test/a?b=c"])], table)
        assert ul.n_urls == 1 and ul.score == -0.66

    @given(
        urls=st.lists(
            st.sampled_from(["leftie.test", "rightie.test", "farright.test",
                             "unknown.test"]),
            min_size=1, max_size=12,
        ),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariant_and_bounded(self, tmp_path_factory, urls, seed):
        import numpy as np

        table = leaning_table(tmp_path_factory.mktemp("t"))
        rng = np.random.default_rng(seed)
        shuffled = [urls[i] for i in rng.permutation(len(urls))]
        a = leaning([rec_with_urls(urls)], table)
        b = leaning([rec_with_urls(shuffled)], table)
        assert a.n_urls == b.n_urls
        if a.score is None:
            assert b.score is None
        else:
            assert a.score == pytest.approx(b.score, abs=1e-12)
            assert -1.0 <= a.score <= 1.0


class TestUserClassCounts:
    def test_counts_by_class(self, tmp_path):
        table = leaning_table(tmp_path)
        records = [
            rec_with_urls(["leftie.test", "leftie.test", "rightie.test"]),
            rec_with_urls(["unknown.test"], author="bob"),
        ]
        counts = mb.user_class_counts(originals(records, table))
        assert counts["alice"]["Left"] == 2
        assert counts["alice"]["Right"] == 1
        assert "bob" not in counts


def test_write_user_leanings(tmp_path):
    table = leaning_table(tmp_path)
    # Authors out of order on purpose: user_leaning sorts them, and the
    # writer keeps its order.
    rows = mb.user_leaning(originals([
        rec_with_urls(["leftie.test"], author="b"),
        rec_with_urls(["unknown.test"], author="a"),
    ], table))
    out = tmp_path / "leanings.csv"
    blk.write_columns(out, rows._fields, rows)
    text = out.read_text().splitlines()
    assert text[0] == "user_id,n_urls,score"
    assert text[1] == "a,0,"
    assert text[2] == "b,1,-0.66"
