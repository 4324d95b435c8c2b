import csv
import gzip
import hashlib
import json
import logging
import os
import re
import subprocess
import sys
import time
import weakref
from collections import Counter

import numpy as np
import pytest

from echoaudit import blocks as blk
from echoaudit import cli
from echoaudit import engagement as eng
from echoaudit import graph as gr
from echoaudit import ideology as ideo
from echoaudit import ingest as ing
from echoaudit import mediabias as mb
from echoaudit import report as rep
from echoaudit import synth
from echoaudit.errors import InputError, OutputError

from conftest import FIXTURES, ROOT
from test_spans import graph_state, table_state


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def mini_stage_dirs(tmp_path_factory):
    """The CLI chain run stage by stage on the bundled mini fixture."""
    root = tmp_path_factory.mktemp("cli_chain")
    filtered = root / "filtered.jsonl"
    run(["ingest", "--input", FIXTURES / "mini_corpus.jsonl",
         "--filtered-out", filtered,
         "--rejects-out", root / "rejects.csv",
         "--exclusions-out", root / "exclusions.csv"])
    run(["graph", "--input", filtered,
         "--seeds", FIXTURES / "mini_seeds.txt",
         "--min-indegree", "5",
         "--graph-out", root / "graph.csv",
         "--influencers-out", root / "influencers.txt",
         "--ranking-out", root / "ranking.csv"])
    run(["ideology", "--graph", root / "graph.csv",
         "--influencers", root / "influencers.txt",
         "--scores-out", root / "scores.csv",
         "--meta-out", root / "meta.json"])
    run(["engagement", "--input", filtered,
         "--domains", FIXTURES / "mini_domains.csv",
         "--scores", root / "scores.csv",
         "--group-by", "ideology", "--group-by", "reliability",
         "--group-by", "leaning",
         "--out-dir", root / "engagement"])
    run(["report", "--input", filtered,
         "--graph", root / "graph.csv",
         "--scores", root / "scores.csv",
         "--domains", FIXTURES / "mini_domains.csv",
         "--out-dir", root / "report"])
    return root


class TestStages:
    def test_ingest_outputs(self, mini_stage_dirs):
        root = mini_stage_dirs
        filtered = (root / "filtered.jsonl").read_text().splitlines()
        assert len(filtered) == 908
        exclusions = dict(
            line.split(",") for line in
            (root / "exclusions.csv").read_text().splitlines()[1:]
        )
        assert exclusions["retained"] == "908"
        rejects = (root / "rejects.csv").read_text().splitlines()
        assert rejects[0] == "reason,count"

    def test_graph_outputs(self, mini_stage_dirs):
        root = mini_stage_dirs
        edges = (root / "graph.csv").read_text().splitlines()
        assert edges[0] == "src,dst,weight"
        assert len(edges) - 1 == 403
        influencers = (root / "influencers.txt").read_text().split()
        assert len(influencers) == 10
        ranking = (root / "ranking.csv").read_text().splitlines()
        assert ranking[0] == "user_id,unique_in_degree"
        assert len(ranking) - 1 == 157

    def test_ideology_outputs(self, mini_stage_dirs):
        root = mini_stage_dirs
        lines = (root / "scores.csv").read_text().splitlines()
        assert lines[0] == "id,kind,score,raw_score"
        kinds = [line.split(",")[1] for line in lines[1:]]
        assert kinds.count("influencer") == 10
        assert kinds.count("user") == 129
        meta = json.loads((root / "meta.json").read_text())
        assert meta["matrix_shape"] == [129, 10]
        assert meta["residual"] <= 1e-10 * meta["sigma1"]

    def test_engagement_outputs(self, mini_stage_dirs):
        engagement = mini_stage_dirs / "engagement"
        for name in ("ae_tweet.csv", "ae_user.csv", "ae_domain.csv",
                     "correlations.csv", "groups_ideology.csv",
                     "groups_reliability.csv", "groups_leaning.csv",
                     "engagement_stats.csv", "user_leanings.csv"):
            assert (engagement / name).is_file(), name
        correlations = (engagement / "correlations.csv").read_text().splitlines()
        assert len(correlations) == 1 + 4

    def test_user_leanings_export(self, mini_stage_dirs):
        lines = (
            mini_stage_dirs / "engagement" / "user_leanings.csv"
        ).read_text().splitlines()
        assert lines[0] == "user_id,n_urls,score"
        scored = [l for l in lines[1:] if not l.endswith(",")]
        assert scored
        for line in scored:
            score = float(line.rsplit(",", 1)[1])
            assert -1.0 <= score <= 1.0

    def test_report_outputs(self, mini_stage_dirs):
        report = mini_stage_dirs / "report"
        for name in ("ideology_histograms.csv", "neighbor_grid.csv",
                     "neighbor_grid.json", "summary.json"):
            assert (report / name).is_file(), name
        for action in ("retweet", "reply", "like", "quote"):
            assert (report / f"ae_density_{action}.csv").is_file()
        summary = json.loads((report / "summary.json").read_text())
        assert summary["diagonal_mass_share"] >= 0.9
        assert summary["user_dip"] > summary["dip_threshold_p01"]
        leaning_files = list(report.glob("leaning_hist_*.csv"))
        assert leaning_files


class TestIngestFlags:
    def test_min_date_and_lang(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        rows = [
            {"tweet_id": "a", "author_id": "x", "created_at": "2023-01-01T00:00:00Z",
             "lang": "de", "kind": "original", "retweeted_author_id": None,
             "impressions": 1, "likes": 0, "replies": 0, "retweets": 0,
             "quotes": 0, "urls": [], "author_followers": 0},
            {"tweet_id": "b", "author_id": "x", "created_at": "2023-02-01T00:00:00Z",
             "lang": "en", "kind": "original", "retweeted_author_id": None,
             "impressions": 1, "likes": 0, "replies": 0, "retweets": 0,
             "quotes": 0, "urls": [], "author_followers": 0},
        ]
        corpus.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "filtered.jsonl"
        run(["ingest", "--input", corpus, "--filtered-out", out,
             "--min-date", "2023-01-15T00:00:00Z", "--lang", "en", "--lang", "de"])
        kept = [json.loads(l) for l in out.read_text().splitlines()]
        assert [r["tweet_id"] for r in kept] == ["b"]

    def test_gzip_input(self, tmp_path):
        src = (FIXTURES / "mini_corpus.jsonl").read_bytes()
        gz = tmp_path / "mini.jsonl.gz"
        with gzip.open(gz, "wb") as fh:
            fh.write(src)
        out = tmp_path / "filtered.jsonl"
        run(["ingest", "--input", gz, "--filtered-out", out])
        assert len(out.read_text().splitlines()) == 908


class TestSynthCommand:
    def test_mini_preset(self, tmp_path):
        run(["synth", "--preset", "mini", "--out-dir", tmp_path / "mini"])
        for name in ("corpus.jsonl", "ground_truth.json", "domains.csv", "seeds.txt"):
            assert (tmp_path / "mini" / name).is_file()

    def test_calibration_config(self, tmp_path):
        config = {
            "mode": "calibration", "seed": 4, "n_tweets": 200,
            "ae_targets": {"retweet": 0.003, "reply": 0.0025,
                           "like": 0.011, "quote": 0.0006},
            "pearson_targets": {"retweet": -0.35, "reply": -0.56,
                                "like": -0.22, "quote": -0.57},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        run(["synth", "--config", config_path, "--out-dir", tmp_path / "calib"])
        lines = (tmp_path / "calib" / "corpus.jsonl").read_text().splitlines()
        assert len(lines) == 200


class TestSynthConfigErrors:
    @pytest.mark.parametrize("command", ["synth", "pipeline"])
    @pytest.mark.parametrize("content,message", [
        (None, "cannot read config"),
        ("{not json", "not valid JSON"),
        ("[1, 2]", "config must be a JSON object"),
        ('{"bogus": 1}', "unknown polarized config key(s): bogus"),
        ('{"mode": "calibration", "n_users": 5}',
         "unknown calibration config key(s): n_users"),
        ('{"mode": ["x"]}', "unknown generator mode"),
        ('{"n_users": "x"}', "config key 'n_users' must be an integer"),
        ('{"p_in": null}', "config key 'p_in' must be a number"),
        ('{"n_users": true}', "config key 'n_users' must be an integer"),
        ('{"n_users": 100.0}', "config key 'n_users' must be an integer"),
        ('{"follower_log10": [2.5]}', "'follower_log10' must be a list of 2 numbers"),
        ('{"date_range": "2023"}', "'date_range' must be a list of 2 strings"),
        ('{"action_shares": [0.5]}', "'action_shares' must be an object of numbers"),
        ('{"domain_mix": {"A": 1}}',
         "'domain_mix' must be an object of objects of numbers"),
        ('{"mode": "calibration", "ae_targets": {"like": "x"}}',
         "'ae_targets' must be an object of numbers"),
        # Well-typed, but rejected by validate().
        ('{"lurk_rate_by_group": {"A": 0.9}}', "needs exactly the groups A and B"),
        ('{"action_shares": {"like": 1}}', "needs exactly the actions"),
        ('{"n_users": 1}', "need at least 2 users"),
        ('{"seed": -1}', "seed must be non-negative"),
        ('{"date_range": ["x", "2023-03-01T00:00:00Z"]}', "date_range: Invalid"),
        ('{"date_range": ["2022-01-01T00:00:00Z", "2022-02-01T00:00:00Z"]}',
         "date_range ends before the impression cutoff"),
        # Out of range: each used to reach a random draw that raised.
        ('{"originals_per_user_mean": -1}', "originals_per_user_mean must be in [0, "),
        ('{"originals_per_user_mean": 1e300}', "originals_per_user_mean must be in [0, "),
        ('{"retweet_extra_mean": NaN}', "retweet_extra_mean must be in [0, "),
        ('{"impressions_log10": [3.5, -1]}', "impressions_log10 sd must be in [0, "),
        ('{"impressions_log10": [-3.5, 1]}', "impressions_log10 mean must be in [0, "),
        ('{"follower_log10": [2.5, 100]}', "follower_log10 sd must be in [0, "),
        ('{"influencer_follower_log10": [12, 1]}',
         "influencer_follower_log10: mean + 10 sd must be at most 15"),
        ('{"impressions_log10": [Infinity, 0]}', "impressions_log10 mean must be in [0, "),
        ('{"p_in": 1.5}', "p_in must be in [0, 1]"),
        ('{"url_prob": -0.1}', "url_prob must be in [0, 1]"),
        ('{"second_url_prob": 2}', "second_url_prob must be in [0, 1]"),
        ('{"reply_prob": 1.01}', "reply_prob must be in [0, 1]"),
        ('{"pre_cutoff_fraction": -1}', "pre_cutoff_fraction must be in [0, 1]"),
        ('{"non_english_fraction": 3}', "non_english_fraction must be in [0, 1]"),
        ('{"unreliable_url_prob": {"A": 1.5, "B": 0.2}}',
         "unreliable_url_prob for A must be in [0, 1]"),
        ('{"unreliable_ae_boost": -2}', "unreliable_ae_boost must be in [0, 1e+06]"),
        ('{"unreliable_ae_boost": Infinity}', "unreliable_ae_boost must be in [0, 1e+06]"),
        ('{"action_shares": {"retweet": 1.2, "reply": -0.2, "like": 0, "quote": 0}}',
         "action share for retweet must be in [0, 1]"),
        ('{"domain_mix": {"A": {"Left": 1.5, "LeftCenter": -0.5}, "B": {"Right": 1}}}',
         "domain mix share A/Left must be in [0, 1]"),
        ('{"domains_per_class": 0}', "domains_per_class must be at least 1"),
        ('{"influencer_originals": -1}', "influencer_originals must be non-negative"),
        ('{"mode": "calibration", "impressions_log10": [5.3, -0.25]}',
         "impressions_log10 sd must be in [0, "),
        ('{"mode": "calibration", "ae_log10_sigma": -1}',
         "ae_log10_sigma must be in [0, "),
        # Nested deeper than any JSON decoder recurses.
        pytest.param("[" * 100_000 + "]" * 100_000, "not valid JSON", id="too-deep"),
    ])
    def test_bad_config_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                   command, content, message):
        config = tmp_path / "config.json"
        if content is not None:
            config.write_text(content, encoding="utf-8")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run([command, "--config", config, "--out-dir", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err
        assert not out.exists()


def mini_corpus_plus(path, **changes_per_record):
    """The mini fixture plus copies of its first record, one per keyword
    (the new tweet id), each with the given fields changed."""
    text = (FIXTURES / "mini_corpus.jsonl").read_text(encoding="utf-8")
    first = json.loads(text.splitlines()[0])
    path.write_text(text + "".join(
        json.dumps({**first, "tweet_id": tweet_id, **changes}) + "\n"
        for tweet_id, changes in changes_per_record.items()
    ), encoding="utf-8")
    return path


class TestUnsafeIds:
    def test_comma_ids_rejected_and_chain_exits_0(self, tmp_path):
        """Such records used to pass ingest and break graph.csv for ideology."""
        corpus = mini_corpus_plus(
            tmp_path / "corpus.jsonl",
            x1={"kind": "retweet", "author_id": "evil,user",
                "retweeted_author_id": "inf_a_00"},
            x2={"kind": "retweet", "author_id": "u_a_0001",
                "retweeted_author_id": "inf,a"},
        )
        out = tmp_path / "out"
        assert chain_by_hand(corpus, FIXTURES / "mini_seeds.txt",
                             FIXTURES / "mini_domains.csv", 5, out) == [0] * 5
        rejects = (out / "ingest" / "rejects.csv").read_text().splitlines()
        assert "id_not_csv_safe,2" in rejects
        edges = (out / "graph" / "graph.csv").read_text().splitlines()
        assert all(line.count(",") == 2 for line in edges)


def test_pipeline_fill_equals_standalone(tmp_path, monkeypatch):
    """The originals table and the retweet counts that ingest fills for
    ``pipeline`` equal those that standalone ``engagement`` and ``graph``
    build from the filtered corpus it wrote."""
    corpus = mini_corpus_plus(tmp_path / "corpus.jsonl",
                              x1={"kind": "retweet", "retweeted_author_id": None})
    parse = cli._parser().parse_args
    filtered = tmp_path / "filtered.jsonl"
    domains = FIXTURES / "mini_domains.csv"
    originals, retweets = cli.cmd_ingest(
        parse(["ingest", "--input", str(corpus), "--filtered-out", str(filtered)]),
        keep=True, domains=mb.load_domain_table(domains))
    assert retweets.skipped == Counter(missing_retweeted_author=1)
    loaded = cli._load_originals(parse([
        "engagement", "--input", str(filtered), "--domains", str(domains),
        "--out-dir", str(tmp_path / "unused")]))
    assert table_state(originals) == table_state(loaded)
    # Standalone graph's counts are those it makes its graph of.
    standalone = []
    graph = gr.RetweetCounts.graph
    monkeypatch.setattr(gr.RetweetCounts, "graph",
                        lambda self, *args: standalone.append(self) or graph(self, *args))
    cli.cmd_graph(parse([
        "graph", "--input", str(filtered), "--seeds", str(FIXTURES / "mini_seeds.txt"),
        "--min-indegree", "5", "--graph-out", str(tmp_path / "g.csv"),
        "--influencers-out", str(tmp_path / "i.txt")]))
    monkeypatch.undo()
    (counts,) = standalone
    assert graph_state(retweets) == graph_state(counts)


class TestErrors:
    @pytest.mark.parametrize("stage,flag,value", [
        ("ideology", "--tol", "0"),
        ("ideology", "--tol", "-1e-3"),
        ("ideology", "--tol", "nan"),
        ("ideology", "--tol", "inf"),
        ("ideology", "--max-iter", "0"),
        ("ideology", "--seed", "-1"),
        ("ideology", "--seed", "1.5"),
        ("report", "--bins", "0"),
        ("report", "--bins", "-3"),
        ("report", "--hist-bins", "0"),
        ("pipeline", "--seed", "-1"),
        ("graph", "--min-indegree", "-3"),
        ("pipeline", "--min-indegree", "-3"),
        ("ideology", "--min-distinct", "-1"),
        ("report", "--top-k", "-1"),
        ("report", "--min-shares", "-1"),
    ])
    def test_out_of_range_flag_exits_2_and_writes_nothing(
            self, mini_stage_dirs, tmp_path, capsys, stage, flag, value):
        """Each used to end in a traceback; report --bins 0 also left
        ideology_histograms.csv behind."""
        root = mini_stage_dirs
        argv = {
            "graph": ["graph", "--input", root / "filtered.jsonl",
                      "--seeds", FIXTURES / "mini_seeds.txt",
                      "--graph-out", tmp_path / "graph.csv",
                      "--influencers-out", tmp_path / "influencers.txt"],
            "ideology": ["ideology", "--graph", root / "graph.csv",
                         "--influencers", root / "influencers.txt",
                         "--scores-out", tmp_path / "scores.csv"],
            "report": ["report", "--input", root / "filtered.jsonl",
                       "--graph", root / "graph.csv", "--scores", root / "scores.csv",
                       "--out-dir", tmp_path / "report"],
            "pipeline": ["pipeline", "--preset", "mini", "--out-dir", tmp_path / "run"],
        }[stage]
        with pytest.raises(SystemExit) as exc:
            run(argv + [f"{flag}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"argument {flag}: must be" in err, err
        assert list(tmp_path.iterdir()) == []

    def test_unparsable_created_at_counted_under_one_reason(self, tmp_path):
        """The parser's message used to be the reason, raw value and all."""
        corpus = mini_corpus_plus(tmp_path / "corpus.jsonl",
                                  x1={"created_at": "garbage, with comma"},
                                  x2={"created_at": "yesterday"})
        rejects = tmp_path / "rejects.csv"
        run(["ingest", "--input", corpus, "--filtered-out", tmp_path / "f.jsonl",
             "--rejects-out", rejects])
        with open(rejects, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["reason", "count"]
        assert all(len(row) == 2 and row[1].isdigit() for row in rows[1:]), rows
        assert ["bad_created_at", "2"] in rows

    @pytest.mark.parametrize("value", ["garbage", "2023-13-01", "yesterday, noon"])
    def test_bad_min_date_exits_2(self, tmp_path, capsys, value):
        """It used to end in a ValueError traceback."""
        with pytest.raises(SystemExit) as exc:
            run(["ingest", "--input", FIXTURES / "mini_corpus.jsonl",
                 "--min-date", value, "--filtered-out", tmp_path / "f.jsonl"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --min-date: "), err
        assert not (tmp_path / "f.jsonl").exists()

    def test_count_above_limit_rejected_and_engagement_runs(self, tmp_path):
        """Ingest used to accept it and engagement to crash on float()."""
        corpus = mini_corpus_plus(tmp_path / "corpus.jsonl",
                                  huge={"impressions": 10**400})
        filtered = tmp_path / "filtered.jsonl"
        rejects = tmp_path / "rejects.csv"
        assert run(["ingest", "--input", corpus, "--filtered-out", filtered,
                    "--rejects-out", rejects]) == 0
        assert "count_too_large_impressions,1" in rejects.read_text().splitlines()
        assert run(["engagement", "--input", filtered,
                    "--out-dir", tmp_path / "engagement"]) == 0

    def test_empty_influencer_selection_exits_with_error(self, tmp_path):
        filtered = tmp_path / "filtered.jsonl"
        run(["ingest", "--input", FIXTURES / "mini_corpus.jsonl",
             "--filtered-out", filtered])
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("nonexistent_user\n")
        with pytest.raises(SystemExit) as exc:
            run(["graph", "--input", filtered, "--seeds", seeds,
                 "--min-indegree", "5",
                 "--graph-out", tmp_path / "g.csv",
                 "--influencers-out", tmp_path / "i.txt"])
        assert exc.value.code == 2

    @staticmethod
    def _first_influencer_dropped(tmp_path):
        """i0, first in the file, has only one-influencer retweeters, so
        min_distinct=2 leaves it without a matrix column."""
        (tmp_path / "graph.csv").write_text(
            "src,dst,weight\nu1,i1,3\nu1,i2,1\nu2,i1,1\nu2,i2,3\n"
            "u3,i1,2\nu3,i2,1\nu4,i0,1\nu5,i0,1\n", encoding="utf-8")
        (tmp_path / "influencers.txt").write_text("i0\ni1\ni2\n", encoding="utf-8")
        return ["ideology", "--graph", tmp_path / "graph.csv",
                "--influencers", tmp_path / "influencers.txt",
                "--scores-out", tmp_path / "out" / "scores.csv",
                "--meta-out", tmp_path / "out" / "meta.json"]

    def test_default_anchor_is_first_surviving_column(self, tmp_path):
        (tmp_path / "out").mkdir()
        assert run(self._first_influencer_dropped(tmp_path)) == 0
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["anchor_id"] == "i1"

    def test_explicit_anchor_without_column_exits_2(self, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        with pytest.raises(SystemExit) as exc:
            run(self._first_influencer_dropped(tmp_path) + ["--anchor", "i0"])
        assert exc.value.code == 2
        assert "anchor influencer 'i0' is not a matrix column" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_bad_late_corpus_line_leaves_no_filtered_file(self, tmp_path):
        lines = (FIXTURES / "mini_corpus.jsonl").read_bytes().split(b"\n")
        lines[900] = b"\xff" + lines[900]
        corpus = tmp_path / "late.jsonl"
        corpus.write_bytes(b"\n".join(lines))
        proc = run_process(["ingest", "--input", corpus,
                            "--filtered-out", tmp_path / "filtered.jsonl"])
        assert proc.returncode == 2, proc.stderr
        assert f"error: {corpus}:901: not valid UTF-8" in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["late.jsonl"]

    def test_graph_logs_skipped_records(self, tmp_path, caplog):
        corpus = mini_corpus_plus(tmp_path / "corpus.jsonl",
                                  x1={"kind": "retweet", "retweeted_author_id": None})
        filtered = tmp_path / "filtered.jsonl"
        run(["ingest", "--input", corpus, "--filtered-out", filtered])
        caplog.set_level(logging.INFO, logger="echoaudit")
        run(["graph", "--input", filtered, "--seeds", FIXTURES / "mini_seeds.txt",
             "--min-indegree", "5", "--graph-out", tmp_path / "g.csv",
             "--influencers-out", tmp_path / "i.txt"])
        assert "(skipped {'missing_retweeted_author': 1})" in caplog.text

    def test_empty_domain_table_named_in_warnings(self, tmp_path, caplog):
        domains = tmp_path / "T.csv"
        domains.write_text("domain,leaning_label,reliability\n")
        caplog.set_level(logging.INFO, logger="echoaudit")
        run(["engagement", "--input", FIXTURES / "mini_corpus.jsonl", "--domains", domains,
             "--group-by", "reliability", "--out-dir", tmp_path / "out"])
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [
            f"domain granularity requested but {domains} holds no domain; skipped",
            f"--group-by reliability needs domain granularity; {domains} holds no domain"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "ae_tweet.csv", "ae_user.csv", "correlations.csv", "engagement_stats.csv"]

    def test_missing_input_fatal(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["ingest", "--input", tmp_path / "ghost.jsonl",
                 "--filtered-out", tmp_path / "out.jsonl"])
        assert exc.value.code == 2

    def test_no_command(self):
        with pytest.raises(SystemExit):
            run([])


class TestUnwritableOutputs:
    """An output that cannot be written exits 2 with a message naming it;
    each of these used to end in a traceback."""

    @staticmethod
    def exit_message(argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    def test_filtered_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.jsonl"
        err = self.exit_message(["ingest", "--input", FIXTURES / "mini_corpus.jsonl",
                                 "--filtered-out", out], capsys)
        assert err.startswith(f"error: cannot write {out}: "), err
        assert list(tmp_path.iterdir()) == []

    def test_filtered_out_naming_a_directory(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.mkdir()
        err = self.exit_message(["ingest", "--input", FIXTURES / "mini_corpus.jsonl",
                                 "--filtered-out", out], capsys)
        assert err.startswith(f"error: cannot write {out}: "), err
        assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []

    def test_ranking_out_in_missing_directory(self, mini_stage_dirs, tmp_path, capsys):
        out = tmp_path / "missing" / "r.csv"
        err = self.exit_message([
            "graph", "--input", mini_stage_dirs / "filtered.jsonl",
            "--seeds", FIXTURES / "mini_seeds.txt", "--min-indegree", "5",
            "--graph-out", tmp_path / "graph.csv",
            "--influencers-out", tmp_path / "influencers.txt",
            "--ranking-out", out], capsys)
        assert err.startswith(f"error: cannot write {out}: "), err

    @pytest.mark.parametrize("flag", ["--influencers-out", "--ranking-out"])
    def test_graph_commits_no_output_if_one_cannot_be_written(
            self, mini_stage_dirs, tmp_path, capsys, flag):
        """``graph.csv`` (and ``influencers.txt``) used to be committed before
        the later output failed."""
        outputs = {"--graph-out": tmp_path / "graph.csv",
                   "--influencers-out": tmp_path / "influencers.txt",
                   "--ranking-out": tmp_path / "ranking.csv"}
        outputs[flag] = tmp_path / "missing" / outputs[flag].name
        err = self.exit_message([
            "graph", "--input", mini_stage_dirs / "filtered.jsonl",
            "--seeds", FIXTURES / "mini_seeds.txt", "--min-indegree", "5",
            *(arg for pair in outputs.items() for arg in pair)], capsys)
        assert err.startswith(f"error: cannot write {outputs[flag]}: "), err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--rejects-out", "--exclusions-out"])
    def test_ingest_commits_no_output_if_one_cannot_be_written(self, tmp_path, capsys,
                                                               flag):
        """``filtered.jsonl`` (and ``rejects.csv``) used to be committed
        before the later output failed."""
        outputs = {"--filtered-out": tmp_path / "filtered.jsonl",
                   "--rejects-out": tmp_path / "rejects.csv",
                   "--exclusions-out": tmp_path / "exclusions.csv"}
        outputs[flag] = tmp_path / "missing" / outputs[flag].name
        err = self.exit_message([
            "ingest", "--input", FIXTURES / "mini_corpus.jsonl",
            *(arg for pair in outputs.items() for arg in pair)], capsys)
        assert err.startswith(f"error: cannot write {outputs[flag]}: "), err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--scores-out", "--meta-out"])
    def test_ideology_commits_no_output_if_one_cannot_be_written(
            self, mini_stage_dirs, tmp_path, capsys, flag):
        """``scores.csv`` used to be committed before ``meta.json`` failed."""
        outputs = {"--scores-out": tmp_path / "scores.csv",
                   "--meta-out": tmp_path / "meta.json"}
        outputs[flag] = tmp_path / "missing" / outputs[flag].name
        err = self.exit_message([
            "ideology", "--graph", mini_stage_dirs / "graph.csv",
            "--influencers", mini_stage_dirs / "influencers.txt",
            *(arg for pair in outputs.items() for arg in pair)], capsys)
        assert err.startswith(f"error: cannot write {outputs[flag]}: "), err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("stage", ["synth", "engagement", "report", "pipeline"])
    def test_out_dir_naming_a_file(self, mini_stage_dirs, tmp_path, capsys, stage):
        root = mini_stage_dirs
        out = tmp_path / "taken"
        out.write_text("kept\n")
        argv = {
            "synth": ["synth", "--preset", "mini"],
            "engagement": ["engagement", "--input", root / "filtered.jsonl"],
            "report": ["report", "--input", root / "filtered.jsonl",
                       "--graph", root / "graph.csv", "--scores", root / "scores.csv"],
            "pipeline": ["pipeline", "--preset", "mini"],
        }[stage]
        err = self.exit_message(argv + ["--out-dir", out], capsys)
        assert err.startswith(f"error: cannot create directory {out}: "), err
        assert list(tmp_path.iterdir()) == [out] and out.read_text() == "kept\n"


def run_process(argv):
    """The CLI in a fresh interpreter, so exit status and stderr are real."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "echoaudit.cli", *(str(a) for a in argv)],
        capture_output=True, text=True, env=env,
    )


def _truncate_graph(text):
    # Cut the first data row after its second field: "src,d" is two fields.
    header, first = text.split("\n")[:2]
    return f"{header}\n{first[:first.index(',') + 2]}"


def _garble_weight(text):
    lines = text.split("\n")
    lines[3] = lines[3].rsplit(",", 1)[0] + ",1.5"
    return "\n".join(lines)


def _garble_score(text):
    lines = text.split("\n")
    ident, kind, _score, raw = lines[3].split(",")
    lines[3] = f"{ident},{kind},0.1x,{raw}"
    return "\n".join(lines)


def _drop_score_field(text):
    lines = text.split("\n")
    lines[3] = lines[3].rsplit(",", 1)[0]
    return "\n".join(lines)


def _cut_weight(text):
    # The file cut inside row 4, after the first digit of a weight "12".
    lines = text.split("\n")
    return "\n".join(lines[:3] + [lines[3].rsplit(",", 1)[0] + ",1"])


def _cut_score(text):
    # The file cut inside row 4's raw score, which still reads as a float.
    lines = text.split("\n")
    return "\n".join(lines[:3] + [lines[3][:-5]])


class TestCorruptIntermediates:
    """Damaged or missing stage outputs end in exit 2 and a one-line error."""

    def stage_argv(self, stage, root, graph, scores):
        if stage == "ideology":
            return ["ideology", "--graph", graph,
                    "--influencers", root / "influencers.txt",
                    "--scores-out", graph.parent / "out_scores.csv"]
        if stage == "engagement":
            return ["engagement", "--input", root / "filtered.jsonl",
                    "--scores", scores, "--group-by", "ideology",
                    "--out-dir", graph.parent / "engagement"]
        return ["report", "--input", root / "filtered.jsonl",
                "--graph", graph, "--scores", scores,
                "--out-dir", graph.parent / "report"]

    @pytest.mark.parametrize("stage,damaged,corrupt,line", [
        ("ideology", "graph.csv", _truncate_graph, 2),
        ("ideology", "graph.csv", _garble_weight, 4),
        ("report", "graph.csv", _truncate_graph, 2),
        ("report", "scores.csv", _garble_score, 4),
        ("report", "scores.csv", _drop_score_field, 4),
        ("engagement", "scores.csv", _garble_score, 4),
        ("ideology", "graph.csv", _cut_weight, 4),
        ("report", "graph.csv", _cut_weight, 4),
        ("report", "scores.csv", _cut_score, 4),
        ("engagement", "scores.csv", _cut_score, 4),
    ])
    def test_damaged_file_names_file_and_line(self, mini_stage_dirs, tmp_path,
                                              stage, damaged, corrupt, line):
        for name in ("graph.csv", "scores.csv"):
            text = (mini_stage_dirs / name).read_text(encoding="utf-8")
            if name == damaged:
                text = corrupt(text)
            (tmp_path / name).write_text(text, encoding="utf-8")
        proc = run_process(self.stage_argv(stage, mini_stage_dirs,
                                           tmp_path / "graph.csv",
                                           tmp_path / "scores.csv"))
        assert proc.returncode == 2, proc.stderr
        assert f"error: {tmp_path / damaged}:{line}:" in proc.stderr
        assert "Traceback" not in proc.stderr
        out = {"ideology": "out_scores.csv"}.get(stage, stage)
        assert not (tmp_path / out).exists()

    @pytest.mark.parametrize("stage", ["report", "engagement"])
    def test_missing_scores(self, mini_stage_dirs, tmp_path, stage):
        graph = tmp_path / "graph.csv"
        graph.write_bytes((mini_stage_dirs / "graph.csv").read_bytes())
        proc = run_process(self.stage_argv(stage, mini_stage_dirs, graph,
                                           tmp_path / "missing.csv"))
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr and "missing.csv" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / stage).exists()

    @pytest.mark.parametrize("rows", ["", "inf_a_00,influencer,0.5,0.5\n"])
    def test_report_scores_without_users(self, mini_stage_dirs, tmp_path, rows):
        graph = tmp_path / "graph.csv"
        graph.write_bytes((mini_stage_dirs / "graph.csv").read_bytes())
        scores = tmp_path / "scores.csv"
        scores.write_text("id,kind,score,raw_score\n" + rows, encoding="utf-8")
        proc = run_process(self.stage_argv("report", mini_stage_dirs, graph, scores))
        assert proc.returncode == 2, proc.stderr
        assert f"error: {scores}:" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("stage", ["report", "engagement"])
    def test_non_finite_user_score(self, mini_stage_dirs, tmp_path, stage, value):
        """A NaN score used to be counted as positive, and report computed
        the dip over it."""
        graph = tmp_path / "graph.csv"
        graph.write_bytes((mini_stage_dirs / "graph.csv").read_bytes())
        lines = (mini_stage_dirs / "scores.csv").read_text(encoding="utf-8").split("\n")
        k = next(k for k, line in enumerate(lines) if ",user," in line)
        ident, kind, _score, raw = lines[k].split(",")
        lines[k] = f"{ident},{kind},{value},{raw}"
        scores = tmp_path / "scores.csv"
        scores.write_text("\n".join(lines), encoding="utf-8")
        proc = run_process(self.stage_argv(stage, mini_stage_dirs, graph, scores))
        assert proc.returncode == 2, proc.stderr
        assert (f"error: {scores}:{k + 1}: score {value!r} is not a finite number"
                in proc.stderr)
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / stage).exists()

    @pytest.mark.parametrize("stage", ["report", "engagement"])
    def test_repeated_user_score(self, mini_stage_dirs, tmp_path, stage):
        """A user listed twice used to keep the later score."""
        graph = tmp_path / "graph.csv"
        graph.write_bytes((mini_stage_dirs / "graph.csv").read_bytes())
        text = (mini_stage_dirs / "scores.csv").read_text(encoding="utf-8")
        ident = next(line for line in text.split("\n") if ",user," in line).split(",")[0]
        scores = tmp_path / "scores.csv"
        scores.write_text(text + f"{ident},user,0.5,0.5\n", encoding="utf-8")
        proc = run_process(self.stage_argv(stage, mini_stage_dirs, graph, scores))
        assert proc.returncode == 2, proc.stderr
        assert (f"error: {scores}:{text.count(chr(10)) + 1}: repeated user id {ident!r}"
                in proc.stderr)
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / stage).exists()

    @pytest.mark.parametrize("padded", [False, True])
    @pytest.mark.parametrize("stage", ["ideology", "report"])
    def test_repeated_edge(self, mini_stage_dirs, tmp_path, stage, padded):
        """A pair on two rows of ``graph.csv`` used to add up; a padded
        repeat takes the row-by-row path of the block reader."""
        text = (mini_stage_dirs / "graph.csv").read_text(encoding="utf-8")
        row = text.split("\n")[1]
        graph = tmp_path / "graph.csv"
        graph.write_text(text + (f" {row} \n" if padded else f"{row}\n"), encoding="utf-8")
        scores = tmp_path / "scores.csv"
        scores.write_bytes((mini_stage_dirs / "scores.csv").read_bytes())
        proc = run_process(self.stage_argv(stage, mini_stage_dirs, graph, scores))
        assert proc.returncode == 2, proc.stderr
        assert (f"error: {graph}:{text.count(chr(10)) + 1}: repeated edge {row.rsplit(',', 1)[0]}"
                in proc.stderr)
        assert "Traceback" not in proc.stderr
        out = {"ideology": "out_scores.csv"}.get(stage, stage)
        assert not (tmp_path / out).exists()

    @pytest.mark.parametrize("stage,damaged,line", [
        ("ingest", "corpus.jsonl", 3),
        ("ingest", "corpus.jsonl.gz", 3),
        ("graph", "seeds.txt", 2),
        ("ideology", "graph.csv", 4),
        ("report", "scores.csv", 4),
        ("engagement", "domains.csv", 3),
    ])
    def test_undecodable_input_names_file_and_line(self, mini_stage_dirs, tmp_path,
                                                   stage, damaged, line):
        sources = {
            "corpus.jsonl": FIXTURES / "mini_corpus.jsonl",
            "corpus.jsonl.gz": FIXTURES / "mini_corpus.jsonl",
            "seeds.txt": FIXTURES / "mini_seeds.txt",
            "graph.csv": mini_stage_dirs / "graph.csv",
            "scores.csv": mini_stage_dirs / "scores.csv",
            "domains.csv": FIXTURES / "mini_domains.csv",
        }
        lines = sources[damaged].read_bytes().split(b"\n")
        lines[line - 1] = b"\xff" + lines[line - 1]
        data = b"\n".join(lines)
        bad = tmp_path / damaged
        bad.write_bytes(gzip.compress(data) if damaged.endswith(".gz") else data)
        graph = tmp_path / "graph.csv"
        if damaged != "graph.csv":
            graph.write_bytes(sources["graph.csv"].read_bytes())
        if stage == "ingest":
            argv = ["ingest", "--input", bad,
                    "--filtered-out", tmp_path / "filtered.jsonl"]
        elif stage == "graph":
            argv = ["graph", "--input", mini_stage_dirs / "filtered.jsonl",
                    "--seeds", bad, "--graph-out", graph,
                    "--influencers-out", tmp_path / "influencers.txt"]
        elif stage == "engagement":
            argv = ["engagement", "--input", mini_stage_dirs / "filtered.jsonl",
                    "--domains", bad, "--out-dir", tmp_path / "engagement"]
        else:
            argv = self.stage_argv(stage, mini_stage_dirs, graph,
                                   tmp_path / "scores.csv")
        proc = run_process(argv)
        assert proc.returncode == 2, proc.stderr
        assert f"error: {bad}:{line}: not valid UTF-8" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / stage).exists()

    @pytest.mark.parametrize("stage", ["engagement", "report"])
    def test_domain_field_over_the_csv_limit(self, mini_stage_dirs, tmp_path, stage):
        """A field longer than the csv module reads is an input error."""
        domains = tmp_path / "domains.csv"
        domains.write_text("domain,leaning_label,reliability\n"
                           + "a" * 131_073 + ".test,Left,reliable\n", encoding="utf-8")
        argv = self.stage_argv(stage, mini_stage_dirs, mini_stage_dirs / "graph.csv",
                               mini_stage_dirs / "scores.csv")
        argv[-2:] = ["--domains", domains, "--out-dir", tmp_path / stage]
        proc = run_process(argv)
        assert proc.returncode == 2, proc.stderr
        assert f"error: {domains}:2: field larger than field limit" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / stage).exists()


def test_cold_import_names_fallback_backend():
    """The pipeline benchmark runs this at cold start and stores the name."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import echoaudit.cli, echoaudit.kernels as k; "
                               "print(k.active_backend())"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "fallback\n"


def chain_by_hand(corpus, seeds, domains, min_indegree, out):
    """The five stages after synth, run as subcommands with the flags and
    output layout that ``pipeline`` uses; returns their exit codes."""
    ingest, graph, ideology = out / "ingest", out / "graph", out / "ideology"
    for d in (ingest, graph, ideology):
        d.mkdir(parents=True, exist_ok=True)
    filtered = ingest / "filtered.jsonl"
    return [run(argv) for argv in (
        ["ingest", "--input", corpus, "--filtered-out", filtered,
         "--rejects-out", ingest / "rejects.csv",
         "--exclusions-out", ingest / "exclusions.csv"],
        ["graph", "--input", filtered, "--seeds", seeds,
         "--min-indegree", min_indegree,
         "--graph-out", graph / "graph.csv",
         "--influencers-out", graph / "influencers.txt",
         "--ranking-out", graph / "ranking.csv"],
        ["ideology", "--graph", graph / "graph.csv",
         "--influencers", graph / "influencers.txt",
         "--seed", ideo.DEFAULT_SEED,
         "--scores-out", ideology / "scores.csv",
         "--meta-out", ideology / "meta.json"],
        ["engagement", "--input", filtered, "--domains", domains,
         "--scores", ideology / "scores.csv", "--granularity", "all",
         "--group-by", "ideology", "--group-by", "reliability",
         "--group-by", "leaning", "--out-dir", out / "engagement"],
        ["report", "--input", filtered, "--graph", graph / "graph.csv",
         "--scores", ideology / "scores.csv", "--domains", domains,
         "--out-dir", out / "report"],
    )]


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestPipeline:
    def test_same_bytes_as_subcommands_chained_by_hand(self, tmp_path):
        piped, hand = tmp_path / "piped", tmp_path / "hand"
        run(["pipeline", "--preset", "mini", "--out-dir", piped])
        run(["synth", "--preset", "mini", "--out-dir", hand / "synth"])
        synth_dir = hand / "synth"
        assert chain_by_hand(synth_dir / "corpus.jsonl", synth_dir / "seeds.txt",
                             synth_dir / "domains.csv", 20, hand) == [0] * 5
        for stage in ("synth", "ingest", "graph", "ideology", "engagement", "report"):
            got, want = tree_bytes(piped / stage), tree_bytes(hand / stage)
            assert want and sorted(got) == sorted(want), stage
            for name in want:
                assert got[name] == want[name], f"{stage}/{name}"

    def test_same_trees_and_log_at_one_two_and_three_cpus(self, tmp_path, monkeypatch,
                                                           caplog):
        """``pipeline --preset default``, then the five standalone stages over
        its plain corpus, write the same bytes (``diff -r``) at one, two and
        three usable CPUs, and the pipeline logs the same lines in the same
        order."""
        trees, logs = [], []
        caplog.set_level(logging.DEBUG, logger="echoaudit")
        for n in (1, 2, 3):
            monkeypatch.setattr(ing, "usable_cpus", lambda n=n: n)
            out = tmp_path / f"cpus{n}"
            caplog.clear()
            run(["pipeline", "--preset", "default", "--out-dir", out / "piped"])
            logs.append([(r.levelname, r.getMessage().replace(str(out), "OUT"))
                         for r in caplog.records])
            synth_dir = out / "piped" / "synth"
            assert chain_by_hand(synth_dir / "corpus.jsonl", synth_dir / "seeds.txt",
                                 synth_dir / "domains.csv", 100,
                                 out / "hand") == [0] * 5
            trees.append(tree_bytes(out))
        one = trees[0]
        assert len(one) > 30
        for other in trees[1:]:
            assert sorted(one) == sorted(other)
            for name in one:
                assert one[name] == other[name], name
        assert logs[0][0] == ("INFO", "wrote 7586 records to OUT/piped/synth/corpus.jsonl")
        assert logs[0][1][1].startswith("retained ")
        assert logs[1] == logs[0] and logs[2] == logs[0]

    def test_corpus_parsed_once_and_nothing_read_back(self, tmp_path, monkeypatch):
        calls = Counter()

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(ing, "parse_corpus")
        counted(blk, "corpus_columns")
        counted(gr, "read_edge_list")
        counted(ideo, "read_scores")
        run(["pipeline", "--preset", "mini", "--out-dir", tmp_path / "run"])
        assert calls == Counter({"corpus_columns": 1})

    def test_every_artifact_parses(self, tmp_path):
        """Each CSV row has its header's field count and numbers in its
        numeric columns (blank means missing); each JSON file loads."""
        text_columns = {"id", "kind", "src", "dst", "reason", "user_id",
                        "domain", "leaning_label", "reliability", "subject",
                        "granularity", "action", "filter", "group", "series"}
        run(["pipeline", "--preset", "mini", "--out-dir", tmp_path])
        csvs = sorted(tmp_path.rglob("*.csv"))
        jsons = sorted(tmp_path.rglob("*.json"))
        assert len(csvs) > 10 and len(jsons) > 5
        for path in csvs:
            header, *rows = path.read_text(encoding="utf-8").splitlines()
            columns = header.split(",")
            for lineno, row in enumerate(rows, start=2):
                fields = row.split(",")
                assert len(fields) == len(columns), f"{path}:{lineno}"
                for name, value in zip(columns, fields):
                    if name not in text_columns and value:
                        try:
                            float(value)
                        except ValueError:
                            pytest.fail(f"{path}:{lineno}: {name} {value!r}")
        for path in jsons:
            json.loads(path.read_text(encoding="utf-8"))

    # The sha256 of each artifact of ``pipeline --preset mini`` that no BLAS
    # reduction feeds.  ``scores.csv``, ``meta.json``, ``correlations.csv``,
    # ``groups_ideology.csv``, ``summary.json``, the neighbour grid and the
    # score histograms are left out: their last digits come from dot products
    # and norms whose result depends on the OpenBLAS kernel and its thread
    # count (ROADMAP item 1), so a pinned hash of them would fail on another
    # host without any change to the program.  The ``log_density`` column of
    # ``ae_density_*.csv`` is ``np.log10``, which NumPy may send to SIMD code
    # that rounds the last bit unlike the C library (on AVX-512 hosts it
    # differs from ``math.log10`` from a count of 10 on), so the pins of those
    # files cover their other three columns and the test checks that column
    # against ``np.log10`` on the host it runs on.  No other pinned file goes
    # through a NumPy transcendental function.
    BLAS_FREE_SHA256 = {
        "ingest/exclusions.csv":
            "9668ee086fcf781b450854ddb60471e1522cb4b4059fd4d892f856dc54693e9b",
        "ingest/filtered.jsonl":
            "1058b6118cd9cf63abe74608fbb419157c8a7fcee12c64005dd69bde97b57b3f",
        "ingest/rejects.csv":
            "aca08c93391ca0daa8bcc80d9cf351f176f6ba7f19d0382e495922206f26bc16",
        "graph/graph.csv":
            "e330502b74bf89dae8522642da6a79e0a1d5728087edcbfe28f15b35a532e28b",
        "graph/influencers.txt":
            "ad2a17dd93d17fffcae7a5d8387296d911b5aaf3d13cb641627709a2df6a6259",
        "graph/ranking.csv":
            "9a223d48720eb588571c61d7dd97bf29abd347e99e854d20fb9902e537ecab8a",
        "engagement/ae_domain.csv":
            "e6de1c7ecb7bce5453439e0316724ca24ba686b5dc23edbd508159e6aece960d",
        "engagement/ae_tweet.csv":
            "9c12a13c24cf889fa35408b8feb7843b02f27dfea7e18602457e8456f2e8eb91",
        "engagement/ae_user.csv":
            "a500c56bf541530df42998ca494e97330dea64657151ba87c48cca9e60c131e3",
        "engagement/engagement_stats.csv":
            "a2080b73fd042381c7ae15297de1936e896d9aa61cac92dccb06d3e85adb10e7",
        "engagement/user_leanings.csv":
            "6b3c7bb3a9fcf4e29c5bca77f20929cfcf4d12fc2ca4fe70d2edde640fbe5b5e",
        "engagement/groups_reliability.csv":
            "079a8084cd004da1bd298a2f3361e2c0b7eac35a8edd14c83737ff720c726bd8",
        "engagement/groups_leaning.csv":
            "b618c3b3e6f605dfafc0d1a88d39dae0db262eb42500c7e243383085e04cf847",
        "report/ae_density_like.csv":
            "bd621b0d4cbad8e50db0f3a83f024affe6dd5b14f5c9f22dff4b094f91aead7a",
        "report/ae_density_like.json":
            "b8cca1729cd105a2f0d4ac43b643d3ca128b79c9ac756f6b7df3f3d9419c7213",
        "report/ae_density_quote.csv":
            "6e4d4f56c3ae09ceaca216bb6df2318fd963263c4040c753fc813ff3206f9857",
        "report/ae_density_quote.json":
            "ff0e064b5c7b6d8b4deb590314095f664e69f09f303f760e0715d58d8317688b",
        "report/ae_density_reply.csv":
            "5d19d9cfac683d33c11d2b8b41d457093572a83479e59365a703d571e5a8725f",
        "report/ae_density_reply.json":
            "993b1805720d07888cf05e518c2a937c60b163713b0f7e04455bb7268d5e4dc7",
        "report/ae_density_retweet.csv":
            "c8acf2c91ce92cf1b1d2a38a188f1fb8a192d3d43d0a7e530214444ca3b4df3e",
        "report/ae_density_retweet.json":
            "be3ec054df3a0414022990803182e76f6d72378f8d5ea63981c6785a0de131f6",
    }

    def test_blas_free_artifacts_keep_their_pinned_bytes(self, tmp_path):
        """A writer change that alters bytes the same way on every run passes
        the run-against-run comparisons; these pins catch it.  Every file in
        ``ingest/`` and ``graph/`` is pinned."""
        run(["pipeline", "--preset", "mini", "--out-dir", tmp_path])
        for stage in ("ingest", "graph"):
            assert sorted(f"{stage}/{name}" for name in tree_bytes(tmp_path / stage)) == \
                sorted(name for name in self.BLAS_FREE_SHA256 if name.startswith(f"{stage}/"))
        got = {}
        for name in self.BLAS_FREE_SHA256:
            data = (tmp_path / name).read_bytes()
            if name.startswith("report/ae_density_") and name.endswith(".csv"):
                rows = [line.split(",") for line in data.decode("ascii").splitlines()]
                counts = np.array([int(row[2]) for row in rows[1:]], dtype=np.float64)
                assert [row[3] for row in rows] == \
                    ["log_density", *map(str, np.log10(counts + 1.0).tolist())]
                data = "".join(",".join(row[:3]) + "\n" for row in rows).encode("ascii")
            got[name] = hashlib.sha256(data).hexdigest()
        assert got == self.BLAS_FREE_SHA256

    def test_mini_pipeline_end_to_end(self, tmp_path):
        run(["pipeline", "--preset", "mini", "--out-dir", tmp_path / "run"])
        assert (tmp_path / "run" / "report" / "summary.json").is_file()
        summary = json.loads(
            (tmp_path / "run" / "report" / "summary.json").read_text()
        )
        assert summary["diagonal_mass_share"] >= 0.9


class TestEngagementWorkers:
    """Standalone ``engagement`` deals its granularities to one worker per
    usable CPU; each worker aggregates and writes one table at a time."""

    def test_same_tree_and_log_at_one_two_and_three_cpus(self, mini_stage_dirs, tmp_path,
                                                          monkeypatch, caplog):
        """Every granularity and every ``--group-by`` write the same bytes and
        log the same lines in the same order, warnings included."""
        corpus = tmp_path / "filtered.jsonl"
        corpus.write_text(re.sub(r'"quotes": \d+', '"quotes": 0',
                                 (mini_stage_dirs / "filtered.jsonl").read_text()))
        domains = tmp_path / "domains.csv"
        domains.write_text((FIXTURES / "mini_domains.csv").read_text().replace(
            "deep-rumors-0.test", "unseen-rumors.test"))
        caplog.set_level(logging.DEBUG, logger="echoaudit")
        trees, logs = [], []
        for n in (1, 2, 3):
            monkeypatch.setattr(ing, "usable_cpus", lambda n=n: n)
            out = tmp_path / f"cpus{n}"
            caplog.clear()
            assert run(["engagement", "--input", corpus, "--domains", domains,
                        "--scores", mini_stage_dirs / "scores.csv",
                        "--granularity", "all", "--group-by", "ideology",
                        "--group-by", "reliability", "--group-by", "leaning",
                        "--out-dir", out]) == 0
            logs.append([(r.levelname, r.getMessage()) for r in caplog.records])
            trees.append(tree_bytes(out))
        assert sorted(trees[0]) == sorted(
            [f"ae_{g}.csv" for g in eng.GRANULARITIES] + ["correlations.csv",
             "engagement_stats.csv", "user_leanings.csv"]
            + [f"groups_{by}.csv" for by in ("ideology", "reliability", "leaning")])
        assert trees[1] == trees[0] and trees[2] == trees[0]
        assert logs[0] == [
            ("WARNING", "correlation for quote unavailable: "
                        "correlation needs at least 2 points, got 0"),
            ("WARNING", "group 'conspiracy_pseudoscience' has no engagement records; "
                        "omitted"),
        ]
        assert logs[1] == logs[0] and logs[2] == logs[0]

    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("command", ["engagement", "pipeline"])
    def test_no_process_holds_two_tables(self, mini_stage_dirs, tmp_path, monkeypatch,
                                         n_cpus, command):
        """Each call of ``aggregate_ae`` finds every table made before it in
        the same process freed."""
        aggregate = eng.aggregate_ae
        made = []

        def tracked(*args, **kwargs):
            alive = [ref().granularity for pid, ref in made
                     if pid == os.getpid() and ref() is not None]
            assert not alive, f"process {os.getpid()} still holds {alive}"
            table = aggregate(*args, **kwargs)
            made.append((os.getpid(), weakref.ref(table)))
            return table

        monkeypatch.setattr(eng, "aggregate_ae", tracked)
        monkeypatch.setattr(ing, "usable_cpus", lambda: n_cpus)
        if command == "engagement":
            argv = ["engagement", "--input", mini_stage_dirs / "filtered.jsonl",
                    "--domains", FIXTURES / "mini_domains.csv",
                    "--scores", mini_stage_dirs / "scores.csv",
                    "--group-by", "ideology", "--group-by", "reliability",
                    "--group-by", "leaning"]
        else:
            argv = ["pipeline", "--preset", "mini"]
        assert run([*argv, "--out-dir", tmp_path / "run"]) == 0
        # With two CPUs standalone engagement aggregates tweets and domains
        # here and the users in a worker, and pipeline all three in its
        # table worker.
        here = len([pid for pid, _ in made if pid == os.getpid()])
        assert here == (3 if n_cpus == 1 else 2 if command == "engagement" else 0)


def hidden_files(root):
    """Every hidden file or directory under ``root``: temporary and part
    files are hidden."""
    return sorted(p.relative_to(root).as_posix() for p in root.rglob(".*"))


class TestPipelineFailures:
    """With two usable CPUs ``pipeline`` runs synth beside ingest, the AE
    tables beside graph and ideology, and report beside engagement.  A
    failure in any of them exits 2 with its message and leaves no hidden
    temporary or part file and no child process."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(ing, "usable_cpus", lambda: 2)

    @staticmethod
    def exit_message(out, capsys, *flags):
        with pytest.raises(SystemExit) as exc:
            run(["pipeline", "--preset", "mini", "--out-dir", out, *flags])
        assert exc.value.code == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return capsys.readouterr().err

    @staticmethod
    def synth_blocks(monkeypatch, then):
        """Synth writes 100-line blocks and calls ``then(k)`` before
        formatting block ``k``, counted from 0."""
        format_block = synth.flat_lines
        calls = []

        def flat_lines(*args):
            then(len(calls))
            calls.append(None)
            return format_block(*args)

        monkeypatch.setattr(synth, "_BLOCK", 100)
        monkeypatch.setattr(synth, "flat_lines", flat_lines)

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_synth_error_partway_through_the_corpus(self, tmp_path, capsys, monkeypatch,
                                                    n_cpus):
        def fail_at_third_block(k):
            if k == 3:
                raise OutputError("disk full")

        monkeypatch.setattr(ing, "usable_cpus", lambda: n_cpus)
        self.synth_blocks(monkeypatch, fail_at_third_block)
        out = tmp_path / "run"
        assert self.exit_message(out, capsys) == "error: disk full\n"
        assert not (out / "ingest").exists()
        assert hidden_files(out) == []

    def test_synth_error_before_the_first_line(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "synth").write_text("taken\n")
        err = self.exit_message(out, capsys)
        assert err.startswith(f"error: cannot create directory {out / 'synth'}: "), err
        assert sorted(p.name for p in out.iterdir()) == ["synth"]

    def test_unwritable_ingest_output_stops_synth(self, tmp_path, capsys, monkeypatch):
        def hang_after_first_block(k):
            if k == 1:
                time.sleep(60)

        self.synth_blocks(monkeypatch, hang_after_first_block)
        out = tmp_path / "run"
        taken = out / "ingest" / ".filtered.tmp.jsonl"
        taken.mkdir(parents=True)
        started = time.monotonic()
        err = self.exit_message(out, capsys)
        assert time.monotonic() - started < 30
        assert err.startswith(f"error: cannot write {out / 'ingest' / 'filtered.jsonl'}: "), err
        assert not (out / "synth" / ".corpus.tmp.jsonl").exists()
        assert hidden_files(out) == ["ingest/.filtered.tmp.jsonl"]

    def test_report_error_while_engagement_succeeds(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise InputError("report broke")

        monkeypatch.setattr(rep, "neighbor_opinion_grid", broken)
        out = tmp_path / "run"
        assert self.exit_message(out, capsys) == "error: report broke\n"
        assert (out / "engagement" / "engagement_stats.csv").is_file()
        assert hidden_files(out) == []

    def test_engagement_error_kills_report_mid_write(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        report_tmp = out / "report" / ".ideology_histograms.tmp.csv"

        def hanging_write(hist, path):
            with ing.open_atomic(path) as fh:
                fh.write("partial")
                fh.flush()
                time.sleep(60)

        def broken(*args):
            deadline = time.monotonic() + 30
            while not report_tmp.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise InputError("engagement broke")

        monkeypatch.setattr(rep, "write_histogram", hanging_write)
        monkeypatch.setattr(eng, "write_correlations", broken)
        started = time.monotonic()
        assert self.exit_message(out, capsys) == "error: engagement broke\n"
        assert time.monotonic() - started < 30
        assert hidden_files(out) == []

    @pytest.mark.parametrize("engagement_dir", ["made", "existing"])
    def test_graph_error_kills_the_table_worker_mid_write(self, tmp_path, capsys,
                                                          monkeypatch, engagement_dir):
        """``engagement/`` goes, as one CPU would never have made it; one
        that was there before the run keeps what it held."""
        out = tmp_path / "run"
        ae_tmp = out / "engagement" / ".ae_tweet.tmp.csv"
        if engagement_dir == "existing":
            (out / "engagement").mkdir(parents=True)
            (out / "engagement" / "notes.txt").write_text("kept\n")

        def hanging_write(records, path):
            with ing.open_atomic(path) as fh:
                fh.write("partial")
                fh.flush()
                time.sleep(60)

        def select_late(*args, **kwargs):
            deadline = time.monotonic() + 30
            while not ae_tmp.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return select(*args, **kwargs)

        select = gr.select_influencers
        monkeypatch.setattr(eng, "write_engagement", hanging_write)
        monkeypatch.setattr(gr, "select_influencers", select_late)
        started = time.monotonic()
        err = self.exit_message(out, capsys, "--min-indegree", "1000000")
        assert time.monotonic() - started < 30
        assert err == (f"error: no seed from {out / 'synth' / 'seeds.txt'} has unique "
                       "in-degree >= 1000000; ideology estimation cannot run\n")
        assert not (out / "ideology").exists()
        if engagement_dir == "made":
            assert not (out / "engagement").exists()
        else:
            assert [p.name for p in (out / "engagement").iterdir()] == ["notes.txt"]
        assert hidden_files(out) == []

    def test_table_worker_error_comes_after_ideology(self, tmp_path, capsys, monkeypatch,
                                                     caplog):
        def broken(records, path):
            raise OutputError(f"tables broke at {path.name}")

        monkeypatch.setattr(eng, "write_engagement", broken)
        caplog.set_level(logging.INFO, logger="echoaudit")
        out = tmp_path / "run"
        assert self.exit_message(out, capsys) == "error: tables broke at ae_tweet.csv\n"
        assert (out / "ideology" / "scores.csv").is_file()
        assert caplog.records[-1].getMessage().startswith("scored ")
        assert sorted(p.name for p in (out / "engagement").iterdir()) == []
        assert hidden_files(out) == []
