import csv
import gzip
import json
import logging
import os
import subprocess
import sys
import time
from collections import Counter

import pytest

from echoaudit import blocks as blk
from echoaudit import cli
from echoaudit import engagement as eng
from echoaudit import graph as gr
from echoaudit import ideology as ideo
from echoaudit import ingest as ing
from echoaudit import report as rep
from echoaudit import synth
from echoaudit.errors import InputError, OutputError

from conftest import FIXTURES, ROOT


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

    def test_mini_pipeline_end_to_end(self, tmp_path):
        run(["pipeline", "--preset", "mini", "--out-dir", tmp_path / "run"])
        assert (tmp_path / "run" / "report" / "summary.json").is_file()
        summary = json.loads(
            (tmp_path / "run" / "report" / "summary.json").read_text()
        )
        assert summary["diagonal_mass_share"] >= 0.9


def hidden_files(root):
    """Every hidden file or directory under ``root``: temporary and part
    files are hidden."""
    return sorted(p.relative_to(root).as_posix() for p in root.rglob(".*"))


class TestPipelineFailures:
    """With two usable CPUs ``pipeline`` runs synth beside ingest, and report
    beside engagement.  A failure in any of them exits 2 with its message and
    leaves no hidden temporary or part file and no child process."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(ing, "usable_cpus", lambda: 2)

    @staticmethod
    def exit_message(out, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["pipeline", "--preset", "mini", "--out-dir", out])
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
