import gzip
import json
import os
import subprocess
import sys

import pytest

from echoaudit import cli

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


class TestErrors:
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

    def test_missing_input_fatal(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["ingest", "--input", tmp_path / "ghost.jsonl",
                 "--filtered-out", tmp_path / "out.jsonl"])
        assert exc.value.code == 2

    def test_no_command(self):
        with pytest.raises(SystemExit):
            run([])


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


class TestPipeline:
    def test_mini_pipeline_end_to_end(self, tmp_path):
        run(["pipeline", "--preset", "mini", "--out-dir", tmp_path / "run"])
        assert (tmp_path / "run" / "report" / "summary.json").is_file()
        summary = json.loads(
            (tmp_path / "run" / "report" / "summary.json").read_text()
        )
        assert summary["diagonal_mass_share"] >= 0.9
