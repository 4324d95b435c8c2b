import filecmp
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from collections import defaultdict

import numpy as np
import pytest

from echoaudit import engagement as eng
from echoaudit import graph as gr
from echoaudit import ideology as ideo
from echoaudit import ingest as ing
from echoaudit import synth
from echoaudit.errors import DegenerateMatrixError, InputError

import _engagement_oracle as oracle
from _ca_oracle import dense_ca_oracle, jacobi_svd
from _matrix_helpers import edge_list, from_dense
from _tables import originals_table
from conftest import FIXTURES, ROOT, random_count_matrix


# What tools/build_fixtures.py prints for the committed fixtures: the counts
# that the suite freezes for them.
MINI_SUMMARY = (
    "records=962 pre_cutoff=27 non_english_post=27 retained=908\n"
    "originals=357 retweets=539 graph_nodes=157 graph_edges=403\n"
    "influencers_at_thr5=10 matrix_shape=(129, 10) nnz=385\n"
)
MINI_FILES = ("mini_corpus.jsonl", "mini_domains.csv", "mini_ground_truth.json",
              "mini_seeds.txt")


def small_config(**overrides):
    base = dict(
        seed=99, n_users=60, n_influencers_per_side=4, p_in=0.5, p_cross=0.02,
        originals_per_user_mean=1.0,
    )
    base.update(overrides)
    return synth.GeneratorConfig(**base)


class TestDeterminism:
    def test_same_seed_identical_files(self, tmp_path):
        a = synth.generate(small_config(), tmp_path / "a")
        b = synth.generate(small_config(), tmp_path / "b")
        for name in ("corpus.jsonl", "ground_truth.json", "domains.csv", "seeds.txt"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name
        assert a.n_records == b.n_records

    def test_different_seed_differs(self, tmp_path):
        synth.generate(small_config(seed=1), tmp_path / "a")
        synth.generate(small_config(seed=2), tmp_path / "b")
        assert not filecmp.cmp(tmp_path / "a" / "corpus.jsonl",
                               tmp_path / "b" / "corpus.jsonl", shallow=False)

    def test_committed_fixtures_reproducible(self, tmp_path):
        result = synth.generate(synth.mini_config(), tmp_path)
        pairs = [
            (result.corpus_path, FIXTURES / "mini_corpus.jsonl"),
            (result.truth_path, FIXTURES / "mini_ground_truth.json"),
            (result.domains_path, FIXTURES / "mini_domains.csv"),
            (result.seeds_path, FIXTURES / "mini_seeds.txt"),
        ]
        for generated, committed in pairs:
            assert generated.read_bytes() == committed.read_bytes(), committed.name

    def test_fixture_builder_reproduces_fixtures(self, tmp_path):
        """The builder, run in a copy of ``tools/`` and ``src/``, writes the
        committed fixtures byte for byte and prints the frozen counts."""
        for name in ("tools", "src"):
            shutil.copytree(ROOT / name, tmp_path / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run([sys.executable, str(tmp_path / "tools" / "build_fixtures.py")],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == MINI_SUMMARY
        assert sorted(p.name for p in (tmp_path / "fixtures").iterdir()) == list(MINI_FILES)
        for name in MINI_FILES:
            assert ((tmp_path / "fixtures" / name).read_bytes()
                    == (FIXTURES / name).read_bytes()), name

    def test_write_block_size_does_not_change_bytes(self, tmp_path, monkeypatch):
        """Lines are formatted and written at most a block at a time; blocks
        of 7 lines give the committed mini corpus and the pinned calibration
        corpus."""
        monkeypatch.setattr(synth, "_BLOCK", 7)
        blocks = []

        def flat_lines(created_at, rows):
            rows = list(rows)
            blocks.append(len(rows))
            return ing.flat_lines(created_at, rows)
        monkeypatch.setattr(synth, "flat_lines", flat_lines)
        result = synth.generate(synth.mini_config(), tmp_path / "mini")
        assert (result.corpus_path.read_bytes()
                == (FIXTURES / "mini_corpus.jsonl").read_bytes())
        assert max(blocks) == 7 and sum(blocks) == result.n_records
        blocks.clear()
        ae_t, r_t = TestCalibration().targets()
        config = synth.CalibrationConfig(
            seed=5, n_tweets=500, ae_targets=ae_t, pearson_targets=r_t
        )
        result = synth.generate_calibration(config, tmp_path / "calibration")
        assert hashlib.sha256(result.corpus_path.read_bytes()).hexdigest() == (
            "6a41289f7c538b545e9143cee564fd46e99aa33085837e648d4c8c9c27793333"
        )
        assert max(blocks) == 7 and sum(blocks) == 500

    def test_default_corpus_bytes_pinned(self, default_corpus):
        """sha256 of the default corpus, several write blocks long, and of its
        ground truth, as the line-at-a-time writer wrote them."""
        pins = {
            default_corpus.corpus_path:
                "f3c388a0c735949209a366b19bde537871c787b038146b557252d8a0dcec939a",
            default_corpus.truth_path:
                "ed6d6d62f8886df2502065e37d49bcd681db9665122398e79af6041a4204c106",
        }
        assert default_corpus.n_records == 7586
        for path, digest in pins.items():
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, path.name


class TestPolarizedCorpus:
    def test_passes_ingest_with_zero_rejects(self, tmp_path):
        from collections import Counter

        result = synth.generate(small_config(), tmp_path)
        rejects = Counter()
        records = list(ing.parse_corpus(result.corpus_path, rejects=rejects))
        assert len(records) == result.n_records
        assert {k: v for k, v in rejects.items() if not k.endswith("_kept")} == {}

    def test_class_draw_matches_generator_choice(self):
        """synth draws a leaning class from one random() searched in the
        normalised cumulative weights, which is what Generator.choice does."""
        for weights in ([0.15, 0.4, 0.3, 0.15], [1.0], [0.0, 0.5, 0.5], [0.1] * 10):
            cumulative = np.cumsum(weights)
            cdf = cumulative / cumulative[-1]
            a, b = np.random.default_rng(3), np.random.default_rng(3)
            for _ in range(1000):
                assert (a.choice(len(weights), p=weights)
                        == cdf.searchsorted(b.random(), side="right"))

    def test_default_config_headline_counts(self, default_corpus):
        records = list(ing.parse_corpus(default_corpus.corpus_path))
        truth = synth.GroundTruth.from_json(default_corpus.truth_path)
        users = {uid for uid, grp in truth.community.items()
                 if uid.startswith("user")}
        assert len(users) == 1000
        assert len(truth.planted_hubs) == 20
        retweets = [r for r in records if r.kind == "retweet"]
        assert abs(len(retweets) - 5000) / 5000 < 0.15
        assert len(retweets) == 4908  # frozen for the default seed

    def test_disconnected_communities_fully_separate(self, tmp_path):
        config = synth.GeneratorConfig(
            seed=3, n_users=80, n_influencers_per_side=4, p_in=0.6, p_cross=0.0
        )
        result = synth.generate(config, tmp_path)
        truth = synth.GroundTruth.from_json(result.truth_path)
        records = ing.network_subset(
            ing.apply_filters(ing.parse_corpus(result.corpus_path))
        )
        g = gr.build_graph(records)
        infl = gr.select_influencers(g, truth.planted_hubs, threshold=1)
        matrix = ideo.build_interaction_matrix(g, infl, min_distinct=2)
        norm = ideo.normalize(matrix)
        triplet = ideo.leading_singular_triplet(norm)
        anchor = next(h for h in truth.planted_hubs
                      if truth.community[h] == "A")
        scores = ideo.score_users_and_influencers(norm, triplet, anchor)
        for uid, score in scores.user_scores.items():
            if truth.community[uid] == "A":
                assert score < 0, uid
            else:
                assert score > 0, uid

    def test_modularity_exceeds_threshold(self, default_corpus):
        nx = pytest.importorskip("networkx")
        truth = synth.GroundTruth.from_json(default_corpus.truth_path)
        records = ing.network_subset(
            ing.apply_filters(ing.parse_corpus(default_corpus.corpus_path))
        )
        g = gr.build_graph(records)
        ng = nx.Graph()
        for src, dst, w in edge_list(g):
            if ng.has_edge(src, dst):
                ng[src][dst]["weight"] += w
            else:
                ng.add_edge(src, dst, weight=w)
        part_a = {n for n in ng if truth.community[n] == "A"}
        part_b = set(ng) - part_a
        q = nx.algorithms.community.modularity(ng, [part_a, part_b], weight="weight")
        assert q > 0.3

    def test_group_ae_within_ten_percent_of_targets(self, default_corpus):
        truth = synth.GroundTruth.from_json(default_corpus.truth_path)
        originals = list(
            ing.engagement_subset(
                ing.apply_filters(ing.parse_corpus(default_corpus.corpus_path))
            )
        )
        pooled = defaultdict(lambda: {"imp": 0, **{a: 0 for a in eng.ACTIONS}})
        n_originals = defaultdict(int)
        for rec in originals:
            group = truth.community.get(rec.author_id)
            if group is None:
                continue
            pooled[group]["imp"] += rec.impressions
            n_originals[group] += 1
            for a in eng.ACTIONS:
                pooled[group][a] += oracle.action_count(rec, a)
        for group, targets in truth.target_ae_by_group.items():
            assert n_originals[group] >= 1000
            for action, target in targets.items():
                realized = pooled[group][action] / pooled[group]["imp"]
                assert abs(realized - target) / target < 0.10, (group, action)

    def test_invalid_configs_rejected(self):
        with pytest.raises(InputError):
            synth.GeneratorConfig(p_in=0.1, p_cross=0.2).validate()
        with pytest.raises(InputError):
            synth.GeneratorConfig(n_influencers_per_side=0).validate()
        with pytest.raises(InputError):
            synth.GeneratorConfig(
                lurk_rate_by_group={"A": 1.4, "B": 0.9}
            ).validate()
        with pytest.raises(InputError):
            cfg = synth.GeneratorConfig()
            cfg.action_shares = {"like": 0.5}
            cfg.validate()
        with pytest.raises(InputError):
            cfg = synth.GeneratorConfig()
            cfg.domain_mix = {"A": {"UltraLeft": 1.0}, "B": {"Right": 1.0}}
            cfg.validate()


class TestCalibration:
    def targets(self):
        return (
            {"retweet": 0.003, "reply": 0.0025, "like": 0.011, "quote": 0.0006},
            {"retweet": -0.35, "reply": -0.56, "like": -0.22, "quote": -0.57},
        )

    def test_quick_calibration_hits_targets(self, tmp_path):
        ae_t, r_t = self.targets()
        config = synth.CalibrationConfig(
            seed=5, n_tweets=8000, ae_targets=ae_t, pearson_targets=r_t
        )
        result = synth.generate_calibration(config, tmp_path)
        records = list(ing.engagement_subset(ing.parse_corpus(result.corpus_path)))
        assert len(records) == 8000
        means = oracle.tweet_level_mean_ae(records)
        originals = originals_table(records)
        for action in eng.ACTIONS:
            mean, _ = means[action]
            assert abs(mean - ae_t[action]) / ae_t[action] < 0.05
            report = eng.correlation_report(originals, action)
            assert abs(report.pearson_r - r_t[action]) < 0.03

    def test_corpus_bytes_pinned(self, tmp_path):
        """sha256 of the corpus as the dict-and-json.dumps writer wrote it."""
        ae_t, r_t = self.targets()
        config = synth.CalibrationConfig(
            seed=5, n_tweets=500, ae_targets=ae_t, pearson_targets=r_t
        )
        result = synth.generate_calibration(config, tmp_path)
        digest = hashlib.sha256(result.corpus_path.read_bytes()).hexdigest()
        assert digest == (
            "6a41289f7c538b545e9143cee564fd46e99aa33085837e648d4c8c9c27793333"
        )

    def test_long_corpus_bytes_pinned(self, tmp_path):
        """sha256 of a corpus several write blocks long, and of its truth."""
        ae_t, r_t = self.targets()
        config = synth.CalibrationConfig(
            seed=5, n_tweets=10_000, ae_targets=ae_t, pearson_targets=r_t
        )
        result = synth.generate_calibration(config, tmp_path)
        pins = {
            result.corpus_path:
                "6fcbbdc06a67e5836dff151146ca2c4267e4b294bf395bf03e6da8d8477a1e28",
            result.truth_path:
                "60d08bf65cdb0ff90a8ba10d6fc40f9caf18f0224ebd3cf3ac0fb1b6787a5747",
        }
        for path, digest in pins.items():
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, path.name

    def test_truth_carries_targets(self, tmp_path):
        ae_t, r_t = self.targets()
        config = synth.CalibrationConfig(
            seed=5, n_tweets=500, ae_targets=ae_t, pearson_targets=r_t
        )
        result = synth.generate_calibration(config, tmp_path)
        truth = synth.GroundTruth.from_json(result.truth_path)
        assert truth.target_ae_by_group == {"all": ae_t}
        assert truth.target_log_pearson == r_t

    def test_validation(self):
        with pytest.raises(InputError):
            synth.CalibrationConfig().validate()  # no targets
        ae_t, r_t = self.targets()
        bad_r = dict(r_t, like=-1.5)
        with pytest.raises(InputError):
            synth.CalibrationConfig(
                ae_targets=ae_t, pearson_targets=bad_r
            ).validate()


class TestConfigJSON:
    def test_polarized_roundtrip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mode": "polarized", "seed": 42, "n_users": 77}))
        config = synth.config_from_json(path)
        assert isinstance(config, synth.GeneratorConfig)
        assert (config.seed, config.n_users) == (42, 77)

    def test_calibration_mode(self, tmp_path):
        ae_t = {"retweet": 0.003, "reply": 0.0025, "like": 0.011, "quote": 0.0006}
        r_t = {"retweet": -0.35, "reply": -0.56, "like": -0.22, "quote": -0.57}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "mode": "calibration", "seed": 3, "n_tweets": 100,
            "ae_targets": ae_t, "pearson_targets": r_t,
        }))
        config = synth.config_from_json(path)
        assert isinstance(config, synth.CalibrationConfig)

    def test_integers_accepted_for_number_fields(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"p_in": 1, "follower_log10": [2, 1],
                                    "lurk_rate_by_group": {"A": 1, "B": 0.5}}))
        config = synth.config_from_json(path)
        assert (config.p_in, config.follower_log10) == (1, (2, 1))
        config.validate()

    def test_unknown_mode(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mode": "chaos"}))
        with pytest.raises(InputError):
            synth.config_from_json(path)


class TestJacobiSVD:
    def test_matches_lapack_on_random_matrices(self):
        rng = np.random.default_rng(17)
        for shape in ((6, 4), (4, 6), (20, 7), (7, 20), (1, 5), (5, 1)):
            x = rng.standard_normal(shape)
            u, s, vt = jacobi_svd(x)
            s_ref = np.linalg.svd(x, compute_uv=False)
            k = min(shape)
            assert np.abs(s[:k] - s_ref).max() <= 1e-12 * max(1.0, s_ref[0])
            recon = u[:, :k] @ np.diag(s[:k]) @ vt[:k]
            assert np.abs(recon - x).max() <= 1e-12 * max(1.0, s_ref[0])

    def test_orthogonality(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((12, 5))
        u, s, vt = jacobi_svd(x)
        np.testing.assert_allclose(vt @ vt.T, np.eye(5), atol=1e-12)
        np.testing.assert_allclose(u[:, :5].T @ u[:, :5], np.eye(5), atol=1e-12)

    def test_rank_deficient(self):
        x = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
        u, s, vt = jacobi_svd(x)
        assert s[0] > 1.0 and abs(s[1]) <= 1e-12


class TestDenseCAOracle:
    def test_hand_computed_identity(self):
        result = dense_ca_oracle(np.eye(2))
        assert result.sigmas[0] == pytest.approx(1.0, abs=1e-12)
        expected = np.array([1.0, -1.0]) / math.sqrt(2.0)
        assert abs(abs(result.row_scores @ expected) - 1.0) <= 1e-12

    def test_uniform_matrix_degenerate(self):
        with pytest.raises(DegenerateMatrixError):
            dense_ca_oracle(np.full((3, 4), 2.0))

    def test_zero_row_fatal(self):
        a = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(DegenerateMatrixError):
            dense_ca_oracle(a)

    def test_zero_column_fatal(self):
        a = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(DegenerateMatrixError):
            dense_ca_oracle(a)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            dense_ca_oracle(np.ones((201, 3)))

    def test_cross_check_with_production_solver(self):
        rng = np.random.default_rng(19)
        a = random_count_matrix(rng, 20, 6)
        oracle = dense_ca_oracle(a)
        m = from_dense(
            a, [f"u{i}" for i in range(20)], [f"c{j}" for j in range(6)]
        )
        triplet = ideo.leading_singular_triplet(ideo.normalize(m))
        assert abs(triplet.sigma - oracle.sigmas[0]) <= 1e-9
