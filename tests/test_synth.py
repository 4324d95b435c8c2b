import filecmp
import json
import math
from collections import defaultdict

import numpy as np
import pytest

from echoaudit import engagement as eng
from echoaudit import graph as gr
from echoaudit import ideology as ideo
from echoaudit import ingest as ing
from echoaudit import synth
from echoaudit.errors import DegenerateMatrixError, InputError

from _ca_oracle import dense_ca_oracle, jacobi_svd
from conftest import FIXTURES, random_count_matrix


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


class TestPolarizedCorpus:
    def test_passes_ingest_with_zero_rejects(self, tmp_path):
        from collections import Counter

        result = synth.generate(small_config(), tmp_path)
        rejects = Counter()
        records = list(ing.parse_corpus(result.corpus_path, rejects=rejects))
        assert len(records) == result.n_records
        assert {k: v for k, v in rejects.items() if not k.endswith("_kept")} == {}

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
        triplet = ideo.leading_singular_triplet(ideo.normalize(matrix))
        anchor = next(h for h in truth.planted_hubs
                      if truth.community[h] == "A")
        scores = ideo.score_users_and_influencers(matrix, triplet, anchor)
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
        for src, dst, w in g.edge_list():
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
                pooled[group][a] += eng.action_count(rec, a)
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
        means = eng.tweet_level_mean_ae(records)
        for action in eng.ACTIONS:
            mean, _ = means[action]
            assert abs(mean - ae_t[action]) / ae_t[action] < 0.05
            report = eng.correlation_report(records, action)
            assert abs(report.pearson_r - r_t[action]) < 0.03

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
        m = ideo.InteractionMatrix.from_dense(
            a, [f"u{i}" for i in range(20)], [f"c{j}" for j in range(6)]
        )
        triplet = ideo.leading_singular_triplet(ideo.normalize(m))
        assert abs(triplet.sigma - oracle.sigmas[0]) <= 1e-9
