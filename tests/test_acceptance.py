"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Tolerances are pinned here and nowhere else.
"""

import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from echoaudit import cli
from echoaudit import engagement as eng
from echoaudit import graph as gr
from echoaudit import ideology as ideo
from echoaudit import ingest as ing
from echoaudit import mediabias as mb
from echoaudit import report as rep
from echoaudit import synth

import _engagement_oracle as oracle
from _ca_oracle import dense_ca_oracle
from _matrix_helpers import from_dense, influencer_scores, user_scores
from _tables import originals_table
from conftest import make_record, random_count_matrix, read_truth


def report_line(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"{criterion}: {detail}"


# Table 1 targets for the calibrated fixture (mean AE per action, log-log
# Pearson r against follower counts).
TABLE1_MEAN_AE = {
    "retweet": 0.002909,
    "reply": 0.002479,
    "like": 0.011154,
    "quote": 0.000612,
}
TABLE1_LOG_PEARSON = {
    "retweet": -0.3469,
    "reply": -0.5649,
    "like": -0.2250,
    "quote": -0.5690,
}


def analyse_default_corpus(result: synth.SynthResult):
    """ingest -> graph -> influencers -> matrix -> scores on a synth corpus."""
    truth = read_truth(result.truth_path)
    retained = list(ing.apply_filters(ing.parse_corpus(result.corpus_path)))
    g = gr.build_graph(r for r in retained if r.kind == "retweet")
    influencers = gr.select_influencers(g, truth.planted_hubs, threshold=100)
    matrix = ideo.build_interaction_matrix(g, influencers, min_distinct=2)
    norm = ideo.normalize(matrix)
    triplet = ideo.leading_singular_triplet(norm)
    anchor = next(h for h in influencers if truth.community[h] == "A")
    scores = ideo.score_users_and_influencers(norm, triplet, anchor)
    return truth, g, scores


@pytest.fixture(scope="module")
def default_analysis(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_default")
    started = time.perf_counter()
    result = synth.generate(synth.default_config(), out)
    truth, g, scores = analyse_default_corpus(result)
    elapsed = time.perf_counter() - started
    return truth, g, scores, elapsed


def test_criterion_1_ca_oracle_equivalence():
    rng = np.random.default_rng(20230001)
    started = time.perf_counter()
    worst_sigma = 0.0
    worst_align = 1.0
    for _ in range(100):
        n_rows = int(rng.integers(5, 51))
        n_cols = int(rng.integers(3, 21))
        a = random_count_matrix(rng, n_rows, n_cols)
        m = from_dense(
            a,
            [f"u{i:03d}" for i in range(n_rows)],
            [f"c{j:03d}" for j in range(n_cols)],
        )
        triplet = ideo.leading_singular_triplet(ideo.normalize(m))
        oracle = dense_ca_oracle(a)
        worst_sigma = max(worst_sigma, abs(triplet.sigma - oracle.sigmas[0]))
        worst_align = min(worst_align, abs(float(triplet.u @ oracle.u[:, 0])))
    elapsed = time.perf_counter() - started
    ok = worst_sigma <= 1e-9 and worst_align >= 1.0 - 1e-9 and elapsed < 10.0
    report_line(
        "1 (CA oracle equivalence)", ok,
        f"100 matrices: max |d sigma1| {worst_sigma:.2e} (<=1e-9), "
        f"min alignment {worst_align:.12f} (>=1-1e-9), {elapsed:.2f}s (<10s)",
    )


def test_criterion_2_scale_and_permutation_invariance():
    rng = np.random.default_rng(20230002)
    a = random_count_matrix(rng, 25, 8)
    row_ids = [f"u{i:03d}" for i in range(25)]
    col_ids = [f"c{j:03d}" for j in range(8)]

    def scores_for(dense, rows):
        n = ideo.normalize(from_dense(dense, rows, col_ids))
        t = ideo.leading_singular_triplet(n, seed=5)
        return ideo.score_users_and_influencers(n, t, "c000")

    base = scores_for(a, row_ids)
    worst = 0.0
    for k in (2, 5, 10):
        scaled = scores_for(a * k, row_ids)
        for of_kind in (user_scores, influencer_scores):
            got = of_kind(scaled)
            for uid, val in of_kind(base).items():
                worst = max(worst, abs(got[uid] - val))

    perm = rng.permutation(25)
    permuted = scores_for(a[perm], [row_ids[i] for i in perm])
    exact = (user_scores(permuted) == user_scores(base)
             and influencer_scores(permuted) == influencer_scores(base))

    ok = worst <= 1e-12 and exact
    report_line(
        "2 (scale/permutation invariance)", ok,
        f"max |score drift| under k*A: {worst:.2e} (<=1e-12); "
        f"row permutation exact: {exact}",
    )


def test_criterion_3_community_recovery(default_analysis):
    truth, _, scores, gen_elapsed = default_analysis
    started = time.perf_counter()
    users = [(u, s) for u, s in user_scores(scores).items()
             if u in truth.community]
    # anchor alignment: the anchor's community sits on the negative side
    agree = sum(
        1 for u, s in users
        if (s < 0) == (truth.community[u] == "A")
    )
    share = agree / len(users)

    values = np.asarray([s for _, s in users])
    dip = rep.dip_statistic(values)
    threshold = rep.dip_threshold(len(values), alpha=0.01)
    elapsed = gen_elapsed + (time.perf_counter() - started)

    ok = share >= 0.95 and dip > threshold and elapsed < 30.0
    report_line(
        "3 (community recovery)", ok,
        f"sign agreement {share:.4f} (>=0.95) over {len(users)} users; "
        f"dip {dip:.4f} > threshold {threshold:.4f}; {elapsed:.1f}s (<30s)",
    )


def test_criterion_4_table1_fixture_reproduction(tmp_path):
    config = synth.CalibrationConfig(
        seed=11, n_tweets=40_000,
        ae_targets=dict(TABLE1_MEAN_AE),
        pearson_targets=dict(TABLE1_LOG_PEARSON),
    )
    result = synth.generate_calibration(config, tmp_path)
    records = list(ing.engagement_subset(ing.parse_corpus(result.corpus_path)))
    truth = read_truth(result.truth_path)

    means = oracle.tweet_level_mean_ae(records)
    originals = originals_table(records)
    worst_rel = 0.0
    worst_abs = 0.0
    details = []
    for action in eng.ACTIONS:
        mean, _ = means[action]
        target = truth.target_ae_by_group["all"][action]
        rel = abs(mean - target) / target
        worst_rel = max(worst_rel, rel)
        r = eng.correlation_report(originals, action).pearson_r
        err = abs(r - truth.target_log_pearson[action])
        worst_abs = max(worst_abs, err)
        details.append(f"{action}: mean {mean:.6f} ({rel:.2%}), r {r:.4f} ({err:.4f})")
    ok = worst_rel <= 0.05 and worst_abs <= 0.02
    report_line(
        "4 (Table-1 fixture reproduction)", ok,
        f"worst mean error {worst_rel:.3%} (<=5%), "
        f"worst |d r| {worst_abs:.4f} (<=0.02); " + "; ".join(details),
    )


def test_criterion_5_ae_definition_exactness():
    cases = [
        # (impressions, retweets, replies, likes, quotes)
        (1000, 3, 1, 16, 0),
        (640, 80, 5, 16, 1),
        (7, 1, 2, 3, 4),
        (123_456, 12, 34, 567, 8),
    ]
    worst = 0.0
    for imps, rts, reps_, likes, quotes in cases:
        rec = make_record(
            impressions=imps, retweets=rts, replies=reps_, likes=likes,
            quotes=quotes,
        )
        tweet = eng.aggregate_ae(originals_table([rec]), "tweet")
        ratios = {a: float(tweet.ae[a][0]) for a in eng.ACTIONS}
        for action, count in (
            ("retweet", rts), ("reply", reps_), ("like", likes), ("quote", quotes),
        ):
            exact = Fraction(count, imps)
            worst = max(worst, abs(ratios[action] - float(exact)))
    zero = eng.aggregate_ae(
        originals_table([make_record(impressions=0, likes=5)]), "tweet")
    absent = len(zero) == 0
    ok = worst <= 1e-15 and absent
    report_line(
        "5 (AE definition exactness)", ok,
        f"max |error| on rational cases {worst:.2e} (<=1e-15); "
        f"zero impressions -> absent: {absent}",
    )


def test_criterion_6_leaning_mapping_exactness(tmp_path):
    expected = {
        "ExtremeLeft": -1.0, "Left": -0.66, "LeftCenter": -0.33,
        "LeastBiased": 0.0, "RightCenter": 0.33, "Right": 0.66,
        "ExtremeRight": 1.0,
    }
    mapping_exact = mb.LEANING_SCORES == expected and all(
        mb.LEANING_SCORES[k] == v for k, v in expected.items()
    )

    table_path = tmp_path / "domains.csv"
    table_path.write_text(
        "domain,leaning_label,reliability\n"
        + "".join(
            f"{label.lower()}.test,{label},reliable\n" for label in expected
        )
    )
    table = mb.load_domain_table(table_path)

    def mean_for(labels):
        urls = [f"https://{label.lower()}.test/x" for label in labels]
        (score,) = mb.user_leaning(
            originals_table([make_record(urls=urls)], table)).score
        return score

    hand_cases = [
        (["Left", "Right"], 0.0),
        (["Left", "Left", "ExtremeRight"],
         float(Fraction(-66, 100) + Fraction(-66, 100) + 1) / 3),
        (["ExtremeLeft"] * 4, -1.0),
        (["LeftCenter", "RightCenter", "LeastBiased"], 0.0),
        (["Right", "Right", "Right", "ExtremeRight"],
         float(3 * Fraction(66, 100) + 1) / 4),
    ]
    worst = 0.0
    for labels, want in hand_cases:
        got = mean_for(labels)
        worst = max(worst, abs(got - want))
    ok = mapping_exact and worst <= 1e-12
    report_line(
        "6 (leaning mapping exactness)", ok,
        f"seven mappings bit-exact: {mapping_exact}; "
        f"max hand-case mean error {worst:.2e} (<=1e-12)",
    )


def test_criterion_7_echo_chamber_grid(default_analysis):
    truth, g, scores, _ = default_analysis
    from collections import Counter

    stats = Counter()
    grid = rep.neighbor_opinion_grid(scores, g, stats=stats)
    share = grid.meta["diagonal_mass_share"]
    population = len(scores.user_ids)
    skipped = sum(v for k, v in stats.items() if k != "users_binned")
    conserved = grid.total() + skipped == population
    ok = share >= 0.90 and conserved
    report_line(
        "7 (echo-chamber grid)", ok,
        f"diagonal mass share {share:.4f} (>=0.90); "
        f"mass conserved exactly: {conserved} "
        f"({grid.total()} binned + {skipped} skipped = {population})",
    )


def _tree_digest(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_criterion_8_pipeline_determinism(tmp_path):
    started = time.perf_counter()
    for name in ("run1", "run2"):
        cli.main(["pipeline", "--preset", "default",
                  "--out-dir", str(tmp_path / name)])
    elapsed = time.perf_counter() - started

    tree1 = _tree_digest(tmp_path / "run1")
    tree2 = _tree_digest(tmp_path / "run2")
    same_names = set(tree1) == set(tree2)
    same_bytes = same_names and all(tree1[k] == tree2[k] for k in tree1)
    ok = same_bytes and elapsed < 120.0
    report_line(
        "8 (pipeline determinism)", ok,
        f"{len(tree1)} files byte-identical across runs: {same_bytes}; "
        f"two full runs in {elapsed:.1f}s (<120s)",
    )
