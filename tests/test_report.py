import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echoaudit import graph as gr
from echoaudit import report as rep
from echoaudit.dip import _envelope, _hull, dip_statistic

import _dip_scalar_oracle as scalar_oracle
from _dip_lp_oracle import lp_dip
from _graph_oracle import _assemble as graph_oracle
from _grid_oracle import loop_neighbor_opinion_grid
from _matrix_helpers import scores_of
from _tables import originals_table as table
from conftest import make_record, retweet


class TestDipStatistic:
    def test_matches_definitional_lp_oracle(self):
        rng = np.random.default_rng(77)
        for trial in range(40):
            n = int(rng.integers(2, 30))
            kind = trial % 4
            if kind == 0:
                s = rng.uniform(0, 1, n)
            elif kind == 1:
                s = rng.normal(0, 1, n)
            elif kind == 2:
                s = np.concatenate(
                    [rng.normal(-2, 0.2, n // 2), rng.normal(2, 0.2, n - n // 2)]
                )
            else:
                s = np.exp(rng.normal(0, 1, n))
            if np.unique(s).size != s.size:
                continue
            assert dip_statistic(s) == pytest.approx(lp_dip(s), abs=1e-9)

    def test_equally_spaced_sample_sits_at_floor(self):
        for n in (2, 3, 10, 57):
            x = np.linspace(0.0, 1.0, n)
            assert dip_statistic(x) == pytest.approx(1.0 / (2 * n), abs=1e-12)

    def test_two_well_separated_clusters_large_dip(self):
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.normal(-1, 0.01, 300), rng.normal(1, 0.01, 300)])
        assert dip_statistic(x) > 0.2

    def test_degenerate_conventions(self):
        assert dip_statistic([]) == 0.0
        assert dip_statistic([3.0]) == 0.0
        assert dip_statistic([2.0, 2.0, 2.0]) == 0.0


def cdf_hull(x, lower):
    """``_hull`` on lists over the cdf points the dip builds from sorted
    ``x`` (left limits below, right values above), checked against the
    scalar reference on arrays."""
    x = np.asarray(x, dtype=np.float64)
    y = (np.arange(x.size) + (0 if lower else 1)) / x.size
    hull = _hull(x.tolist(), y.tolist(), lower)
    assert hull == scalar_oracle._hull(x, y, lower)
    return hull


class TestHullVertices:
    def test_evenly_spaced_points_are_all_collinear(self):
        # Equal turn and chord pop the middle vertex on both sides.
        assert cdf_hull(np.arange(8.0), lower=True) == [0, 7]
        assert cdf_hull(np.arange(8.0), lower=False) == [0, 7]
        for n in (3, 10, 57):
            cdf_hull(np.linspace(0.0, 1.0, n), lower=True)
            cdf_hull(np.linspace(0.0, 1.0, n), lower=False)

    def test_repeated_x_values(self):
        x = [0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 3.0, 3.0]
        # A tie at the right end leaves two minorant vertices at one x.
        assert cdf_hull(x, lower=True) == [0, 6, 7]
        assert cdf_hull(x, lower=False) == [0, 1, 4, 7]

    def test_rounding_decides_a_near_collinear_triple(self):
        # Collinear in decimals, but 0.3 - 0.1 rounds below 2 * (0.2 - 0.1):
        # the minorant keeps the middle point and the majorant pops it.
        assert cdf_hull([0.1, 0.2, 0.3], lower=True) == [0, 1, 2]
        assert cdf_hull([0.1, 0.2, 0.3], lower=False) == [0, 2]


@st.composite
def dip_samples(draw):
    """Values on a coarse grid, so that ties are common: anywhere on it,
    evenly spaced along it, or in two clusters apart."""
    step = draw(st.sampled_from([0.25, 0.1, 0.01]))
    shape = draw(st.sampled_from(["any", "even", "two"]))
    if shape == "any":
        ks = draw(st.lists(st.integers(-40, 40), min_size=2, max_size=300))
    elif shape == "even":
        ks = range(draw(st.integers(2, 300)))
    else:
        ks = (draw(st.lists(st.integers(-40, -10), min_size=1, max_size=150))
              + draw(st.lists(st.integers(10, 40), min_size=1, max_size=150)))
    return [k * step for k in ks]


@given(values=dip_samples())
@example(values=[k * 0.1 for k in range(19)])  # equal gaps, one in each scan
@settings(max_examples=300, deadline=None)
def test_dip_matches_scalar_reference_bit_for_bit(values):
    got, want = dip_statistic(values), scalar_oracle.dip_statistic(values)
    assert got == want
    assert float(got).hex() == float(want).hex()


@given(values=dip_samples())
@settings(max_examples=100, deadline=None)
def test_envelopes_match_scalar_reference_at_every_point(values):
    x = np.sort(np.asarray(values, dtype=np.float64))
    for lower in (True, False):
        y = (np.arange(x.size) + (0 if lower else 1)) / x.size
        hull = scalar_oracle._hull(x, y, lower)
        got = _envelope(np.array(hull), x, y, x).tolist()
        want = [scalar_oracle._interp(hull, x, y, q) for q in x.tolist()]
        assert [v.hex() for v in got] == [v.hex() for v in want]


class TestDipThreshold:
    def test_grid_values_recovered(self):
        from importlib import resources

        table = json.loads(
            resources.files("echoaudit.data")
            .joinpath("dip_thresholds.json")
            .read_text()
        )
        for n_text, row in table["thresholds"].items():
            assert rep.dip_threshold(int(n_text), 0.01) == pytest.approx(
                row["0.01"], abs=1e-12
            )

    def test_monotone_decreasing_in_n(self):
        values = [rep.dip_threshold(n, 0.01) for n in (60, 150, 700, 1200, 5000)]
        assert values == sorted(values, reverse=True)

    def test_uniform_null_rarely_rejects(self):
        rng = np.random.default_rng(31)
        n = 400
        rejections = sum(
            dip_statistic(rng.uniform(0, 1, n)) > rep.dip_threshold(n, 0.05)
            for _ in range(60)
        )
        assert rejections <= 9  # ~3 expected at the 5% level

    def test_unknown_alpha(self):
        with pytest.raises(ValueError):
            rep.dip_threshold(100, 0.2)


class TestNeighborOpinionGrid:
    def graph_one_edge(self):
        return gr.build_graph([retweet("u1", "inf1")])

    def test_single_user_single_neighbor(self):
        g = self.graph_one_edge()
        scores = scores_of({"u1": -0.9}, {"inf1": -0.8})
        grid = rep.neighbor_opinion_grid(scores, g, bins=10)
        assert grid.total() == 1
        x = int(np.searchsorted(grid.x_edges, -0.9, side="right")) - 1
        y = int(np.searchsorted(grid.y_edges, -0.8, side="right")) - 1
        assert grid.counts[x, y] == 1

    def test_balanced_neighbors_average_to_zero(self):
        g = gr.build_graph([retweet("u1", "L"), retweet("u1", "R")])
        scores = scores_of({"u1": 0.5}, {"L": -1.0, "R": 1.0})
        grid = rep.neighbor_opinion_grid(scores, g, bins=4)
        ys = np.flatnonzero(grid.counts.sum(axis=0))
        assert list(ys) == [2]  # first bin right of zero on [-1, 1] with 4 bins

    def test_edge_weighted_mean(self):
        g = gr.build_graph([
            retweet("u1", "L", "a"), retweet("u1", "L", "b"), retweet("u1", "R", "c"),
        ])
        scores = scores_of({"u1": 0.0}, {"L": -0.9, "R": 0.9})
        grid = rep.neighbor_opinion_grid(scores, g, bins=100)
        expected_y = (2 * -0.9 + 0.9) / 3
        y = int(np.searchsorted(grid.y_edges, expected_y, side="right")) - 1
        assert grid.counts[:, y].sum() == 1

    def test_influencers_excluded_from_user_axis(self):
        g = gr.build_graph([retweet("u1", "inf1"), retweet("inf1", "u1")])
        scores = scores_of({"u1": -0.5, "inf1": 0.4}, {"inf1": 0.4})
        stats = Counter()
        grid = rep.neighbor_opinion_grid(scores, g, bins=10, stats=stats)
        assert grid.total() == 1
        assert stats["influencers_excluded"] == 1

    def test_users_without_scored_neighbors_skipped_and_counted(self):
        g = gr.build_graph([retweet("u1", "mystery")])
        scores = scores_of({"u1": -0.5}, {})
        stats = Counter()
        grid = rep.neighbor_opinion_grid(scores, g, bins=10, stats=stats)
        assert grid.total() == 0
        assert stats["users_without_scored_neighbors"] == 1

    def test_mass_conservation(self, mini_scores, mini_graph):
        stats = Counter()
        grid = rep.neighbor_opinion_grid(mini_scores, mini_graph, stats=stats)
        population = len(mini_scores.user_ids)
        skipped = sum(v for k, v in stats.items() if k != "users_binned")
        assert grid.total() + skipped == population
        assert grid.total() == stats["users_binned"]

    def test_mini_diagonal_dominance(self, mini_scores, mini_graph):
        grid = rep.neighbor_opinion_grid(mini_scores, mini_graph)
        assert grid.meta["diagonal_mass_share"] >= 0.90

    def test_mini_matches_per_user_loop_oracle(self, mini_scores, mini_graph):
        for use_in in (False, True):
            got_stats, want_stats = Counter(), Counter()
            got = rep.neighbor_opinion_grid(mini_scores, mini_graph,
                                            use_in_neighbors=use_in, stats=got_stats)
            want = loop_neighbor_opinion_grid(mini_scores, mini_graph,
                                              use_in_neighbors=use_in,
                                              stats=want_stats)
            np.testing.assert_array_equal(got.counts, want.counts)
            assert json.dumps(got.meta) == json.dumps(want.meta)
            assert dict(got_stats) == dict(want_stats)

    @pytest.mark.parametrize("use_in", [False, True])
    def test_sums_in_adjacency_order(self, use_in):
        # In adjacency order (a, b, c) the sum is (1 - 1) - 1e-17 < 0; any
        # other order rounds to 0.0 and lands the point in the upper bin.
        pairs = [("u", n) if not use_in else (n, "u") for n in "abc"]
        g = gr.build_graph([retweet(s, d) for s, d in pairs])
        scores = scores_of({"u": 0.5}, {"a": 1.0, "b": -1.0, "c": -1e-17})
        grid = rep.neighbor_opinion_grid(scores, g, bins=2, use_in_neighbors=use_in)
        assert grid.counts.tolist() == [[0, 0], [1, 0]]

    def test_in_neighbor_direction_flag(self, mini_scores, mini_graph):
        out_grid = rep.neighbor_opinion_grid(mini_scores, mini_graph)
        in_grid = rep.neighbor_opinion_grid(
            mini_scores, mini_graph, use_in_neighbors=True
        )
        assert out_grid.meta["neighbor_direction"] == "out"
        assert in_grid.meta["neighbor_direction"] == "in"


# Scores include NaN and values outside [-1, 1] so clipping and the
# "NaN still counts as scored" rule are exercised, and values whose sums
# cancel so that a different summation order moves points across zero.
_grid_scores = st.one_of(st.floats(-1.5, 1.5), st.just(math.nan),
                         st.sampled_from([1.0, -1.0, 1e-17, -1e-17]))


@st.composite
def grid_cases(draw):
    """A graph with arbitrary (zero included) weights plus overlapping scores.

    Scored ids are drawn from the graph's nodes and from ids absent from it;
    user and influencer score maps may share ids, and nodes may go unscored.
    """
    nodes = [f"n{i}" for i in range(draw(st.integers(1, 8)))]
    weights = draw(st.dictionaries(
        st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
        st.integers(0, 10**6), max_size=30,
    ))
    g = graph_oracle(weights, count_self_loops=False)
    ids = st.sampled_from(nodes + ["ghost_a", "ghost_b"])
    users = draw(st.dictionaries(ids, _grid_scores, max_size=10))
    influencers = draw(st.dictionaries(ids, _grid_scores, max_size=4))
    return g, scores_of(users, influencers)


@given(case=grid_cases(), bins=st.integers(1, 12), use_in=st.booleans(),
       prior=st.booleans())
@settings(max_examples=300, deadline=None)
def test_neighbor_grid_matches_per_user_loop_oracle(case, bins, use_in, prior):
    g, scores = case
    got_stats = Counter({"from_caller": 2}) if prior else Counter()
    want_stats = Counter(got_stats)
    got = rep.neighbor_opinion_grid(scores, g, bins=bins,
                                    use_in_neighbors=use_in, stats=got_stats)
    want = loop_neighbor_opinion_grid(scores, g, bins=bins,
                                      use_in_neighbors=use_in, stats=want_stats)
    assert got.counts.dtype == want.counts.dtype
    np.testing.assert_array_equal(got.counts, want.counts)
    np.testing.assert_array_equal(got.x_edges, want.x_edges)
    # The JSON sidecar form: NaN shares compare equal and "skipped" keys count.
    assert json.dumps(got.meta, sort_keys=True) == json.dumps(want.meta, sort_keys=True)
    # Counter equality ignores zero entries; the created keys must match too.
    assert dict(got_stats) == dict(want_stats)


class TestIdeologyHistograms:
    def test_all_users_in_one_bin(self):
        scores = scores_of({f"u{i}": -1.0 for i in range(7)}, {"i1": 0.5})
        hist = rep.ideology_histograms(scores, bins=10)
        users = hist.series["users"]
        assert users[0] == 7 and users.sum() == 7

    def test_series_sums_match_populations(self, mini_scores):
        hist = rep.ideology_histograms(mini_scores, bins=50)
        assert hist.series["users"].sum() == len(mini_scores.user_ids)
        assert hist.series["influencers"].sum() == len(mini_scores.influencer_ids)

    def test_top_influencer_retweeter_series(self, mini_scores, mini_graph):
        hist = rep.ideology_histograms(mini_scores, bins=50, g=mini_graph, top_k=3)
        retweeter_series = [s for s in hist.series if s.startswith("retweeters:")]
        assert len(retweeter_series) == 3
        for name in retweeter_series:
            assert hist.series[name].sum() > 0

    def test_mini_user_series_is_bimodal_by_dip(self, mini_scores):
        hist = rep.ideology_histograms(mini_scores)
        n = hist.meta["n_users"]
        assert hist.meta["user_dip"] > rep.dip_threshold(n, alpha=0.01)


_hist_ids = st.sampled_from(["a", "b", "c", "d", "e"])


@given(
    pairs=st.lists(st.tuples(_hist_ids, _hist_ids), max_size=25),
    users=st.dictionaries(_hist_ids | st.just("ghost_u"), st.floats(-1.0, 1.0),
                          max_size=6),
    influencers=st.lists(_hist_ids | st.just("ghost_i"), max_size=6, unique=True),
    top_k=st.integers(0, 4),
    count_self_loops=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_top_influencer_retweeter_series_property(pairs, users, influencers, top_k,
                                                  count_self_loops):
    """Ties, self-retweets, repeated retweets and influencers outside the
    graph: the top-k influencers, ranked by (-unique in-degree, id), and
    each one's histogram of the user scores of its distinct retweeters are
    those of a dict-of-pairs oracle."""
    g = gr.build_graph([retweet(src, dst) for src, dst in pairs],
                       count_self_loops=count_self_loops)
    scores = scores_of(users, dict.fromkeys(influencers, 0.0))
    hist = rep.ideology_histograms(scores, bins=8, g=g, top_k=top_k)

    distinct = set(pairs)
    nodes = {uid for pair in distinct for uid in pair}

    def retweeters(cid):
        return {src for src, dst in distinct if dst == cid}

    def degree(cid):
        return sum(count_self_loops or src != cid for src in retweeters(cid))

    ranked = sorted((cid for cid in influencers if cid in nodes),
                    key=lambda cid: (-degree(cid), cid))[:top_k]
    want = {f"retweeters:{cid}": np.histogram(
                [users[src] for src in retweeters(cid) if src in users],
                bins=hist.bin_edges)[0].tolist()
            for cid in ranked}
    got = {name: counts.tolist() for name, counts in hist.series.items()
           if name.startswith("retweeters:")}
    assert list(got) == list(want)
    assert got == want


class TestLeaningDistributions:
    def scores(self):
        return scores_of(
            {"u_left": -0.8, "u_right": 0.7, "u_center": 0.1},
            {"inf_left": -0.9},
        )

    def test_single_share_excluded_at_min_two(self):
        out = rep.leaning_ideology_distributions(
            self.scores(), {"u_left": {"Left": 1}}, min_shares=2
        )
        assert out == {}

    def test_two_shares_included(self):
        out = rep.leaning_ideology_distributions(
            self.scores(), {"u_left": {"Left": 2}}, min_shares=2
        )
        assert set(out) == {"Left"}
        assert out["Left"].series["users"].sum() == 1
        assert out["Left"].meta["n_users"] == 1

    def test_account_can_join_multiple_classes(self):
        out = rep.leaning_ideology_distributions(
            self.scores(),
            {"u_left": {"Left": 3, "LeastBiased": 2}},
            min_shares=2,
        )
        assert set(out) == {"LeastBiased", "Left"}

    def test_influencers_split_from_users(self):
        out = rep.leaning_ideology_distributions(
            self.scores(),
            {"u_left": {"Left": 2}, "inf_left": {"Left": 5}},
            min_shares=2,
        )
        assert out["Left"].series["users"].sum() == 1
        assert out["Left"].series["influencers"].sum() == 1

    def test_mini_left_class_median_negative(
        self, mini_scores, mini_retained, fixtures_dir
    ):
        from echoaudit import mediabias as mb

        domains = mb.load_domain_table(fixtures_dir / "mini_domains.csv")
        originals = table(
            [rec for rec in mini_retained if rec.kind == "original"], domains)
        class_counts = mb.user_class_counts(originals)
        out = rep.leaning_ideology_distributions(mini_scores, class_counts)
        assert out["Left"].meta["user_median"] < 0
        assert out["Right"].meta["user_median"] > 0


class TestAEFollowersDensity:
    def tweets(self):
        return [
            make_record(tweet_id="a", impressions=1000, likes=10,
                        author_followers=100),
            make_record(tweet_id="b", impressions=2000, likes=5,
                        author_followers=10_000),
        ]

    def test_single_tweet_single_cell(self):
        grids = rep.ae_followers_density(table(self.tweets()[:1]), bins=10)
        like = grids["like"]
        assert like.total() == 1
        assert (like.counts > 0).sum() == 1

    def test_duplicated_corpus_doubles_counts(self):
        once = rep.ae_followers_density(table(self.tweets()), bins=10)
        twice = rep.ae_followers_density(table(self.tweets() * 2), bins=10)
        for action in once:
            np.testing.assert_array_equal(
                2 * once[action].counts, twice[action].counts
            )

    def test_positivity_filter_counted(self):
        records = self.tweets() + [
            make_record(tweet_id="c", impressions=0, likes=3, author_followers=10),
            make_record(tweet_id="d", impressions=10, likes=0, author_followers=10),
            make_record(tweet_id="e", impressions=10, likes=2, author_followers=0),
        ]
        stats = Counter()
        grids = rep.ae_followers_density(table(records), bins=10, stats=stats)
        assert grids["like"].total() == 2
        assert stats["like:zero_impressions"] == 1
        assert stats["like:zero_actions"] == 1
        assert stats["like:zero_followers"] == 1

    def test_log_axes(self):
        grids = rep.ae_followers_density(table(self.tweets()), bins=10)
        like = grids["like"]
        assert like.x_edges[0] <= math.log10(100)
        assert like.x_edges[-1] >= math.log10(10_000)


class TestExports:
    def test_grid_roundtrip_mass_and_log_density(self, tmp_path, mini_scores, mini_graph):
        grid = rep.neighbor_opinion_grid(mini_scores, mini_graph, bins=20)
        csv_path = tmp_path / "grid.csv"
        json_path = tmp_path / "grid.json"
        rep.write_grid(grid, csv_path, json_path)

        total = 0
        for line in csv_path.read_text().splitlines()[1:]:
            x_bin, y_bin, count, log_density = line.split(",")
            total += int(count)
            assert float(log_density) == pytest.approx(
                math.log10(int(count) + 1), abs=1e-12
            )
        sidecar = json.loads(json_path.read_text())
        assert total == grid.total() == sidecar["total_count"]
        assert len(sidecar["x_edges"]) == 21
        assert "diagonal_mass_share" in sidecar["meta"]

    def test_histogram_export_shape(self, tmp_path):
        scores = scores_of({"u1": -0.5, "u2": 0.5}, {"i": 0.0})
        hist = rep.ideology_histograms(scores, bins=5)
        path = tmp_path / "h.csv"
        rep.write_histogram(hist, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,series,count"
        assert len(lines) == 1 + 2 * 5

    def test_outputs_byte_identical_across_runs(self, tmp_path, mini_scores, mini_graph):
        grid = rep.neighbor_opinion_grid(mini_scores, mini_graph)
        a_csv, a_json = tmp_path / "a.csv", tmp_path / "a.json"
        b_csv, b_json = tmp_path / "b.csv", tmp_path / "b.json"
        rep.write_grid(grid, a_csv, a_json)
        grid2 = rep.neighbor_opinion_grid(mini_scores, mini_graph)
        rep.write_grid(grid2, b_csv, b_json)
        assert a_csv.read_bytes() == b_csv.read_bytes()
        assert a_json.read_bytes() == b_json.read_bytes()
