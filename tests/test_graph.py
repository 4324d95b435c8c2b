from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echoaudit import graph as gr
from echoaudit import ingest as ing
from echoaudit.blocks import CorpusColumns
from echoaudit.errors import EmptySelectionError, InputError

from _graph_oracle import _assemble as graph_oracle
from _matrix_helpers import edge_list, total_weight
from _record_oracle import counts_by_record
from _tables import edge_counts
from conftest import make_record, retweet

GRAPH_ARRAYS = ("in_indptr", "in_sources", "in_weights", "out_indptr",
                "out_targets", "out_weights", "unique_in_degree")


def assert_same_graph(got, want):
    assert got.node_ids == want.node_ids
    assert got.index == want.index
    assert got.counts_self_loops == want.counts_self_loops
    for name in GRAPH_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def simple_graph():
    """A retweets B twice, C retweets B once."""
    records = [
        retweet("A", "B", "t1"),
        retweet("A", "B", "t2"),
        retweet("C", "B", "t3"),
    ]
    return gr.build_graph(records)


class TestBuildGraph:
    def test_definition_forced_example(self):
        g = simple_graph()
        assert set(edge_list(g)) == {("A", "B", 2), ("C", "B", 1)}
        assert g.unique_in_degree[g.index_of("B")] == 2
        assert g.unique_in_degree[g.index_of("A")] == 0

    def test_empty_stream(self):
        g = gr.build_graph([])
        assert g.n_nodes == 0 and g.n_edges == 0

    def test_node_set_includes_pure_targets(self):
        g = simple_graph()
        assert "B" in g and g.n_nodes == 3

    def test_missing_target_skipped_and_counted(self):
        skipped = Counter()
        g = gr.build_graph(
            [retweet("A", "B"), make_record(kind="retweet")], skipped=skipped
        )
        assert total_weight(g) == 1
        assert skipped["missing_retweeted_author"] == 1

    def test_non_retweets_skipped(self):
        skipped = Counter()
        g = gr.build_graph([make_record(kind="original")], skipped=skipped)
        assert g.n_nodes == 0
        assert skipped["not_a_retweet"] == 1

    def test_counts_added_one_at_a_time_match_build_graph(self, mini_retained,
                                                           mini_graph):
        counts = gr.RetweetCounts()
        for rec in mini_retained:
            counts.extend_columns(CorpusColumns.of_records([rec]))
        assert counts.skipped["not_a_retweet"] == sum(
            r.kind != "retweet" for r in mini_retained)
        assert_same_graph(counts.graph(), mini_graph)

    def test_weight_sum_equals_record_count(self, mini_retained):
        records = [r for r in mini_retained if r.kind == "retweet"]
        g = gr.build_graph(records)
        assert total_weight(g) == len(records)

    def test_mini_counts_match_independent_aggregation(self, mini_raw, mini_graph):
        pairs = {
            (o["author_id"], o["retweeted_author_id"])
            for o in mini_raw
            if o["kind"] == "retweet"
            and o["created_at"] >= "2022-12-15T00:00:00Z" and o["lang"] == "en"
        }
        nodes = {a for a, _ in pairs} | {b for _, b in pairs}
        assert mini_graph.n_nodes == len(nodes) == 157
        assert mini_graph.n_edges == len(pairs) == 403

    def test_permutation_invariance(self, mini_retained):
        records = [r for r in mini_retained if r.kind == "retweet"]
        g1 = gr.build_graph(records)
        rng = np.random.default_rng(5)
        shuffled = [records[i] for i in rng.permutation(len(records))]
        g2 = gr.build_graph(shuffled)
        assert g1.node_ids == g2.node_ids
        np.testing.assert_array_equal(g1.in_indptr, g2.in_indptr)
        np.testing.assert_array_equal(g1.in_sources, g2.in_sources)
        np.testing.assert_array_equal(g1.in_weights, g2.in_weights)
        np.testing.assert_array_equal(g1.unique_in_degree, g2.unique_in_degree)

    def test_self_loop_kept_as_edge_but_not_in_degree(self):
        g = gr.build_graph([retweet("A", "A"), retweet("B", "A")])
        assert ("A", "A", 1) in set(edge_list(g))
        assert g.unique_in_degree[g.index_of("A")] == 1

    def test_self_loop_counted_with_flag(self):
        g = gr.build_graph(
            [retweet("A", "A"), retweet("B", "A")], count_self_loops=True
        )
        assert g.unique_in_degree[g.index_of("A")] == 2


class TestRanking:
    def test_rank_with_ties_broken_lexicographically(self):
        g = simple_graph()
        assert gr.rank_by_in_degree(g) == [("B", 2), ("A", 0), ("C", 0)]

    def test_single_node(self):
        g = gr.build_graph([retweet("A", "B")])
        ranking = gr.rank_by_in_degree(g)
        assert ranking == [("B", 1), ("A", 0)]

    def test_total_order(self, mini_graph):
        ranking = gr.rank_by_in_degree(mini_graph)
        assert len(ranking) == mini_graph.n_nodes
        assert len({uid for uid, _ in ranking}) == mini_graph.n_nodes
        degrees = [d for _, d in ranking]
        assert degrees == sorted(degrees, reverse=True)

    def test_matches_sort_by_degree_then_id(self, mini_graph):
        g = mini_graph
        expected = sorted(
            ((uid, int(g.unique_in_degree[i])) for i, uid in enumerate(g.node_ids)),
            key=lambda t: (-t[1], t[0]),
        )
        assert gr.rank_by_in_degree(g) == expected

    def test_mini_top_is_a_planted_hub(self, mini_graph, mini_truth):
        top_id, top_deg = gr.rank_by_in_degree(mini_graph)[0]
        assert top_id in mini_truth.planted_hubs
        assert top_deg >= 5


class TestSelectInfluencers:
    def test_seed_above_threshold(self):
        g = simple_graph()
        got = gr.select_influencers(g, ["B"], threshold=2)
        assert got == ("B",)

    def test_empty_result_fatal(self):
        g = simple_graph()
        with pytest.raises(EmptySelectionError):
            gr.select_influencers(g, ["A"], threshold=2)

    def test_absent_seed_reported_not_fatal(self, caplog):
        g = simple_graph()
        with caplog.at_level("WARNING"):
            got = gr.select_influencers(g, ["B", "ghost"], threshold=1)
        assert got == ("B",)
        assert any("ghost" in m for m in caplog.messages)

    def test_mini_planted_hubs_exactly(self, mini_graph, mini_truth):
        got = gr.select_influencers(mini_graph, mini_truth.planted_hubs, threshold=5)
        assert set(got) == set(mini_truth.planted_hubs)
        assert len(got) == 10
        # rank order: descending unique in-degree
        degs = [mini_graph.unique_in_degree[mini_graph.index_of(m)] for m in got]
        assert degs == sorted(degs, reverse=True)

    def test_members_ordered_by_rank(self):
        g = gr.build_graph([
            retweet("u1", "X"), retweet("u2", "X"), retweet("u3", "X"),
            retweet("u1", "Y"), retweet("u2", "Y"),
        ])
        got = gr.select_influencers(g, ["Y", "X"], threshold=1)
        assert got == ("X", "Y")


class TestEdgeListIO:
    def test_roundtrip(self, mini_graph, tmp_path):
        path = tmp_path / "edges.csv"
        gr.write_edge_list(mini_graph, path)
        again = gr.read_edge_list(path)
        assert again.node_ids == mini_graph.node_ids
        np.testing.assert_array_equal(again.in_indptr, mini_graph.in_indptr)
        np.testing.assert_array_equal(again.in_sources, mini_graph.in_sources)
        np.testing.assert_array_equal(again.in_weights, mini_graph.in_weights)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("a,b,c\n", encoding="utf-8")
        with pytest.raises(InputError):
            gr.read_edge_list(path)

    @pytest.mark.parametrize("row,reason", [
        ("a,b", "expected 3 fields"),
        ("a,b,c,1", "expected 3 fields"),
        ("a,b,x", "is not an integer"),
        ("a,b,-50", "is not an integer"),
        ("a,b,0", "is not an integer"),
        ("a,b,1_0", "is not an integer"),
        ("a,b,9007199254740992", "is not an integer"),
        ("a,b,99999999999999999999", "is not an integer"),
        ("a,b," + "9" * 5000, "is not an integer"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, row, reason):
        path = tmp_path / "edges.csv"
        path.write_text(f"src,dst,weight\nu,v,1\n{row}\n", encoding="utf-8")
        with pytest.raises(InputError, match=reason) as exc:
            gr.read_edge_list(path)
        assert str(exc.value).startswith(f"{path}:3:")

    def test_duplicate_rows_add_up_to_the_limit(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text(f"src,dst,weight\nu,v,{ing.MAX_COUNT - 1}\nu,v,1\n",
                        encoding="utf-8")
        g = gr.read_edge_list(path)
        assert list(edge_list(g)) == [("u", "v", ing.MAX_COUNT)]

    def test_duplicate_rows_above_the_limit_name_the_crossing_line(self, tmp_path):
        """1025 rows at the limit would wrap an int64 sum around."""
        path = tmp_path / "edges.csv"
        path.write_text(f"src,dst,weight\nu,v,{ing.MAX_COUNT}\nu,w,5\n\n"
                        + f"u,v,{ing.MAX_COUNT}\n" * 1024, encoding="utf-8")
        with pytest.raises(InputError, match="summed weight of u,v") as exc:
            gr.read_edge_list(path)
        assert str(exc.value).startswith(f"{path}:5:")

    def test_index_lookup(self):
        g = simple_graph()
        assert [g.index_of(uid) for uid in g.node_ids] == list(range(g.n_nodes))
        assert "B" in g and "Z" not in g
        with pytest.raises(KeyError):
            g.index_of("Z")

    def test_missing_seed_file(self, tmp_path):
        with pytest.raises(InputError):
            gr.read_seeds(tmp_path / "none.txt")

    def test_read_seeds_skips_comments(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("# header\nalpha\n\nbeta\n", encoding="utf-8")
        assert gr.read_seeds(path) == ["alpha", "beta"]


@given(
    edges=st.lists(
        st.tuples(st.sampled_from("abcde"), st.sampled_from("vwxyz")),
        min_size=1, max_size=30,
    ),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=50, deadline=None)
def test_graph_permutation_invariance_property(edges, seed):
    records = [retweet(a, b, tweet_id=f"t{i}") for i, (a, b) in enumerate(edges)]
    g1 = gr.build_graph(records)
    rng = np.random.default_rng(seed)
    g2 = gr.build_graph([records[i] for i in rng.permutation(len(records))])
    assert g1.node_ids == g2.node_ids
    assert list(edge_list(g1)) == list(edge_list(g2))
    assert total_weight(g1) == len(records)


# Ids that differ only in case, hold NUL or non-ASCII text, or sort
# differently as Python str than as bytes.
_tricky_ids = st.sampled_from(["a", "A", "a\x00", "\x00", "\x00a", "é", "E", "ß",
                               "SS", "ss", "\u4e2d", "\U0001f600", "b"])


@given(
    edges=st.lists(st.tuples(
        _tricky_ids | st.text(min_size=1, max_size=3),
        _tricky_ids | st.text(min_size=1, max_size=3),
        st.none() | st.integers(1, ing.MAX_COUNT // 64),
    ), max_size=40),
    count_self_loops=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_counts_match_dict_oracle_property(edges, count_self_loops):
    """Records (weight None) and weighted edges, self-loops and repeats
    included, give the graph the dict-of-pairs oracle assembles."""
    counts = gr.RetweetCounts()
    weights = {}
    for src, dst, w in edges:
        if w is None:
            counts.extend_columns(CorpusColumns.of_records([retweet(src, dst)]))
        else:
            counts.add_edges([src], [dst], np.array([w]))
        weights[(src, dst)] = weights.get((src, dst), 0) + (w or 1)
    assert_same_graph(counts.graph(count_self_loops),
                      graph_oracle(weights, count_self_loops))


@given(
    records=st.lists(st.one_of(
        st.tuples(_tricky_ids, _tricky_ids).map(lambda e: retweet(*e)),
        _tricky_ids.map(lambda uid: retweet(uid, uid)),
        st.tuples(_tricky_ids, st.sampled_from([None, ""])).map(lambda e: retweet(*e)),
        st.tuples(_tricky_ids, st.sampled_from(["original", "quote", "reply"]),
                  st.none() | _tricky_ids).map(
            lambda e: make_record(author_id=e[0], kind=e[1], retweeted_author_id=e[2])),
    ), max_size=40),
    count_self_loops=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_build_graph_matches_dict_oracle_property(records, count_self_loops):
    """Non-retweets, retweets without a target, self-loops and repeated
    pairs: the graph is the one the dict-of-pairs oracle assembles, and the
    caller's ``skipped`` gets the per-record oracle's counts."""
    skipped = Counter(earlier=2)
    g = gr.build_graph(records, skipped=skipped, count_self_loops=count_self_loops)
    weights = Counter((r.author_id, r.retweeted_author_id) for r in records
                      if r.kind == "retweet" and r.retweeted_author_id)
    assert_same_graph(g, graph_oracle(weights, count_self_loops))
    want = counts_by_record(records, Counter(earlier=2)).skipped
    assert skipped == want
    assert want == Counter(
        earlier=2,
        not_a_retweet=sum(r.kind != "retweet" for r in records),
        missing_retweeted_author=sum(r.kind == "retweet" and not r.retweeted_author_id
                                     for r in records))


# Ids as ingest accepts them: no comma, line break or lone surrogate, and
# no surrounding whitespace.
_csv_ids = st.text(
    st.characters(exclude_categories=["Cs"], exclude_characters=",\n\r"),
    min_size=1, max_size=4,
).filter(lambda s: s == s.strip()) | _tricky_ids


@given(
    edges=st.lists(st.tuples(_csv_ids, _csv_ids, st.integers(1, 10**6)), max_size=30),
    count_self_loops=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_edge_list_round_trip_property(tmp_path_factory, edges, count_self_loops):
    g = edge_counts(edges).graph(count_self_loops)
    path = tmp_path_factory.mktemp("edges") / "graph.csv"
    gr.write_edge_list(g, path)
    assert_same_graph(gr.read_edge_list(path, count_self_loops), g)


@given(
    edges=st.lists(st.one_of(
        st.tuples(_csv_ids, _csv_ids),
        _csv_ids.map(lambda uid: (uid, uid)),
    ), max_size=40),
    weights=st.lists(st.integers(1, ing.MAX_COUNT) | st.sampled_from([1, ing.MAX_COUNT]),
                     min_size=40, max_size=40),
    count_self_loops=st.booleans(),
    chunk=st.sampled_from([1, 3, gr._WRITE_CHUNK]),
)
@settings(max_examples=200, deadline=None)
def test_edge_list_bytes_match_write_table_property(tmp_path_factory, edges, weights,
                                                    count_self_loops, chunk):
    """The columnar writer writes the bytes ``write_table`` writes for
    ``edge_list(g)``, for NUL and non-ASCII ids, self-loops and weights up to
    ``MAX_COUNT``, whatever its chunk size."""
    g = edge_counts((src, dst, w) for (src, dst), w
                    in zip(dict.fromkeys(edges), weights)).graph(count_self_loops)
    root = tmp_path_factory.mktemp("edges")
    with mock.patch.object(gr, "_WRITE_CHUNK", chunk):
        gr.write_edge_list(g, root / "columns.csv")
    ing.write_table(root / "rows.csv", gr.EDGE_LIST_HEADER, edge_list(g))
    assert (root / "columns.csv").read_bytes() == (root / "rows.csv").read_bytes()
