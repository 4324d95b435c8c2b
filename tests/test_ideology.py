import logging
import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echoaudit import graph as gr
from echoaudit import ideology as ideo
from echoaudit.errors import ConvergenceError, DegenerateMatrixError, InputError

import _ideology_oracle as oracle
from _ca_oracle import dense_ca_oracle
from _matrix_helpers import (from_dense, influencer_scores, row_ids, scores_of, to_dense,
                             user_scores)
from _tables import edge_graph
from conftest import dense_residual, random_count_matrix, retweet


def matrix_from(dense, row_prefix="u", col_prefix="c"):
    dense = np.asarray(dense, dtype=float)
    rows = [f"{row_prefix}{i:03d}" for i in range(dense.shape[0])]
    cols = [f"{col_prefix}{j:03d}" for j in range(dense.shape[1])]
    return from_dense(dense, rows, cols)


class TestBuildInteractionMatrix:
    def _graph(self):
        return gr.build_graph([
            retweet("u1", "i1", "t1"), retweet("u1", "i1", "t2"),
            retweet("u1", "i1", "t3"), retweet("u2", "i2", "t4"),
        ])

    def _influencers(self):
        return ("i1", "i2")

    def test_min_distinct_one(self):
        m = ideo.build_interaction_matrix(self._graph(), self._influencers(), 1)
        assert m.shape == (2, 2)
        np.testing.assert_array_equal(to_dense(m), [[3.0, 0.0], [0.0, 1.0]])
        assert row_ids(m) == ["u1", "u2"]

    def test_min_distinct_two_fatal_when_no_rows(self):
        with pytest.raises(DegenerateMatrixError):
            ideo.build_interaction_matrix(self._graph(), self._influencers(), 2)

    def test_zero_mass_column_dropped_with_warning(self, caplog):
        g = gr.build_graph([
            retweet("u1", "i1"), retweet("u1", "i2"),
            retweet("u2", "i1"), retweet("u2", "i2"),
        ])
        infl = ("i1", "i2", "ghost_influencer")
        with caplog.at_level("WARNING"):
            m0 = ideo.build_interaction_matrix(g, infl, 1)
        assert m0.col_ids == ("i1", "i2")
        assert any("ghost_influencer" in msg for msg in caplog.messages)

        g2 = gr.build_graph([
            retweet("u1", "i1"), retweet("u1", "i2"),
            retweet("u2", "i1"), retweet("u2", "i2"),
            retweet("i3", "u1"),   # i3 is a node but nobody retweets it
        ])
        infl2 = ("i1", "i2", "i3")
        with caplog.at_level("WARNING"):
            m = ideo.build_interaction_matrix(g2, infl2, 1)
        assert m.col_ids == ("i1", "i2")
        assert any("i3" in msg for msg in caplog.messages)

    def test_mini_matrix_shape(self, mini_graph, mini_influencers, mini_raw):
        m = ideo.build_interaction_matrix(mini_graph, mini_influencers, 2)
        # independent recount: users with >= 2 distinct planted targets
        from collections import defaultdict
        targets = defaultdict(set)
        hubs = set(mini_influencers)
        for o in mini_raw:
            if (o["kind"] == "retweet" and o["lang"] == "en"
                    and o["created_at"] >= "2022-12-15T00:00:00Z"
                    and o["retweeted_author_id"] in hubs):
                targets[o["author_id"]].add(o["retweeted_author_id"])
        expected_rows = sum(1 for t in targets.values() if len(t) >= 2)
        assert m.shape == (expected_rows, 10) == (129, 10)

    def test_rows_sorted_by_user_id(self, mini_graph, mini_influencers):
        m = ideo.build_interaction_matrix(mini_graph, mini_influencers, 2)
        assert row_ids(m) == sorted(row_ids(m))


class TestNormalize:
    def test_identity_two_by_two(self):
        m = matrix_from([[1, 0], [0, 1]])
        norm = ideo.normalize(m)
        expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
        for v in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.3, -0.7])):
            np.testing.assert_allclose(norm.matvec(v), expected @ v, atol=1e-15)
        for u in (np.array([1.0, 0.0]), np.array([2.0, 1.0])):
            np.testing.assert_allclose(norm.rmatvec(u), expected.T @ u, atol=1e-15)

    def test_uniform_matrix_residual_is_zero(self):
        m = matrix_from(np.full((3, 4), 2.0))
        norm = ideo.normalize(m)
        v = np.array([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(norm.matvec(v), 0.0, atol=1e-14)

    @pytest.mark.parametrize("case", ["poisson-8x5", "sparse-9x4"])
    def test_operator_matches_dense_oracle(self, case):
        if case == "poisson-8x5":
            rng = np.random.default_rng(8)
            a = random_count_matrix(rng, 8, 5)
        else:
            # The 40%-dense count matrix that seed 7 draws: a one-entry row
            # and a column with only two retweets.
            rng = np.random.default_rng(7)
            a = np.array([[0, 0, 0, 1], [5, 0, 6, 0], [0, 0, 8, 8],
                          [2, 0, 0, 0], [0, 0, 1, 0], [4, 1, 0, 5],
                          [6, 0, 0, 0], [0, 0, 0, 5], [1, 1, 0, 4]], dtype=float)
        n_rows, n_cols = a.shape
        norm = ideo.normalize(matrix_from(a))
        s = dense_residual(a)
        for trial in range(10):
            v = rng.standard_normal(n_cols)
            u = rng.standard_normal(n_rows)
            assert np.abs(norm.matvec(v) - s @ v).max() <= 1e-12
            assert np.abs(norm.rmatvec(u) - s.T @ u).max() <= 1e-12

    def test_mass_vectors_sum_to_one(self):
        rng = np.random.default_rng(9)
        a = random_count_matrix(rng, 12, 6)
        norm = ideo.normalize(matrix_from(a))
        assert abs(norm.r.sum() - 1.0) <= 1e-12
        assert abs(norm.c.sum() - 1.0) <= 1e-12

    def test_many_rows_masses_sum_to_one(self):
        """200,000 rows: adding the rounded proportions one at a time drifts
        2.3e-12 from 1 in the column masses; exact sums do not."""
        n_rows = 200_000
        m = ideo.InteractionMatrix(
            node_ids=tuple(f"u{i:06d}" for i in range(n_rows)),
            row_codes=np.arange(n_rows, dtype=np.int64), col_ids=("c0", "c1"),
            indptr=np.arange(0, 2 * n_rows + 1, 2, dtype=np.int64),
            indices=np.tile(np.array([0, 1], dtype=np.int64), n_rows),
            data=np.ones(2 * n_rows),
        )
        norm = ideo.normalize(m)
        assert norm.c.tolist() == [0.5, 0.5]
        assert (norm.r == 1 / n_rows).all()

    @given(dense=st.integers(1, 6).flatmap(lambda n_cols: st.lists(
        st.lists(st.integers(0, 50), min_size=n_cols, max_size=n_cols),
        min_size=1, max_size=8)))
    @settings(max_examples=200, deadline=None)
    def test_masses_are_exact_sums_rounded_once(self, dense):
        a = np.array(dense, dtype=float)
        a[:, 0] += a.sum(axis=1) == 0
        a[0] += a.sum(axis=0) == 0
        norm = ideo.normalize(matrix_from(a))
        total = int(a.sum())
        assert norm.r.tolist() == [float(Fraction(int(s), total)) for s in a.sum(axis=1)]
        assert norm.c.tolist() == [float(Fraction(int(s), total)) for s in a.sum(axis=0)]

    def test_zero_row_fatal_with_id(self):
        m = ideo.InteractionMatrix(
            node_ids=("ua", "ub"), row_codes=np.array([0, 1]), col_ids=("c0", "c1"),
            indptr=np.array([0, 2, 2], dtype=np.int64),
            indices=np.array([0, 1], dtype=np.int64),
            data=np.array([1.0, 1.0]),
        )
        with pytest.raises(DegenerateMatrixError, match="ub"):
            ideo.normalize(m)

    def test_zero_column_fatal_with_id(self):
        m = ideo.InteractionMatrix(
            node_ids=("ua", "ub"), row_codes=np.array([0, 1]), col_ids=("c0", "c1"),
            indptr=np.array([0, 1, 2], dtype=np.int64),
            indices=np.array([0, 0], dtype=np.int64),
            data=np.array([1.0, 1.0]),
        )
        with pytest.raises(DegenerateMatrixError, match="c1"):
            ideo.normalize(m)


class TestLeadingTriplet:
    def test_two_by_two_identity(self):
        norm = ideo.normalize(matrix_from([[1, 0], [0, 1]]))
        t = ideo.leading_singular_triplet(norm)
        assert abs(t.sigma - 1.0) <= 1e-10
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(abs(t.u @ expected) - 1.0) <= 1e-10

    def test_degenerate_uniform_matrix(self):
        norm = ideo.normalize(matrix_from(np.full((4, 3), 5.0)))
        with pytest.raises(DegenerateMatrixError):
            ideo.leading_singular_triplet(norm)

    def test_matches_dense_svd_oracle(self):
        rng = np.random.default_rng(30)
        a = random_count_matrix(rng, 30, 8)
        norm = ideo.normalize(matrix_from(a))
        t = ideo.leading_singular_triplet(norm)
        sigmas = np.linalg.svd(dense_residual(a), compute_uv=False)
        assert abs(t.sigma - sigmas[0]) <= 1e-9

    def test_postconditions_hold(self):
        rng = np.random.default_rng(31)
        a = random_count_matrix(rng, 25, 7)
        norm = ideo.normalize(matrix_from(a))
        tol = 1e-10
        t = ideo.leading_singular_triplet(norm, tol=tol)
        s = dense_residual(a)
        assert np.linalg.norm(s @ t.v - t.sigma * t.u) <= 2 * tol * t.sigma
        assert np.linalg.norm(s.T @ t.u - t.sigma * t.v) <= tol * t.sigma
        assert abs(np.linalg.norm(t.u) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(t.v) - 1.0) <= 1e-12

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(32)
        a = random_count_matrix(rng, 15, 5)
        norm = ideo.normalize(matrix_from(a))
        t1 = ideo.leading_singular_triplet(norm, seed=42)
        t2 = ideo.leading_singular_triplet(norm, seed=42)
        assert t1.sigma == t2.sigma
        np.testing.assert_array_equal(t1.u, t2.u)

    def test_seed_independence_within_tolerance(self):
        rng = np.random.default_rng(33)
        a = random_count_matrix(rng, 20, 6)
        norm = ideo.normalize(matrix_from(a))
        tol = 1e-10
        t1 = ideo.leading_singular_triplet(norm, tol=tol, seed=1)
        t2 = ideo.leading_singular_triplet(norm, tol=tol, seed=99)
        assert abs(t1.sigma - t2.sigma) <= 10 * tol
        align = abs(float(t1.u @ t2.u))
        assert align >= 1.0 - 10 * tol

    def test_nonconvergence_raises_with_residual(self):
        rng = np.random.default_rng(34)
        a = random_count_matrix(rng, 20, 6)
        norm = ideo.normalize(matrix_from(a))
        with pytest.raises(ConvergenceError) as exc:
            ideo.leading_singular_triplet(norm, tol=1e-15, max_iter=2)
        assert exc.value.iterations == 2
        assert exc.value.residual > 0

    def test_bad_tol(self):
        norm = ideo.normalize(matrix_from([[1, 0], [0, 1]]))
        with pytest.raises(ValueError):
            ideo.leading_singular_triplet(norm, tol=0.0)


def solve_scores(dense, anchor, seed=1):
    n = ideo.normalize(matrix_from(dense))
    t = ideo.leading_singular_triplet(n, seed=seed)
    return ideo.score_users_and_influencers(n, t, anchor)


class TestScoring:
    def test_block_diagonal_symmetry(self):
        scores = solve_scores([[1, 0], [0, 1]], anchor="c000")
        assert user_scores(scores)["u000"] == pytest.approx(-1.0, abs=1e-9)
        assert user_scores(scores)["u001"] == pytest.approx(1.0, abs=1e-9)
        assert influencer_scores(scores)["c000"] < 0

    def test_anchor_flips_orientation(self):
        left = solve_scores([[1, 0], [0, 1]], anchor="c000")
        right = solve_scores([[1, 0], [0, 1]], anchor="c001")
        assert user_scores(left)["u000"] == pytest.approx(
            -user_scores(right)["u000"], abs=1e-12
        )

    def test_influencer_median_unweighted(self):
        # three users on one influencer plus a far community fixing the axis
        dense = np.array([
            [4, 1, 0],
            [2, 1, 0],
            [1, 2, 0],
            [0, 0, 5],
            [0, 0, 7],
        ])
        scores = solve_scores(dense, anchor="c000")
        users = [user_scores(scores)[f"u{i:03d}"] for i in range(3)]
        assert influencer_scores(scores)["c001"] == pytest.approx(
            float(np.median(users)), abs=1e-12
        )

    def test_even_sized_median_averages_central_pair(self):
        dense = np.array([
            [3, 1, 0],
            [1, 3, 0],
            [2, 2, 0],
            [1, 1, 2],
            [0, 0, 5],
        ])
        n = ideo.normalize(matrix_from(dense))
        t = ideo.leading_singular_triplet(n)
        scores = ideo.score_users_and_influencers(n, t, "c000")
        retweeters = [f"u{i:03d}" for i in range(4)]  # column c001 has 4 nonzeros
        vals = sorted(user_scores(scores)[u] for u in retweeters)
        assert influencer_scores(scores)["c001"] == pytest.approx(
            (vals[1] + vals[2]) / 2.0, abs=1e-12
        )

    def test_scores_bounded_and_peak_is_one(self):
        rng = np.random.default_rng(40)
        scores = solve_scores(random_count_matrix(rng, 30, 6), anchor="c000")
        vals = scores.user_score
        assert np.abs(vals).max() == pytest.approx(1.0, abs=1e-12)
        assert (np.abs(vals) <= 1.0 + 1e-12).all()

    def test_anchor_absent_fatal(self):
        with pytest.raises(InputError):
            solve_scores([[1, 0], [0, 1]], anchor="nobody")

    def test_raw_scores_exported_with_same_orientation(self):
        rng = np.random.default_rng(41)
        scores = solve_scores(random_count_matrix(rng, 12, 4), anchor="c000")
        for raw, value in zip(scores.raw_user_score.tolist(), scores.user_score.tolist()):
            assert np.sign(raw) == np.sign(value) or value == 0.0

    def test_mini_two_communities_recovered(self, mini_scores, mini_truth):
        comm = mini_truth.community
        users = [(u, s) for u, s in user_scores(mini_scores).items() if u in comm]
        a_users = [(u, s) for u, s in users if comm[u] == "A"]
        agree = sum(1 for _, s in a_users if s < 0)
        assert agree / len(a_users) >= 0.95
        b_users = [(u, s) for u, s in users if comm[u] == "B"]
        agree_b = sum(1 for _, s in b_users if s > 0)
        assert agree_b / len(b_users) >= 0.95


class TestInvariances:
    def test_scale_invariance_bitwise(self):
        rng = np.random.default_rng(50)
        a = random_count_matrix(rng, 18, 5)
        base = solve_scores(a, anchor="c000")
        for k in (2, 5, 10):
            scaled = solve_scores(a * k, anchor="c000")
            for uid, val in user_scores(base).items():
                assert abs(user_scores(scaled)[uid] - val) <= 1e-12

    def test_row_permutation_permutes_scores_exactly(self):
        rng = np.random.default_rng(51)
        a = random_count_matrix(rng, 16, 5)
        ids = [f"u{i:03d}" for i in range(16)]
        col_ids = [f"c{j:03d}" for j in range(5)]
        m1 = from_dense(a, ids, col_ids)
        perm = rng.permutation(16)
        m2 = from_dense(
            a[perm], [ids[i] for i in perm], col_ids
        )
        n1, n2 = ideo.normalize(m1), ideo.normalize(m2)
        t1 = ideo.leading_singular_triplet(n1, seed=7)
        t2 = ideo.leading_singular_triplet(n2, seed=7)
        s1 = ideo.score_users_and_influencers(n1, t1, "c000")
        s2 = ideo.score_users_and_influencers(n2, t2, "c000")
        assert user_scores(s1) == user_scores(s2)
        assert influencer_scores(s1) == influencer_scores(s2)


# Ids as ingest accepts them: no comma, line break or lone surrogate, and
# no surrounding whitespace.
_csv_ids = st.text(
    st.characters(exclude_categories=["Cs"], exclude_characters=",\n\r"),
    min_size=1, max_size=4,
).filter(lambda s: s == s.strip())


class TestScoreIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(60)
        scores = solve_scores(random_count_matrix(rng, 10, 4), anchor="c000")
        path = tmp_path / "scores.csv"
        ideo.write_scores(scores, path)
        got = ideo.read_scores(path)
        assert user_scores(got) == user_scores(scores)
        assert influencer_scores(got) == influencer_scores(scores)
        assert got.raw_user_score is None and got.raw_influencer_score is None

    @given(users=st.dictionaries(_csv_ids, st.floats(), max_size=20),
           influencers=st.dictionaries(_csv_ids, st.floats(), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, users, influencers):
        """Every finite float, -0.0 included, reads back as written, and a
        NaN or an infinity is refused; an id may be both a user and an
        influencer.  Rows come in (kind, id) order whatever the dicts' order."""
        scores = scores_of(users, influencers, raw=True)
        path = tmp_path_factory.mktemp("scores") / "scores.csv"
        ideo.write_scores(scores, path)
        keys = [tuple(line.split(",")[1::-1])
                for line in path.read_bytes().decode("utf-8").split("\n")[1:-1]]
        assert keys == sorted(("influencer", i) for i in influencers) + \
            sorted(("user", u) for u in users)
        if not all(map(math.isfinite, [*users.values(), *influencers.values()])):
            with pytest.raises(InputError, match="is not a finite number"):
                ideo.read_scores(path)
            return
        got = ideo.read_scores(path)
        assert {k: repr(v) for k, v in user_scores(got).items()} == \
            {k: repr(v) for k, v in users.items()}
        assert {k: repr(v) for k, v in influencer_scores(got).items()} == \
            {k: repr(v) for k, v in influencers.items()}

    def test_trailing_blank_line_reads(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,kind,score,raw_score\nu1,user,0.1,0.1\n"
                        "i1,influencer,-0.5,-0.5\n\n", encoding="utf-8")
        got = ideo.read_scores(path)
        assert (user_scores(got), influencer_scores(got)) == ({"u1": 0.1}, {"i1": -0.5})

    def test_header_checked(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("wrong,header\n", encoding="utf-8")
        with pytest.raises(InputError):
            ideo.read_scores(path)

    @pytest.mark.parametrize("row,reason", [
        ("u2,user,0.5", "expected 4 fields"),
        ("u2,user,zero,0.0", "is not a number"),
        ("u2,robot,0.5,0.5", "unknown score kind"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, row, reason):
        path = tmp_path / "scores.csv"
        path.write_text(f"id,kind,score,raw_score\nu1,user,0.1,0.1\n{row}\n",
                        encoding="utf-8")
        with pytest.raises(InputError, match=reason) as exc:
            ideo.read_scores(path)
        assert str(exc.value).startswith(f"{path}:3:")

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            ideo.read_scores(tmp_path / "none.csv")


class TestOracleEquivalence:
    def test_random_instances_match_jacobi_oracle(self):
        rng = np.random.default_rng(70)
        for _ in range(15):
            a = random_count_matrix(rng, int(rng.integers(5, 40)),
                                    int(rng.integers(3, 12)))
            norm = ideo.normalize(matrix_from(a))
            t = ideo.leading_singular_triplet(norm)
            oracle = dense_ca_oracle(a)
            assert abs(t.sigma - oracle.sigmas[0]) <= 1e-9
            # align production u (canonical row order == construction order)
            assert abs(float(t.u @ oracle.u[:, 0])) >= 1.0 - 1e-9


# Node ids that are non-ASCII, hold NUL, or differ only in case; the first
# four are the users, the rest the candidate influencers.
_node_ids = ["u1", "\u00fc2", "u\x00", "\u7528", "i1", "I1", "\u00ef", "\U0001f600"]


@contextmanager
def _warnings_of(logger_name):
    """Collect the WARNING messages one logger emits inside the block."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger(logger_name)
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def _outcome(fn, *args):
    """(result, warnings, error) of one call, for comparing two paths."""
    with _warnings_of("echoaudit.ideology") as messages:
        try:
            return fn(*args), messages, None
        except Exception as exc:  # the type and text are compared
            return None, messages, (type(exc), str(exc))


def _bits(d):
    return [(k, float(v).hex()) for k, v in d.items()]


class TestMatchesOracle:
    @given(
        edges=st.lists(st.tuples(st.sampled_from(_node_ids), st.sampled_from(_node_ids[3:]),
                                 st.integers(1, 1000)), min_size=8, max_size=60),
        influencers=st.lists(st.sampled_from(_node_ids[3:] + ["ghost", "\u00e9"]),
                             min_size=2, max_size=8),
        min_distinct=st.integers(0, 3),
        count_self_loops=st.booleans(),
    )
    @example(edges=[("u1", "i1", 1)], influencers=[], min_distinct=0,
             count_self_loops=False)
    @example(edges=[], influencers=["i1"], min_distinct=0, count_self_loops=False)
    @settings(max_examples=400, deadline=None)
    def test_builder_property(self, edges, influencers, min_distinct, count_self_loops):
        """Self-loops, absent and duplicate influencers and influencers
        nobody retweets: the CSR slice equals the per-node builder, array
        by array and dtype by dtype, with the same warnings and errors."""
        g = edge_graph(edges, count_self_loops)
        got, got_log, got_err = _outcome(
            ideo.build_interaction_matrix, g, tuple(influencers), min_distinct)
        want, want_log, want_err = _outcome(
            oracle.build_interaction_matrix, g, tuple(influencers), min_distinct)
        assert got_log == want_log
        assert got_err == want_err
        if want is None:
            return
        assert got.node_ids is want.node_ids
        assert got.col_ids == want.col_ids
        for name in ("row_codes", "indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)

    @given(
        data=st.data(),
        n_rows=st.integers(2, 10),
        n_cols=st.integers(2, 5),
    )
    @settings(max_examples=300, deadline=None)
    def test_scorer_property(self, data, n_rows, n_cols):
        """Any left vector, ties and even-sized columns included, on any row
        permutation: the scores equal the dict-based scorer's bit for bit,
        users in its canonical row order and influencers in id order, and
        an error is the same error."""
        a = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 3), min_size=n_cols, max_size=n_cols),
            min_size=n_rows, max_size=n_rows)), dtype=float)
        # Every row and column needs a retweet to pass normalize.
        a[np.arange(n_rows), np.arange(n_rows) % n_cols] += a.sum(axis=1) == 0
        a[np.arange(n_cols) % n_rows, np.arange(n_cols)] += a.sum(axis=0) == 0
        perm = data.draw(st.permutations(range(n_rows)))
        ids = [f"u{i}" for i in range(n_rows)]
        m = from_dense(a[perm], [ids[i] for i in perm],
                       [f"c{j}" for j in range(n_cols)])
        n = ideo.normalize(m)
        u = np.array(data.draw(st.lists(
            st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5]) | st.floats(-1, 1),
            min_size=n_rows, max_size=n_rows)))
        t = ideo.SingularTriplet(sigma=0.5, u=u, v=np.ones(n_cols), iterations=3,
                                 residual=1e-12)
        anchor = data.draw(st.sampled_from(list(n.col_ids) + ["absent"]))
        got, _, got_err = _outcome(ideo.score_users_and_influencers, n, t, anchor)
        want, _, want_err = _outcome(oracle.score_users_and_influencers, m, n, t, anchor)
        assert got_err == want_err
        if want is None:
            return
        # Users come in canonical row order, influencers sorted by id.
        for ids, values, name in (("user_ids", "user_score", "user_scores"),
                                  ("user_ids", "raw_user_score", "raw_user_scores"),
                                  ("influencer_ids", "influencer_score", "influencer_scores"),
                                  ("influencer_ids", "raw_influencer_score",
                                   "raw_influencer_scores")):
            columns = zip(getattr(got, ids), getattr(got, values).tolist())
            assert _bits(dict(columns)) == sorted(_bits(getattr(want, name))), name
        assert (got.sigma1, got.anchor_id, got.iterations, got.residual) == \
            (want.sigma1, want.anchor_id, want.iterations, want.residual)
