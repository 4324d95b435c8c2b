"""The block readers give what the row-at-a-time readers give, and the
column writer writes what the row-at-a-time writer writes.

Each reader property cuts its input into blocks of a few characters as well
as of the default size, so a block ends at every position of a line; the
writer property writes chunks of 1 and 3 rows as well as of the default
size.
"""

import ast
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echoaudit import blocks as blk
from echoaudit import engagement as eng
from echoaudit import graph as gr
from echoaudit import ideology as ideo
from echoaudit import ingest as ing
from echoaudit import mediabias as mb
from echoaudit.errors import InputError

import _csv_oracle as oracle
from _matrix_helpers import edge_list
from _record_oracle import counts_by_record, originals_by_record
from _tables import edge_graph, flat_line
from conftest import ROOT
from test_graph import _csv_ids
from test_spans import _DOMAINS, corpora, debug_log, graph_state, table_state

block_chars = st.sampled_from([1 << 20, 1, 2]) | st.integers(3, 400)


def blocks(n):
    return mock.patch.object(blk, "_BLOCK_CHARS", n)


def outcome(fn):
    """``fn()``, or the message of the :class:`InputError` it raises."""
    try:
        return fn()
    except InputError as exc:
        return f"error: {exc}"


# ---------------------------------------------------------------------------
# The corpus
# ---------------------------------------------------------------------------

_SPECIAL = [
    # Trailing spaces, year 0000, a 15-digit count, a fractional second and
    # a self-retweet.
    flat_line("x1", "u0", "2023-01-05T12:00:00Z", "en", "original", None,
              10**15 - 1, 0, 0, 0, 0, [], 1).rstrip("\n") + "  ",
    flat_line("x2", "u0", "0000-06-01T00:00:00Z", "en", "original", None,
              0, 0, 0, 0, 0, [], 1).rstrip("\n"),
    flat_line("x3", "u1", "2023-01-05T12:00:01Z", "en", "retweet", "u1",
              1, 0, 0, 0, 0, ["https://a.test/x"], 0).rstrip("\n"),
    json.dumps({"author_followers": 0, "author_id": "u2",
                "created_at": "2023-01-05T12:00:00.500000Z", "impressions": 3,
                "kind": "original", "lang": "en", "likes": 1, "quotes": 0,
                "replies": 0, "retweeted_author_id": None, "retweets": 0,
                "tweet_id": "x4", "urls": ["http://www.b.test"]}, sort_keys=True),
]

# Cutoffs on and between the corpus's times, some with fractional seconds.
_MIN_DATES = st.sampled_from([
    "2022-12-15T00:00:00Z", "2023-01-05T12:00:00Z", "2023-01-05T12:00:00.000001Z",
    "2023-01-05T12:00:00.5Z", "2023-01-05T12:00:00.500001Z", "2023-01-05T11:59:59.999999Z",
    "0001-01-01T00:00:00Z"]).map(ing.parse_timestamp)


@st.composite
def corpus_bytes(draw):
    """A corpus of :func:`test_spans.corpora`, sometimes with special lines
    and sometimes with one line that is not UTF-8."""
    schema, text = draw(corpora())
    if schema == "flat" and draw(st.booleans()):
        lines = text.splitlines(keepends=True)
        for line in draw(st.lists(st.sampled_from(_SPECIAL), max_size=4)):
            lines.insert(draw(st.integers(0, len(lines))), line + "\r\n")
        text = "".join(lines)
    raw = text.encode("utf-8")
    if draw(st.integers(0, 4)) == 0:
        lines = raw.split(b"\n")
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = b"\xff" + lines[k]
        raw = b"\n".join(lines)
    return schema, raw


def count_report(counts, path):
    blk.write_count_report(counts, path)
    return path.read_bytes()


def ingested(write, path, schema, corpus_filter, tmp):
    """The kept text, ``rejects.csv``, ``exclusions.csv`` and debug lines of
    one ingest, or the message of its error."""
    rejects, exclusions = Counter(), Counter()
    out = io.StringIO()
    with debug_log() as messages:
        error = outcome(lambda: write(path, schema, rejects, corpus_filter, exclusions, out))
    if isinstance(error, str):
        return error
    return (out.getvalue(), count_report(rejects, tmp / "rejects.csv"),
            count_report(exclusions, tmp / "exclusions.csv"), messages)


def by_rows(path, schema, rejects, corpus_filter, exclusions, out):
    ing.write_corpus(ing.apply_filters(ing.parse_corpus(path, schema, rejects),
                                       corpus_filter, exclusions), out)


def by_blocks(path, schema, rejects, corpus_filter, exclusions, out):
    blk.write_corpus_columns(blk.filter_columns(blk.corpus_columns(path, schema, rejects),
                                                corpus_filter, exclusions), out)


@given(corpus=corpus_bytes(), min_date=_MIN_DATES,
       langs=st.sampled_from([{"en"}, {"en", "fr"}]), n=block_chars)
@settings(max_examples=300, deadline=None)
def test_ingest_by_blocks_equals_by_rows(corpus, min_date, langs, n):
    schema, raw = corpus
    corpus_filter = ing.CorpusFilter(min_date, frozenset(langs))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "corpus.jsonl"
        path.write_bytes(raw)
        want = ingested(by_rows, path, schema, corpus_filter, tmp)
        with blocks(n):
            got = ingested(by_blocks, path, schema, corpus_filter, tmp)
    assert got == want


@given(corpus=corpora(), n=block_chars)
@settings(max_examples=200, deadline=None)
def test_tables_by_blocks_equal_by_rows(corpus, n):
    """The originals table and the retweet counts, filled with every kind of
    record, the runs' columns, and the text they write."""
    schema, text = corpus
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_text(text, encoding="utf-8", newline="")
        domains = Path(tmp) / "domains.csv"
        domains.write_text(_DOMAINS)
        table = mb.load_domain_table(domains)
        records = list(ing.parse_corpus(path, schema))
        with blocks(n):
            runs = list(blk.corpus_columns(path, schema))
    got = [row for run in runs for row in zip(
        run.tweet_id, run.author_id, run.created_at.tolist(), run.lang,
        [ing.KINDS[k] for k in run.kind], [t or None for t in run.retweeted_author_id],
        run.impressions.tolist(), run.likes.tolist(), run.replies.tolist(),
        run.retweets.tolist(), run.quotes.tolist(), run.url_lists([True] * len(run)),
        run.author_followers.tolist())]
    want = [(r.tweet_id, r.author_id, r.created_at.replace(tzinfo=None), r.lang, r.kind,
             r.retweeted_author_id or None, r.impressions, r.likes, r.replies, r.retweets,
             r.quotes, r.urls, r.author_followers) for r in records]
    assert got == want
    written = io.StringIO()
    ing.write_corpus(records, written)
    assert "".join(run.text() for run in runs) == written.getvalue()
    assert (table_state(eng.OriginalsTable.from_columns(runs, table))
            == table_state(originals_by_record(records, table)))
    assert (graph_state(gr.RetweetCounts.from_columns(runs))
            == graph_state(counts_by_record(records)))


# ---------------------------------------------------------------------------
# graph.csv and scores.csv
# ---------------------------------------------------------------------------

_ids = st.sampled_from(["a", "b", "u 1", " a", "b ", "\x85c", "", "é", "\x1fd"])
_raws = st.sampled_from(["0.1", "", "x", "x ", " x"])
_line_ends = st.sampled_from(["\n", "\n", "\r\n", "\r"])
# Values that read, and values that end a read with an error.
_WEIGHTS = (["1", "7", "01", str(ing.MAX_COUNT), "9" * 15],
            [str(ing.MAX_COUNT + 1), "0", "9" * 16, "9" * 17, " 1", "1 ", "+1", "1.0",
             "١", ""])
_SCORES = (["0.5", "-0.25", "1e-05", "-1.5e+16", "0.0", "-0.0", "1", "1e5", " 0.5",
            "0.5 ", "1_0", "5e-324", "1E5", "0.5e1", "1.7976931348623157e308"],
           ["x", "", "1e", "--1", "nan", "inf", "-inf", "1e999", "-nan", "Infinity"])
_KINDS = (["user", "influencer"], ["other", " user", "User", ""])
_EDITS = ([None] * 3 + ["blank", "spaces", "pad"], ["extra", "short"])


def edit(row, how):
    return {None: row, "blank": "", "spaces": "  ", "pad": f" {row} ", "extra": row + ",x",
            "short": row.rsplit(",", 1)[0]}[how]


@st.composite
def tables(draw, header, row):
    """A CSV table: ``header``, then rows of ``row(values)``, where
    ``values`` picks from a pair of (good, bad) lists.  In two tables of
    three every value and line is good; in the third the header, a row or
    the last line break may be bad, since one bad line ends the read."""
    if draw(st.integers(0, 2)):
        def values(pair):
            return st.sampled_from(pair[0])
        head, cut = header, False
    else:
        def values(pair):
            return st.sampled_from(pair[0] + pair[1])
        head = draw(st.sampled_from([header, header.upper(), header + " ", ""]))
        cut = draw(st.booleans())
    rows = draw(st.lists(st.tuples(row(values).map(",".join), values(_EDITS), _line_ends),
                         max_size=12))
    text = head + draw(_line_ends) + "".join(edit(r, how) + end for r, how, end in rows)
    if cut:
        text += draw(row(values).map(",".join))
    return text


def edge_rows(values):
    return st.tuples(_ids, _ids, values(_WEIGHTS))


def score_rows(values):
    return st.tuples(_ids, values(_KINDS), values(_SCORES), _raws)


def edge_state(g):
    return (g.node_ids, g.out_indptr.tolist(), g.out_targets.tolist(),
            g.out_weights.tolist(), g.unique_in_degree.tolist())


def score_state(scores):
    # -0.0 equals 0.0; compare the text.
    return [list(zip(ids, map(repr, values.tolist()))) for ids, values in
            ((scores.user_ids, scores.user_score),
             (scores.influencer_ids, scores.influencer_score))]


@given(text=tables("src,dst,weight", edge_rows), n=block_chars)
@example(text="src,dst,weight\na,b,9007199254740991\na,b,1\n", n=1 << 20)
@example(text="src,dst,weight\na,b,1,x\nc,1\n", n=1 << 20)
@settings(max_examples=300, deadline=None)
def test_edge_list_by_blocks_equals_by_rows(text, n):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.csv"
        path.write_text(text, encoding="utf-8", newline="")
        want = outcome(lambda: edge_state(oracle.read_edge_list(path)))
        with blocks(n):
            got = outcome(lambda: edge_state(gr.read_edge_list(path)))
    assert got == want


@given(text=tables("id,kind,score,raw_score", score_rows), n=block_chars)
@settings(max_examples=300, deadline=None)
def test_scores_by_blocks_equal_by_rows(text, n):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.csv"
        path.write_text(text, encoding="utf-8", newline="")
        want = outcome(lambda: score_state(oracle.read_scores(path)))
        with blocks(n):
            got = outcome(lambda: score_state(ideo.read_scores(path)))
    assert got == want


def scores_text(rows):
    return "id,kind,score,raw_score\n" + "".join(f"{row}\n" for row in rows)


@given(rows=st.lists(st.tuples(st.sampled_from(["a", "a\x00", "\x00", "\u00e9", "\U0001f600"])
                               | _csv_ids,
                               st.sampled_from(["user", "influencer"]),
                               st.floats(allow_nan=False, allow_infinity=False)),
                     max_size=12),
       data=st.data(), n=block_chars)
@example(rows=[("a", "user", 0.5), ("a", "influencer", -0.0), ("a\x00", "user", 1.0)],
         data=None, n=1 << 20)
@settings(max_examples=300, deadline=None)
def test_scores_read_alike_in_any_row_order(rows, data, n):
    """Any row order reads to the columns of the file sorted by (kind, id),
    an id may be both a user and an influencer, and an id that comes twice
    as one kind is named at its second row in file order."""
    if data is not None:
        rows = data.draw(st.permutations(rows))
    with tempfile.TemporaryDirectory() as tmp:
        path, ordered = Path(tmp) / "scores.csv", Path(tmp) / "sorted.csv"
        for file, these in ((path, rows), (ordered, sorted(rows, key=lambda r: r[1::-1]))):
            file.write_text(scores_text(f"{i},{k},{v!r},0.0" for i, k, v in these),
                            encoding="utf-8", newline="")
        with blocks(n):
            got = outcome(lambda: score_state(ideo.read_scores(path)))
        want = outcome(lambda: score_state(ideo.read_scores(ordered)))
    keys = [(k, i) for i, k, _ in rows]
    repeats = [line for line, key in enumerate(keys, start=2) if key in keys[:line - 2]]
    if repeats:
        kind, ident = keys[repeats[0] - 2]
        assert got == f"error: {path}:{repeats[0]}: repeated {kind} id {ident!r}"
    else:
        assert got == want == [[(i, repr(v)) for i, k, v in sorted(rows) if k == kind]
                               for kind in ("user", "influencer")]


@pytest.mark.parametrize("padded", [False, True])
@pytest.mark.parametrize("first", [0, 4995])
def test_repeated_score_id_names_the_second_row(tmp_path, padded, first):
    """A repeat in the same 64 KiB block as the first row or in a later one,
    on a block split at once or, with a padded row, row by row; the same id
    as a user and as an influencer is no repeat."""
    rows = ["a,influencer,0.5,0.5", "a,user,0.5,0.5"]
    rows += [f"u{k:05d},user,0.5,0.5" for k in range(5000)]
    rows.append(f"u{first:05d},user,-0.25,0.5")
    if padded:
        rows[-1] = f" {rows[-1]} "
    path = tmp_path / "scores.csv"
    path.write_text(scores_text(rows), encoding="utf-8")
    assert path.stat().st_size > blk._BLOCK_CHARS
    want = f"error: {path}:{len(rows) + 1}: repeated user id 'u{first:05d}'"
    assert outcome(lambda: ideo.read_scores(path)) == want
    assert outcome(lambda: oracle.read_scores(path)) == want


@pytest.mark.parametrize("padded", [False, True])
@pytest.mark.parametrize("first", [0, 4995])
def test_repeated_edge_names_the_second_row(tmp_path, padded, first):
    """A repeat in the same 64 KiB block as the first row or in a later one,
    on a block split at once or, with a padded row, row by row; the reverse
    pair is no repeat."""
    rows = ["a,b,1", "b,a,1"] + [f"user{k:05d},a,2" for k in range(5000)]
    rows.append(f"user{first:05d},a,3")
    if padded:
        rows[-1] = f" {rows[-1]} "
    path = tmp_path / "graph.csv"
    path.write_text("src,dst,weight\n" + "".join(f"{row}\n" for row in rows),
                    encoding="utf-8")
    assert path.stat().st_size > blk._BLOCK_CHARS
    want = f"error: {path}:{len(rows) + 1}: repeated edge user{first:05d},a"
    assert outcome(lambda: gr.read_edge_list(path)) == want
    assert outcome(lambda: oracle.read_edge_list(path)) == want


# ---------------------------------------------------------------------------
# write_columns
# ---------------------------------------------------------------------------

_ints = st.sampled_from([0, 1, -1, ing.MAX_COUNT, 2**63 - 1, -2**63]) | st.integers(
    -2**63, 2**63 - 1)
_floats = st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-7, 0.1, 1 / 3, math.nan, math.inf,
                           -math.inf]) | st.floats()
_values = st.none() | _ints | _floats | _csv_ids


@st.composite
def column_tables(draw):
    """A header, the columns of :func:`blk.write_columns` in a drawn order
    (int64, float64, strings, values or ``None``, and codes into names), and
    the same table as rows of Python values."""
    n = draw(st.integers(0, 12))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    ints, floats, texts, values = map(column, (_ints, _floats, _csv_ids, _values))
    names = draw(st.lists(_csv_ids, min_size=1, max_size=4))
    codes = column(st.integers(0, len(names) - 1))
    pairs = draw(st.permutations([
        (np.array(ints, dtype=np.int64), ints), (np.array(floats, dtype=np.float64), floats),
        (texts, texts), (values, values),
        (blk.Codes(names, np.array(codes, dtype=np.int64)), [names[c] for c in codes])]))
    header = [f"c{k}" for k in range(len(pairs))]
    return header, [c for c, _ in pairs], list(zip(*[rows for _, rows in pairs]))


@given(
    table=column_tables(),
    edges=st.lists(st.one_of(
        st.tuples(_csv_ids, _csv_ids),
        _csv_ids.map(lambda uid: (uid, uid)),
    ), max_size=40),
    weights=st.lists(st.integers(1, ing.MAX_COUNT) | st.sampled_from([1, ing.MAX_COUNT]),
                     min_size=40, max_size=40),
    count_self_loops=st.booleans(),
    chunk=st.sampled_from([1, 3, blk._WRITE_CHUNK]),
)
@settings(max_examples=300, deadline=None)
def test_write_columns_bytes_match_write_table_property(tmp_path_factory, table, edges,
                                                        weights, count_self_loops, chunk):
    """``write_columns`` writes the bytes of the row-at-a-time ``write_table``
    for every kind of column, NUL and non-ASCII ids, signed zeros,
    subnormals, large and small floats, NaN, infinities and the int64
    extremes, whatever its chunk size; so does ``write_edge_list`` for
    ``edge_list(g)``, self-loops and weights up to ``MAX_COUNT`` included."""
    header, columns, rows = table
    g = edge_graph(((src, dst, w) for (src, dst), w in zip(dict.fromkeys(edges), weights)),
                   count_self_loops)
    root = tmp_path_factory.mktemp("columns")
    with mock.patch.object(blk, "_WRITE_CHUNK", chunk):
        blk.write_columns(root / "columns.csv", header, columns)
        gr.write_edge_list(g, root / "edges.csv")
    oracle.write_table(root / "rows.csv", header, rows)
    oracle.write_table(root / "edge_rows.csv", gr.EDGE_LIST_HEADER, edge_list(g))
    assert (root / "columns.csv").read_bytes() == (root / "rows.csv").read_bytes()
    assert (root / "edges.csv").read_bytes() == (root / "edge_rows.csv").read_bytes()


def test_src_has_one_csv_writer():
    """No module of ``src/echoaudit/`` defines, imports or calls a
    ``write_table``, the row-at-a-time writer that ``tests/_csv_oracle.py``
    keeps as the reference, and only ``blocks.py`` (``write_columns``) and
    ``engagement.py`` (``write_engagement``) size a chunk of CSV rows with a
    ``_WRITE_CHUNK``."""
    found = []
    for path in sorted((ROOT / "src" / "echoaudit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, field, None) for field in ("name", "asname", "attr", "id")}
            if "write_table" in names:
                found.append(f"{path.name}:{node.lineno}: write_table")
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            if (path.name not in ("blocks.py", "engagement.py")
                    and any(getattr(t, "id", None) == "_WRITE_CHUNK" for t in targets)):
                found.append(f"{path.name}:{node.lineno}: _WRITE_CHUNK")
    assert found == []


# ---------------------------------------------------------------------------
# Cold start
# ---------------------------------------------------------------------------

def test_cli_import_leaves_synth_and_report_unloaded():
    code = ("import sys, echoaudit.cli; "
            "print(sorted(m for m in ('echoaudit.synth', 'echoaudit.report') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    assert done.stdout.decode().strip() == "[]"
