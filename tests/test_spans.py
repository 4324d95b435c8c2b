"""Reading a plain corpus in line-aligned spans, one per usable CPU.

The number of spans must change nothing: not the artifacts, the counters,
the tables handed from stage to stage, nor the line numbers in the log.
"""

import contextlib
import io
import json
import logging
import os
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echoaudit import blocks as blk
from echoaudit import cli
from echoaudit import engagement as eng
from echoaudit import ingest as ing
from echoaudit import mediabias as mb
from echoaudit.errors import EmptySelectionError, InputError, WorkerError

from _tables import flat_line
from conftest import FIXTURES, ROOT
from test_ingest import corpus_lines


def cpus(n):
    """Make every span split and every writer count ``n`` usable CPUs."""
    return mock.patch.object(ing, "usable_cpus", lambda: n)


def running(pid):
    """Whether ``pid`` is a live process (a zombie is not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# The splitter
# ---------------------------------------------------------------------------

_text_line = st.text("ab{}\r\n", max_size=6)


class TestCorpusSpans:
    @given(data=st.lists(_text_line, max_size=12).map("".join), n=st.integers(1, 5),
           chunk=st.sampled_from([1, 2, 3, 1 << 20]))
    @settings(max_examples=300, deadline=None)
    def test_spans_tile_the_file_at_line_ends(self, tmp_path_factory, data, n, chunk):
        path = tmp_path_factory.mktemp("spans") / "c.jsonl"
        raw = data.encode("ascii")
        path.write_bytes(raw)
        with cpus(n), mock.patch.object(ing, "_LINE_COUNT_CHUNK", chunk):
            spans = ing.corpus_spans(path)
        if spans == [None]:
            return
        assert 1 < len(spans) <= n
        assert spans[0].start == 0 and spans[-1].end == len(raw)
        for before, after in zip(spans, spans[1:]):
            assert before.end == after.start > before.start
            assert raw[after.start - 1:after.start] == b"\n"
        for span in spans:
            # Text mode counts the lines before the span the same way.
            prefix = io.TextIOWrapper(io.BytesIO(raw[:span.start]), newline=None)
            assert span.first_line == 1 + len(prefix.readlines())

    def test_one_span_for_gzip_one_cpu_or_no_inner_line_end(self, tmp_path):
        plain = tmp_path / "c.jsonl"
        plain.write_bytes(b"a\nb\nc\nd\n")
        packed = tmp_path / "c.jsonl.gz"
        packed.write_bytes(b"")
        single = tmp_path / "one.jsonl"
        single.write_bytes(b"only\rlines\rend\r")
        with cpus(1):
            assert ing.corpus_spans(plain) == [None]
        with cpus(4):
            assert len(ing.corpus_spans(plain)) == 4
            assert ing.corpus_spans(packed) == [None]
            assert ing.corpus_spans(single) == [None]


# ---------------------------------------------------------------------------
# The fork helper
# ---------------------------------------------------------------------------

def _square_logged(x):
    logging.getLogger("echoaudit.test").warning("item %d", x)
    return x * x


class TestForkMap:
    def test_results_and_log_in_item_order(self, caplog):
        caplog.set_level(logging.WARNING, logger="echoaudit")
        assert ing.fork_map(_square_logged, range(5)) == [0, 1, 4, 9, 16]
        assert [r.getMessage() for r in caplog.records] == [
            f"item {i}" for i in range(5)]
        assert_no_children()

    @pytest.mark.parametrize("error", [InputError("bad input"), ValueError("bug")])
    def test_earliest_child_error_raised_with_its_type(self, error):
        def work(x):
            if x == 1:
                raise error
            if x == 2:
                raise KeyError("later")
            return x

        with pytest.raises(type(error), match=str(error)):
            ing.fork_map(work, range(3))
        assert_no_children()

    def test_error_here_kills_and_reaps_every_child(self):
        def work(x):
            if x == 0:
                raise InputError("first span")
            signal.pause()

        with pytest.raises(InputError, match="first span"):
            ing.fork_map(work, range(3))
        assert_no_children()

    def test_child_error_kills_a_later_child(self):
        """Item 1's error is raised at once, while item 2 still runs: item 2
        is killed, not waited for.  Run apart, since a wait never ends."""
        script = (
            "import os, signal\n"
            "from echoaudit import ingest as ing\n"
            "from echoaudit.errors import InputError\n"
            "def work(k):\n"
            "    if k == 1:\n"
            "        raise InputError('item one')\n"
            "    if k == 2:\n"
            "        signal.pause()\n"
            "try:\n"
            "    ing.fork_map(work, range(3))\n"
            "except InputError as exc:\n"
            "    print(exc)\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child')\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=30)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "item one\nno child\n"

    @pytest.mark.skipif(sys.platform != "linux", reason="PR_SET_PDEATHSIG is Linux's")
    def test_children_die_with_a_killed_parent(self, tmp_path):
        script = (
            "import os, signal, sys, time\n"
            "from echoaudit import ingest as ing\n"
            "def work(k):\n"
            "    if k:\n"
            "        open(sys.argv[1] + str(k), 'w').write(str(os.getpid()))\n"
            "        signal.pause()\n"
            "    time.sleep(60)\n"
            "ing.fork_map(work, range(3))\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        stem = tmp_path / "pid"
        proc = subprocess.Popen([sys.executable, "-c", script, str(stem)], env=env)
        try:
            pid_files = [Path(f"{stem}{k}") for k in (1, 2)]
            deadline = time.monotonic() + 30
            while not all(f.is_file() and f.read_text() for f in pid_files):
                assert time.monotonic() < deadline and proc.poll() is None
                time.sleep(0.05)
            pids = [int(f.read_text()) for f in pid_files]
        finally:
            proc.kill()
            proc.wait()
        deadline = time.monotonic() + 30
        while any(running(pid) for pid in pids):
            assert time.monotonic() < deadline, "a child outlived its parent"
            time.sleep(0.05)

    def test_child_ending_without_a_result(self):
        def work(x):
            if x:
                os.kill(os.getpid(), signal.SIGKILL)
            return x

        with pytest.raises(WorkerError, match=r"exit status -9"):
            ing.fork_map(work, range(2))
        assert_no_children()


def _write_lines(lines, then=None):
    """A ``fork_stream`` child that logs, writes ``lines``, then calls
    ``then``."""
    def write(out):
        logging.getLogger("echoaudit.test").warning("child started")
        for line in lines:
            out.write(line)
            out.flush()
        if then is not None:
            then()
        return len(lines)
    return write


class TestForkStream:
    def test_text_as_written_then_the_child_log(self, caplog, tmp_path):
        caplog.set_level(logging.WARNING, logger="echoaudit")
        name = tmp_path / "corpus.jsonl"
        with ing.fork_stream(_write_lines(["a\n", "b\r\n", "c"]), name) as text:
            assert text.name == str(name)
            assert text.readline() == "a\n"
            assert caplog.records == []
            assert text.read() == "b\nc"
            assert [r.getMessage() for r in caplog.records] == ["child started"]
        assert_no_children()

    def test_child_error_raised_at_the_end(self, tmp_path):
        def fail():
            raise InputError("synth broke")

        with pytest.raises(InputError, match="synth broke"):
            with ing.fork_stream(_write_lines(["a\n"], fail), tmp_path / "c") as text:
                assert text.readline() == "a\n"
                text.read()
        assert_no_children()

    def test_clean_exit_before_the_end_reads_the_rest(self, tmp_path):
        def fail():
            raise InputError("late failure")

        with pytest.raises(InputError, match="late failure"):
            with ing.fork_stream(_write_lines(["a\n"] * 5000, fail), tmp_path / "c"):
                pass
        assert_no_children()

    def test_error_here_kills_and_reaps_the_child(self, tmp_path):
        started = time.monotonic()
        with pytest.raises(KeyError):
            with ing.fork_stream(_write_lines(["a\n"], lambda: time.sleep(60)),
                                 tmp_path / "c") as text:
                assert text.readline() == "a\n"
                raise KeyError("reader failed")
        assert time.monotonic() - started < 30
        assert_no_children()

    def test_child_ending_without_a_result(self, tmp_path):
        def die():
            os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(WorkerError, match=r"exit status -9"):
            with ing.fork_stream(_write_lines(["a\n"], die), tmp_path / "c") as text:
                text.read()
        assert_no_children()


# ---------------------------------------------------------------------------
# Failures through the CLI
# ---------------------------------------------------------------------------

def corpus_with_bad_byte(path, line):
    lines = (FIXTURES / "mini_corpus.jsonl").read_bytes().split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"\n".join(lines))
    return path


@pytest.mark.parametrize("stage", ["ingest", "engagement", "graph"])
def test_invalid_utf8_in_second_span_names_file_and_line(tmp_path, capsys, stage):
    corpus = corpus_with_bad_byte(tmp_path / "corpus.jsonl", 901)
    with cpus(2):
        first, second = ing.corpus_spans(corpus)
        assert second.first_line < 901
        out = tmp_path / "out"
        argv = {
            "ingest": ["ingest", "--input", corpus, "--filtered-out", out],
            "engagement": ["engagement", "--input", corpus, "--out-dir", out],
            "graph": ["graph", "--input", corpus,
                      "--seeds", FIXTURES / "mini_seeds.txt",
                      "--graph-out", out, "--influencers-out", tmp_path / "i.txt"],
        }[stage]
        with pytest.raises(SystemExit) as exc:
            cli.main([str(a) for a in argv])
    assert exc.value.code == 2
    assert f"error: {corpus}:901: not valid UTF-8" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]
    assert_no_children()


# A line nested deeper than any JSON decoder recurses.
_TOO_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("schema", ["flat", "api"])
def test_line_nested_too_deep_is_a_counted_reject(tmp_path, schema):
    """The line reader, the block reader and a two-span ingest each count
    the line under ``json_too_deep`` and log its ``file:line``."""
    lines = (FIXTURES / "mini_corpus.jsonl").read_text().split("\n")
    lines[900] = _TOO_DEEP
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(lines))
    deep = ("echoaudit.ingest", "DEBUG", f"{corpus}:901: JSON nested too deep")
    rejects = Counter()
    with debug_log() as messages:
        records = list(ing.parse_corpus(corpus, schema, rejects))
    assert rejects["json_too_deep"] == 1 and deep in messages
    assert len(records) == (961 if schema == "flat" else 0)
    block_rejects = Counter()
    with debug_log() as block_messages:
        runs = list(blk.corpus_columns(corpus, schema, block_rejects))
    assert (block_rejects, block_messages) == (rejects, messages)
    assert sum(map(len, runs)) == len(records)
    blk.write_count_report(rejects, tmp_path / "want.csv")
    with cpus(2), debug_log() as span_messages:
        first, second = ing.corpus_spans(corpus)
        assert second.first_line < 901
        assert cli.main(["ingest", "--input", str(corpus), "--schema", schema,
                         "--filtered-out", str(tmp_path / "filtered.jsonl"),
                         "--rejects-out", str(tmp_path / "rejects.csv")]) == 0
    assert (tmp_path / "rejects.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert deep in span_messages
    assert_no_children()


@pytest.mark.parametrize("name", ["filtered.jsonl", "filtered.jsonl.gz"])
def test_parts_join_into_the_one_span_bytes(tmp_path, name):
    outs = []
    for n in (1, 3):
        out = tmp_path / str(n) / name
        out.parent.mkdir()
        with cpus(n):
            cli.main(["ingest", "--input", str(FIXTURES / "mini_corpus.jsonl"),
                      "--filtered-out", str(out)])
        assert [p.name for p in out.parent.iterdir()] == [name]
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_child_killed_mid_span_leaves_nothing(tmp_path, capsys, monkeypatch):
    parse = blk.corpus_columns
    parent = os.getpid()

    def dying_parse(*args, **kwargs):
        for n, run in enumerate(parse(*args, **kwargs)):
            if os.getpid() != parent and n == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            yield run

    # Blocks of about ten lines, so each span reads several.
    monkeypatch.setattr(blk, "_BLOCK_CHARS", 3000)
    monkeypatch.setattr(blk, "corpus_columns", dying_parse)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes((FIXTURES / "mini_corpus.jsonl").read_bytes())
    with cpus(3), pytest.raises(SystemExit) as exc:
        cli.main(["ingest", "--input", str(corpus),
                  "--filtered-out", str(tmp_path / "filtered.jsonl")])
    assert exc.value.code == 2
    assert "error: a worker process ended without a result" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]
    assert_no_children()


def test_writer_killed_leaves_no_temporary(tmp_path, capsys, monkeypatch):
    write = eng.write_engagement
    parent = os.getpid()

    def dying_write(records, path):
        if os.getpid() != parent:
            with open(path.with_name(f".{path.stem}.tmp{path.suffix}"), "w"):
                os.kill(os.getpid(), signal.SIGKILL)
        write(records, path)

    monkeypatch.setattr(eng, "write_engagement", dying_write)
    out = tmp_path / "engagement"
    with cpus(3), pytest.raises(SystemExit) as exc:
        cli.main(["engagement", "--input", str(FIXTURES / "mini_corpus.jsonl"),
                  "--domains", str(FIXTURES / "mini_domains.csv"),
                  "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "error: a worker process ended without a result" in capsys.readouterr().err
    assert not [p.name for p in out.iterdir() if p.name.startswith(".")]
    assert_no_children()


# ---------------------------------------------------------------------------
# The span count changes nothing
# ---------------------------------------------------------------------------

_POOL = ["u0", "u1", "u2", "t0", "t1"]
_URLS = ["https://a.test/x", "http://www.b.test", "junk", "https://c.test/"]
_DOMAINS = "domain,leaning_label,reliability\na.test,Left,reliable\nb.test,,questionable\n"
_JUNK = ["", "   ", "{not json", "[1, 2]", '{"kind": "original"}']
_API_KIND = {"retweet": "retweeted", "quote": "quoted", "reply": "replied_to"}


@st.composite
def pooled_fields(draw):
    """Record fields over a few ids, so ids recur across spans."""
    kind = draw(st.sampled_from(ing.KINDS + ("original", "retweet")))
    author = draw(st.sampled_from(_POOL))
    target = None
    if kind != "original":
        target = draw(st.none() | st.just(author) | st.sampled_from(_POOL))
    counts = st.sampled_from([0, 1, 7, 10**15, ing.MAX_COUNT])
    return {
        "tweet_id": draw(st.sampled_from(_POOL)), "author_id": author,
        "created_at": draw(st.sampled_from(
            ["2023-01-05T12:00:00Z"] * 4 + ["2021-06-01T00:00:00Z", "2023-02-30T00:00:00Z"])),
        "lang": draw(st.sampled_from(["en", "en", "fr"])), "kind": kind,
        "retweeted_author_id": target,
        "urls": draw(st.lists(st.sampled_from(_URLS), max_size=3)),
        **{name: draw(counts) for name in
           ("impressions", "likes", "replies", "retweets", "quotes",
            "author_followers")},
    }


def api_line(f):
    obj = {
        "id": f["tweet_id"], "author_id": f["author_id"],
        "created_at": f["created_at"], "lang": f["lang"],
        "public_metrics": {"impression_count": f["impressions"],
                           "like_count": f["likes"], "reply_count": f["replies"],
                           "retweet_count": f["retweets"],
                           "quote_count": f["quotes"]},
        "entities": {"urls": [{"expanded_url": u} for u in f["urls"]]},
        "author": {"public_metrics": {"followers_count": f["author_followers"]}},
    }
    if f["kind"] != "original":
        obj["referenced_tweets"] = [{"type": _API_KIND[f["kind"]],
                                     "author_id": f["retweeted_author_id"]}]
    return json.dumps(obj, sort_keys=f["kind"] == "reply")


_canonical = pooled_fields().map(lambda f: flat_line(**f).rstrip("\n"))
_reordered = pooled_fields().map(
    lambda f: json.dumps(dict(reversed(json.loads(flat_line(**f)).items()))))
_flat = st.one_of(_canonical, _canonical, _reordered, corpus_lines(),
                  st.sampled_from(_JUNK))
_api = st.one_of(pooled_fields().map(api_line), pooled_fields().map(api_line),
                 st.sampled_from(_JUNK))
_ending = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def corpora(draw):
    schema = draw(st.sampled_from(["flat", "api"]))
    lines = draw(st.lists(st.tuples(_flat if schema == "flat" else _api, _ending),
                          min_size=1, max_size=30))
    return schema, "".join(line + end for line, end in lines)


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.messages = []

    def emit(self, record):
        self.messages.append((record.name, record.levelname, record.getMessage()))


@contextlib.contextmanager
def debug_log():
    logger = logging.getLogger("echoaudit")
    handler, level = _Messages(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield handler.messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def table_state(t):
    owners, codes = t.matched_urls()
    return (t.tweet_codes.tolist(), t.author_codes.tolist(), t.author_ids,
            t.impressions.tolist(), t.followers.tolist(),
            [t.action_counts(a).tolist() for a in eng.ACTIONS],
            owners.tolist(), codes.tolist(), t.unmatched_urls, t.sorted_tweets()[0])


def graph_state(retweets):
    g = retweets.graph()
    return (g.node_ids, g.out_indptr.tolist(), g.out_targets.tolist(),
            g.out_weights.tolist(), g.unique_in_degree.tolist(),
            list(retweets.skipped.items()))


def run_stages(root: Path, corpus: Path, schema: str, domains: Path):
    """Ingest as ``pipeline`` does, then the standalone readers of the
    filtered corpus; returns everything they made or logged."""
    root.mkdir()
    parse = cli._parser().parse_args
    filtered = root / "filtered.jsonl"
    with debug_log() as messages:
        originals, retweets = cli.cmd_ingest(parse([
            "ingest", "--input", str(corpus), "--schema", schema,
            "--filtered-out", str(filtered),
            "--rejects-out", str(root / "rejects.csv"),
            "--exclusions-out", str(root / "exclusions.csv")]),
            keep=True, domains=mb.load_domain_table(domains))
        loaded = cli._load_originals(parse([
            "engagement", "--input", str(filtered), "--domains", str(domains),
            "--out-dir", str(root / "unused")]))
        (root / "seeds.txt").write_text("\n".join(_POOL) + "\n")
        with contextlib.suppress(EmptySelectionError):
            cli.cmd_graph(parse([
                "graph", "--input", str(filtered), "--seeds", str(root / "seeds.txt"),
                "--min-indegree", "0", "--graph-out", str(root / "graph.csv"),
                "--influencers-out", str(root / "influencers.txt")]))
    files = {p.name: p.read_bytes() for p in sorted(root.iterdir())}
    return (files, table_state(originals), table_state(loaded),
            graph_state(retweets), messages)


@given(corpus=corpora(), n=st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_span_count_changes_nothing(corpus, n):
    schema, text = corpus
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "corpus.jsonl"
        path.write_bytes(text.encode("utf-8"))
        domains = tmp / "domains.csv"
        domains.write_text(_DOMAINS)
        with cpus(1):
            want = run_stages(tmp / "one", path, schema, domains)
        with cpus(n):
            got = run_stages(tmp / "many", path, schema, domains)
        # The one-span counters are those of one plain pass.
        rejects, exclusions = Counter(), Counter()
        for _ in ing.apply_filters(ing.parse_corpus(path, schema, rejects),
                                   exclusions=exclusions):
            pass
        blk.write_count_report(rejects, tmp / "rejects.csv")
        blk.write_count_report(exclusions, tmp / "exclusions.csv")
        for name in ("rejects.csv", "exclusions.csv"):
            assert want[0][name] == (tmp / name).read_bytes()
    assert got == want
    assert_no_children()


@given(corpus=corpora(), read=st.sampled_from(["rows", "blocks"]),
       block_chars=st.sampled_from([1 << 20, 7, 300]))
@settings(max_examples=50, deadline=None)
def test_stream_of_the_file_reads_as_the_file(corpus, read, block_chars):
    """``parse_corpus``, or ``corpus_columns`` in blocks of ``block_chars``
    characters, over a ``fork_stream`` named after the corpus gives the
    records, written text, reject counts and debug lines of the file."""
    schema, text = corpus

    def parsed(source):
        rejects = Counter()
        with debug_log() as messages:
            if read == "rows":
                records = list(ing.parse_corpus(source, schema, rejects))
                written = io.StringIO()
                ing.write_corpus(records, written)
                return records, written.getvalue(), rejects, messages
            runs = list(blk.corpus_columns(source, schema, rejects))
        return ("".join(run.text() for run in runs),
                [k for run in runs for k in run.kind.tolist()], rejects, messages)

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(blk, "_BLOCK_CHARS", block_chars):
        path = Path(tmp) / "corpus.jsonl"
        path.write_bytes(text.encode("utf-8"))
        want = parsed(path)
        with ing.fork_stream(lambda out: out.write(text), path) as stream:
            got = parsed(stream)
    assert got == want
    assert_no_children()
