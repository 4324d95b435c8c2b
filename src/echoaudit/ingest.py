"""Corpus ingestion: parse newline-delimited tweet records and filter them.

Two record layouts are understood (selected by a schema id):

``flat``
    One JSON object per line using this package's field names directly:
    ``tweet_id, author_id, created_at, lang, kind, retweeted_author_id,
    impressions, likes, replies, retweets, quotes, urls, author_followers``.

``api``
    A raw-API-shaped dump: ``id``/``author_id``/``created_at``/``lang`` at the
    top level, counters under ``public_metrics``, the record kind derived from
    ``referenced_tweets[0].type``, shared links under ``entities.urls`` and
    follower counts under ``author.public_metrics.followers_count``.

Malformed lines never abort a run; they are skipped and counted by reason.
Ids must survive the CSV files of later stages: an id containing ``,``, a
line break or a lone surrogate, or starting or ending with whitespace, is
rejected under ``id_not_csv_safe``; a ``created_at`` that is not an ISO-8601
timestamp is rejected under ``bad_created_at``; a count above ``2**53 - 1``
is rejected under ``count_too_large_<field>``; a line nested too deep for
the JSON decoder is rejected under ``json_too_deep``.  Files ending in
``.gz`` are transparently decompressed.

The ``flat`` line layout is defined once, in :func:`flat_lines`, which
formats a block of rows at a time.

:func:`parse_corpus`, :func:`apply_filters` and :func:`write_corpus` handle
one record at a time: :func:`parse_corpus` decodes every line as JSON,
which names the reject reasons, and :func:`write_corpus` writes one
:func:`flat_lines` row per record.  Every stage reads and writes with
:func:`blocks.corpus_columns` and its companions instead, a block of text
at a time.  That reader decodes the lines in the fixed layout of
:func:`flat_lines` itself and sends every other line through the per-line
path here, which stays the reference.
:func:`blocks.write_columns` writes every CSV artifact but the AE tables
of :func:`engagement.write_engagement`, :func:`write_json` every JSON one,
and all go through :func:`open_atomic`.  :func:`sorted_codes` orders
interned ids as Python strings for every stage.

A plain (not ``.gz``) corpus is read on every usable CPU:
:func:`corpus_spans` cuts it into line-aligned byte spans, one per CPU, and
:func:`fork_map` runs the same code over each span, all but the first in a
forked child, handing the parts back in file order.
:func:`open_atomic_parts` gives each span its own output and joins them in
order.  ``engagement`` deals its granularities to :func:`fork_map` too, and
:func:`remove_temporaries` clears what a killed writer left.
:func:`fork_items` takes here, in order, the items that a forked child
sends as it makes them (``pipeline`` takes synth's blocks of rows this
way).  Both fork helpers start, kill and reap each child through one
:class:`Worker` handle.
"""

from __future__ import annotations

import ctypes
import gzip
import io
import json
import logging
import os
import pickle
import re
import shutil
import sys
import traceback
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import count, filterfalse
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import (Callable, Collection, ContextManager, Iterable, Iterator, Mapping,
                    NamedTuple, Optional, Sequence, TypeVar)

import numpy as np

from .errors import EchoauditError, InputError, OutputError, WorkerError

log = logging.getLogger(__name__)

KINDS = ("original", "retweet", "quote", "reply")

# Cutoff below which per-tweet impression counts do not exist on the platform.
IMPRESSIONS_AVAILABLE_FROM = datetime(2022, 12, 15, tzinfo=timezone.utc)

_COUNT_FIELDS = ("impressions", "likes", "replies", "retweets", "quotes")

# The largest count accepted: the I-JSON exact-integer limit.  Every count
# is then an exact float64, and a ratio of two counts in float64 equals the
# correctly rounded ``int / int``.
MAX_COUNT = 2**53 - 1


@dataclass(slots=True)
class TweetRecord:
    tweet_id: str
    author_id: str
    created_at: datetime
    lang: str
    kind: str
    retweeted_author_id: Optional[str]
    impressions: int
    likes: int
    replies: int
    retweets: int
    quotes: int
    urls: list[str]
    author_followers: int

    @property
    def is_self_retweet(self) -> bool:
        return (
            self.kind in ("retweet", "quote")
            and self.retweeted_author_id == self.author_id
        )


# Record kinds whose impressions measure audience reach, and record kinds
# that define interaction-network edges.
KINDS_FOR_ENGAGEMENT = frozenset({"original"})
KINDS_FOR_NETWORK = frozenset({"retweet"})


@dataclass(frozen=True)
class CorpusFilter:
    """Date and language filter."""

    min_date: datetime = IMPRESSIONS_AVAILABLE_FROM
    allowed_langs: frozenset[str] = frozenset({"en"})


def parse_timestamp(value: str, diagnostics: Optional[Counter] = None) -> datetime:
    """Parse an ISO-8601 timestamp as UTC.

    A trailing ``Z`` is accepted; naive timestamps are assumed UTC and tallied
    in ``diagnostics`` so data-quality reports can surface them.
    """
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        if diagnostics is not None:
            diagnostics["naive_timestamp_assumed_utc"] += 1
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def format_timestamp(ts: datetime) -> str:
    """``YYYY-MM-DDTHH:MM:SSZ`` in UTC, always with a four-digit year."""
    ts = ts.astimezone(timezone.utc)
    return (f"{ts.year:04d}-{ts.month:02d}-{ts.day:02d}"
            f"T{ts.hour:02d}:{ts.minute:02d}:{ts.second:02d}Z")


def _require_str(obj: dict, key: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise ValueError(f"missing_{key}")
    return value


def _require_timestamp(obj: dict, diagnostics: Counter) -> datetime:
    value = _require_str(obj, "created_at")
    try:
        return parse_timestamp(value, diagnostics)
    except (ValueError, OverflowError):
        # Not ISO-8601, or out of range once moved to UTC.
        raise ValueError("bad_created_at") from None


# A lone surrogate cannot be encoded as UTF-8, so no artifact could hold it.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _require_id(obj: dict, key: str) -> str:
    value = _require_str(obj, key)
    _check_id(value)
    return value


def _check_id(value: str) -> None:
    """Reject an id that cannot cross a CSV stage boundary intact.

    A comma or line break would split it into fields or rows, and readers
    strip the whitespace around a field.
    """
    if ("," in value or "\n" in value or "\r" in value
            or value != value.strip()
            or not value.isascii() and _SURROGATE.search(value)):
        raise ValueError("id_not_csv_safe")


def _require_count(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"bad_count_{name}")
    if value < 0:
        raise ValueError(f"negative_count_{name}")
    if value > MAX_COUNT:
        raise ValueError(f"count_too_large_{name}")
    return value


def _record_from_flat(obj: dict, diagnostics: Counter) -> TweetRecord:
    kind = _require_str(obj, "kind")
    if kind not in KINDS:
        raise ValueError("unknown_kind")
    urls = obj.get("urls", [])
    if not isinstance(urls, list) or any(not isinstance(u, str) for u in urls):
        raise ValueError("bad_urls")
    retweeted = obj.get("retweeted_author_id")
    if retweeted is not None:
        if not isinstance(retweeted, str):
            raise ValueError("bad_retweeted_author_id")
        _check_id(retweeted)
    counts = {f: _require_count(obj.get(f, 0), f) for f in _COUNT_FIELDS}
    return TweetRecord(
        tweet_id=_require_id(obj, "tweet_id"),
        author_id=_require_id(obj, "author_id"),
        created_at=_require_timestamp(obj, diagnostics),
        lang=_require_str(obj, "lang").lower(),
        kind=kind,
        retweeted_author_id=retweeted,
        urls=list(urls),
        author_followers=_require_count(obj.get("author_followers", 0), "author_followers"),
        **counts,
    )


_API_KIND_MAP = {"retweeted": "retweet", "quoted": "quote", "replied_to": "reply"}


def _record_from_api(obj: dict, diagnostics: Counter) -> TweetRecord:
    # A false value (null, 0, "", [], {}) stands for an absent object.  The
    # reject reasons depend on the order of the checks: kind, URLs, author,
    # ids, timestamp, language, then counts.
    kind = "original"
    retweeted = None
    refs = obj.get("referenced_tweets") or []
    if refs:
        if not isinstance(refs, list) or not isinstance(refs[0], dict):
            raise ValueError("bad_referenced_tweets")
        ref_type = refs[0].get("type")
        kind = _API_KIND_MAP.get(ref_type) if isinstance(ref_type, str) else None
        if kind is None:
            raise ValueError("unknown_kind")
        retweeted = refs[0].get("author_id")
        if retweeted is not None:
            if not isinstance(retweeted, str):
                raise ValueError("bad_retweeted_author_id")
            _check_id(retweeted)
    entities = obj.get("entities") or {}
    links = (entities.get("urls") or []) if isinstance(entities, dict) else None
    if not isinstance(links, list) or any(not isinstance(u, dict) for u in links):
        raise ValueError("bad_urls")
    urls = [u.get("expanded_url") or u.get("url") for u in links]
    if any(not isinstance(u, str) for u in urls):
        raise ValueError("bad_urls")
    author = obj.get("author") or {}
    author_metrics = ((author.get("public_metrics") or {})
                      if isinstance(author, dict) else None)
    if not isinstance(author_metrics, dict):
        raise ValueError("bad_author")
    tweet_id = _require_id(obj, "id")
    author_id = _require_id(obj, "author_id")
    created_at = _require_timestamp(obj, diagnostics)
    lang = _require_str(obj, "lang").lower()
    metrics = obj.get("public_metrics") or {}
    if not isinstance(metrics, dict):
        raise ValueError("bad_public_metrics")
    return TweetRecord(
        tweet_id=tweet_id,
        author_id=author_id,
        created_at=created_at,
        lang=lang,
        kind=kind,
        retweeted_author_id=retweeted,
        impressions=_require_count(metrics.get("impression_count", 0), "impressions"),
        likes=_require_count(metrics.get("like_count", 0), "likes"),
        replies=_require_count(metrics.get("reply_count", 0), "replies"),
        retweets=_require_count(metrics.get("retweet_count", 0), "retweets"),
        quotes=_require_count(metrics.get("quote_count", 0), "quotes"),
        urls=urls,
        author_followers=_require_count(author_metrics.get("followers_count", 0),
                                        "author_followers"),
    )


_SCHEMAS = {"flat": _record_from_flat, "api": _record_from_api}


def format_epoch_seconds(seconds: Sequence[int]) -> list[str]:
    """:func:`format_timestamp` of each of ``seconds``, whole seconds since
    the epoch within years 1 to 9999, from one NumPy call."""
    return np.datetime_as_string(np.asarray(seconds, dtype=np.int64).astype("datetime64[s]"),
                                 timezone="UTC").tolist()


def flat_lines(created_at: Iterable[str], rows: Iterable[tuple]) -> str:
    """The ``flat`` corpus lines of ``rows``, newlines included, as one string.

    Each row holds ``(tweet_id, author_id, lang, kind, retweeted_author_id,
    impressions, likes, replies, retweets, quotes, urls, author_followers)``;
    its ``created_at``, already formatted, is the matching item of
    ``created_at``.  Each line's bytes equal ``json.dumps(record,
    sort_keys=True) + "\\n"`` for its record: keys in sorted order, strings
    escaped to ASCII, ``null`` for a missing ``retweeted_author_id``.  The
    counts are ``int``.
    """
    esc = encode_basestring_ascii
    lines = []
    for ts, (tweet_id, author_id, lang, kind, retweeted_author_id, impressions, likes,
             replies, retweets, quotes, urls, author_followers) in zip(created_at, rows):
        retweeted = "null" if retweeted_author_id is None else esc(retweeted_author_id)
        lines.append(
            f'{{"author_followers": {author_followers}, '
            f'"author_id": {esc(author_id)}, '
            f'"created_at": {esc(ts)}, '
            f'"impressions": {impressions}, '
            f'"kind": {esc(kind)}, '
            f'"lang": {esc(lang)}, '
            f'"likes": {likes}, '
            f'"quotes": {quotes}, '
            f'"replies": {replies}, '
            f'"retweeted_author_id": {retweeted}, '
            f'"retweets": {retweets}, '
            f'"tweet_id": {esc(tweet_id)}, '
            f'"urls": [{", ".join(map(esc, urls)) if urls else ""}]}}\n'
        )
    return "".join(lines)


def usable_cpus() -> int:
    """The CPUs this process may run on: the size of its affinity mask, or 1
    where the platform has none."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


class Span(NamedTuple):
    """Bytes ``[start, end)`` of a plain corpus file; its first line is line
    ``first_line`` of the file."""

    start: int
    end: int
    first_line: int


def corpus_spans(path: str | Path) -> list[Optional[Span]]:
    """Line-aligned byte spans of a corpus, one per usable CPU.

    Each cut is the first line start at or after an equal share of the
    bytes, just after a ``\\n``.  A ``.gz`` file, a single CPU, or a file
    with no cut short of its end gives ``[None]``: the whole file read as
    one.  Line numbers count lines as text mode does, so a lone ``\\r``
    also ends one.
    """
    path = Path(path)
    n = usable_cpus()
    if n < 2 or path.suffix == ".gz" or not path.is_file():
        return [None]
    size = path.stat().st_size
    spans: list[Optional[Span]] = []
    start, line = 0, 1
    with open(path, "rb") as fh:
        for k in range(1, n):
            fh.seek(max(size * k // n - 1, start))
            cut = fh.tell() + len(fh.readline())
            if cut >= size:
                break
            spans.append(Span(start, cut, line))
            line += _text_line_ends(fh, start, cut)
            start = cut
    if not spans:
        return [None]
    spans.append(Span(start, size, line))
    return spans


# Bytes read at a time while counting line ends.
_LINE_COUNT_CHUNK = 1 << 20


def _text_line_ends(fh, start: int, end: int) -> int:
    """Line ends that text mode reads in bytes ``[start, end)`` of a binary
    file: each ``\\n``, ``\\r\\n`` and lone ``\\r``."""
    fh.seek(start)
    count, after_cr = 0, False
    while start < end:
        chunk = fh.read(min(_LINE_COUNT_CHUNK, end - start))
        if not chunk:
            break
        start += len(chunk)
        count += (chunk.count(b"\n") + chunk.count(b"\r") - chunk.count(b"\r\n")
                  - (after_cr and chunk.startswith(b"\n")))
        after_cr = chunk.endswith(b"\r")
    return count


class _ByteRange(io.RawIOBase):
    """Bytes ``[start, end)`` of a file as a raw stream."""

    def __init__(self, path: Path, start: int, end: int):
        self._fh = open(path, "rb", buffering=0)
        self._fh.seek(start)
        self._left = end - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._fh.readinto(memoryview(buffer)[:self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._fh.close()
        super().close()


@contextmanager
def open_maybe_gzip(path: str | Path, newline: Optional[str] = None,
                    span: Optional[Span] = None) -> Iterator[io.TextIOBase]:
    """Open a UTF-8 text file, through gzip if its name ends in ``.gz``, or
    only the ``span`` of a plain file.

    While reading, bytes that do not decode or gzip data that does not
    decompress raise :class:`InputError` naming the file (and the first bad
    line) from anywhere inside the ``with`` block.
    """
    path = Path(path)
    if path.suffix == ".gz":
        fh = gzip.open(path, "rt", encoding="utf-8", newline=newline)
    elif span is not None:
        fh = io.TextIOWrapper(io.BufferedReader(_ByteRange(path, span.start, span.end)),
                              encoding="utf-8", newline=newline)
    else:
        fh = open(path, encoding="utf-8", newline=newline)
    with fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise InputError(f"{path}:{_first_undecodable_line(path)}: "
                             "not valid UTF-8") from None
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise InputError(f"{path}: corrupt gzip data: {exc}") from None


@contextmanager
def open_atomic(path: str | Path, newline: Optional[str] = None) -> Iterator[io.TextIOBase]:
    """Write a UTF-8 text file (gzip if its name ends in ``.gz``) all at once.

    The same text always gives the same bytes.  The text goes to a hidden
    temporary file beside ``path``, which replaces
    ``path`` only when the ``with`` block ends cleanly.  On any error the
    temporary file is removed and ``path`` is left as it was, so a later
    stage never reads a partial artifact.  A ``path`` that cannot be
    written raises :class:`OutputError`.
    """
    path = Path(path)
    tmp = _temporary(path)
    try:
        raw = open(tmp, "wb")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with raw:
            # A gzip header holding the final name and no time keeps the
            # bytes a function of the text alone.
            out = (gzip.GzipFile(path.name, "wb", fileobj=raw, mtime=0)
                   if path.suffix == ".gz" else raw)
            with io.TextIOWrapper(out, encoding="utf-8", newline=newline) as fh:
                yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OutputError(f"cannot write {path}: {exc.strerror}") from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def make_dir(path: Path) -> None:
    """Create the directory ``path`` and any missing parents; one that
    cannot be created raises :class:`OutputError`."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create directory {path}: {exc.strerror}") from None


def _temporary(path: Path) -> Path:
    """The hidden file beside ``path`` that :func:`open_atomic` writes first."""
    return path.with_name(f".{path.stem}.tmp{path.suffix}")


@contextmanager
def open_atomic_parts(path: str | Path,
                      n: int) -> Iterator[list[io.TextIOBase | Path]]:
    """``n`` outputs that, one after another, make the file at ``path``,
    written all at once.

    Output 0 is :func:`open_atomic`'s open text file; output ``k > 0`` is
    the path of a hidden part file beside ``path``, for a forked child to
    write with :func:`blocks.write_corpus_columns` (itself all at once).  When the block
    ends cleanly the parts are appended to output 0 in order; on any error
    ``path`` is left as it was.  No part file, nor its temporary file,
    outlives the block.
    """
    path = Path(path)
    parts = [path.with_name(f".{path.name}.part{k}") for k in range(1, n)]
    try:
        with open_atomic(path) as fh:
            yield [fh, *parts]
            for part in parts:
                with open(part, encoding="utf-8", newline="") as src:
                    shutil.copyfileobj(src, fh)
    finally:
        for part in parts:
            part.unlink(missing_ok=True)
            _temporary(part).unlink(missing_ok=True)


T = TypeVar("T")
R = TypeVar("R")


def fork_map(work: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """``[work(item) for item in items]``, each item after the first run in a
    forked child process while this process runs the first.

    A child hands back its result, or its exception, pickled through a pipe,
    with the log records it made; those are handled here in item order, so
    the log reads as if every item ran here.  A child leaves only through
    ``os._exit``, so none of the caller's code after this call runs in it.
    The exception of the earliest failing item is raised here, and a child
    that ends without a result raises :class:`WorkerError`.  Every child is
    reaped before this returns or raises; on an error the children not yet
    reaped are killed first.
    """
    if len(items) < 2:
        return [work(item) for item in items]
    workers: list[Worker] = []
    try:
        for item in items[1:]:
            workers.append(Worker(work, item))
        return [work(items[0]), *(worker.reap() for worker in workers)]
    finally:
        for worker in workers:
            worker.reap(kill=True)


class Worker:
    """``work(item)`` started in a forked child (:func:`_run_child`): its
    pid, and the pipe its result comes back through."""

    def __init__(self, work: Callable[[T], R], item: T):
        sys.stdout.flush()
        sys.stderr.flush()
        parent = os.getpid()
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            _run_child(work, item, write_fd, parent)
        os.close(write_fd)
        self.pid = pid
        self._results = open(read_fd, "rb")
        self.reaped = False

    def reap(self, kill: bool = False):
        """Wait for the child, killed first with ``kill``, and unless killed
        return its result: its log records are handled here, its exception
        is raised, and no result raises :class:`WorkerError`.  Once the
        child is reaped, this does nothing."""
        if self.reaped:
            return None
        import signal  # not at module level: building its enums slows every start
        payload = b"" if kill else self._results.read()
        self._results.close()
        if kill:
            os.kill(self.pid, signal.SIGKILL)
        status = os.waitpid(self.pid, 0)[1]
        self.reaped = True
        if payload:
            ok, value, records = pickle.loads(payload)
            for record in records:
                logging.getLogger(record.name).handle(record)
            if not ok:
                raise value
            return value
        if not kill:
            raise WorkerError("a worker process ended without a result "
                              f"(exit status {os.waitstatus_to_exitcode(status)})")


# A pipe that holds a whole pickled block of synth's rows (``synth._BLOCK``
# rows, about 0.1 MB at 10k users): the child then draws the next block
# while this process takes in the last one, instead of the two taking turns
# at every 64 KiB.  Linux caps a pipe at 1 MiB unless the system allows more.
_PIPE_SIZE = 1 << 20


@contextmanager
def fork_items(produce: Callable[[Callable[[T], None]], object]) -> Iterator[Iterator[T]]:
    """Run ``produce(send)`` in a forked child, and yield here, in order,
    each item that it passes to ``send``: the ``with`` block gets an
    iterator of them.

    Each item crosses a pipe pickled.  The child is made and left as in
    :func:`fork_map`.  Once the child has closed the pipe it is reaped and
    its log records are handled here: its exception is raised from that
    last ``next``, and a child that ends without a result raises
    :class:`WorkerError`.  A block that ends cleanly before the last item
    takes the rest; one that raises kills the child.  Either way the child
    is reaped before this returns or raises.
    """
    import fcntl  # not at module level, as signal in Worker.reap
    read_fd, write_fd = os.pipe()
    try:
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, _PIPE_SIZE)
    except (AttributeError, OSError):
        pass  # still correct, with the two processes taking turns

    def child(_):
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:
            def send(item: T) -> None:
                pickle.dump(item, pipe, pickle.HIGHEST_PROTOCOL)
                pipe.flush()
            return produce(send)

    try:
        worker = Worker(child, None)
    except BaseException:
        os.close(read_fd)
        raise
    finally:
        os.close(write_fd)

    pipe = open(read_fd, "rb", buffering=_PIPE_SIZE)

    def items() -> Iterator[T]:
        while pipe.peek(1):
            try:
                item = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                break   # cut short: reaping tells why
            yield item
        worker.reap()

    rest = items()
    try:
        yield rest
        for _ in rest:
            pass
    finally:
        pipe.close()
        worker.reap(kill=True)


def remove_temporaries(directory: Path) -> None:
    """Remove the temporary files of :func:`open_atomic` from
    ``directory``: what a writer killed before the end of its block left."""
    for tmp in directory.glob(".*.tmp*"):
        tmp.unlink(missing_ok=True)


class _KeptRecords(logging.Handler):
    """Keeps every log record, its message formatted, to be pickled."""

    def __init__(self):
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        record.msg, record.args, record.exc_info = record.getMessage(), None, None
        self.records.append(record)


def _run_child(work: Callable[[T], R], item: T, write_fd: int, parent: int) -> None:
    """Run one item of :func:`fork_map` in a forked child; never returns."""
    status = 1
    try:
        _die_with(parent)
        kept = _KeptRecords()
        logging.root.handlers = [kept]
        try:
            outcome = (True, work(item))
        except Exception as exc:
            if not isinstance(exc, EchoauditError):
                traceback.print_exc()
            outcome = (False, exc)
        payload = pickle.dumps((*outcome, kept.records), pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _die_with(parent: int) -> None:
    """Have the kernel kill this process when ``parent`` ends, where Linux's
    ``prctl(PR_SET_PDEATHSIG)`` exists; leave at once if it already has."""
    import signal
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(1)


def write_json(out: str | Path | io.TextIOBase, obj) -> None:
    """Write ``obj`` as indented JSON with sorted keys to ``out``: a path,
    written all at once, or an open text file."""
    if isinstance(out, (str, Path)):
        with open_atomic(out) as fh:
            return write_json(fh, obj)
    json.dump(obj, out, indent=2, sort_keys=True)
    out.write("\n")


def _first_undecodable_line(path: Path) -> int:
    """Number of the first line that is not UTF-8, counting lines as text mode does."""
    lineno = 0
    with gzip.open(path, "rb") if path.suffix == ".gz" else open(path, "rb") as fh:
        for chunk in fh:
            # Binary iteration splits only at b"\n"; text mode also ends a
            # line at a lone b"\r", as splitlines() does.
            for line in chunk.splitlines():
                lineno += 1
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError:
                    return lineno
    return lineno


# Per record for the tests' reference; perfbench/tracer.py wraps it by name.
def parse_corpus(
    source: str | Path,
    schema: str = "flat",
    rejects: Optional[Counter] = None,
    span: Optional[Span] = None,
) -> Iterator[TweetRecord]:
    """Stream syntactically valid records from a newline-delimited file, or
    from one :class:`Span` of it.

    ``rejects`` (a ``Counter``) is filled with per-reason skip
    counts as the stream is consumed.  An unreadable file raises
    :class:`InputError`; a malformed line is skipped, never fatal.  Output
    order follows input order.
    """
    path, opened = _open_corpus(source, schema, span)
    if rejects is None:
        rejects = Counter()

    def _stream() -> Iterator[TweetRecord]:
        with opened as fh:
            first_line = 1 if span is None else span.first_line
            for lineno, line in enumerate(fh, start=first_line):
                rec = _parse_line(line, schema, rejects, path, lineno)
                if rec is not None:
                    yield rec

    return _stream()


def _open_corpus(source: str | Path, schema: str,
                 span: Optional[Span]) -> tuple[Path, ContextManager[io.TextIOBase]]:
    """The path of a corpus, and a context that opens it for reading."""
    if schema not in _SCHEMAS:
        raise InputError(f"unknown schema id: {schema!r}")
    path = Path(source)
    if not path.is_file():
        raise InputError(f"corpus file not found: {path}")
    return path, open_maybe_gzip(path, span=span)


def _parse_line(line: str, schema: str, rejects: Counter, path: Path,
                lineno: int) -> Optional[TweetRecord]:
    """The record of one corpus line, or ``None`` for a blank or rejected
    line, each reject counted in ``rejects``."""
    line = line.strip()
    if not line:
        return None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        rejects["invalid_json"] += 1
        log.debug("%s:%d: invalid JSON", path, lineno)
        return None
    except RecursionError:
        rejects["json_too_deep"] += 1
        log.debug("%s:%d: JSON nested too deep", path, lineno)
        return None
    if not isinstance(obj, dict):
        rejects["not_an_object"] += 1
        return None
    try:
        rec = _SCHEMAS[schema](obj, rejects)
    except ValueError as exc:
        rejects[str(exc)] += 1
        log.debug("%s:%d: %s", path, lineno, exc)
        return None
    if rec.is_self_retweet:
        rejects["self_retweet_kept"] += 1
    if rec.kind in ("retweet", "quote") and rec.retweeted_author_id is None:
        # Tolerated here; the graph stage skips and counts these.
        rejects["retweet_missing_target_kept"] += 1
    return rec


# Per record, like the two filters below: the tests' reference, and
# perfbench/tracer.py wraps each by name.
def apply_filters(
    records: Iterable[TweetRecord],
    corpus_filter: CorpusFilter = CorpusFilter(),
    exclusions: Optional[Counter] = None,
) -> Iterator[TweetRecord]:
    """Keep records with ``created_at >= min_date`` and an allowed language.

    Exclusion counts are tallied per reason (a record failing both checks is
    counted once, under the date reason).  Filtering is total and idempotent.
    """
    if exclusions is None:
        exclusions = Counter()
    for rec in records:
        if rec.created_at < corpus_filter.min_date:
            exclusions["before_min_date"] += 1
            continue
        if rec.lang not in corpus_filter.allowed_langs:
            exclusions["lang_not_allowed"] += 1
            continue
        exclusions["retained"] += 1
        yield rec


def engagement_subset(records: Iterable[TweetRecord]) -> Iterator[TweetRecord]:
    """Keep only the record kinds whose impressions measure audience reach."""
    return (rec for rec in records if rec.kind in KINDS_FOR_ENGAGEMENT)


def network_subset(records: Iterable[TweetRecord]) -> Iterator[TweetRecord]:
    """Keep only the record kinds that define interaction-network edges."""
    return (rec for rec in records if rec.kind in KINDS_FOR_NETWORK)


def tally(counts: Counter, reason: str, n: int) -> None:
    """Add ``n`` to ``counts[reason]``; a zero adds no row to the report."""
    if n:
        counts[reason] += n


def sorted_codes(vocab: Mapping[str, int]) -> tuple[list[str], np.ndarray]:
    """Ids in Python ``str`` order, and the rank of each code in that order.

    ``vocab`` maps each id to its code, codes numbering ids in insertion
    order.  Ids may hold any character (``\\x00`` included), so they are
    sorted as Python strings, not as NumPy ``U`` arrays.  The graph's node
    order and the originals table's subject order both come from here.
    """
    ids = sorted(vocab)
    # The codes come from the dict's own values, so no int is made per id.
    codes = np.fromiter(map(vocab.__getitem__, ids), dtype=np.int64, count=len(ids))
    rank = np.empty(len(ids), dtype=np.int64)
    rank[codes] = np.arange(len(ids))
    return ids, rank


def intern_ids(vocab: dict[str, int], ids: Collection[str]) -> np.ndarray:
    """The code of each id in ``vocab``, which numbers ids in insertion
    order; an id not yet in it is added, in the order of ``ids``."""
    # update() adds each pair before it draws the next, so a repeated new
    # id is in ``vocab`` by its second turn: the new ids get the next
    # codes in first-seen order, with no loop in Python.
    vocab.update(zip(filterfalse(vocab.__contains__, ids), count(len(vocab))))
    return np.fromiter(map(vocab.__getitem__, ids), dtype=np.int64, count=len(ids))


# Per record for the tests' reference; perfbench/tracer.py wraps it by name.
def write_corpus(records: Iterable[TweetRecord], out: str | Path | io.TextIOBase) -> int:
    """Serialize records back to the flat schema; returns the record count.

    ``out`` is a path, written all at once, or an open text file; each
    record is one :func:`flat_lines` line.
    """
    if isinstance(out, (str, Path)):
        with open_atomic(out) as fh:
            return write_corpus(records, fh)
    n = 0
    for rec in records:
        out.write(flat_lines((format_timestamp(rec.created_at),), ((
            rec.tweet_id, rec.author_id, rec.lang, rec.kind, rec.retweeted_author_id,
            rec.impressions, rec.likes, rec.replies, rec.retweets, rec.quotes,
            rec.urls, rec.author_followers),)))
        n += 1
    return n
