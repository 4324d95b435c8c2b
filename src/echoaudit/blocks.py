"""Block readers: a corpus or a CSV table decoded a block of text at a time.

:func:`corpus_columns` gives the records of :func:`ingest.parse_corpus` as
runs of :class:`CorpusColumns`.  It reads the text in blocks of whole
lines, each ``_BLOCK_CHARS`` characters and the rest of its last line.
One multiline match of the fixed layout of :func:`ingest.flat_lines`
(``_CANONICAL``, its only decoder) per block finds the lines in that layout
with a real date, and each run of them is decoded at once into NumPy and
list columns: ids, kinds, ``datetime64`` times, int64 counts, URL lists and
the line text.  Every other line is decoded as JSON by the per-line code of
:func:`ingest.parse_corpus`, the reference, which names ``file:line``; each
run of those lines gives the columns of its records, their lines formatted
as :func:`ingest.write_corpus` writes them.  Rejects and log lines are
those of :func:`ingest.parse_corpus`.

:func:`filter_columns` and :func:`write_corpus_columns` are
:func:`ingest.apply_filters` and :func:`ingest.write_corpus` over those
runs, with the same counts and bytes.  :func:`read_table` reads the CSV
tables of later stages the same way: a block whose every row is plain is
split into columns at once, any other block row by row.
:func:`write_columns` is its mirror, the CSV writer of every table but
the AE tables of :func:`engagement.write_engagement`.

These readers live apart from :mod:`ingest` to keep each module small: a
process compiles every module from source when no bytecode is cached, and
the compiler's memory peak grows with the module, so one larger module
raised every stage's peak RSS.
"""

from __future__ import annotations

import io
import operator
import re
from collections import Counter
from dataclasses import dataclass, fields
from datetime import timezone
from itertools import chain, compress, groupby, repeat
from pathlib import Path
from typing import Generator, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InputError
from .ingest import (KINDS, CorpusFilter, Span, TweetRecord, _open_corpus, _parse_line,
                     flat_lines, format_timestamp, open_atomic, open_maybe_gzip)

# The exact layout of a :func:`flat_lines` line whose every value JSON writes
# as itself and ingest accepts as it stands.  Strings are printable ASCII
# (``[ -~]``) without ``"`` or ``\``; ids are non-empty and also free of ``,``
# and of spaces at either end (``ingest._check_id``); ``lang`` is non-empty and
# free of ``A-Z``.  Counts have at most 15 digits, so each is below
# ``MAX_COUNT``; longer ones go to the JSON path.  The pattern is anchored
# at the ends of a line in multiline mode, with a first group for the whole
# line, so one ``findall`` finds every such line of a block of text.
_STR = r'[ !#-\[\]-~]'
_ID = r'[!#-+\--\[\]-~](?:[ !#-+\--\[\]-~]*[!#-+\--\[\]-~])?'
_N = r'(0|[1-9][0-9]{0,14})'
_CANONICAL = re.compile(
    '^('
    f'{{"author_followers": {_N}, '
    f'"author_id": "({_ID})", '
    r'"created_at": "([0-9]{4}-[0-9]{2}-[0-9]{2}'
    r'T(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9])Z", '
    f'"impressions": {_N}, '
    f'"kind": "(original|retweet|quote|reply)", '
    r'"lang": "([ !#-@\[\]-~]+)", '
    f'"likes": {_N}, '
    f'"quotes": {_N}, '
    f'"replies": {_N}, '
    f'"retweeted_author_id": (?:null|"({_ID})"), '
    f'"retweets": {_N}, '
    f'"tweet_id": "({_ID})", '
    f'"urls": \\[("{_STR}*"(?:, "{_STR}*")*)?\\]}}'
    ')$', re.M)


# Characters of text decoded and matched at a time by the block readers,
# before the rest of the last line.  Larger blocks decode no faster and
# hold more at once: with 1 MiB blocks each standalone stage peaked 4 to
# 13 MB higher on a 5,000-user corpus.
_BLOCK_CHARS = 1 << 16

_KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}
# Whether a record of each kind shares another's tweet.
_SHARED = np.array([kind in ("retweet", "quote") for kind in KINDS])

# The first second that ``datetime`` holds; NumPy also parses year 0.
_YEAR_ONE = np.datetime64("0001-01-01T00:00:00", "s")


@dataclass(frozen=True)
class CorpusColumns:
    """Records of a corpus as columns, in file order.

    ``created_at`` is UTC ``datetime64[us]``; ``kind`` is the ``int8`` index
    of each kind in :data:`KINDS`; the counts are ``int64``.  An empty or
    ``None`` ``retweeted_author_id`` means no target.  ``line`` holds each
    record's ``flat`` corpus line as :func:`write_corpus` writes it, without
    its line break.  For a record read in the fixed layout of
    :func:`flat_lines` that is the line read, and ``urls`` holds the text
    between the brackets of its URL list, which :meth:`url_lists` splits
    only when asked.
    """

    tweet_id: Sequence[str]
    author_id: Sequence[str]
    created_at: np.ndarray
    lang: Sequence[str]
    kind: np.ndarray
    retweeted_author_id: Sequence[Optional[str]]
    impressions: np.ndarray
    likes: np.ndarray
    replies: np.ndarray
    retweets: np.ndarray
    quotes: np.ndarray
    urls: Sequence[list[str] | str]
    author_followers: np.ndarray
    line: Sequence[str]

    def __len__(self) -> int:
        return len(self.kind)

    @classmethod
    def of_records(cls, records: Sequence[TweetRecord]) -> "CorpusColumns":
        """The columns of ``records``, each line formatted as
        :func:`write_corpus` formats it."""
        counts = np.array([[r.impressions, r.likes, r.replies, r.retweets, r.quotes,
                            r.author_followers] for r in records],
                          dtype=np.int64).reshape(-1, 6).T
        # JSON escapes every line break inside a string, so the text splits
        # into one line per record.
        lines = flat_lines([format_timestamp(r.created_at) for r in records], (
            (r.tweet_id, r.author_id, r.lang, r.kind, r.retweeted_author_id, r.impressions,
             r.likes, r.replies, r.retweets, r.quotes, r.urls, r.author_followers)
            for r in records)).split("\n")[:-1]
        return cls(
            [r.tweet_id for r in records], [r.author_id for r in records],
            np.array([r.created_at.replace(tzinfo=None) for r in records],
                     dtype="datetime64[us]"),
            [r.lang for r in records],
            np.array([_KIND_CODES[r.kind] for r in records], dtype=np.int8),
            [r.retweeted_author_id for r in records], *counts[:5],
            [r.urls for r in records], counts[5], lines)

    def take(self, rows: np.ndarray) -> "CorpusColumns":
        """The records where the boolean array ``rows`` is true."""
        if rows.all():
            return self
        keep = rows.tolist()
        return CorpusColumns(**{
            name: value[rows] if isinstance(value, np.ndarray) else list(compress(value, keep))
            for name, value in self.__dict__.items()})

    def url_lists(self, rows: Iterable[bool]) -> list[list[str]]:
        """The URLs of each record where ``rows`` is true, those of a
        fixed-layout line split from the text between its brackets."""
        return [urls if isinstance(urls, list) else urls[1:-1].split('", "') if urls else []
                for urls in compress(self.urls, rows)]

    def text(self) -> str:
        """The records' ``flat`` corpus lines, newlines included, as
        :func:`write_corpus` writes them."""
        return "\n".join([*self.line, ""])


def _matched_columns(matches: list[tuple], created_at: np.ndarray,
                     rejects: Counter) -> CorpusColumns:
    """The columns of consecutive ``_CANONICAL`` matches, whose times
    are ``created_at``; counts their records in ``rejects`` as
    :func:`parse_corpus` does."""
    (line, followers, author_id, _, impressions, kind, lang, likes, quotes, replies,
     retweeted, retweets, tweet_id, urls) = zip(*matches)
    # Each count is 1 to 15 ASCII digits, so the text parses exactly.
    counts = np.fromstring(",".join(chain(impressions, likes, replies, retweets, quotes,
                                          followers)),
                           dtype=np.int64, sep=",").reshape(6, -1)
    kinds = np.fromiter(map(_KIND_CODES.__getitem__, kind), np.int8, len(kind))
    shared = _SHARED[kinds]
    if shared.any():
        n = len(kinds)
        tally_rows(rejects, self_retweet_kept=shared & np.fromiter(
                       map(str.__eq__, retweeted, author_id), bool, n),
                   retweet_missing_target_kept=shared & np.fromiter(
                       map(operator.not_, retweeted), bool, n))
    return CorpusColumns(
        tweet_id, author_id, created_at.astype("datetime64[us]"), lang, kinds,
        retweeted, *counts[:5], urls, counts[5], line)


def _matched_times(matches: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """The ``created_at`` of each match as ``datetime64[s]``, and whether
    ``datetime`` holds it: the pattern also admits year 0 and days such as
    February 30."""
    text = [m[3] for m in matches]
    try:
        times = np.array(text, dtype="datetime64[s]")
    except ValueError:
        times = np.array([_datetime64_or_nat(t) for t in text], dtype="datetime64[s]")
    return times, times >= _YEAR_ONE


def _datetime64_or_nat(text: str) -> np.datetime64:
    try:
        return np.datetime64(text, "s")
    except ValueError:
        return np.datetime64("NaT", "s")


def _line_blocks(fh: io.TextIOBase) -> Iterator[str]:
    """The text of ``fh`` in blocks of whole lines: ``_BLOCK_CHARS``
    characters and the rest of the line they end in.  Only the last block
    may end without a line break."""
    while block := fh.read(_BLOCK_CHARS):
        if not block.endswith("\n"):
            block += fh.readline()
        yield block


def corpus_columns(
    source: str | Path | io.TextIOBase,
    schema: str = "flat",
    rejects: Optional[Counter] = None,
    span: Optional[Span] = None,
) -> Iterator[CorpusColumns]:
    """The records of :func:`parse_corpus`, with the same arguments, rejects
    and log lines, as runs of :class:`CorpusColumns` in file order.

    The text is read in blocks of whole lines.  In a ``flat`` corpus one
    multiline match of the fixed layout per block finds the lines in that
    layout whose date ``datetime`` holds, and each run of them is decoded
    into columns at once; every other line is decoded as JSON by
    :func:`parse_corpus`'s own per-line code, and each run of those lines
    gives the columns of its records.
    """
    path, opened = _open_corpus(source, schema, span)
    if rejects is None:
        rejects = Counter()

    def _stream() -> Iterator[CorpusColumns]:
        with opened as fh:
            lineno = 1 if span is None else span.first_line
            for text in _line_blocks(fh):
                lineno += yield from _block_columns(text, schema, rejects, path, lineno)

    return _stream()


def _block_columns(text: str, schema: str, rejects: Counter, path: Path,
                   lineno: int) -> Generator[CorpusColumns, None, int]:
    """Yield the runs of :func:`corpus_columns` in one block of text that
    starts at line ``lineno``; returns the block's number of line breaks."""
    matches = _CANONICAL.findall(text) if schema == "flat" else []
    times, valid = _matched_times(matches)
    # Every line matched when the matched lines and their breaks fill the
    # block.
    breaks = len(matches) - (not text.endswith("\n"))
    if (sum(map(len, map(operator.itemgetter(0), matches))) + breaks == len(text)
            and valid.all()):
        if matches:
            yield _matched_columns(matches, times, rejects)
        return breaks
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()
    # A line is matched when it is the next match's whole line, since equal
    # lines match alike; a match whose date ``datetime`` refuses is not.
    at, k = [], 0
    for line in lines:
        if k < len(matches) and line == matches[k][0]:
            at.append(k if valid[k] else None)
            k += 1
        else:
            at.append(None)
    for matched, run in groupby(range(len(lines)), key=lambda k: at[k] is not None):
        run = list(run)
        if matched:
            first, last = at[run[0]], at[run[-1]] + 1
            yield _matched_columns(matches[first:last], times[first:last], rejects)
            continue
        records = [rec for k in run
                   if (rec := _parse_line(lines[k], schema, rejects, path, lineno + k))
                   is not None]
        if records:
            yield CorpusColumns.of_records(records)
    return text.count("\n")


def filter_columns(
    runs: Iterable[CorpusColumns],
    corpus_filter: CorpusFilter = CorpusFilter(),
    exclusions: Optional[Counter] = None,
) -> Iterator[CorpusColumns]:
    """:func:`apply_filters` over runs of columns: the same records kept, in
    runs, and the same exclusion counts."""
    if exclusions is None:
        exclusions = Counter()
    min_date = np.datetime64(
        corpus_filter.min_date.astimezone(timezone.utc).replace(tzinfo=None), "us")
    allowed = corpus_filter.allowed_langs.__contains__
    for run in runs:
        dated = run.created_at >= min_date
        keep = dated & np.fromiter(map(allowed, run.lang), bool, len(run))
        tally_rows(exclusions, before_min_date=~dated, lang_not_allowed=dated & ~keep,
                   retained=keep)
        yield run.take(keep)


def write_corpus_columns(runs: Iterable[CorpusColumns],
                         out: str | Path | io.TextIOBase) -> int:
    """:func:`write_corpus` of runs of columns: the same bytes."""
    if isinstance(out, (str, Path)):
        with open_atomic(out) as fh:
            return write_corpus_columns(runs, fh)
    n = 0
    for run in runs:
        out.write(run.text())
        n += len(run)
    return n


def tally_rows(counts: Counter, **rows: np.ndarray) -> None:
    """:func:`tally` of each reason the rows where its boolean array is
    true, reasons first met first, as a tally one row at a time adds them."""
    met = sorted((int(where.argmax()), reason, int(np.count_nonzero(where)))
                 for reason, where in rows.items() if where.any())
    for _, reason, n in met:
        counts[reason] += n


def read_table(path: str | Path, header: Sequence[str],
               what: str) -> Iterator[tuple[int, tuple[list[str], ...]]]:
    """Yield the non-blank rows of a CSV table as ``(lineno, columns)``:
    rows on consecutive lines from line ``lineno``, one list per field.

    A block of text whose every line holds one field per name in ``header``
    and no surrounding whitespace comes as one item, split at once; each row
    of any other block comes alone, its surrounding whitespace stripped.
    A missing file, a header other than ``header``, a row with the wrong
    number of fields and a last line without a line break raise
    :class:`InputError`; all but the first name the file and line.  Every
    writer ends each line with a line break, so a file cut short is caught
    unless the cut falls just after one.  ``what`` names the file in those
    messages.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"{what} not found: {path}")
    expected = ",".join(header)
    width = len(header)
    with open_maybe_gzip(path) as fh:
        line = fh.readline()
        if line.strip() != expected:
            raise InputError(f"{path}:1: unexpected {what} header: {line.strip()!r}")
        rest = "" if line.endswith("\n") else line
        lineno = 1 if rest else 2
        for text in _line_blocks(fh):
            lines = text.split("\n")
            rest = lines.pop()
            if ("" not in lines and set(map(str.count, lines, repeat(","))) == {width - 1}
                    and lines == list(map(str.strip, lines))):
                fields = ",".join(lines).split(",")
                yield lineno, tuple(fields[k::width] for k in range(width))
                lineno += len(lines)
                continue
            for k, line in enumerate(lines, start=lineno):
                fields = line.strip().split(",")
                if fields == [""]:
                    continue
                if len(fields) != width:
                    raise InputError(f"{path}:{k}: expected {width} fields "
                                     f"({expected}), got {len(fields)}")
                yield k, tuple([f] for f in fields)
            lineno += len(lines)
        if rest:
            raise InputError(f"{path}:{lineno}: no line break at the end: "
                             f"the {what} is cut short")


# Rows formatted at a time by write_columns.
_WRITE_CHUNK = 8192


class Codes(NamedTuple):
    """A column of strings given as int ``codes`` into ``names``."""
    names: Sequence[str]
    codes: np.ndarray


def write_columns(out: str | Path | io.TextIOBase, header: Sequence[str],
                  columns: Sequence[np.ndarray | Sequence | Codes]) -> None:
    """Write a CSV table: ``header``, then one line per row of the equally
    long ``columns``, to a path all at once or to a text file opened with
    ``newline=""``.  Each field is ``str`` of its value (an integer's
    digits, a Python float's shortest round-trip text); ``None`` in a list
    is an empty field.  No field is quoted: ingest rejects ids holding ``,``
    or a line break.  Rows, and the names of :class:`Codes`, are formatted
    ``_WRITE_CHUNK`` at a time.
    """
    if isinstance(out, (str, Path)):
        with open_atomic(out, newline="") as fh:
            return write_columns(fh, header, columns)
    out.write(",".join(header) + "\n")
    for lo in range(0, len(getattr(columns[0], "codes", columns[0])), _WRITE_CHUNK):
        rows = slice(lo, lo + _WRITE_CHUNK)
        out.write("\n".join(map(",".join, zip(*[_texts(c, rows) for c in columns]))) + "\n")


def _texts(column: np.ndarray | Sequence | Codes, rows: slice) -> Iterable[str]:
    if isinstance(column, Codes):
        return map(column.names.__getitem__, column.codes[rows].tolist())
    values = column[rows]
    if isinstance(values, np.ndarray):
        return map(str, values.tolist())
    return ["" if v is None else str(v) for v in values]


def write_fields(out: str | Path | io.TextIOBase, records: Sequence, cls: type) -> None:
    """:func:`write_columns` of one column per field of the dataclass ``cls``,
    headed by the field names."""
    names = [f.name for f in fields(cls)]
    write_columns(out, names, [[getattr(r, name) for r in records] for name in names])


def write_count_report(counts: Counter, out: str | Path | io.TextIOBase) -> None:
    """Write a ``reason,count`` CSV sorted by reason, as :func:`write_columns` does."""
    reasons = sorted(counts)
    write_columns(out, ("reason", "count"), [reasons, [counts[r] for r in reasons]])
