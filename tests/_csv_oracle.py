"""Row-at-a-time readers of ``graph.csv`` and ``scores.csv``: the reference
that the block readers ``graph.read_edge_list`` and
``ideology.read_scores`` must match, value for value and error for error."""

from pathlib import Path

from echoaudit import graph as gr
from echoaudit import ideology as ideo
from echoaudit.errors import InputError
from echoaudit.ingest import MAX_COUNT, open_maybe_gzip

from _record_oracle import add_edge


def read_table(path, header, what):
    """Yield ``(lineno, fields)`` for each non-blank row of a CSV table."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"{what} not found: {path}")
    expected = ",".join(header)
    with open_maybe_gzip(path) as fh:
        lineno, line = 1, fh.readline()
        if line.strip() != expected:
            raise InputError(f"{path}:1: unexpected {what} header: {line.strip()!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.endswith("\n"):
                break
            text = line.strip()
            if not text:
                continue
            fields = text.split(",")
            if len(fields) != len(header):
                raise InputError(
                    f"{path}:{lineno}: expected {len(header)} fields "
                    f"({expected}), got {len(fields)}"
                )
            yield lineno, fields
        if not line.endswith("\n"):
            raise InputError(f"{path}:{lineno}: no line break at the end: "
                             f"the {what} is cut short")


def read_edge_list(path, count_self_loops=False):
    counts = gr.RetweetCounts()
    for lineno, (src, dst, w) in read_table(path, gr.EDGE_LIST_HEADER, "edge list"):
        if (not (w.isascii() and w.isdigit() and len(w) <= 16)
                or not 1 <= (wt := int(w)) <= MAX_COUNT):
            raise InputError(f"{path}:{lineno}: weight {w!r} is not an integer "
                             f"in [1, {MAX_COUNT}]")
        add_edge(counts, src, dst, wt)
    try:
        return counts.graph(count_self_loops)
    except gr.WeightOverflowError as exc:
        total = 0
        for lineno, (src, dst, w) in read_table(path, gr.EDGE_LIST_HEADER, "edge list"):
            if (src, dst) == exc.pair and (total := total + int(w)) > MAX_COUNT:
                raise InputError(f"{path}:{lineno}: {exc}") from None
        raise


def read_scores(path):
    users, influencers = {}, {}
    for lineno, (ident, kind, score, _raw) in read_table(path, ideo.SCORES_HEADER,
                                                          "scores file"):
        if kind == "user":
            target = users
        elif kind == "influencer":
            target = influencers
        else:
            raise InputError(f"{path}:{lineno}: unknown score kind {kind!r}")
        try:
            target[ident] = float(score)
        except ValueError:
            raise InputError(f"{path}:{lineno}: score {score!r} is not a number") from None
    return users, influencers
