"""In-process span tracer for one echoaudit command, applied from outside.

Run as ``python3 perfbench/tracer.py SPANS_OUT RUN_ID -- <echoaudit argv>``.
It replaces the public functions of each echoaudit module (and
``RetweetGraph.index_of`` and the ``NormalizedMatrix`` products on their
classes) with timing wrappers, calls ``echoaudit.cli.main(argv)`` and writes
the spans it kept in memory to SPANS_OUT when the command ends.  The program
itself is not changed.

Each wrapper records a span (name, start, end, parent, run id) and a count at
the call boundary.  Self time is a span's busy time minus the time of the
spans nested inside it, tracked with a stack, so lazy generators are charged
for their own iteration rather than to whichever function consumes them.

Three kinds of wrapper:

* ``call``  one span per call (one per caller span when ``aggregate``);
* ``iter``  the function returns a lazy iterator; its span covers the time
            spent inside ``next()``, and its count is the items yielded;
* ``probe`` a per-item helper called inside a layer function's loop
            (``index_of``, the operator products, ``extract_domain``).  Its
            time and calls are recorded, but it is not subtracted from the
            caller's self time: the caller owns the loop that makes the calls.

``layer_metrics`` folds the spans of every process of one traced run into the
per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "busy", "nested",
                 "calls", "probe", "cpu", "rss_mb")

    def __init__(self, sid, name, parent, probe=False):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = None
        self.end = None
        self.busy = 0.0
        self.nested = 0.0
        self.calls = 0
        self.probe = probe
        self.cpu = None
        self.rss_mb = None


class Tracer:
    """Spans and counts of one process, kept in memory until ``dump``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.distinct_urls: set = set()
        self.table_domains: frozenset = frozenset()
        self._stack: list[list] = []          # [span, entered_at, nested_time]
        self._aggregates: dict[tuple, Span] = {}

    def current(self):
        return self._stack[-1][0].id if self._stack else None

    def new_span(self, name, probe=False, aggregate=False):
        parent = self.current()
        if aggregate:
            span = self._aggregates.get((name, parent))
            if span is not None:
                return span
        span = Span(len(self.spans), name, parent, probe)
        self.spans.append(span)
        if aggregate:
            self._aggregates[(name, parent)] = span
        return span

    def enter(self, span):
        now = _clock()
        if span.start is None:
            span.start = now
        self._stack.append([span, now, 0.0])

    def leave(self):
        span, entered, nested = self._stack.pop()
        now = _clock()
        took = now - entered
        span.end = now
        span.busy += took
        span.nested += nested
        if self._stack and not span.probe:
            self._stack[-1][2] += took

    def dump(self, path: Path) -> None:
        spans = [
            {
                "id": s.id, "name": s.name, "parent": s.parent,
                "run_id": self.run_id, "pid": os.getpid(),
                "start": s.start, "end": s.end, "busy_s": s.busy,
                "self_s": s.busy - s.nested, "calls": s.calls,
                "probe": s.probe, "cpu_s": s.cpu, "rss_mb": s.rss_mb,
            }
            for s in self.spans if s.start is not None
        ]
        payload = {"run_id": self.run_id, "spans": spans,
                   "counts": dict(self.counts),
                   "distinct_urls": sorted(self.distinct_urls)}
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


class _TimedIter:
    """Charges the time spent inside ``next()`` to one span."""

    def __init__(self, tracer, span, it):
        self._tracer = tracer
        self._span = span
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        self._tracer.enter(self._span)
        try:
            item = next(self._it)
        finally:
            self._tracer.leave()
        self._span.calls += 1
        return item


def _counted(it, counts, key):
    for item in it:
        counts[key] += 1
        yield item


def _wrap(tracer, name, fn, kind="call", aggregate=False, inspect=None,
          cli=False):
    probe = kind == "probe"

    def wrapper(*args, **kwargs):
        span = tracer.new_span(name, probe=probe, aggregate=aggregate or probe)
        if kind == "iter":
            return _TimedIter(tracer, span, fn(*args, **kwargs))
        span.calls += 1
        cpu0 = time.process_time() if cli else None
        tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave()
            if cli:
                span.cpu = time.process_time() - cpu0
                span.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if inspect is not None:
            inspect(tracer, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _count_input(tracer, fn, key):
    """Wrap a function so the items of its first argument are counted."""

    def wrapper(records, *args, **kwargs):
        return fn(_counted(records, tracer.counts, key), *args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


# ---------------------------------------------------------------------------
# Result inspectors: counts taken at the same boundary as the span.
# ---------------------------------------------------------------------------

def _synth_records(tracer, args, result):
    tracer.counts["synth.records"] += result.n_records


def _graph_size(tracer, args, g):
    tracer.counts["graph.nodes"] = max(tracer.counts["graph.nodes"], g.n_nodes)
    tracer.counts["graph.edges"] = max(tracer.counts["graph.edges"], g.n_edges)


def _matrix_size(tracer, args, m):
    rows, cols = m.shape
    if m.nnz >= tracer.counts["ideology.nnz"]:
        tracer.counts["ideology.nnz"] = m.nnz
        tracer.counts["ideology.rows"] = rows
        tracer.counts["ideology.cols"] = cols


def _solver(tracer, args, triplet):
    tracer.counts["ideology.iterations"] += triplet.iterations


def _domain_table(tracer, args, table):
    tracer.table_domains = frozenset(table) | tracer.table_domains


def _domain(tracer, args, domain):
    tracer.distinct_urls.add(args[0])
    if domain is not None and domain in tracer.table_domains:
        tracer.counts["mediabias.urls_in_table"] += 1


def _subjects(tracer, args, records):
    tracer.counts["engagement.subjects"] += len(records)


CLI_STAGES = ("synth", "ingest", "graph", "ideology", "engagement", "report")

# (module, attribute, span name, kind, aggregate, inspector)
_FUNCTIONS = [
    ("synth", "generate", "synth.generate", "call", False, _synth_records),
    ("synth", "generate_calibration", "synth.generate", "call", False, _synth_records),
    ("ingest", "parse_corpus", "ingest.parse_corpus", "iter", False, None),
    ("ingest", "apply_filters", "ingest.apply_filters", "iter", False, None),
    ("ingest", "engagement_subset", "ingest.engagement_subset", "iter", False, None),
    ("ingest", "network_subset", "ingest.network_subset", "iter", False, None),
    ("ingest", "write_corpus", "ingest.write_corpus", "call", False, None),
    ("graph", "build_graph", "graph.build_graph", "call", False, _graph_size),
    ("graph", "write_edge_list", "graph.write_edge_list", "call", False, None),
    ("graph", "read_edge_list", "graph.read_edge_list", "call", False, _graph_size),
    ("graph", "select_influencers", "graph.select_influencers", "call", False, None),
    ("ideology", "build_interaction_matrix", "ideology.build_interaction_matrix",
     "call", False, _matrix_size),
    ("ideology", "normalize", "ideology.normalize", "call", False, None),
    ("ideology", "leading_singular_triplet", "ideology.solve", "call", False, _solver),
    ("ideology", "score_users_and_influencers", "ideology.score", "call", False, None),
    ("ideology", "write_scores", "ideology.write_scores", "call", False, None),
    ("ideology", "read_scores", "ideology.read_scores", "call", False, None),
    ("mediabias", "load_domain_table", "mediabias.load_domain_table", "call", False,
     _domain_table),
    ("mediabias", "extract_domain", "mediabias.extract_domain", "probe", False, _domain),
    ("mediabias", "user_leaning", "mediabias.user_leaning", "call", True, None),
    ("mediabias", "user_class_counts", "mediabias.user_class_counts", "call", False, None),
    ("engagement", "aggregate_ae", "engagement.aggregate_ae", "call", False, _subjects),
    ("engagement", "correlation_report", "engagement.correlation_report", "call",
     False, None),
    ("engagement", "group_ae", "engagement.group_ae", "call", False, None),
    ("engagement", "write_engagement", "engagement.write", "call", False, None),
    ("engagement", "write_correlations", "engagement.write", "call", False, None),
    ("engagement", "write_group_summaries", "engagement.write", "call", False, None),
    ("report", "neighbor_opinion_grid", "report.neighbor_opinion_grid", "call",
     False, None),
    ("report", "ideology_histograms", "report.ideology_histograms", "call", False, None),
    ("report", "ae_followers_density", "report.ae_followers_density", "call",
     False, None),
    ("report", "leaning_ideology_distributions",
     "report.leaning_ideology_distributions", "call", False, None),
    ("report", "write_grid", "report.write", "call", False, None),
    ("report", "write_histogram", "report.write", "call", False, None),
    # report binds dip_statistic by name at import, so patch both modules.
    ("dip", "dip_statistic", "dip.dip_statistic", "call", False, None),
    ("report", "dip_statistic", "dip.dip_statistic", "call", False, None),
]

# (module, class, method, span name)
_PROBES = [
    ("graph", "RetweetGraph", "index_of", "graph.index_of"),
    ("ideology", "NormalizedMatrix", "matvec", "ideology.matvec"),
    ("ideology", "NormalizedMatrix", "rmatvec", "ideology.matvec"),
]


def install(tracer: Tracer) -> None:
    """Replace the traced functions of the echoaudit modules with wrappers."""
    import importlib

    for mod_name, attr, name, kind, aggregate, inspect in _FUNCTIONS:
        mod = importlib.import_module(f"echoaudit.{mod_name}")
        setattr(mod, attr, _wrap(tracer, name, getattr(mod, attr), kind,
                                 aggregate, inspect))
    # retained_ratio needs the records entering the filter; the counting
    # generator's hop per record is charged to the filter's self time.
    ing = importlib.import_module("echoaudit.ingest")
    ing.apply_filters = _count_input(tracer, ing.apply_filters, "ingest.filter_input")
    for mod_name, cls_name, attr, name in _PROBES:
        cls = getattr(importlib.import_module(f"echoaudit.{mod_name}"), cls_name)
        setattr(cls, attr, _wrap(tracer, name, getattr(cls, attr), "probe"))
    cli = importlib.import_module("echoaudit.cli")
    for stage in CLI_STAGES + ("pipeline",):
        attr = f"cmd_{stage}"
        setattr(cli, attr, _wrap(tracer, f"cli.{stage}", getattr(cli, attr),
                                 cli=True))


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _flops_per_product(nnz: int, rows: int, cols: int) -> int:
    # W v gathers and multiplies nnz entries and sums them into rows; the
    # rank-one correction costs a dot product over cols and an axpy over rows
    # (the transposed product is symmetric in these terms).
    return 2 * nnz + 2 * (rows + cols)


def _bytes_per_product(nnz: int, rows: int, cols: int) -> int:
    # float64 data, int64 indices and one gathered input value per entry;
    # int64 indptr; sqrt_r, sqrt_c, input and output vectors once each.
    return 24 * nnz + 8 * (rows + 1) + 8 * (2 * rows + 2 * cols)


_SIZE_COUNTS = {"graph.nodes", "graph.edges", "ideology.nnz", "ideology.rows",
                "ideology.cols"}


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Fold the span dumps of every process of one traced run into metrics."""
    spans = [s for t in traces for s in t["spans"]]
    counts: Counter = Counter()
    for t in traces:
        for key, value in t["counts"].items():
            # Sizes of the one graph and matrix that several processes read.
            if key in _SIZE_COUNTS:
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    distinct_urls = len(set().union(*(t["distinct_urls"] for t in traces)))

    def of(name):
        return [s for s in spans if s["name"] == name]

    def self_s(name):
        return sum(s["self_s"] for s in of(name))

    def calls(name):
        return sum(s["calls"] for s in of(name))

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for stage in CLI_STAGES:
        stage_spans = of(f"cli.{stage}")
        m[f"cli.{stage}_s"] = sum(s["busy_s"] for s in stage_spans)
        m[f"cli.{stage}_cpu_s"] = sum(s["cpu_s"] for s in stage_spans)
        m[f"cli.{stage}_rss_mb"] = max((s["rss_mb"] for s in stage_spans),
                                       default=0.0)

    m["synth.generate_s"] = self_s("synth.generate")
    m["synth.records"] = counts["synth.records"]

    parsed = calls("ingest.parse_corpus")
    m["ingest.parse_corpus_s"] = self_s("ingest.parse_corpus")
    m["ingest.parse_passes"] = len(of("ingest.parse_corpus"))
    m["ingest.records_parsed"] = parsed
    m["ingest.parse_us_per_record"] = ratio(m["ingest.parse_corpus_s"] * 1e6, parsed)
    m["ingest.apply_filters_s"] = self_s("ingest.apply_filters")
    m["ingest.write_corpus_s"] = self_s("ingest.write_corpus")
    m["ingest.retained_ratio"] = ratio(calls("ingest.apply_filters"),
                                       counts["ingest.filter_input"])

    for fn in ("build_graph", "write_edge_list", "read_edge_list",
               "select_influencers"):
        m[f"graph.{fn}_s"] = self_s(f"graph.{fn}")
    m["graph.index_of_calls"] = calls("graph.index_of")
    m["graph.index_of_s"] = self_s("graph.index_of")
    m["graph.nodes"] = counts["graph.nodes"]
    m["graph.edges"] = counts["graph.edges"]

    for fn in ("build_interaction_matrix", "normalize", "solve"):
        m[f"ideology.{fn}_s"] = self_s(f"ideology.{fn}")
    m["ideology.iterations"] = counts["ideology.iterations"]
    products = calls("ideology.matvec")
    m["ideology.matvec_calls"] = products
    for fn in ("score", "write_scores", "read_scores"):
        m[f"ideology.{fn}_s"] = self_s(f"ideology.{fn}")
    nnz, rows, cols = (counts["ideology.nnz"], counts["ideology.rows"],
                       counts["ideology.cols"])
    m["ideology.nnz"] = nnz
    m["ideology.solve_flops"] = products * _flops_per_product(nnz, rows, cols)
    m["ideology.solve_bytes"] = products * _bytes_per_product(nnz, rows, cols)

    domain_calls = calls("mediabias.extract_domain")
    m["mediabias.extract_domain_calls"] = domain_calls
    m["mediabias.extract_domain_s"] = self_s("mediabias.extract_domain")
    m["mediabias.extract_domain_reuse"] = ratio(domain_calls, distinct_urls)
    m["mediabias.url_match_ratio"] = ratio(counts["mediabias.urls_in_table"],
                                           domain_calls)
    m["mediabias.user_leaning_s"] = self_s("mediabias.user_leaning")
    m["mediabias.user_class_counts_s"] = self_s("mediabias.user_class_counts")

    m["engagement.aggregate_ae_s"] = self_s("engagement.aggregate_ae")
    m["engagement.subjects"] = counts["engagement.subjects"]
    for fn in ("correlation_report", "group_ae", "write"):
        m[f"engagement.{fn}_s"] = self_s(f"engagement.{fn}")

    for fn in ("neighbor_opinion_grid", "ideology_histograms",
               "ae_followers_density", "leaning_ideology_distributions", "write"):
        m[f"report.{fn}_s"] = self_s(f"report.{fn}")
    m["dip.dip_statistic_s"] = self_s("dip.dip_statistic")
    return m


def largest_self_time(traces: list[dict]) -> str:
    """Name of the non-probe, non-cli span name with the most self time."""
    totals: Counter = Counter()
    for t in traces:
        for s in t["spans"]:
            if not s["probe"] and not s["name"].startswith("cli."):
                totals[s["name"]] += s["self_s"]
    return totals.most_common(1)[0][0]


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_OUT RUN_ID -- <echoaudit argv>",
              file=sys.stderr)
        return 2
    spans_out, run_id, command = Path(argv[0]), argv[1], argv[3:]
    tracer = Tracer(run_id)
    install(tracer)
    from echoaudit import cli

    try:
        return cli.main(command)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
