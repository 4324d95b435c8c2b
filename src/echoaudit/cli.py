"""Command-line pipeline: synth -> ingest -> graph -> ideology -> engagement -> report.

Every stage reads and writes plain files (JSONL corpora, CSV tables, JSON
sidecars) so stages can be re-run or swapped independently.  Each
``cmd_<stage>`` loads its inputs from those files, computes, writes its
artifacts and returns what later stages need; an input passed in memory is
not read from its file.

``pipeline`` runs the whole chain into one output tree.  It reads the corpus
in one pass: while ingest writes ``filtered.jsonl`` it fills the table of
original tweets (their URLs resolved against the domain table) and the
retweet counts, and hands them, the graph and the scores from stage to
stage.  It still writes every intermediate, byte-identical to the files the
subcommands chained by hand would write.

Every read of a plain corpus (ingest's input, and the filtered corpus that
standalone ``graph``, ``engagement`` and ``report`` read) is split into one
line-aligned span per usable CPU, each span parsed by the same code, all but
the first in a forked child, and the parts merged in file order; engagement
deals its granularities out the same way, each worker aggregating and
writing one ``ae_*.csv`` table at a time.  With two or more
usable CPUs, ``pipeline`` also runs synth in a forked child that streams
each block of its corpus to ingest here as it writes it (ingest commits its
outputs only once synth has succeeded), makes the AE tables in one forked
worker while graph and ideology run here, and runs report in a forked child
beside the rest of engagement.  With one, its stages run one after another.

Given inputs and flags, every output is deterministic.  Counters, log lines
and each artifact that no BLAS reduction feeds are also the same at any
number of CPUs; the solver's scores, what is computed from them and the
log-Pearson correlations can differ in their last digits, since OpenBLAS
splits a long dot product or norm across as many threads as the CPU
affinity mask allows (README, "Cores").
"""

from __future__ import annotations

import argparse
import logging
import math
import shutil
import sys
from collections import Counter
from contextlib import ExitStack, suppress
from pathlib import Path
from typing import Iterator, Optional, Sequence, TextIO

from . import blocks as blk
from . import engagement as eng
from . import graph as gr
from . import ideology as ideo
from . import ingest as ing
from . import mediabias as mb
from .errors import EchoauditError, InputError

log = logging.getLogger("echoaudit")


def _checked(convert, ok, requirement: str):
    """An argparse ``type`` that converts a flag and range-checks it, so a
    bad value exits 2 with a usage message before anything is written."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    return parse


_POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_AT_LEAST_ONE = _checked(int, lambda v: v >= 1, "an integer >= 1")
_NON_NEGATIVE = _checked(int, lambda v: v >= 0, "an integer >= 0")


def _add_synth(sub) -> None:
    p = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    p.add_argument("--config", type=Path, help="generator config JSON")
    p.add_argument("--preset", choices=["default", "mini"], default="default")
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=cmd_synth)


def _synth_config(args):
    from . import synth  # not at module level: only synth and pipeline use it
    if args.config:
        return synth.config_from_json(args.config)
    if args.preset == "mini":
        return synth.mini_config()
    return synth.default_config()


def cmd_synth(args, config=None, stream: Optional[TextIO] = None) -> synth.SynthResult:
    """Generate the corpus; each block of its lines also goes to ``stream``."""
    from . import synth
    if config is None:
        config = _synth_config(args)
    if isinstance(config, synth.CalibrationConfig):
        result = synth.generate_calibration(config, args.out_dir, stream)
    else:
        result = synth.generate(config, args.out_dir, stream)
    log.info("wrote %d records to %s", result.n_records, result.corpus_path)
    return result


def _add_ingest(sub) -> None:
    p = sub.add_parser("ingest", help="parse, validate and filter a corpus")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--schema", choices=["flat", "api"], default="flat")
    p.add_argument("--min-date", default=None,
                   help="ISO timestamp; default: impression-metric cutoff")
    p.add_argument("--lang", action="append", default=None,
                   help="allowed language (repeatable; default: en)")
    p.add_argument("--rejects-out", type=Path, default=None)
    p.add_argument("--exclusions-out", type=Path, default=None)
    p.add_argument("--filtered-out", type=Path, required=True)
    p.set_defaults(func=cmd_ingest)


def _corpus_filter(args) -> ing.CorpusFilter:
    kwargs = {}
    if args.min_date:
        try:
            min_date = ing.parse_timestamp(args.min_date)
        except (ValueError, OverflowError) as exc:
            raise InputError(f"--min-date: {exc}") from None
        if min_date < ing.IMPRESSIONS_AVAILABLE_FROM:
            log.warning(
                "--min-date %s predates the impression-count metric (%s); "
                "engagement ratios over the extra range will be meaningless",
                args.min_date, ing.format_timestamp(ing.IMPRESSIONS_AVAILABLE_FROM),
            )
        kwargs["min_date"] = min_date
    if args.lang:
        kwargs["allowed_langs"] = frozenset(l.lower() for l in args.lang)
    return ing.CorpusFilter(**kwargs)


def _kept(runs: Iterator[blk.CorpusColumns], originals: eng.OriginalsTable,
          retweets: gr.RetweetCounts) -> Iterator[blk.CorpusColumns]:
    """Pass runs through, appending what the later pipeline stages read."""
    for run in runs:
        originals.extend_columns(run)
        retweets.extend_columns(run)
        yield run


def _merged(parts: Sequence):
    """The first part, with every later one appended in file order."""
    first, *rest = parts
    for part in rest:
        first.extend(part)
    return first


def cmd_ingest(args, keep: bool = False,
               domains: Optional[dict[str, mb.DomainProfile]] = None,
               corpus: Optional[TextIO] = None):
    """Filter the corpus into ``--filtered-out``, one span per usable CPU.

    With ``keep``, returns the table of retained original tweets (URLs
    resolved against ``domains``) and the retweet counts, gathered in the
    same pass that writes the filtered corpus.  ``corpus`` is an open text
    stream of ``--input`` (see :func:`ingest.fork_stream`), read here in one
    pass instead of the file.
    """
    corpus_filter = _corpus_filter(args)
    source = args.input if corpus is None else corpus
    spans = ing.corpus_spans(args.input) if corpus is None else [None]
    # No output is committed before every one is open, and the reports open
    # after the read, so an input error still comes first.
    with ExitStack() as outputs:
        outs = outputs.enter_context(ing.open_atomic_parts(args.filtered_out, len(spans)))

        def ingest_span(k: int):
            rejects: Counter = Counter()
            exclusions: Counter = Counter()
            runs = blk.filter_columns(
                blk.corpus_columns(source, schema=args.schema, rejects=rejects,
                                   span=spans[k]),
                corpus_filter,
                exclusions,
            )
            kept = None
            if keep:
                kept = eng.OriginalsTable(domains), gr.RetweetCounts()
                runs = _kept(runs, *kept)
            return blk.write_corpus_columns(runs, outs[k]), rejects, exclusions, kept

        written, span_rejects, span_exclusions, kept = zip(
            *ing.fork_map(ingest_span, range(len(spans))))
        rejects, exclusions = Counter(), Counter()
        for part_rejects, part_exclusions in zip(span_rejects, span_exclusions):
            rejects.update(part_rejects)
            exclusions.update(part_exclusions)
        for counts, path in ((rejects, args.rejects_out), (exclusions, args.exclusions_out)):
            if path:
                blk.write_count_report(counts, outputs.enter_context(
                    ing.open_atomic(path, newline="")))
    log.info("retained %d records (%s)", sum(written), dict(exclusions))
    if not keep:
        return None
    originals, retweets = zip(*kept)
    return _merged(originals), _merged(retweets)


def _add_graph(sub) -> None:
    p = sub.add_parser("graph", help="build the retweet network, select influencers")
    p.add_argument("--input", type=Path, required=True, help="filtered corpus")
    p.add_argument("--seeds", type=Path, required=True)
    p.add_argument("--min-indegree", type=_NON_NEGATIVE,
                   default=gr.DEFAULT_MIN_UNIQUE_IN_DEGREE)
    p.add_argument("--graph-out", type=Path, required=True)
    p.add_argument("--influencers-out", type=Path, required=True)
    p.add_argument("--ranking-out", type=Path, default=None)
    p.add_argument("--count-self-loops", action="store_true")
    p.set_defaults(func=cmd_graph)


def cmd_graph(args, retweets: Optional[gr.RetweetCounts] = None):
    """Build the graph and select influencers; returns both.

    ``retweets`` are counts gathered in memory; without them the graph is
    built from ``--input``.
    """
    seeds = gr.read_seeds(args.seeds)
    if retweets is None:
        retweets = _merged(ing.fork_map(
            lambda span: gr.RetweetCounts.from_columns(
                blk.corpus_columns(args.input, span=span)),
            ing.corpus_spans(args.input)))
    skipped = retweets.skipped
    g = retweets.graph(args.count_self_loops)
    influencers = gr.select_influencers(
        g, seeds, threshold=args.min_indegree, seed_source=str(args.seeds)
    )
    # Every output is opened before any is committed, so one that cannot be
    # written leaves none of them behind.
    with ExitStack() as outputs:
        graph_out = outputs.enter_context(ing.open_atomic(args.graph_out, newline=""))
        influencers_out = outputs.enter_context(ing.open_atomic(args.influencers_out))
        ranking_out = (outputs.enter_context(ing.open_atomic(args.ranking_out, newline=""))
                       if args.ranking_out else None)
        gr.write_edge_list(g, graph_out)
        influencers_out.writelines(uid + "\n" for uid in influencers)
        if ranking_out:
            order = gr.rank_by_in_degree(g)
            blk.write_columns(ranking_out, ("user_id", "unique_in_degree"),
                              [blk.Codes(g.node_ids, order), g.unique_in_degree[order]])
    log.info("graph: %d nodes, %d edges, %d influencers (skipped %s)",
             g.n_nodes, g.n_edges, len(influencers), dict(skipped))
    return g, influencers


def _add_ideology(sub) -> None:
    p = sub.add_parser("ideology", help="latent ideology scores")
    p.add_argument("--graph", type=Path, required=True, help="edge-list CSV")
    p.add_argument("--influencers", type=Path, required=True)
    p.add_argument("--anchor", default=None,
                   help="influencer fixed to the negative side "
                        "(default: the first influencer in the file that "
                        "keeps a matrix column)")
    p.add_argument("--min-distinct", type=_NON_NEGATIVE, default=ideo.DEFAULT_MIN_DISTINCT)
    p.add_argument("--tol", type=_POSITIVE, default=ideo.DEFAULT_TOL)
    p.add_argument("--seed", type=_NON_NEGATIVE, default=ideo.DEFAULT_SEED)
    p.add_argument("--max-iter", type=_AT_LEAST_ONE, default=ideo.DEFAULT_MAX_ITER)
    p.add_argument("--scores-out", type=Path, required=True)
    p.add_argument("--meta-out", type=Path, default=None)
    p.set_defaults(func=cmd_ideology)


def cmd_ideology(args, g: Optional[gr.RetweetGraph] = None,
                 influencers: Optional[Sequence[str]] = None) -> ideo.IdeologyScores:
    if g is None:
        g = gr.read_edge_list(args.graph)
    if influencers is None:
        influencers = gr.read_seeds(args.influencers)
    matrix = ideo.build_interaction_matrix(g, influencers,
                                           min_distinct=args.min_distinct)
    norm = ideo.normalize(matrix)
    triplet = ideo.leading_singular_triplet(
        norm, tol=args.tol, max_iter=args.max_iter, seed=args.seed
    )
    anchor = args.anchor or matrix.col_ids[0]
    scores = ideo.score_users_and_influencers(norm, triplet, anchor)
    # No output is committed before every one is open, as in cmd_ingest.
    with ExitStack() as outputs:
        ideo.write_scores(scores, outputs.enter_context(
            ing.open_atomic(args.scores_out, newline="")))
        if args.meta_out:
            ing.write_json(outputs.enter_context(ing.open_atomic(args.meta_out)), {
                "sigma1": scores.sigma1,
                "anchor_id": scores.anchor_id,
                "iterations": scores.iterations,
                "residual": scores.residual,
                "matrix_shape": list(matrix.shape),
                "nnz": matrix.nnz,
            })
    log.info("scored %d users, %d influencers (sigma1=%g, %d iterations)",
             len(scores.user_ids), len(scores.influencer_ids),
             scores.sigma1, scores.iterations)
    return scores


def _add_engagement(sub) -> None:
    p = sub.add_parser("engagement", help="active-engagement ratios and correlations")
    p.add_argument("--input", type=Path, required=True, help="filtered corpus")
    p.add_argument("--domains", type=Path, default=None)
    p.add_argument("--scores", type=Path, default=None, help="ideology scores CSV")
    p.add_argument("--granularity", choices=["tweet", "user", "domain", "all"],
                   default="all")
    p.add_argument("--group-by", action="append", default=None,
                   choices=["ideology", "reliability", "leaning"])
    p.add_argument("--fractional-domains", action="store_true",
                   help="split multi-domain tweets instead of full attribution")
    p.add_argument("--drop-zero-impressions", action="store_true")
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=cmd_engagement)


def _load_originals(args) -> eng.OriginalsTable:
    """Stream the corpus's original tweets into a table, one span per usable
    CPU, with the URLs resolved against ``--domains`` when given."""
    table = mb.load_domain_table(args.domains) if args.domains else None
    return _merged(ing.fork_map(
        lambda span: eng.OriginalsTable.from_columns(
            blk.corpus_columns(args.input, span=span), table),
        ing.corpus_spans(args.input)))


def _ae_tables(args, originals: eng.OriginalsTable,
               processes: int) -> tuple[Counter, dict[str, eng.SubjectAE]]:
    """Create ``--out-dir`` and write the AE table of each granularity that
    ``args`` asks for; returns the aggregation counters and, for each
    granularity that a ``--group-by`` reads, the subject ids and AE columns.

    The granularities are dealt in turn to one group per process, up to
    ``processes``, each group run by :func:`ingest.fork_map`.  A process
    aggregates and writes one table at a time and drops it before the next,
    so no process holds two tables.
    """
    wanted = (["tweet", "user", "domain"] if args.granularity == "all"
              else [args.granularity])
    ing.make_dir(args.out_dir)
    if "domain" in wanted and not originals.domains:
        log.warning("domain granularity requested %s; skipped",
                    "without --domains" if originals.domains is None
                    else f"but {args.domains} holds no domain")
        wanted.remove("domain")
    # The tables that a --group-by reads.
    grouped = {"user" if by == "ideology" else "domain" for by in args.group_by or []}

    def aggregate(granularities: list[str]):
        stats: Counter = Counter()
        kept: dict[str, eng.SubjectAE] = {}
        for granularity in granularities:
            records = eng.aggregate_ae(
                originals, granularity,
                fractional=args.fractional_domains and granularity == "domain",
                drop_zero_impressions=args.drop_zero_impressions,
                stats=stats,
            )
            eng.write_engagement(records, args.out_dir / f"ae_{granularity}.csv")
            if granularity in grouped:
                kept[granularity] = eng.SubjectAE(records.subject_ids, records.ae)
            del records  # before the next table is made
        return stats, kept

    n = min(processes, len(wanted))
    try:
        parts = ing.fork_map(aggregate, [wanted[k::n] for k in range(n)])
    except BaseException:
        # A worker killed while writing leaves its temporary file.
        ing.remove_temporaries(args.out_dir)
        raise
    stats: Counter = Counter()
    results: dict[str, eng.SubjectAE] = {}
    for part_stats, kept in parts:
        stats.update(part_stats)
        results.update(kept)
    return stats, results


def cmd_engagement(args, originals: Optional[eng.OriginalsTable] = None,
                   scores: Optional[ideo.IdeologyScores] = None,
                   tables: Optional[ing.Worker] = None) -> None:
    """Write the AE tables, the correlations and the group summaries.

    The AE tables are made by :func:`_ae_tables`, here or, given
    ``tables``, by that worker, started earlier on the same arguments and
    reaped here.
    """
    # Read every input before creating the output directory, so a bad input
    # leaves nothing behind.
    if originals is None:
        originals = _load_originals(args)
    table = originals.domains
    if (scores is None and "ideology" in (args.group_by or [])
            and args.scores and args.granularity in ("user", "all")):
        scores = ideo.read_scores(args.scores)
    stats, results = (_ae_tables(args, originals, ing.usable_cpus()) if tables is None
                      else tables.reap())

    reports = []
    for action in eng.ACTIONS:
        try:
            reports.append(eng.correlation_report(originals, action))
        except EchoauditError as exc:
            log.warning("correlation for %s unavailable: %s", action, exc)
    eng.write_correlations(reports, args.out_dir / "correlations.csv")

    if table:
        leanings = mb.user_leaning(originals)
        blk.write_columns(args.out_dir / "user_leanings.csv", leanings._fields, leanings)

    for group_by in args.group_by or []:
        if group_by == "ideology":
            if scores is None:
                log.warning("--group-by ideology needs --scores and user granularity")
                continue
            groups = {
                uid: ("negative" if score < 0 else "positive")
                for uid, score in zip(scores.user_ids, scores.user_score.tolist())
            }
            summaries = eng.group_ae(results["user"], groups)
        else:
            if "domain" not in results:
                log.warning("--group-by %s needs domain granularity%s", group_by,
                            "" if table is None or table
                            else f"; {args.domains} holds no domain")
                continue
            if group_by == "reliability":
                groups = {d: p.reliability for d, p in table.items()}
            else:
                groups = {
                    d: p.leaning_label for d, p in table.items()
                    if p.leaning_label is not None
                }
            summaries = eng.group_ae(results["domain"], groups)
        eng.write_group_summaries(summaries, args.out_dir / f"groups_{group_by}.csv")

    blk.write_count_report(stats, args.out_dir / "engagement_stats.csv")


def _add_report(sub) -> None:
    p = sub.add_parser("report", help="plot-ready histograms and density grids")
    p.add_argument("--input", type=Path, required=True, help="filtered corpus")
    p.add_argument("--graph", type=Path, required=True, help="edge-list CSV")
    p.add_argument("--scores", type=Path, required=True, help="ideology scores CSV")
    p.add_argument("--domains", type=Path, default=None)
    # cmd_report fills in these four defaults, so that parsing does not import report.
    p.add_argument("--bins", type=_AT_LEAST_ONE)
    p.add_argument("--hist-bins", type=_AT_LEAST_ONE)
    p.add_argument("--top-k", type=_NON_NEGATIVE)
    p.add_argument("--min-shares", type=_NON_NEGATIVE)
    p.add_argument("--in-neighbors", action="store_true",
                   help="use in-neighbors for the echo grid")
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=cmd_report)


def cmd_report(args, originals: Optional[eng.OriginalsTable] = None,
               g: Optional[gr.RetweetGraph] = None,
               scores: Optional[ideo.IdeologyScores] = None) -> None:
    from . import report as rep  # not at module level: only report uses it
    bins = rep.DEFAULT_GRID_BINS if args.bins is None else args.bins
    hist_bins = rep.DEFAULT_HIST_BINS if args.hist_bins is None else args.hist_bins
    top_k = rep.DEFAULT_TOP_INFLUENCERS if args.top_k is None else args.top_k
    min_shares = rep.DEFAULT_MIN_SHARES if args.min_shares is None else args.min_shares
    # Read every input before creating the output directory, so a bad input
    # leaves nothing behind.
    if scores is None:
        scores = ideo.read_scores(args.scores)
    if not scores.user_ids:
        raise InputError(f"{args.scores}: no user scores; nothing to report")
    if g is None:
        g = gr.read_edge_list(args.graph)
    if originals is None:
        originals = _load_originals(args)
    ing.make_dir(args.out_dir)

    hist = rep.ideology_histograms(scores, bins=hist_bins, g=g, top_k=top_k)
    rep.write_histogram(hist, args.out_dir / "ideology_histograms.csv")

    grid = rep.neighbor_opinion_grid(scores, g, bins=bins,
                                     use_in_neighbors=args.in_neighbors)
    rep.write_grid(grid, args.out_dir / "neighbor_grid.csv",
                   args.out_dir / "neighbor_grid.json")

    densities = rep.ae_followers_density(originals, bins=bins)
    for action, density in sorted(densities.items()):
        rep.write_grid(density, args.out_dir / f"ae_density_{action}.csv",
                       args.out_dir / f"ae_density_{action}.json")

    if originals.domains is not None:
        class_counts = mb.user_class_counts(originals)
        per_class = rep.leaning_ideology_distributions(
            scores, class_counts, min_shares=min_shares, bins=hist_bins,
        )
        for label, series in sorted(per_class.items()):
            rep.write_histogram(
                series, args.out_dir / f"leaning_hist_{label.lower()}.csv"
            )

    ing.write_json(args.out_dir / "summary.json", {
        "user_dip": hist.meta["user_dip"],
        "dip_threshold_p01": rep.dip_threshold(hist.meta["n_users"], 0.01),
        "n_users": hist.meta["n_users"],
        "n_influencers": hist.meta["n_influencers"],
        "diagonal_mass_share": grid.meta["diagonal_mass_share"],
        "neighbor_grid_total": grid.total(),
    })


def _add_pipeline(sub) -> None:
    p = sub.add_parser("pipeline", help="run the full chain into one directory")
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--preset", choices=["default", "mini"], default="default")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--min-indegree", type=_NON_NEGATIVE, default=None,
                   help="default: scaled to the preset")
    p.add_argument("--anchor", default=None)
    p.add_argument("--seed", type=_NON_NEGATIVE, default=ideo.DEFAULT_SEED,
                   help="solver seed")
    p.set_defaults(func=cmd_pipeline)


def cmd_pipeline(args) -> None:
    """Run every stage with the flags of the hand-run chain.

    Each stage gets the arguments its subcommand would parse from the argv
    below, and takes from memory what an earlier stage produced: the corpus
    is parsed once, and the graph and scores are not read back.  With two
    or more usable CPUs, synth runs in a forked child while ingest reads its
    corpus here as it is written; a forked worker makes the AE tables while
    graph and ideology run here; and report runs in a forked child while
    the rest of engagement runs here, after reaping the table worker.  With
    one, the stages run one after another.
    """
    # A bad config fails before the output tree exists.
    config = _synth_config(args)
    config.validate()
    out = args.out_dir
    ing.make_dir(out)
    stage_args = _parser().parse_args
    side_by_side = ing.usable_cpus() > 1

    synth_dir = out / "synth"
    synth_argv = ["synth", "--out-dir", str(synth_dir), "--preset", args.preset]
    if args.config:
        synth_argv += ["--config", str(args.config)]
    synth_args = stage_args(synth_argv)
    ingest_dir = out / "ingest"
    ingest_args = stage_args([
        "ingest", "--input", str(synth_dir / "corpus.jsonl"),
        "--filtered-out", str(ingest_dir / "filtered.jsonl"),
        "--rejects-out", str(ingest_dir / "rejects.csv"),
        "--exclusions-out", str(ingest_dir / "exclusions.csv"),
    ])

    def ingest(corpus: Optional[TextIO] = None):
        table = mb.load_domain_table(synth_dir / "domains.csv")
        ing.make_dir(ingest_dir)
        return cmd_ingest(ingest_args, keep=True, domains=table, corpus=corpus)

    if side_by_side:
        made = not ingest_dir.exists()
        try:
            with ing.fork_stream(lambda stream: cmd_synth(synth_args, config, stream),
                                 ingest_args.input) as corpus:
                # Synth writes domains.csv before its first corpus line.
                corpus.buffer.peek(1)
                originals, retweets = ingest(corpus)
        except BaseException:
            # A synth child killed while writing leaves its temporary file;
            # ingest's directory, made before synth ended, goes if empty.
            ing.remove_temporaries(synth_dir)
            if made:
                with suppress(OSError):
                    ingest_dir.rmdir()
            raise
    else:
        cmd_synth(synth_args, config)
        originals, retweets = ingest()

    min_indegree = args.min_indegree
    if min_indegree is None:
        min_indegree = 20 if args.preset == "mini" else 100

    graph_dir = out / "graph"
    ideology_dir = out / "ideology"
    engagement_dir = out / "engagement"
    report_dir = out / "report"
    engagement_args = stage_args([
        "engagement", "--input", str(ingest_dir / "filtered.jsonl"),
        "--domains", str(synth_dir / "domains.csv"),
        "--scores", str(ideology_dir / "scores.csv"),
        "--granularity", "all",
        "--group-by", "ideology", "--group-by", "reliability",
        "--group-by", "leaning",
        "--out-dir", str(engagement_dir),
    ])
    # The AE tables need only the originals: with two or more usable CPUs
    # one worker makes them while the graph and the scores are made here.
    made = not engagement_dir.exists()
    tables = (ing.Worker(lambda flags: _ae_tables(flags, originals, 1), engagement_args)
              if side_by_side else None)
    try:
        ing.make_dir(graph_dir)
        g, influencers = cmd_graph(stage_args([
            "graph", "--input", str(ingest_dir / "filtered.jsonl"),
            "--seeds", str(synth_dir / "seeds.txt"),
            "--min-indegree", str(min_indegree),
            "--graph-out", str(graph_dir / "graph.csv"),
            "--influencers-out", str(graph_dir / "influencers.txt"),
            "--ranking-out", str(graph_dir / "ranking.csv"),
        ]), retweets)
        # The graph holds all that later stages need of the counts.
        del retweets

        ing.make_dir(ideology_dir)
        ideology_argv = [
            "ideology", "--graph", str(graph_dir / "graph.csv"),
            "--influencers", str(graph_dir / "influencers.txt"),
            "--seed", str(args.seed),
            "--scores-out", str(ideology_dir / "scores.csv"),
            "--meta-out", str(ideology_dir / "meta.json"),
        ]
        if args.anchor:
            ideology_argv += ["--anchor", args.anchor]
        scores = cmd_ideology(stage_args(ideology_argv), g, influencers)
    except BaseException:
        if tables is not None:
            # Engagement has not begun, so what the table worker made goes,
            # as if it had never run: the directory if this run made it,
            # else the temporary file that a kill while writing leaves.
            tables.reap(kill=True)
            if made:
                shutil.rmtree(engagement_dir, ignore_errors=True)
            else:
                ing.remove_temporaries(engagement_dir)
        raise

    report_args = stage_args([
        "report", "--input", str(ingest_dir / "filtered.jsonl"),
        "--graph", str(graph_dir / "graph.csv"),
        "--scores", str(ideology_dir / "scores.csv"),
        "--domains", str(synth_dir / "domains.csv"),
        "--out-dir", str(report_dir),
    ])
    # Engagement runs first (here, as item 0), so its log records, the
    # table worker's among them, come first.
    last_stages = [
        lambda: cmd_engagement(engagement_args, originals, scores, tables),
        lambda: cmd_report(report_args, originals, g, scores)]
    if side_by_side:
        try:
            ing.fork_map(lambda stage: stage(), last_stages)
        except BaseException:
            # A report child or the table worker, killed while writing,
            # leaves its temporary file.
            tables.reap(kill=True)
            ing.remove_temporaries(engagement_dir)
            ing.remove_temporaries(report_dir)
            raise
    else:
        for stage in last_stages:
            stage()


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echoaudit",
        description="retweet-network ideology and hidden-audience analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_synth(sub)
    _add_ingest(sub)
    _add_graph(sub)
    _add_ideology(sub)
    _add_engagement(sub)
    _add_report(sub)
    _add_pipeline(sub)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                            format="%(levelname)s %(name)s: %(message)s")
    try:
        args.func(args)
    except EchoauditError as exc:
        parser.exit(2, f"error: {exc}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
