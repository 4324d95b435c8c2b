"""Command-line pipeline: synth -> ingest -> graph -> ideology -> engagement -> report.

Every stage reads and writes plain files (JSONL corpora, CSV tables, JSON
sidecars) so stages can be re-run or swapped independently; ``pipeline`` runs
the whole chain into one output tree.  All outputs are deterministic given
inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections import Counter, defaultdict
from pathlib import Path

from . import engagement as eng
from . import graph as gr
from . import ideology as ideo
from . import ingest as ing
from . import mediabias as mb
from . import report as rep
from . import synth
from .errors import EchoauditError

log = logging.getLogger("echoaudit")


def _add_synth(sub) -> None:
    p = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    p.add_argument("--config", type=Path, help="generator config JSON")
    p.add_argument("--preset", choices=["default", "mini"], default="default")
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=cmd_synth)


def cmd_synth(args) -> None:
    if args.config:
        config = synth.config_from_json(args.config)
    elif args.preset == "mini":
        config = synth.mini_config()
    else:
        config = synth.default_config()
    if isinstance(config, synth.CalibrationConfig):
        result = synth.generate_calibration(config, args.out_dir)
    else:
        result = synth.generate(config, args.out_dir)
    log.info("wrote %d records to %s", result.n_records, result.corpus_path)


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
        min_date = ing.parse_timestamp(args.min_date)
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


def cmd_ingest(args) -> None:
    rejects: Counter = Counter()
    exclusions: Counter = Counter()
    corpus_filter = _corpus_filter(args)
    records = ing.apply_filters(
        ing.parse_corpus(args.input, schema=args.schema, rejects=rejects),
        corpus_filter,
        exclusions,
    )
    n = ing.write_corpus(records, args.filtered_out)
    if args.rejects_out:
        ing.write_count_report(rejects, args.rejects_out)
    if args.exclusions_out:
        ing.write_count_report(exclusions, args.exclusions_out)
    log.info("retained %d records (%s)", n, dict(exclusions))


def _add_graph(sub) -> None:
    p = sub.add_parser("graph", help="build the retweet network, select influencers")
    p.add_argument("--input", type=Path, required=True, help="filtered corpus")
    p.add_argument("--seeds", type=Path, required=True)
    p.add_argument("--min-indegree", type=int, default=gr.DEFAULT_MIN_UNIQUE_IN_DEGREE)
    p.add_argument("--graph-out", type=Path, required=True)
    p.add_argument("--influencers-out", type=Path, required=True)
    p.add_argument("--ranking-out", type=Path, default=None)
    p.add_argument("--count-self-loops", action="store_true")
    p.set_defaults(func=cmd_graph)


def cmd_graph(args) -> None:
    seeds = gr.read_seeds(args.seeds)
    skipped: Counter = Counter()
    records = ing.network_subset(ing.parse_corpus(args.input))
    g = gr.build_graph(records, skipped=skipped,
                       count_self_loops=args.count_self_loops)
    gr.write_edge_list(g, args.graph_out)
    influencers = gr.select_influencers(
        g, seeds, threshold=args.min_indegree, seed_source=str(args.seeds)
    )
    with open(args.influencers_out, "w", encoding="utf-8") as fh:
        for uid in influencers:
            fh.write(uid + "\n")
    if args.ranking_out:
        with open(args.ranking_out, "w", encoding="utf-8", newline="") as fh:
            fh.write("user_id,unique_in_degree\n")
            for uid, deg in gr.rank_by_in_degree(g):
                fh.write(f"{uid},{deg}\n")
    log.info("graph: %d nodes, %d edges, %d influencers",
             g.n_nodes, g.n_edges, len(influencers))


def _add_ideology(sub) -> None:
    p = sub.add_parser("ideology", help="latent ideology scores")
    p.add_argument("--graph", type=Path, required=True, help="edge-list CSV")
    p.add_argument("--influencers", type=Path, required=True)
    p.add_argument("--anchor", default=None,
                   help="influencer fixed to the negative side "
                        "(default: first influencer in the file)")
    p.add_argument("--min-distinct", type=int, default=ideo.DEFAULT_MIN_DISTINCT)
    p.add_argument("--tol", type=float, default=ideo.DEFAULT_TOL)
    p.add_argument("--seed", type=int, default=ideo.DEFAULT_SEED)
    p.add_argument("--max-iter", type=int, default=ideo.DEFAULT_MAX_ITER)
    p.add_argument("--scores-out", type=Path, required=True)
    p.add_argument("--meta-out", type=Path, default=None)
    p.set_defaults(func=cmd_ideology)


def cmd_ideology(args) -> None:
    g = gr.read_edge_list(args.graph)
    members = gr.read_seeds(args.influencers)
    influencers = gr.InfluencerSet(
        members=tuple(members), seed_source=str(args.influencers),
        min_unique_in_degree=0,
    )
    matrix = ideo.build_interaction_matrix(g, influencers,
                                           min_distinct=args.min_distinct)
    norm = ideo.normalize(matrix)
    triplet = ideo.leading_singular_triplet(
        norm, tol=args.tol, max_iter=args.max_iter, seed=args.seed
    )
    anchor = args.anchor or members[0]
    scores = ideo.score_users_and_influencers(matrix, triplet, anchor)
    ideo.write_scores(scores, args.scores_out)
    if args.meta_out:
        meta = {
            "sigma1": scores.sigma1,
            "anchor_id": scores.anchor_id,
            "iterations": scores.iterations,
            "residual": scores.residual,
            "matrix_shape": list(matrix.shape),
            "nnz": matrix.nnz,
        }
        with open(args.meta_out, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    log.info("scored %d users, %d influencers (sigma1=%g, %d iterations)",
             len(scores.user_scores), len(scores.influencer_scores),
             scores.sigma1, scores.iterations)


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


def _load_originals(path: Path) -> list[ing.TweetRecord]:
    return list(ing.engagement_subset(ing.parse_corpus(path)))


def cmd_engagement(args) -> None:
    wanted = (["tweet", "user", "domain"] if args.granularity == "all"
              else [args.granularity])
    # Read every input before creating the output directory, so a bad input
    # leaves nothing behind.
    originals = _load_originals(args.input)
    table = mb.load_domain_table(args.domains) if args.domains else {}
    user_scores = None
    if "ideology" in (args.group_by or []) and args.scores and "user" in wanted:
        user_scores, _ = ideo.read_scores(args.scores)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    stats: Counter = Counter()

    results: dict[str, list[eng.EngagementRecord]] = {}
    for granularity in wanted:
        if granularity == "tweet":
            key_fn = lambda rec: rec.tweet_id
        elif granularity == "user":
            key_fn = lambda rec: rec.author_id
        else:
            if not table:
                log.warning("domain granularity requested without --domains; skipped")
                continue
            key_fn = lambda rec: sorted(
                {p.domain for p in mb.matched_profiles(rec, table)}
            )
        records = eng.aggregate_ae(
            originals, granularity, key_fn,
            fractional=args.fractional_domains and granularity == "domain",
            drop_zero_impressions=args.drop_zero_impressions,
            stats=stats,
        )
        results[granularity] = records
        eng.write_engagement(records, args.out_dir / f"ae_{granularity}.csv")

    reports = []
    for action in eng.ACTIONS:
        try:
            reports.append(eng.correlation_report(originals, action))
        except EchoauditError as exc:
            log.warning("correlation for %s unavailable: %s", action, exc)
    eng.write_correlations(reports, args.out_dir / "correlations.csv")

    if table:
        by_author: dict[str, list[ing.TweetRecord]] = defaultdict(list)
        for rec in originals:
            by_author[rec.author_id].append(rec)
        leanings = [
            mb.user_leaning(uid, recs, table)
            for uid, recs in sorted(by_author.items())
        ]
        mb.write_user_leanings(leanings, args.out_dir / "user_leanings.csv")

    for group_by in args.group_by or []:
        if group_by == "ideology":
            if user_scores is None:
                log.warning("--group-by ideology needs --scores and user granularity")
                continue
            groups = {
                uid: ("negative" if score < 0 else "positive")
                for uid, score in user_scores.items()
            }
            summaries = eng.group_ae(results["user"], groups)
        else:
            if "domain" not in results:
                log.warning("--group-by %s needs domain granularity", group_by)
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

    ing.write_count_report(stats, args.out_dir / "engagement_stats.csv")


def _add_report(sub) -> None:
    p = sub.add_parser("report", help="plot-ready histograms and density grids")
    p.add_argument("--input", type=Path, required=True, help="filtered corpus")
    p.add_argument("--graph", type=Path, required=True, help="edge-list CSV")
    p.add_argument("--scores", type=Path, required=True, help="ideology scores CSV")
    p.add_argument("--domains", type=Path, default=None)
    p.add_argument("--bins", type=int, default=rep.DEFAULT_GRID_BINS)
    p.add_argument("--hist-bins", type=int, default=rep.DEFAULT_HIST_BINS)
    p.add_argument("--top-k", type=int, default=rep.DEFAULT_TOP_INFLUENCERS)
    p.add_argument("--min-shares", type=int, default=rep.DEFAULT_MIN_SHARES)
    p.add_argument("--in-neighbors", action="store_true",
                   help="use in-neighbors for the echo grid")
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=cmd_report)


def _scores_from_csv(path: Path) -> ideo.IdeologyScores:
    users, influencers = ideo.read_scores(path)
    return ideo.IdeologyScores(
        user_scores=users, influencer_scores=influencers,
        raw_user_scores={}, raw_influencer_scores={},
        sigma1=float("nan"), anchor_id="", iterations=0, residual=float("nan"),
    )


def cmd_report(args) -> None:
    # Read every input before creating the output directory, so a bad input
    # leaves nothing behind.
    scores = _scores_from_csv(args.scores)
    g = gr.read_edge_list(args.graph)
    originals = _load_originals(args.input)
    table = mb.load_domain_table(args.domains) if args.domains else None
    args.out_dir.mkdir(parents=True, exist_ok=True)

    hist = rep.ideology_histograms(scores, bins=args.hist_bins, g=g,
                                   top_k=args.top_k)
    rep.write_histogram(hist, args.out_dir / "ideology_histograms.csv")

    grid = rep.neighbor_opinion_grid(scores, g, bins=args.bins,
                                     use_in_neighbors=args.in_neighbors)
    rep.write_grid(grid, args.out_dir / "neighbor_grid.csv",
                   args.out_dir / "neighbor_grid.json")

    densities = rep.ae_followers_density(originals, bins=args.bins)
    for action, density in sorted(densities.items()):
        rep.write_grid(density, args.out_dir / f"ae_density_{action}.csv",
                       args.out_dir / f"ae_density_{action}.json")

    if table is not None:
        by_author: dict[str, list[ing.TweetRecord]] = defaultdict(list)
        for rec in originals:
            by_author[rec.author_id].append(rec)
        class_counts = mb.user_class_counts(by_author, table)
        per_class = rep.leaning_ideology_distributions(
            scores, class_counts, min_shares=args.min_shares,
            bins=args.hist_bins,
        )
        for label, series in sorted(per_class.items()):
            rep.write_histogram(
                series, args.out_dir / f"leaning_hist_{label.lower()}.csv"
            )

    summary = {
        "user_dip": hist.meta["user_dip"],
        "dip_threshold_p01": rep.dip_threshold(hist.meta["n_users"], 0.01),
        "n_users": hist.meta["n_users"],
        "n_influencers": hist.meta["n_influencers"],
        "diagonal_mass_share": grid.meta["diagonal_mass_share"],
        "neighbor_grid_total": grid.total(),
    }
    with open(args.out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _add_pipeline(sub) -> None:
    p = sub.add_parser("pipeline", help="run the full chain into one directory")
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--preset", choices=["default", "mini"], default="default")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--min-indegree", type=int, default=None,
                   help="default: scaled to the preset")
    p.add_argument("--anchor", default=None)
    p.add_argument("--seed", type=int, default=ideo.DEFAULT_SEED,
                   help="solver seed")
    p.set_defaults(func=cmd_pipeline)


def cmd_pipeline(args) -> None:
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    run = lambda argv: main(argv)

    synth_dir = out / "synth"
    synth_argv = ["synth", "--out-dir", str(synth_dir), "--preset", args.preset]
    if args.config:
        synth_argv += ["--config", str(args.config)]
    run(synth_argv)

    ingest_dir = out / "ingest"
    ingest_dir.mkdir(exist_ok=True)
    run([
        "ingest", "--input", str(synth_dir / "corpus.jsonl"),
        "--filtered-out", str(ingest_dir / "filtered.jsonl"),
        "--rejects-out", str(ingest_dir / "rejects.csv"),
        "--exclusions-out", str(ingest_dir / "exclusions.csv"),
    ])

    min_indegree = args.min_indegree
    if min_indegree is None:
        min_indegree = 20 if args.preset == "mini" else 100

    graph_dir = out / "graph"
    graph_dir.mkdir(exist_ok=True)
    run([
        "graph", "--input", str(ingest_dir / "filtered.jsonl"),
        "--seeds", str(synth_dir / "seeds.txt"),
        "--min-indegree", str(min_indegree),
        "--graph-out", str(graph_dir / "graph.csv"),
        "--influencers-out", str(graph_dir / "influencers.txt"),
        "--ranking-out", str(graph_dir / "ranking.csv"),
    ])

    ideology_dir = out / "ideology"
    ideology_dir.mkdir(exist_ok=True)
    ideology_argv = [
        "ideology", "--graph", str(graph_dir / "graph.csv"),
        "--influencers", str(graph_dir / "influencers.txt"),
        "--seed", str(args.seed),
        "--scores-out", str(ideology_dir / "scores.csv"),
        "--meta-out", str(ideology_dir / "meta.json"),
    ]
    if args.anchor:
        ideology_argv += ["--anchor", args.anchor]
    run(ideology_argv)

    engagement_dir = out / "engagement"
    run([
        "engagement", "--input", str(ingest_dir / "filtered.jsonl"),
        "--domains", str(synth_dir / "domains.csv"),
        "--scores", str(ideology_dir / "scores.csv"),
        "--granularity", "all",
        "--group-by", "ideology", "--group-by", "reliability",
        "--group-by", "leaning",
        "--out-dir", str(engagement_dir),
    ])

    report_dir = out / "report"
    run([
        "report", "--input", str(ingest_dir / "filtered.jsonl"),
        "--graph", str(graph_dir / "graph.csv"),
        "--scores", str(ideology_dir / "scores.csv"),
        "--domains", str(synth_dir / "domains.csv"),
        "--out-dir", str(report_dir),
    ])


def main(argv=None) -> int:
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
