#!/usr/bin/env python3
"""Regenerate the committed fixtures under fixtures/.

The mini corpus comes from the mini generator preset; rerunning this script
must reproduce every file byte-for-byte (``tests/test_synth.py`` runs it in
a copy of ``tools/`` and ``src/`` and asserts that).  The summary printed at
the end is the source for the frozen counts in the test suite.
"""

import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from echoaudit import blocks as blk        # noqa: E402
from echoaudit import graph as gr          # noqa: E402
from echoaudit import ideology as ideo     # noqa: E402
from echoaudit import synth                # noqa: E402


def main() -> None:
    out = ROOT / "fixtures"
    out.mkdir(exist_ok=True)
    result = synth.generate(synth.mini_config(), out)
    (out / "corpus.jsonl").rename(out / "mini_corpus.jsonl")
    (out / "ground_truth.json").rename(out / "mini_ground_truth.json")
    (out / "domains.csv").rename(out / "mini_domains.csv")
    (out / "seeds.txt").rename(out / "mini_seeds.txt")

    # Independent recount of the headline numbers (plain line/field counting,
    # no pipeline code) so the frozen test values have a second source.
    lines = [json.loads(l) for l in
             (out / "mini_corpus.jsonl").read_text().splitlines()]
    n_total = len(lines)
    n_pre = sum(1 for o in lines if o["created_at"] < "2022-12-15T00:00:00Z")
    n_nonen = sum(1 for o in lines
                  if o["created_at"] >= "2022-12-15T00:00:00Z" and o["lang"] != "en")
    retained = [o for o in lines
                if o["created_at"] >= "2022-12-15T00:00:00Z" and o["lang"] == "en"]
    n_orig = sum(1 for o in retained if o["kind"] == "original")
    n_rt = sum(1 for o in retained if o["kind"] == "retweet")
    pairs = Counter((o["author_id"], o["retweeted_author_id"])
                    for o in retained if o["kind"] == "retweet")
    nodes = {a for a, _ in pairs} | {b for _, b in pairs}

    print(f"records={n_total} pre_cutoff={n_pre} non_english_post={n_nonen} "
          f"retained={len(retained)}")
    print(f"originals={n_orig} retweets={n_rt} "
          f"graph_nodes={len(nodes)} graph_edges={len(pairs)}")

    g = gr.RetweetCounts.from_columns(
        blk.filter_columns(blk.corpus_columns(out / "mini_corpus.jsonl"))
    ).graph()
    hubs = json.loads((out / "mini_ground_truth.json").read_text())["planted_hubs"]
    infl = gr.select_influencers(g, hubs, threshold=5)
    matrix = ideo.build_interaction_matrix(g, infl, min_distinct=2)
    print(f"influencers_at_thr5={len(infl)} matrix_shape={matrix.shape} "
          f"nnz={matrix.nnz}")


if __name__ == "__main__":
    main()
