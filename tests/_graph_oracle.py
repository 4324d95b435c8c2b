"""Dict-of-pairs oracle for graph assembly.

This is the original ``graph._assemble``: it takes the summed weight of each
``(src, dst)`` pair as a dict keyed by id strings, numbers the nodes in
sorted id order and fills the edge arrays one pair at a time.  The
production ``RetweetCounts.graph`` interns ids, keeps the edges as int64
columns and counts repeated pairs with ``np.unique``, and
``read_edge_list`` sorts the rows of a file by their pair; tests compare
each with this one array by array.
"""

from __future__ import annotations

import numpy as np

from echoaudit.graph import RetweetGraph


def _assemble(
    weights: dict[tuple[str, str], int], count_self_loops: bool
) -> RetweetGraph:
    node_set: set[str] = set()
    for src, dst in weights:
        node_set.add(src)
        node_set.add(dst)
    node_ids = tuple(sorted(node_set))
    index = {uid: i for i, uid in enumerate(node_ids)}
    n = len(node_ids)
    m = len(weights)

    src_idx = np.empty(m, dtype=np.int64)
    dst_idx = np.empty(m, dtype=np.int64)
    w = np.empty(m, dtype=np.int64)
    for k, ((s, d), wt) in enumerate(weights.items()):
        src_idx[k] = index[s]
        dst_idx[k] = index[d]
        w[k] = wt

    order_out = np.lexsort((dst_idx, src_idx))
    out_targets = dst_idx[order_out]
    out_weights = w[order_out]
    out_indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(out_indptr, src_idx + 1, 1)
    np.cumsum(out_indptr, out=out_indptr)

    if count_self_loops:
        keep = np.ones(m, dtype=bool)
    else:
        keep = src_idx != dst_idx
    uid_counts = np.zeros(n, dtype=np.int64)
    np.add.at(uid_counts, dst_idx[keep], 1)

    return RetweetGraph(
        node_ids=node_ids,
        out_indptr=out_indptr,
        out_targets=out_targets,
        out_weights=out_weights,
        unique_in_degree=uid_counts,
        index=index,
    )
