"""Dense views of the package's sparse structures, and dict views of its
score columns, for building and checking small test cases."""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from echoaudit.graph import RetweetGraph
from echoaudit.ideology import IdeologyScores, InteractionMatrix


def from_dense(
    dense: np.ndarray,
    row_ids: Sequence[str],
    col_ids: Sequence[str],
) -> InteractionMatrix:
    """The CSR interaction matrix holding the nonzero entries of ``dense``,
    its rows coded by the rank of their ids in ``str`` order."""
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2 or dense.shape != (len(row_ids), len(col_ids)):
        raise ValueError("dense shape does not match the id lists")
    if (dense < 0).any():
        raise ValueError("interaction counts must be non-negative")
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for i in range(dense.shape[0]):
        cols = np.flatnonzero(dense[i])
        indices.extend(cols.tolist())
        data.extend(dense[i, cols].tolist())
        indptr.append(len(indices))
    node_ids = sorted(row_ids)
    rank = {uid: k for k, uid in enumerate(node_ids)}
    return InteractionMatrix(
        node_ids=node_ids,
        row_codes=np.array([rank[uid] for uid in row_ids], dtype=np.int64),
        col_ids=tuple(col_ids),
        indptr=np.asarray(indptr, dtype=np.int64),
        indices=np.asarray(indices, dtype=np.int64),
        data=np.asarray(data, dtype=np.float64),
    )


def to_dense(m: InteractionMatrix) -> np.ndarray:
    dense = np.zeros(m.shape)
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    dense[rows, m.indices] = m.data
    return dense


def scores_of(users: Mapping[str, float], influencers: Mapping[str, float],
              raw: bool = False) -> IdeologyScores:
    """The score columns of two id -> score mappings, each sorted by id;
    with ``raw`` the raw scores equal the scores, else there are none."""
    columns = []
    for of_kind in (users, influencers):
        ids = sorted(of_kind)
        columns += [ids, np.array([of_kind[k] for k in ids], dtype=np.float64)]
    raws = (columns[1], columns[3]) if raw else (None, None)
    return IdeologyScores(*columns, *raws)


def user_scores(scores: IdeologyScores) -> dict[str, float]:
    """The user scores by id, in column order."""
    return dict(zip(scores.user_ids, scores.user_score.tolist()))


def influencer_scores(scores: IdeologyScores) -> dict[str, float]:
    """The influencer scores by id, in column order."""
    return dict(zip(scores.influencer_ids, scores.influencer_score.tolist()))


def row_ids(m: InteractionMatrix) -> list[str]:
    """The id of each row of ``m``, in its order."""
    return [m.node_ids[code] for code in m.row_codes.tolist()]


def out_edges(g: RetweetGraph, node_index: int) -> tuple[np.ndarray, np.ndarray]:
    """The targets and weights of the edges out of one node."""
    lo, hi = g.out_indptr[node_index], g.out_indptr[node_index + 1]
    return g.out_targets[lo:hi], g.out_weights[lo:hi]


def total_weight(g: RetweetGraph) -> int:
    return int(g.out_weights.sum())


def edge_list(g: RetweetGraph) -> Iterator[tuple[str, str, int]]:
    """Yield ``(src_id, dst_id, weight)`` sorted by (src, dst)."""
    for src in range(g.n_nodes):
        dsts, ws = out_edges(g, src)
        for dst, w in zip(dsts.tolist(), ws.tolist()):
            yield g.node_ids[src], g.node_ids[dst], w
