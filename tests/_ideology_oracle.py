"""Per-node and dict-based oracle for the ideology stage's bookkeeping.

This is the original form of ``ideology.build_interaction_matrix`` and
``ideology.score_users_and_influencers``: the matrix is filled one graph
node at a time through Python lists, and each influencer's retweeter rows
are gathered through a dict from user id to canonical row.  The package now
slices the graph's out-CSR with NumPy masks and reads the retweeter rows
from the operator's own entry arrays; tests compare the two.
"""

from __future__ import annotations

import logging
from typing import NamedTuple, Optional, Sequence

import numpy as np

from echoaudit.errors import DegenerateMatrixError, InputError
from echoaudit.graph import RetweetGraph
from echoaudit.ideology import InteractionMatrix, NormalizedMatrix, SingularTriplet

from _matrix_helpers import out_edges

log = logging.getLogger("echoaudit.ideology")


def build_interaction_matrix(
    g: RetweetGraph,
    influencers: Sequence[str],
    min_distinct: int = 2,
) -> InteractionMatrix:
    if len(influencers) == 0:
        raise InputError("influencer set is empty")
    col_of_node: dict[int, int] = {}
    for j, uid in enumerate(influencers):
        try:
            col_of_node[g.index_of(uid)] = j
        except KeyError:
            log.warning("influencer %r is not a graph node", uid)

    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    row_codes: list[int] = []
    for node in range(g.n_nodes):
        targets, weights = out_edges(g, node)
        cols = [
            (col_of_node[t], float(w))
            for t, w in zip(targets.tolist(), weights.tolist())
            if t in col_of_node
        ]
        if len(cols) < min_distinct or not cols:
            continue
        cols.sort()
        row_codes.append(node)
        indices.extend(c for c, _ in cols)
        data.extend(w for _, w in cols)
        indptr.append(len(indices))

    col_ids = list(influencers)
    indices_arr = np.asarray(indices, dtype=np.int64)
    mass = np.zeros(len(col_ids))
    np.add.at(mass, indices_arr, np.asarray(data))
    dead = np.flatnonzero(mass == 0)
    if dead.size:
        for j in dead.tolist():
            log.warning("influencer column %r has no qualifying retweeters; dropped", col_ids[j])
        remap = np.cumsum(mass > 0) - 1
        keep_cols = [cid for j, cid in enumerate(col_ids) if mass[j] > 0]
        indices_arr = remap[indices_arr]
        col_ids = keep_cols

    m = InteractionMatrix(
        node_ids=g.node_ids,
        row_codes=np.asarray(row_codes, dtype=np.int64),
        col_ids=tuple(col_ids),
        indptr=np.asarray(indptr, dtype=np.int64),
        indices=indices_arr,
        data=np.asarray(data, dtype=np.float64),
    )
    if m.shape[0] < 2 or m.shape[1] < 2:
        raise DegenerateMatrixError(
            f"interaction matrix is {m.shape[0]}x{m.shape[1]} after filtering "
            f"(min_distinct={min_distinct}); need at least 2x2"
        )
    return m


class DictScores(NamedTuple):
    user_scores: dict[str, float]
    influencer_scores: dict[str, float]
    raw_user_scores: dict[str, float]
    raw_influencer_scores: dict[str, float]
    sigma1: float
    anchor_id: str
    iterations: int
    residual: float


def score_users_and_influencers(
    m: InteractionMatrix,
    n: NormalizedMatrix,
    triplet: SingularTriplet,
    anchor_id: str,
) -> DictScores:
    """The dict-based scorer; ``triplet.u`` runs in canonical row order,
    which is the order of the rows' ids as Python strings, and ``n``
    supplies the column ids."""
    if anchor_id not in n.col_ids:
        raise InputError(f"anchor influencer {anchor_id!r} is not a matrix column")

    row_ids = [m.node_ids[code] for code in m.row_codes.tolist()]
    row_pos = {uid: i for i, uid in enumerate(sorted(row_ids))}
    raw = np.asarray(triplet.u, dtype=np.float64).copy()

    # Retweeter rows per column, via the matrix's own id maps.
    col_rows: dict[str, list[int]] = {cid: [] for cid in m.col_ids}
    rows_of_entries = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    for entry, col in zip(rows_of_entries.tolist(), m.indices.tolist()):
        col_rows[m.col_ids[col]].append(row_pos[row_ids[entry]])

    def column_median(values: np.ndarray, cid: str) -> Optional[float]:
        rows = col_rows.get(cid, [])
        if not rows:
            return None
        return float(np.median(values[rows]))

    anchor_median = column_median(raw, anchor_id)
    if anchor_median is None:
        raise InputError(f"anchor influencer {anchor_id!r} has no scored retweeters")
    if anchor_median == 0.0:
        raise DegenerateMatrixError(
            f"anchor influencer {anchor_id!r} has a zero median score; "
            "orientation cannot be fixed"
        )
    if anchor_median > 0.0:
        raw = -raw

    peak = float(np.max(np.abs(raw)))
    if peak == 0.0:
        raise DegenerateMatrixError("all user scores are zero")
    scaled = raw / peak

    user_scores = {uid: float(scaled[i]) for uid, i in row_pos.items()}
    raw_user_scores = {uid: float(raw[i]) for uid, i in row_pos.items()}
    influencer_scores: dict[str, float] = {}
    raw_influencer_scores: dict[str, float] = {}
    for cid in m.col_ids:
        med = column_median(scaled, cid)
        if med is None:
            log.warning("influencer %r has no scored retweeters; omitted", cid)
            continue
        influencer_scores[cid] = med
        raw_influencer_scores[cid] = column_median(raw, cid)

    return DictScores(
        user_scores=user_scores,
        influencer_scores=influencer_scores,
        raw_user_scores=raw_user_scores,
        raw_influencer_scores=raw_influencer_scores,
        sigma1=triplet.sigma,
        anchor_id=anchor_id,
        iterations=triplet.iterations,
        residual=triplet.residual,
    )
