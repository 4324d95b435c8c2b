"""Dense views of the package's sparse structures, for building and checking
small test cases."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from echoaudit.graph import RetweetGraph
from echoaudit.ideology import InteractionMatrix


def from_dense(
    dense: np.ndarray,
    row_ids: Sequence[str],
    col_ids: Sequence[str],
) -> InteractionMatrix:
    """The CSR interaction matrix holding the nonzero entries of ``dense``."""
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
    return InteractionMatrix(
        row_ids=tuple(row_ids),
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


def total_weight(g: RetweetGraph) -> int:
    return int(g.in_weights.sum())


def edge_list(g: RetweetGraph) -> Iterator[tuple[str, str, int]]:
    """Yield ``(src_id, dst_id, weight)`` sorted by (src, dst)."""
    for src in range(g.n_nodes):
        dsts, ws = g.out_edges(src)
        for dst, w in zip(dsts.tolist(), ws.tolist()):
            yield g.node_ids[src], g.node_ids[dst], w
