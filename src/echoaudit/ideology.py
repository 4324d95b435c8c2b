"""Latent ideology via correspondence analysis of the retweet matrix.

The user-influencer count matrix A is scaled to proportions P = A / sum(A),
row and column masses r = P 1 and c = 1^T P are formed, and the standardized
residual matrix

    S = D_r^{-1/2} (P - r c^T) D_c^{-1/2}

is analyzed through its leading singular triplet.  The residual term is the
outer product r c^T (the only dimensionally consistent reading); S is never
materialized densely — both products are computed through the sparse factored
form W - sqrt(r) sqrt(c)^T, where W holds the mass-scaled entries.

User scores are the entries of the leading left singular vector, sign-anchored
so a chosen influencer lands on the negative side, then rescaled by the
maximum absolute value onto [-1, 1].  An influencer's score is the median of
its retweeters' scores.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceError, DegenerateMatrixError, InputError
from .graph import InfluencerSet, RetweetGraph
from .ingest import open_maybe_gzip

log = logging.getLogger(__name__)

DEFAULT_MIN_DISTINCT = 2
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000
DEFAULT_SEED = 1

_REORTH_EVERY = 10


@dataclass(frozen=True)
class InteractionMatrix:
    """Sparse non-negative user-by-influencer retweet counts (CSR)."""

    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]
    indptr: np.ndarray    # int64, len n_rows + 1
    indices: np.ndarray   # int64, column index per stored entry
    data: np.ndarray      # float64 integer-valued counts

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_ids), len(self.col_ids))

    @property
    def nnz(self) -> int:
        return int(self.data.shape[0])

    def total(self) -> float:
        return float(self.data.sum())

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        dense[rows, self.indices] = self.data
        return dense

    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        row_ids: Sequence[str],
        col_ids: Sequence[str],
    ) -> "InteractionMatrix":
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
        return cls(
            row_ids=tuple(row_ids),
            col_ids=tuple(col_ids),
            indptr=np.asarray(indptr, dtype=np.int64),
            indices=np.asarray(indices, dtype=np.int64),
            data=np.asarray(data, dtype=np.float64),
        )


def build_interaction_matrix(
    g: RetweetGraph,
    influencers: InfluencerSet,
    min_distinct: int = DEFAULT_MIN_DISTINCT,
) -> InteractionMatrix:
    """Restrict the graph to users who retweeted enough distinct influencers.

    Rows keep the graph's deterministic (sorted user id) order; columns follow
    the influencer rank order.  Zero-mass columns are dropped with a warning.
    A result thinner than 2x2 is rank-deficient for the analysis and fatal.
    """
    if len(influencers) == 0:
        raise InputError("influencer set is empty")
    col_of_node: dict[int, int] = {}
    for j, uid in enumerate(influencers):
        try:
            col_of_node[g.index_of(uid)] = j
        except KeyError:
            # Absent from the graph means a zero-mass column; the pruning
            # below drops it with the same warning path.
            log.warning("influencer %r is not a graph node", uid)

    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    row_ids: list[str] = []
    for node in range(g.n_nodes):
        targets, weights = g.out_edges(node)
        cols = [
            (col_of_node[t], float(w))
            for t, w in zip(targets.tolist(), weights.tolist())
            if t in col_of_node
        ]
        if len(cols) < min_distinct or not cols:
            continue
        cols.sort()
        row_ids.append(g.node_ids[node])
        indices.extend(c for c, _ in cols)
        data.extend(w for _, w in cols)
        indptr.append(len(indices))

    col_ids = list(influencers.members)
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
        row_ids=tuple(row_ids),
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


class NormalizedMatrix:
    """The standardized residual operator S, held in sparse factored form.

    Rows are canonicalized (sorted by row id) at construction so that any
    physical row permutation of the input yields bit-identical arithmetic.
    Both products sum over the stored entries in that row-major order, so
    results do not depend on threading or BLAS configuration.
    """

    def __init__(self, m: InteractionMatrix):
        order = np.argsort(np.asarray(m.row_ids, dtype=object), kind="stable")
        self.row_ids: tuple[str, ...] = tuple(m.row_ids[i] for i in order.tolist())
        self.col_ids: tuple[str, ...] = m.col_ids

        n_rows, n_cols = m.shape
        old_indptr = np.asarray(m.indptr, dtype=np.int64)
        lengths = np.diff(old_indptr)[order]
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        # Row of each stored entry, in canonical order; the products reuse it.
        rows = np.repeat(np.arange(n_rows), lengths)
        # Entry k of canonical row i is entry k of input row order[i].
        source = np.arange(indptr[-1]) - indptr[rows] + old_indptr[order][rows]
        counts = np.asarray(m.data, dtype=np.float64)[source]
        indices = np.asarray(m.indices, dtype=np.int64)[source]

        total = counts.sum()
        if total <= 0:
            raise DegenerateMatrixError("interaction matrix has zero total mass")
        # Row/column masses of P = A / total.
        p = counts / total
        r = np.zeros(n_rows)
        np.add.at(r, rows, p)
        c = np.zeros(n_cols)
        np.add.at(c, indices, p)
        zero_rows = np.flatnonzero(r == 0)
        if zero_rows.size:
            raise DegenerateMatrixError(
                f"zero row mass for user {self.row_ids[int(zero_rows[0])]!r}"
            )
        zero_cols = np.flatnonzero(c == 0)
        if zero_cols.size:
            raise DegenerateMatrixError(
                f"zero column mass for influencer {self.col_ids[int(zero_cols[0])]!r}"
            )
        for name, vec in (("P", p), ("r", r), ("c", c)):
            if abs(vec.sum() - 1.0) > 1e-12:
                raise DegenerateMatrixError(f"{name} does not sum to 1 within 1e-12")

        self.r = r
        self.c = c
        self.sqrt_r = np.sqrt(r)
        self.sqrt_c = np.sqrt(c)
        self._rows = rows
        self._indices = indices
        # W = D_r^{-1/2} P D_c^{-1/2}, stored entry-wise.
        self._scaled = p / (self.sqrt_r[rows] * self.sqrt_c[indices])

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_ids), len(self.col_ids))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """S v = W v - sqrt_r (sqrt_c . v)"""
        v = np.ascontiguousarray(v, dtype=np.float64)
        y = np.bincount(self._rows, weights=self._scaled * v[self._indices],
                        minlength=len(self.row_ids))
        y -= self.sqrt_r * float(self.sqrt_c @ v)
        return y

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """S^T u = W^T u - sqrt_c (sqrt_r . u)"""
        u = np.ascontiguousarray(u, dtype=np.float64)
        z = np.bincount(self._indices, weights=self._scaled * u[self._rows],
                        minlength=len(self.col_ids))
        z -= self.sqrt_c * float(self.sqrt_r @ u)
        return z


def normalize(m: InteractionMatrix) -> NormalizedMatrix:
    """Build the standardized residual operator for an interaction matrix."""
    return NormalizedMatrix(m)


@dataclass(frozen=True)
class SingularTriplet:
    sigma: float
    u: np.ndarray
    v: np.ndarray
    iterations: int
    residual: float
    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]


def leading_singular_triplet(
    n: NormalizedMatrix,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = DEFAULT_SEED,
) -> SingularTriplet:
    """Power iteration on S^T S for the leading singular triplet of S.

    The known exact null direction sqrt(c) (total independence) is projected
    out of the start vector and periodically re-removed to stop round-off
    drift.  Convergence requires ||S^T u - sigma v|| <= tol * sigma; the pair
    (u = S v / sigma) satisfies the left residual identically.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n_rows, n_cols = n.shape
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n_cols)
    v -= n.sqrt_c * (n.sqrt_c @ v)
    norm_v = float(np.linalg.norm(v))
    if norm_v == 0.0:
        raise DegenerateMatrixError("start vector vanished after projection")
    v /= norm_v

    sv = n.matvec(v)
    sigma = float(np.linalg.norm(sv))
    residual = float("inf")
    for iteration in range(1, max_iter + 1):
        if sigma <= tol:
            raise DegenerateMatrixError(
                f"leading singular value {sigma:.3e} <= tol {tol:.3e}; "
                "the matrix carries no association signal"
            )
        u = sv / sigma
        w = n.rmatvec(u)
        residual = float(np.linalg.norm(w - sigma * v))
        if residual <= tol * sigma:
            return SingularTriplet(
                sigma=sigma, u=u, v=v, iterations=iteration, residual=residual,
                row_ids=n.row_ids, col_ids=n.col_ids,
            )
        if iteration % _REORTH_EVERY == 0:
            w -= n.sqrt_c * (n.sqrt_c @ w)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            raise DegenerateMatrixError("iterate vanished; matrix is degenerate")
        v = w / norm_w
        sv = n.matvec(v)
        sigma = float(np.linalg.norm(sv))

    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (residual {residual:.3e})",
        iterations=max_iter,
        residual=residual,
    )


@dataclass(frozen=True)
class IdeologyScores:
    user_scores: dict[str, float]          # rescaled to [-1, 1]
    influencer_scores: dict[str, float]    # median of retweeter scores
    raw_user_scores: dict[str, float]      # sign-anchored u1 entries, unrescaled
    raw_influencer_scores: dict[str, float]
    sigma1: float
    anchor_id: str
    iterations: int
    residual: float


def score_users_and_influencers(
    m: InteractionMatrix,
    triplet: SingularTriplet,
    anchor_id: str,
) -> IdeologyScores:
    """Turn the leading left singular vector into anchored, bounded scores.

    The sign is flipped, if needed, so the anchor influencer's score is
    negative; scores are then divided by the maximum absolute value.  An
    influencer's score is the unweighted median over its distinct retweeters
    present in the matrix (even-sized sets average the two central values).
    """
    if anchor_id not in triplet.col_ids:
        raise InputError(f"anchor influencer {anchor_id!r} is not a matrix column")

    row_pos = {uid: i for i, uid in enumerate(triplet.row_ids)}
    raw = np.asarray(triplet.u, dtype=np.float64).copy()

    # Retweeter rows per column, via the matrix's own id maps.
    col_rows: dict[str, list[int]] = {cid: [] for cid in m.col_ids}
    rows_of_entries = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    for entry, col in zip(rows_of_entries.tolist(), m.indices.tolist()):
        col_rows[m.col_ids[col]].append(row_pos[m.row_ids[entry]])

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

    return IdeologyScores(
        user_scores=user_scores,
        influencer_scores=influencer_scores,
        raw_user_scores=raw_user_scores,
        raw_influencer_scores=raw_influencer_scores,
        sigma1=triplet.sigma,
        anchor_id=anchor_id,
        iterations=triplet.iterations,
        residual=triplet.residual,
    )


def write_scores(scores: IdeologyScores, path: str | Path) -> None:
    """CSV export: ``id,kind,score,raw_score`` sorted by (kind, id)."""
    rows = [
        (cid, "influencer", scores.influencer_scores[cid], scores.raw_influencer_scores[cid])
        for cid in scores.influencer_scores
    ] + [
        (uid, "user", scores.user_scores[uid], scores.raw_user_scores[uid])
        for uid in scores.user_scores
    ]
    rows.sort(key=lambda t: (t[1], t[0]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,kind,score,raw_score\n")
        for ident, kind, score, raw in rows:
            fh.write(f"{ident},{kind},{score!r},{raw!r}\n")


def read_scores(path: str | Path) -> tuple[dict[str, float], dict[str, float]]:
    """Read a score CSV back into (user_scores, influencer_scores)."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"scores file not found: {path}")
    users: dict[str, float] = {}
    influencers: dict[str, float] = {}
    with open_maybe_gzip(path) as fh:
        header = fh.readline().strip()
        if header != "id,kind,score,raw_score":
            raise InputError(f"{path}:1: unexpected scores header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            fields = line.rstrip("\n").split(",")
            if len(fields) != 4:
                raise InputError(
                    f"{path}:{lineno}: expected 4 fields (id,kind,score,raw_score), "
                    f"got {len(fields)}"
                )
            ident, kind, score, _raw = fields
            if kind == "user":
                target = users
            elif kind == "influencer":
                target = influencers
            else:
                raise InputError(f"{path}:{lineno}: unknown score kind {kind!r}")
            try:
                target[ident] = float(score)
            except ValueError:
                raise InputError(
                    f"{path}:{lineno}: score {score!r} is not a number"
                ) from None
    return users, influencers
