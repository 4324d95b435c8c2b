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
import math
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import NoReturn, Optional, Sequence, TextIO

import numpy as np

from .errors import ConvergenceError, DegenerateMatrixError, InputError
from .graph import RetweetGraph
from .blocks import Codes, read_table, write_columns

log = logging.getLogger(__name__)

DEFAULT_MIN_DISTINCT = 2
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000
DEFAULT_SEED = 1

_REORTH_EVERY = 10

SCORES_HEADER = ("id", "kind", "score", "raw_score")


@dataclass(frozen=True)
class InteractionMatrix:
    """Sparse non-negative user-by-influencer retweet counts (CSR); row ``i``
    is the user ``node_ids[row_codes[i]]``, ids in ``str`` order."""

    node_ids: Sequence[str]
    row_codes: np.ndarray  # int64, code into node_ids per row
    col_ids: tuple[str, ...]
    indptr: np.ndarray    # int64, len n_rows + 1
    indices: np.ndarray   # int64, column index per stored entry
    data: np.ndarray      # float64 integer-valued counts

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_codes), len(self.col_ids))

    @property
    def nnz(self) -> int:
        return int(self.data.shape[0])


def build_interaction_matrix(
    g: RetweetGraph,
    influencers: Sequence[str],
    min_distinct: int = DEFAULT_MIN_DISTINCT,
) -> InteractionMatrix:
    """Restrict the graph to users who retweeted enough distinct influencers.

    Rows keep the graph's deterministic (sorted user id) order; columns follow
    the influencer rank order.  Zero-mass columns are dropped with a warning.
    A result thinner than 2x2 is rank-deficient for the analysis and fatal.
    """
    if len(influencers) == 0:
        raise InputError("influencer set is empty")
    col_of_node = np.full(g.n_nodes, -1, dtype=np.int64)
    for j, uid in enumerate(influencers):
        try:
            col_of_node[g.index_of(uid)] = j
        except KeyError:
            # Absent from the graph means a zero-mass column; the pruning
            # below drops it with the same warning path.
            log.warning("influencer %r is not a graph node", uid)

    # The graph holds one out-edge per distinct (src, dst) pair, so a row's
    # count of influencer edges is its count of distinct influencers.
    src = np.repeat(np.arange(g.n_nodes), np.diff(g.out_indptr))
    cols = col_of_node[g.out_targets]
    hits = np.bincount(src[cols >= 0], minlength=g.n_nodes)
    keep = hits >= max(min_distinct, 1)
    entry = (cols >= 0) & keep[src]
    rows, cols = src[entry], cols[entry]
    order = np.lexsort((cols, rows))
    indices = cols[order]
    data = g.out_weights[entry][order].astype(np.float64)

    col_ids = list(influencers)
    mass = np.bincount(indices, weights=data, minlength=len(col_ids))
    dead = np.flatnonzero(mass == 0)
    if dead.size:
        for j in dead.tolist():
            log.warning("influencer column %r has no qualifying retweeters; dropped", col_ids[j])
        remap = np.cumsum(mass > 0) - 1
        keep_cols = [cid for j, cid in enumerate(col_ids) if mass[j] > 0]
        indices = remap[indices]
        col_ids = keep_cols

    kept = np.flatnonzero(keep)
    m = InteractionMatrix(
        node_ids=g.node_ids,
        row_codes=kept,
        col_ids=tuple(col_ids),
        indptr=np.concatenate(([0], hits[kept].cumsum())).astype(np.int64),
        indices=indices,
        data=data,
    )
    if m.shape[0] < 2 or m.shape[1] < 2:
        raise DegenerateMatrixError(
            f"interaction matrix is {m.shape[0]}x{m.shape[1]} after filtering "
            f"(min_distinct={min_distinct}); need at least 2x2"
        )
    return m


class NormalizedMatrix:
    """The standardized residual operator S, held in sparse factored form.

    Rows are canonicalized (sorted by code, so by id) at construction so
    that any physical row permutation of the input yields bit-identical arithmetic.
    Both products sum the stored entries with ``np.bincount`` in that
    row-major order, which no thread count changes; the rank-one terms
    ``sqrt_c @ v`` and ``sqrt_r @ u`` are BLAS dot products, whose last
    digits can follow the thread count (README "Cores").
    """

    def __init__(self, m: InteractionMatrix):
        order = np.argsort(m.row_codes, kind="stable")
        self.node_ids = m.node_ids
        self.row_codes = m.row_codes[order]
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
        # Row/column masses of P = A / total.  The counts are integers whose
        # sums stay below 2**53, so each sum is exact and each mass is
        # rounded once.
        p = counts / total
        r = np.bincount(rows, weights=counts, minlength=n_rows) / total
        c = np.bincount(indices, weights=counts, minlength=n_cols) / total
        zero_rows = np.flatnonzero(r == 0)
        if zero_rows.size:
            raise DegenerateMatrixError(
                f"zero row mass for user {self.node_ids[self.row_codes[zero_rows[0]]]!r}"
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
        # Canonical row and column of each stored entry, in row-major order.
        self.rows = rows
        self.indices = indices
        # W = D_r^{-1/2} P D_c^{-1/2}, stored entry-wise.
        self._scaled = p / (self.sqrt_r[rows] * self.sqrt_c[indices])

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_codes), len(self.col_ids))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """S v = W v - sqrt_r (sqrt_c . v)"""
        v = np.ascontiguousarray(v, dtype=np.float64)
        y = np.bincount(self.rows, weights=self._scaled * v[self.indices],
                        minlength=len(self.row_codes))
        y -= self.sqrt_r * float(self.sqrt_c @ v)
        return y

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """S^T u = W^T u - sqrt_c (sqrt_r . u)"""
        u = np.ascontiguousarray(u, dtype=np.float64)
        z = np.bincount(self.indices, weights=self._scaled * u[self.rows],
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
            return SingularTriplet(sigma=sigma, u=u, v=v, iterations=iteration,
                                   residual=residual)
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
    """User and influencer ids in ``str`` order, each with float64 scores
    rescaled to [-1, 1] and raw (sign-anchored, unrescaled) ones; a table
    from :func:`read_scores` has no raw scores and no solver metadata."""

    user_ids: list[str]
    user_score: np.ndarray
    influencer_ids: list[str]
    influencer_score: np.ndarray
    raw_user_score: Optional[np.ndarray] = None
    raw_influencer_score: Optional[np.ndarray] = None
    sigma1: float = math.nan
    anchor_id: str = ""
    iterations: int = 0
    residual: float = math.nan


def score_users_and_influencers(
    n: NormalizedMatrix,
    triplet: SingularTriplet,
    anchor_id: str,
) -> IdeologyScores:
    """Turn the leading left singular vector into anchored, bounded scores.

    The sign is flipped, if needed, so the anchor influencer's score is
    negative; scores are then divided by the maximum absolute value.  An
    influencer's score is the unweighted median over its distinct retweeters
    present in the matrix (even-sized sets average the two central values);
    ``NormalizedMatrix`` rejects a column without mass, so each has one.
    """
    if anchor_id not in n.col_ids:
        raise InputError(f"anchor influencer {anchor_id!r} is not a matrix column")
    raw = np.asarray(triplet.u, dtype=np.float64).copy()

    # The operator's entries run in canonical row order; a stable sort by
    # column lists each influencer's retweeter rows, one slice per column.
    by_col = n.rows[np.argsort(n.indices, kind="stable")]
    ends = np.bincount(n.indices, minlength=len(n.col_ids)).cumsum()
    retweeters = np.split(by_col, ends[:-1])

    anchor_median = float(np.median(raw[retweeters[n.col_ids.index(anchor_id)]]))
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

    # Canonical rows already run in id order; the columns are sorted here.
    cols = sorted(range(len(n.col_ids)), key=n.col_ids.__getitem__)
    return IdeologyScores(
        user_ids=list(map(n.node_ids.__getitem__, n.row_codes.tolist())),
        user_score=scaled,
        influencer_ids=[n.col_ids[j] for j in cols],
        influencer_score=np.array([np.median(scaled[retweeters[j]]) for j in cols]),
        raw_user_score=raw,
        raw_influencer_score=np.array([np.median(raw[retweeters[j]]) for j in cols]),
        sigma1=triplet.sigma,
        anchor_id=anchor_id,
        iterations=triplet.iterations,
        residual=triplet.residual,
    )


def write_scores(scores: IdeologyScores, out: str | Path | TextIO) -> None:
    """CSV export ``id,kind,score,raw_score`` of solver scores, sorted by (kind, id)."""
    influencers, users = scores.influencer_ids, scores.user_ids
    write_columns(out, SCORES_HEADER, [
        influencers + users,
        Codes(("influencer", "user"), np.repeat([0, 1], [len(influencers), len(users)])),
        np.concatenate((scores.influencer_score, scores.user_score)),
        np.concatenate((scores.raw_influencer_score, scores.raw_user_score))])


def read_scores(path: str | Path) -> IdeologyScores:
    """Read a score CSV back, its rows in any order, each kind sorted by
    id; every score must be finite and no id may come twice as one kind,
    as :func:`write_scores` writes them."""
    ids, kinds, values = [], [], []
    try:
        for _, (ident, kind, score, _raw) in read_table(path, SCORES_HEADER, "scores file"):
            ids += ident
            kinds += kind
            values += map(float, score)
    except (InputError, ValueError):
        _raise_first_bad_score(path)
    columns = []
    for name in ("influencer", "user"):
        mine = [k == name for k in kinds]
        of_kind = list(compress(ids, mine))
        order = sorted(range(len(of_kind)), key=of_kind.__getitem__)
        columns += [[of_kind[i] for i in order], np.array(list(compress(values, mine)))[order]]
    influencer_ids, influencer_score, user_ids, user_score = columns
    # Sorted, a repeated id sits next to its first.
    if (len(influencer_ids) + len(user_ids) != len(ids) or not np.isfinite(values).all()
            or any(map(str.__eq__, influencer_ids, influencer_ids[1:]))
            or any(map(str.__eq__, user_ids, user_ids[1:]))):
        _raise_first_bad_score(path)
    return IdeologyScores(user_ids, user_score, influencer_ids, influencer_score)


def _raise_first_bad_score(path: str | Path) -> NoReturn:
    """Read ``path`` again and raise the error of its first row whose kind
    or score is not one, or whose id came before as the same kind; or the
    error that the table itself raises first."""
    seen = set()
    for first, columns in read_table(path, SCORES_HEADER, "scores file"):
        for lineno, (ident, kind, score, _) in enumerate(zip(*columns), start=first):
            if kind not in ("user", "influencer"):
                raise InputError(f"{path}:{lineno}: unknown score kind {kind!r}")
            try:
                value = float(score)
            except ValueError:
                raise InputError(f"{path}:{lineno}: score {score!r} is not a number") from None
            if not math.isfinite(value):
                raise InputError(f"{path}:{lineno}: score {score!r} is not a finite number")
            if (kind, ident) in seen:
                raise InputError(f"{path}:{lineno}: repeated {kind} id {ident!r}")
            seen.add((kind, ident))
    raise InputError(f"{path}: changed while it was read")
