"""Damped Gauss-Newton (Levenberg-Marquardt) solver with a block-tridiagonal reduced camera system.

The residual vector may carry a robustified prefix: the first
``n_blocks * block_size`` rows are grouped into fixed-size blocks whose
norms go through a Huber loss; all remaining rows contribute plain squared
error. Steps are accepted only if the true (robust) cost decreases, so the
recorded cost history is non-increasing by construction.

The block norms of each evaluated residual vector are computed once and
serve both its cost and, once it is accepted, its IRLS weights.

The solver dispatches on the Jacobian's type, and needs numpy alone. A
dense ndarray (single-pose refinement, fusion, the central-difference
Jacobian of ``jacobian=None``) is solved whole: H = J^T J is damped, a
Cholesky factorisation (``np.linalg.cholesky``) tells whether it is
positive definite, and ``np.linalg.solve`` gives the step. numpy has no
triangular solve, so the factor itself goes unused; both are backward
stable on these systems. A damped 6x6 registration step takes about 14 us.

A ``BlockJacobian`` (bundle adjustment) keeps its block structure from the
Jacobian through to the solve. It holds one 2x6 camera block per
observation and no landmark block: a reprojection residual depends on its
point only through X - t, so its 2x3 landmark block is exactly minus the
translation half of its camera block. The normal equations therefore come
from one stacked 6x6 product per observation, C_k^T C_k. Summed per camera
it gives U (6x6 per camera); its translation corner summed per landmark
gives V (3x3 per landmark), and its translation columns are minus W, the
6x3 camera-landmark block of the observation. Each damped step eliminates
the landmarks (Schur complement): S = U - W V^-1 W^T. The 3x3 blocks of V
are inverted in closed form, as adjugate over determinant. Every
per-camera and per-landmark total is a segment sum (``np.add.reduceat``)
over rows sorted once per problem.

S is solved in a reverse Cuthill-McKee camera order
(``graph.reverse_cuthill_mckee``), in which it has ``bandwidth`` camera
blocks on each side of its diagonal. Cut into chunks of ``bandwidth``
consecutive cameras, S is block tridiagonal: a camera couples only with
cameras at most ``bandwidth`` positions away, so no chunk couples with a
chunk beyond its neighbours. Eliminating the chunks in order (block
Gaussian elimination, Golub and Van Loan, "Matrix Computations") then
costs one LU solve and one product of 6b x 6b chunks per chunk of b
cameras, and S is positive definite exactly when every pivot chunk is, which
one stacked Cholesky factorisation checks. On a street only nearby frames
share landmarks, so the bandwidth stays small and the cost grows linearly
with the number of frames (Triggs et al., "Bundle Adjustment - A Modern
Synthesis"; Konolige, "Sparse Sparse Bundle Adjustment"; Agarwal et al.,
"Bundle Adjustment in the Large").

S is assembled one row of chunks at a time: the observation pairs whose
camera blocks lie in D_k or F_k are gathered, multiplied as one stacked
matmul of 6x3 by 3x6 blocks and summed per camera block, in buffers the
problem's ``BlockStructure`` sizes for the row with the most pairs, and
each block's sum goes into the chunks by 6x6 block assignment. No array
with a row per observation pair outlives its row, so memory grows with
the observations, not with their pairs. Between damped steps the normal
equations keep U, V, the gradient, and -W and -W^T as arrays of their own,
not the 6x6 products they were summed from, and the solver lets one
iteration's normal equations go before it forms the next: a 1001-frame BA
peaks at 1.4 kB of traced memory per observation. On the 74-frame BA of
the benchmark's street (bandwidth 6: 13 chunks of 36 x 36) a damped step
takes about 2 ms on a two-CPU host with one BLAS thread.

Every solve stops by one rule: once an accepted step lowers the cost by
less than ``REL_COST_TOL`` = 1e-6 of the new cost, the default
``function_tolerance`` of Ceres (Agarwal, Mierle et al., "Ceres Solver").
Bundle adjustment, registration and fusion share it. Under IRLS-Huber the
convergence is linear, so each further order of tolerance costs iterations
that move the map by less than it resolves: against 1e-10, poses move by
under 2 mm and landmarks by under 1 cm. ``SolveResult.termination`` says
which stop ended a solve.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .graph import reverse_cuthill_mckee
from .robust import huber_loss_many, huber_weight_many


class NonFinite(RuntimeError):
    """Residuals or parameter updates became non-finite."""


@dataclass(frozen=True)
class RobustPrefix:
    """Huber treatment of the leading n_blocks*block_size residual rows."""

    n_blocks: int
    block_size: int
    delta: float

    def rows(self) -> int:
        return self.n_blocks * self.block_size


class Termination(enum.Enum):
    """Why a solve stopped."""

    ZERO_COST = "zero cost at start"
    COST_TOLERANCE = "relative cost decrease below tolerance"
    NEGLIGIBLE_COST = "cost negligible"
    STALLED = "no descent at maximum damping"
    ITERATION_BUDGET = "iteration budget exhausted"


@dataclass
class SolveResult:
    params: np.ndarray
    cost: float
    iterations: int
    termination: Termination
    cost_history: list = field(default_factory=list)
    linear_solves: int = 0  # factorisations attempted, failed ones included
    rejected_steps: int = 0  # solved steps that did not lower the cost
    gradient_norm: float = 0.0  # |J^T r| at the last point the normal equations were formed

    @property
    def converged(self) -> bool:
        """False only when the iteration budget ran out first."""
        return self.termination is not Termination.ITERATION_BUDGET


def _block_norms(r, prefix: RobustPrefix | None):
    """Norms of the robustified blocks of r, or None without a robust prefix."""
    if prefix is None or prefix.n_blocks == 0:
        return None
    blocks = r[: prefix.rows()].reshape(prefix.n_blocks, prefix.block_size)
    return np.sqrt(np.add.reduce(blocks * blocks, axis=1))  # np.linalg.norm(blocks, axis=1), without its dispatch


def _cost(r, prefix: RobustPrefix | None, norms):
    """robust_cost of r whose block norms are `norms`."""
    if norms is None:
        return 0.5 * float(r @ r)
    losses = huber_loss_many(norms, prefix.delta)
    tail = r[prefix.rows() :]
    return float(losses.sum()) + 0.5 * float(tail @ tail)


def robust_cost(r, prefix: RobustPrefix | None):
    """True objective: Huber over prefix blocks plus 0.5 * sum of plain rows squared."""
    r = np.asarray(r, dtype=float)
    return _cost(r, prefix, _block_norms(r, prefix))


def _row_weights(r, prefix: RobustPrefix | None, norms=None):
    """IRLS row weights of r, from its block norms when they are given."""
    if prefix is None or prefix.n_blocks == 0:
        return None
    if norms is None:
        norms = _block_norms(r, prefix)
    w = huber_weight_many(norms, prefix.delta)
    row_w = np.ones(r.shape[0])
    row_w[: prefix.rows()] = np.repeat(w, prefix.block_size)
    return row_w


def numeric_jacobian(residual_fn, x, step=1e-7):
    """Central-difference Jacobian; O(2 n_params) residual evaluations."""
    x = np.asarray(x, dtype=float)
    r0 = np.asarray(residual_fn(x), dtype=float)
    jac = np.empty((r0.shape[0], x.shape[0]))
    for i in range(x.shape[0]):
        h = step * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (np.asarray(residual_fn(xp)) - np.asarray(residual_fn(xm))) / (2.0 * h)
    return jac


class _SegmentSum:
    """Sums of the rows of an array per label.

    Row k carries label ``labels[k]`` in 0..n-1. The rows are stable-sorted
    by label once, unless they already run label by label, and each
    label's run is summed by ``np.add.reduceat``. A label with no rows sums
    to zero.
    """

    def __init__(self, labels, n: int):
        labels = np.asarray(labels, dtype=np.intp)
        self.n = n
        self.order = None if (labels[1:] >= labels[:-1]).all() else np.argsort(labels, kind="stable")
        counts = np.bincount(labels, minlength=n)
        self.starts = (np.cumsum(counts) - counts)[counts > 0]
        self.filled = None if self.starts.shape[0] == n else counts > 0

    def __call__(self, rows) -> np.ndarray:
        """(n, ...) sums of the (m, ...) `rows` per label."""
        if self.order is not None:
            rows = np.take(rows, self.order, axis=0)
        sums = np.add.reduceat(rows, self.starts, axis=0) if self.starts.shape[0] else rows[:0]
        if self.filled is None:
            return sums
        out = np.zeros((self.n,) + rows.shape[1:])
        out[self.filled] = sums
        return out


class BlockStructure:
    """The fixed sparsity of a bundle-adjustment problem, computed once per problem.

    Observation k couples camera `obs_cam[k]` (6 parameters) with landmark
    `obs_land[k]` (3 parameters). Two observations of one landmark couple
    their cameras in the reduced camera system S = U - W V^-1 W^T. Holds:

    - `cam_sum`, `land_sum`: `_SegmentSum`s of per-observation blocks per
      camera and per landmark. A camera with no observation, such as a
      frame held by its priors alone, gets zero blocks;
    - `order`, `rank`: a reverse Cuthill-McKee order of the cameras on their
      covisibility graph (position -> camera, camera -> position). In it S
      has `bandwidth` camera blocks on each side of its diagonal;
    - the layout of S as block-tridiagonal chunks: `chunk` = max(1,
      bandwidth) consecutive cameras of the order per chunk, `n_chunks` of
      them, the last padded with identity rows. A camera couples only with
      cameras at most `bandwidth` positions away, so a chunk couples only
      with the chunks next to it. The chunks live in one (2 n_chunks - 1,
      6 chunk, 6 chunk) array, `chunks`: the diagonal chunks D_k first,
      then the couplings F_k = S[chunk k, chunk k + 1];
    - `pair_i`, `pair_j`: the observation pairs (i, j) of one landmark whose
      cameras a, b have rank[a] <= rank[b], each adding W_i V^-1 W_j^T to
      S[a, b], built with no array of the pairs dropped (`_kept_pairs`).
      They run camera block by camera block in the order, so the pairs of
      row k of the chunks, whose blocks lie in D_k or F_k, are consecutive,
      and within a block in a fixed order, the order in which it sums;
    - `rows`: per row of the chunks that has pairs, its slices of `pair_i`
      and `pair_j`, where each of its blocks' pairs start in them, and
      where each of its blocks goes in the (2 n_chunks - 1, chunk, 6,
      chunk, 6) view of the chunks;
    - the buffers a damped step gathers and multiplies one row's pairs in,
      sized for the row with the most pairs, and `chunks`; `below` and
      `diagonal` say where a step mirrors the blocks of a diagonal chunk and
      where U's diagonal blocks go.
    """

    def __init__(self, obs_cam, obs_land, n_cams: int, n_landmarks: int):
        self.obs_cam = np.asarray(obs_cam, dtype=np.intp)
        self.obs_land = np.asarray(obs_land, dtype=np.intp)
        self.n_cams, self.n_landmarks = n_cams, n_landmarks
        self.cam_sum = _SegmentSum(self.obs_cam, n_cams)
        self.land_sum = _SegmentSum(self.obs_land, n_landmarks)

        self.pair_i, self.pair_j, codes = self._kept_pairs(n_landmarks)
        self.chunk = max(1, self.bandwidth)
        self.n_chunks = -(-n_cams // self.chunk)
        blocks, per_block = np.unique(codes, return_counts=True)
        ends = np.cumsum(per_block)
        starts = ends - per_block
        pos_a, pos_b = blocks // n_cams, blocks % n_cams
        row = pos_a // self.chunk
        target = np.where(pos_b // self.chunk == row, row, self.n_chunks + row)
        self.rows = []
        bounds = np.searchsorted(row, np.arange(self.n_chunks + 1))
        for b0, b1 in zip(bounds[:-1], bounds[1:]):
            if b0 < b1:  # the row has pairs
                p0, p1 = starts[b0], ends[b1 - 1]
                dest = (target[b0:b1], pos_a[b0:b1] % self.chunk, slice(None), pos_b[b0:b1] % self.chunk, slice(None))
                self.rows.append((self.pair_i[p0:p1], self.pair_j[p0:p1], starts[b0:b1] - p0, dest))
        most = max((pairs.shape[0] for pairs, *_ in self.rows), default=0)
        # Filled afresh by every damped step: one row's gathered pair stacks
        # and their products, and the chunks of S. Reused, they cost no page faults.
        self.y_row, self.w_row, self.products = np.empty((most, 6, 3)), np.empty((most, 3, 6)), np.empty((most, 6, 6))
        size = 6 * self.chunk
        self.chunks = np.empty((2 * self.n_chunks - 1, size, size))
        # Entries of a diagonal chunk below its diagonal camera blocks, and
        # each position's diagonal block in the chunks' 5-d view.
        block = np.arange(size) // 6
        self.below = block[:, None] > block
        positions = np.arange(self.n_chunks * self.chunk)
        self.diagonal = (positions // self.chunk, positions % self.chunk, slice(None), positions % self.chunk, slice(None))

    def _kept_pairs(self, n_landmarks: int):
        """Set `order`, `rank` and `bandwidth`; return `pair_i`, `pair_j` and each pair's block code.

        Only the kept pairs are built, with no array of every ordered pair:
        each unordered pair of observations of one landmark (an observation
        with itself included) is turned so that rank[a] <= rank[b], and a
        pair of two observations in one camera is kept both ways. The pairs
        run block by block in the order of S (code rank[a] * n_cams +
        rank[b]), and within a block in the landmark-major enumeration of
        ordered pairs, so each block sums in one fixed order.
        """
        n_obs, n_cams = self.obs_land.shape[0], self.n_cams
        by_land = np.argsort(self.obs_land, kind="stable")
        sorted_land = self.obs_land[by_land]
        first = np.searchsorted(sorted_land, sorted_land)
        count = np.bincount(sorted_land, minlength=n_landmarks)[sorted_land]
        # (s, t) with s <= t in the landmark order, s and t sorted positions.
        later = first + count - np.arange(n_obs)
        s = np.repeat(np.arange(n_obs), later)
        t = s + np.arange(s.shape[0]) - np.repeat(np.cumsum(later) - later, later)
        cam_s, cam_t = self.obs_cam[by_land[s]], self.obs_cam[by_land[t]]

        self.order = reverse_cuthill_mckee(n_cams, cam_s, cam_t)
        self.rank = np.empty(n_cams, dtype=np.intp)
        self.rank[self.order] = np.arange(n_cams)
        pos_s, pos_t = self.rank[cam_s], self.rank[cam_t]
        self.bandwidth = int(np.abs(pos_s - pos_t).max(initial=0))

        swap, both = pos_s > pos_t, (pos_s == pos_t) & (s != t)
        a = np.concatenate([np.where(swap, t, s), t[both]])
        b = np.concatenate([np.where(swap, s, t), s[both]])
        codes = np.concatenate([np.minimum(pos_s, pos_t) * n_cams + np.maximum(pos_s, pos_t), pos_s[both] * (n_cams + 1)])
        # Ordered pair (a, b) is number start[a] + b - first[a] of the
        # enumeration, start[a] the number of ordered pairs in rows before a.
        start = np.cumsum(count) - count
        by_block = np.lexsort((start[a] + b - first[a], codes))
        return by_land[a[by_block]], by_land[b[by_block]], codes[by_block]

    def reduced_chunks(self, y, w_t, u):
        """The chunks of S = u - sum over the pairs (i, j) of y_i w_t_j, in the order.

        `y` (m, 6, 3) holds W_k V^-1 and `w_t` (m, 3, 6) W_k^T per
        observation k, or both negated; `u` holds the (n_cams, 6, 6)
        diagonal blocks. One row of the chunks at a time, the row's pairs
        are gathered and multiplied, and each of its blocks is the sum of
        its pairs' products, in the pairs' order. A block inside a diagonal
        chunk is mirrored below the diagonal. Fills and returns `chunks`.
        """
        chunks = self.chunks
        chunks.fill(0.0)
        view = chunks.reshape(chunks.shape[0], self.chunk, 6, self.chunk, 6)
        for pair_i, pair_j, starts, dest in self.rows:
            n = pair_i.shape[0]
            y_row, w_row, products = self.y_row[:n], self.w_row[:n], self.products[:n]
            np.take(y, pair_i, axis=0, out=y_row)
            np.take(w_t, pair_j, axis=0, out=w_row)
            np.matmul(y_row, w_row, out=products)
            view[dest] = -np.add.reduceat(products.reshape(n, 36), starts, axis=0).reshape(-1, 6, 6)
        diag = chunks[: self.n_chunks]
        np.copyto(diag, diag.transpose(0, 2, 1), where=self.below)
        padded = np.empty((self.n_chunks * self.chunk, 6, 6))
        padded[: self.n_cams] = u[self.order]
        padded[self.n_cams :] = np.eye(6)  # the padding's unit diagonal
        view[self.diagonal] += padded
        return chunks

    def solve_reduced(self, y, w_t, u, rhs):
        """The camera step x of S x = rhs, S = u - sum over the pairs of y_i w_t_j, solved in chunks.

        `y`, `w_t` and `u` are as in `reduced_chunks`, and `rhs` is
        (n_cams, 6). Raises LinAlgError unless S is positive definite.
        """
        chunks = self.reduced_chunks(y, w_t, u)
        padded = np.zeros((self.n_chunks * self.chunk, 6))
        padded[: self.n_cams] = rhs[self.order]
        x = np.empty_like(rhs)
        x[self.order] = _solve_block_tridiagonal(chunks, padded.reshape(self.n_chunks, -1)).reshape(-1, 6)[: self.n_cams]
        return x


@dataclass
class BlockJacobian:
    """A bundle-adjustment Jacobian held as its nonzero camera blocks.

    Rows 2k and 2k+1 belong to observation k: `cam[k]` (2x6) on camera
    `structure.obs_cam[k]`, and minus its translation half, `-cam[k][:, 3:]`
    (2x3), on landmark `structure.obs_land[k]`. Then each (F, 3, 6) array
    in `frame_rows` adds three rows per camera on that camera's parameters
    only (priors such as GPS and gravity), camera after camera. Camera
    parameters come first in the parameter vector, landmarks after them.
    """

    structure: BlockStructure
    cam: np.ndarray
    frame_rows: list

    def toarray(self) -> np.ndarray:
        st = self.structure
        n_obs, n_cams = st.obs_cam.shape[0], st.n_cams
        dense = np.zeros((2 * n_obs + 3 * n_cams * len(self.frame_rows), 6 * n_cams + 3 * st.n_landmarks))
        rows = 2 * np.arange(n_obs)[:, None, None] + np.arange(2)[:, None]
        dense[rows, 6 * st.obs_cam[:, None, None] + np.arange(6)] = self.cam
        dense[rows, 6 * n_cams + 3 * st.obs_land[:, None, None] + np.arange(3)] = -self.cam[:, :, 3:]
        cams = np.arange(n_cams)[:, None, None]
        for g, block in enumerate(self.frame_rows):
            dense[2 * n_obs + 3 * (g * n_cams + cams) + np.arange(3)[:, None], 6 * cams + np.arange(6)] = block
        return dense


def _floored(diag):
    diag = diag.copy()
    diag[diag <= 0.0] = 1e-12
    return diag


def _cholesky(a):
    """Lower Cholesky factor of symmetric `a`; raises LinAlgError when `a` is not positive definite."""
    return np.linalg.cholesky(a)


class _DenseNormalEquations:
    """H = J^T J and g = J^T r of a dense Jacobian, solved whole.

    `diag` is diag(H) floored at 1e-12, the Levenberg-Marquardt damping scale.
    """

    def __init__(self, jac, r, row_w):
        jw = np.asarray(jac, dtype=float)
        if row_w is not None:
            sw = np.sqrt(row_w)
            jw, r = sw[:, None] * jw, sw * r
        self.hess = jw.T @ jw
        self.grad = jw.T @ r
        if not (np.isfinite(self.hess).all() and np.isfinite(self.grad).all()):
            raise NonFinite("non-finite normal equations")
        self.diag = _floored(self.hess.diagonal())

    def step(self, mu: float) -> np.ndarray:
        """Solve (H + mu diag(d)) step = -g; raises LinAlgError if it is not positive definite.

        numpy has no triangular solve, so the Cholesky factorisation is the
        positive-definiteness test and an LU solve gives the step: on these
        symmetric positive definite systems both are backward stable.
        """
        s = self.hess.copy()
        s.reshape(-1)[:: s.shape[0] + 1] += mu * self.diag
        _cholesky(s)
        return np.linalg.solve(s, -self.grad)


def _damped(blocks, diag, mu: float):
    """A copy of a stack of k x k blocks with mu * diag added to their diagonals."""
    n, k = blocks.shape[:2]
    out = blocks.copy()
    out.reshape(n, k * k)[:, :: k + 1] += mu * diag  # strided view of the diagonals
    return out


def _symmetric_inverse(v):
    """Inverses of a stack of symmetric 3x3 blocks, as adjugate over determinant.

    Reads the upper triangles only. Raises LinAlgError unless every
    determinant is positive: a positive definite block's is.
    """
    a, b, c = v[:, 0, 0], v[:, 0, 1], v[:, 0, 2]
    d, e, f = v[:, 1, 1], v[:, 1, 2], v[:, 2, 2]
    adj = np.empty_like(v)
    adj[:, 0, 0] = d * f - e * e
    adj[:, 0, 1] = adj[:, 1, 0] = c * e - b * f
    adj[:, 0, 2] = adj[:, 2, 0] = b * e - c * d
    adj[:, 1, 1] = a * f - c * c
    adj[:, 1, 2] = adj[:, 2, 1] = b * c - a * e
    adj[:, 2, 2] = a * d - b * b
    det = a * adj[:, 0, 0] + b * adj[:, 0, 1] + c * adj[:, 0, 2]
    if not (det > 0.0).all():
        raise np.linalg.LinAlgError("a landmark block is not positive definite")
    adj /= det[:, None, None]
    return adj


class _BlockNormalEquations:
    """Normal equations of a BlockJacobian, kept in blocks for elimination.

    H = J^T J splits into U, the F diagonal 6x6 camera blocks; V, the L
    diagonal 3x3 landmark blocks; and W, one 6x3 block per observation. All
    three come from one stacked product per observation, C_k^T C_k of its
    weighted 2x6 camera block C_k, since its landmark block is -C_k[:, 3:]:
    U sums the products per camera, V sums their translation corners per
    landmark, and W_k is minus their translation columns. Likewise an
    observation's landmark gradient is minus the translation half of its
    camera gradient C_k^T r_k. The damping scales are the diagonals of U
    and V, floored at 1e-12.

    Once U, V and the gradient are summed, the (m, 6, 6) products go: a
    damped step needs only -W (m, 6, 3) and -W^T (m, 3, 6), each copied
    out of them into an array of its own.
    """

    def __init__(self, jac: BlockJacobian, r, row_w):
        st = self.structure = jac.structure
        n_obs, n_cams = st.obs_cam.shape[0], st.n_cams
        # A stacked matmul hands a block to BLAS only when the block's columns
        # have unit stride: build C_k^T as its own array, not as a transposed view.
        cam_t = jac.cam.transpose(0, 2, 1).copy()
        frame_rows = jac.frame_rows
        frame_rows_t = [block.transpose(0, 2, 1).copy() for block in frame_rows]
        r_obs = r[: 2 * n_obs].reshape(n_obs, 2, 1)
        r_frame = r[2 * n_obs :].reshape(len(frame_rows), n_cams, 3, 1)
        if row_w is not None:  # J^T diag(w) J and J^T diag(w) r
            cam_t *= row_w[: 2 * n_obs].reshape(n_obs, 1, 2)
            w_frame = row_w[2 * n_obs :].reshape(len(frame_rows), n_cams, 1, 3)
            frame_rows_t = [block_t * w for block_t, w in zip(frame_rows_t, w_frame)]
        hess = cam_t @ jac.cam  # (m, 6, 6)
        grad = (cam_t @ r_obs)[:, :, 0]  # (m, 6)
        del cam_t  # gone before the per-camera sums copy the products

        u = st.cam_sum(hess.reshape(n_obs, 36))
        g_cam = st.cam_sum(grad)
        for block, block_t, r_block in zip(frame_rows, frame_rows_t, r_frame):
            u += (block_t @ block).reshape(n_cams, 36)
            g_cam += (block_t @ r_block)[:, :, 0]
        self.u = u.reshape(n_cams, 6, 6)
        self.v = st.land_sum(hess[:, 3:, 3:].reshape(n_obs, 9)).reshape(-1, 3, 3)
        self.g_cam, self.minus_g_land = g_cam, st.land_sum(grad[:, 3:])
        self.grad = np.concatenate([g_cam.ravel(), -self.minus_g_land.ravel()])
        # |W_ij| <= sqrt(U_ii V_jj), so W is finite when U and V are.
        if not (np.isfinite(self.u).all() and np.isfinite(self.v).all() and np.isfinite(self.grad).all()):
            raise NonFinite("non-finite normal equations")
        # -W and -W^T; the signs cancel in the step. Contiguous, -W^T also
        # spares a copy per call of np.take, which copies a source that is not
        # contiguous whole, and each damped step gathers from it once per row
        # of the chunks.
        self.minus_w, self.minus_w_t = hess[:, :, 3:].copy(), hess[:, 3:, :].copy()
        self.u_diag = _floored(np.diagonal(self.u, axis1=1, axis2=2))
        self.v_diag = _floored(np.diagonal(self.v, axis1=1, axis2=2))

    def step(self, mu: float) -> np.ndarray:
        """Solve (H + mu diag(H)) step = -g; raises LinAlgError unless V and S are positive definite.

        The landmark blocks are eliminated first: S = U_mu - W V_mu^-1 W^T
        goes into block-tridiagonal chunks in the structure's camera order
        and is solved there for the camera step (``_solve_block_tridiagonal``);
        then each landmark's step is V_mu^-1 (-g_l - W^T step_camera).
        """
        st = self.structure
        v_inv = _symmetric_inverse(_damped(self.v, self.v_diag, mu))
        # np.take on axis 0 gathers blocks about twice as fast as fancy indexing.
        y = self.minus_w @ np.take(v_inv, st.obs_land, axis=0)  # -W_k V_mu^-1 per observation, (m, 6, 3)
        minus_g_land = np.take(self.minus_g_land, st.obs_land, axis=0)[:, :, None]
        rhs = st.cam_sum((y @ minus_g_land)[:, :, 0]) - self.g_cam
        step_cam = st.solve_reduced(y, self.minus_w_t, _damped(self.u, self.u_diag, mu), rhs)
        minus_w_step = self.minus_w_t @ np.take(step_cam, st.obs_cam, axis=0)[:, :, None]
        minus_back = self.minus_g_land + st.land_sum(minus_w_step[:, :, 0])  # -(g_l + W^T step_camera)
        return np.concatenate([step_cam.ravel(), (v_inv @ minus_back[:, :, None]).ravel()])


def _solve_block_tridiagonal(chunks, rhs):
    """Solve S x = rhs for symmetric S held as K block-tridiagonal chunks; overwrites both.

    `chunks` holds the diagonal chunks D_0..D_{K-1}, then the couplings
    F_k = S[chunk k, chunk k + 1]; `rhs` is (K, n). Eliminating chunk k
    touches chunk k + 1 alone: D_{k+1} -= F_k^T D_k^-1 F_k, and the same
    on the right-hand side, one LU solve and one product of n x n chunks
    per chunk. S is positive definite if and only if every pivot chunk D_k
    left by the elimination is, which one stacked Cholesky factorisation
    checks before the back-substitution x_k = D_k^-1 (r_k - F_k x_{k+1}).
    Raises LinAlgError when S is not positive definite.
    """
    n_chunks = rhs.shape[0]
    diag, couplings = chunks[:n_chunks], chunks[n_chunks:]
    solved = []  # [D_k^-1 F_k | D_k^-1 r_k]
    for k in range(n_chunks - 1):
        solved.append(np.linalg.solve(diag[k], np.column_stack([couplings[k], rhs[k]])))
        update = couplings[k].T @ solved[k]
        diag[k + 1] -= update[:, :-1]
        rhs[k + 1] -= update[:, -1]
    np.linalg.cholesky(diag)  # LinAlgError unless every pivot chunk is positive definite
    x = np.empty_like(rhs)
    x[-1] = np.linalg.solve(diag[-1], rhs[-1])
    for k in range(n_chunks - 2, -1, -1):
        x[k] = solved[k][:, -1] - solved[k][:, :-1] @ x[k + 1]
    return x


def _normal_equations(jac, r, row_w):
    if isinstance(jac, BlockJacobian):
        return _BlockNormalEquations(jac, r, row_w)
    return _DenseNormalEquations(jac, r, row_w)


DAMPING_INIT = 1e-4  # Levenberg-Marquardt damping of the first step, relative to diag(H)
DAMPING_MAX = 1e10  # no descent at this damping: the point is stationary within precision
# Stop once an accepted step lowers the cost by less than this fraction of
# it: Ceres' default function_tolerance. Measured against 1e-10 on every
# subset of both benchmark workloads (seed 1): the same status, frames and
# landmarks, poses within 1.6 mm and 0.001 deg, landmarks within 6.4 mm and
# RMSE within 1.3e-5 px, for a third fewer LM iterations on street-long
# (1301 to 868) and a fifth fewer on city-turns (1972 to 1533).
REL_COST_TOL = 1e-6


def solve_least_squares(residual_fn, x0, jacobian=None, *, robust=None, max_iterations=100):
    """Minimize the (optionally robustified) sum of squared residuals.

    `jacobian` returns a dense ndarray or a BlockJacobian. A dense Jacobian
    is solved whole. A BlockJacobian's landmarks are eliminated on each
    damped step, and only the reduced camera system is solved, as
    block-tridiagonal chunks of `bandwidth` cameras in the structure's
    reverse Cuthill-McKee camera order. The Jacobian is evaluated once per
    iteration; a damped system that is not positive definite raises the
    damping like a rejected step.

    Returns a SolveResult whose ``termination`` says which stop ended the
    solve; ``converged`` is False only when the iteration budget ran out
    first. Raises NonFinite if residuals at the current iterate or a solved
    step are non-finite.
    """
    x = np.asarray(x0, dtype=float).copy()
    if jacobian is None:
        jac_fn = lambda p: numeric_jacobian(residual_fn, p)
    else:
        jac_fn = jacobian

    r = np.asarray(residual_fn(x), dtype=float)
    if not np.isfinite(r).all():
        raise NonFinite("non-finite residuals at initial parameters")
    norms = _block_norms(r, robust)  # once per evaluated point, for its cost and its IRLS weights
    cost = _cost(r, robust, norms)
    history = [cost]
    if cost == 0.0:
        return SolveResult(x, cost, 0, Termination.ZERO_COST, history)

    mu = DAMPING_INIT
    iteration = 0
    termination = Termination.ITERATION_BUDGET
    solves = rejected = 0
    normal = None

    while iteration < max_iterations:
        iteration += 1
        normal = None  # the last iteration's normal equations go before the next are formed
        normal = _normal_equations(jac_fn(x), r, _row_weights(r, robust, norms))
        accepted = False
        while mu <= DAMPING_MAX:
            solves += 1
            try:
                step = normal.step(mu)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            if not np.isfinite(step).all():
                raise NonFinite("non-finite update step")
            x_trial = x + step
            r_trial = np.asarray(residual_fn(x_trial), dtype=float)
            if np.isfinite(r_trial).all():
                norms_trial = _block_norms(r_trial, robust)
                cost_trial = _cost(r_trial, robust, norms_trial)
                if cost_trial < cost:
                    accepted = True
                    break
            rejected += 1
            mu *= 10.0
        if not accepted:
            # No descent at maximal damping: stationary within precision.
            termination = Termination.STALLED
            break

        decrease = cost - cost_trial
        x, r, norms, cost = x_trial, r_trial, norms_trial, cost_trial
        history.append(cost)
        mu = max(mu / 3.0, 1e-12)
        if decrease <= REL_COST_TOL * max(cost, 1e-300):
            termination = Termination.COST_TOLERANCE
            break
        if cost <= 1e-18 * max(1.0, history[0]):
            # Zero-residual fixed point: relative decreases stay large in
            # floating noise, so an absolute floor ends the iteration.
            termination = Termination.NEGLIGIBLE_COST
            break

    gradient_norm = float("nan") if normal is None else float(np.linalg.norm(normal.grad))
    return SolveResult(x, cost, iteration, termination, history, solves, rejected, gradient_norm)
