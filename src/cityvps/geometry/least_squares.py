"""Damped Gauss-Newton (Levenberg-Marquardt) solver with a banded reduced camera system.

The residual vector may carry a robustified prefix: the first
``n_blocks * block_size`` rows are grouped into fixed-size blocks whose
norms go through a Huber loss (optionally with per-block outer weights);
all remaining rows contribute plain squared error. Steps are accepted only
if the true (robust) cost decreases, so the recorded cost history is
non-increasing by construction.

The solver dispatches on the Jacobian's type. A dense ndarray (single-pose
refinement, fusion, the central-difference Jacobian of ``jacobian=None``)
is solved whole: H = J^T J is damped and Cholesky-factored. A
``BlockJacobian`` (bundle adjustment) keeps its block structure from the
Jacobian through to the factorisation. Its normal equations are assembled
from stacked per-observation blocks into U (6x6 per camera), V (3x3 per
landmark) and W (6x3 per observation). Each damped step eliminates the
landmarks (Schur complement): S = U - W V^-1 W^T. Its W V^-1 W^T term is
one stacked matmul of 6x3 by 3x6 blocks over the observation pairs of each
landmark, summed into 6x6 camera blocks by a 0/1 matrix. S is scattered
into upper band storage in a reverse Cuthill-McKee camera order, factored
by a banded Cholesky, and the landmarks follow by back-substitution. On a
street only nearby frames share landmarks, so S is banded and the cost
grows linearly with the number of frames (Triggs et al., "Bundle
Adjustment - A Modern Synthesis"; Konolige, "Sparse Sparse Bundle
Adjustment"; Agarwal et al., "Bundle Adjustment in the Large").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve, cho_solve_banded, cholesky_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .robust import huber_loss_many, huber_weight_many


class NonFinite(RuntimeError):
    """Residuals or parameter updates became non-finite."""


@dataclass(frozen=True)
class RobustPrefix:
    """Huber treatment of the leading n_blocks*block_size residual rows."""

    n_blocks: int
    block_size: int
    delta: float
    weights: np.ndarray | None = None  # per-block outer weights, default 1

    def rows(self) -> int:
        return self.n_blocks * self.block_size


@dataclass
class SolveResult:
    params: np.ndarray
    cost: float
    converged: bool
    iterations: int
    message: str
    cost_history: list = field(default_factory=list)
    linear_solves: int = 0  # factorisations attempted, failed ones included
    rejected_steps: int = 0  # solved steps that did not lower the cost
    gradient_norm: float = 0.0  # |J^T r| at the last point the normal equations were formed


def _block_norms(r, prefix: RobustPrefix):
    blocks = r[: prefix.rows()].reshape(prefix.n_blocks, prefix.block_size)
    return np.linalg.norm(blocks, axis=1)


def robust_cost(r, prefix: RobustPrefix | None):
    """True objective: Huber over prefix blocks plus 0.5 * sum of plain rows squared."""
    r = np.asarray(r, dtype=float)
    if prefix is None or prefix.n_blocks == 0:
        return 0.5 * float(r @ r)
    norms = _block_norms(r, prefix)
    losses = huber_loss_many(norms, prefix.delta)
    if prefix.weights is not None:
        losses = losses * prefix.weights
    tail = r[prefix.rows() :]
    return float(losses.sum()) + 0.5 * float(tail @ tail)


def _row_weights(r, prefix: RobustPrefix | None):
    if prefix is None or prefix.n_blocks == 0:
        return None
    norms = _block_norms(r, prefix)
    w = huber_weight_many(norms, prefix.delta)
    if prefix.weights is not None:
        w = w * prefix.weights
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


class BlockStructure:
    """The fixed sparsity of a bundle-adjustment problem, computed once per problem.

    Observation k couples camera `obs_cam[k]` (6 parameters) with landmark
    `obs_land[k]` (3 parameters). Two observations of one landmark couple
    their cameras in the reduced camera system S = U - W V^-1 W^T. Holds:

    - `cam_sum`, `land_sum`: 0/1 matrices that sum per-observation blocks
      per camera and per landmark;
    - `order`, `rank`: a reverse Cuthill-McKee order of the cameras on their
      covisibility graph (position -> camera, camera -> position). In it S
      has `bandwidth` camera blocks on each side of its diagonal;
    - `pair_i`, `pair_j`: the observation pairs (i, j) of one landmark whose
      cameras a, b have rank[a] <= rank[b], each adding W_i V^-1 W_j^T to
      S[a, b]; `pair_sum` sums them per camera block;
    - the upper band storage slots of those blocks and of U's diagonal blocks.
    """

    def __init__(self, obs_cam, obs_land, n_cams: int, n_landmarks: int):
        self.obs_cam = np.asarray(obs_cam, dtype=np.intp)
        self.obs_land = np.asarray(obs_land, dtype=np.intp)
        self.n_cams, self.n_landmarks = n_cams, n_landmarks
        n_obs = self.obs_cam.shape[0]
        ones, obs = np.ones(n_obs), np.arange(n_obs)
        self.cam_sum = sp.csr_matrix((ones, (self.obs_cam, obs)), shape=(n_cams, n_obs))
        self.land_sum = sp.csr_matrix((ones, (self.obs_land, obs)), shape=(n_landmarks, n_obs))

        # Every ordered pair of observations of one landmark.
        by_land = np.argsort(self.obs_land, kind="stable")
        sorted_land = self.obs_land[by_land]
        first = np.searchsorted(sorted_land, sorted_land)
        count = np.bincount(sorted_land, minlength=n_landmarks)[sorted_land]
        offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        pair_i = np.repeat(by_land, count)
        pair_j = by_land[np.repeat(first, count) + offset]
        cam_i, cam_j = self.obs_cam[pair_i], self.obs_cam[pair_j]

        covisible = sp.csr_matrix((np.ones(cam_i.shape[0]), (cam_i, cam_j)), shape=(n_cams, n_cams))
        self.order = reverse_cuthill_mckee(covisible, symmetric_mode=True)
        self.rank = np.empty(n_cams, dtype=np.intp)
        self.rank[self.order] = np.arange(n_cams)
        self.bandwidth = int(np.abs(self.rank[cam_i] - self.rank[cam_j]).max(initial=0))
        # Upper band storage of the permuted S (cholesky_banded, lower=False):
        # its entry (i, j), i <= j, sits at band[kd + i - j, j].
        self.kd = 6 * self.bandwidth + 5

        upper = self.rank[cam_i] <= self.rank[cam_j]
        self.pair_i, self.pair_j = pair_i[upper], pair_j[upper]
        blocks, block_of_pair = np.unique(cam_i[upper] * n_cams + cam_j[upper], return_inverse=True)
        n_pairs = self.pair_i.shape[0]
        self.pair_sum = sp.csr_matrix(
            (np.ones(n_pairs), (block_of_pair, np.arange(n_pairs))), shape=(blocks.shape[0], n_pairs)
        )
        self.block_slots, self.block_entries = self._band_slots(blocks // n_cams, blocks % n_cams)
        self.diag_slots, self.diag_entries = self._band_slots(np.arange(n_cams), np.arange(n_cams))

    def _band_slots(self, cams_a, cams_b):
        """Where the stored entries of the 6x6 blocks S[a_k, b_k] go in band storage.

        An entry is stored when it lies on or above the diagonal of the
        permuted S. Returns (flat band index, flat index into the (k, 6, 6)
        stack of blocks) of each stored entry.
        """
        i = 6 * self.rank[cams_a][:, None, None] + np.arange(6)[:, None]
        j = 6 * self.rank[cams_b][:, None, None] + np.arange(6)
        stored = (i <= j).ravel()
        return ((self.kd + i - j) * (6 * self.n_cams) + j).ravel()[stored], np.flatnonzero(stored)


@dataclass
class BlockJacobian:
    """A bundle-adjustment Jacobian held as its nonzero blocks.

    Rows 2k and 2k+1 belong to observation k: `cam[k]` (2x6) on camera
    `structure.obs_cam[k]` and `land[k]` (2x3) on landmark
    `structure.obs_land[k]`. Then each (F, 3, 6) array in `frame_rows` adds
    three rows per camera on that camera's parameters only (priors such as
    GPS and gravity), camera after camera. Camera parameters come first in
    the parameter vector, landmarks after them.
    """

    structure: BlockStructure
    cam: np.ndarray
    land: np.ndarray
    frame_rows: list

    def toarray(self) -> np.ndarray:
        st = self.structure
        n_obs, n_cams = st.obs_cam.shape[0], st.n_cams
        dense = np.zeros((2 * n_obs + 3 * n_cams * len(self.frame_rows), 6 * n_cams + 3 * st.n_landmarks))
        rows = 2 * np.arange(n_obs)[:, None, None] + np.arange(2)[:, None]
        dense[rows, 6 * st.obs_cam[:, None, None] + np.arange(6)] = self.cam
        dense[rows, 6 * n_cams + 3 * st.obs_land[:, None, None] + np.arange(3)] = self.land
        cams = np.arange(n_cams)[:, None, None]
        for g, block in enumerate(self.frame_rows):
            dense[2 * n_obs + 3 * (g * n_cams + cams) + np.arange(3)[:, None], 6 * cams + np.arange(6)] = block
        return dense


def _floored(diag):
    diag = diag.copy()
    diag[diag <= 0.0] = 1e-12
    return diag


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
        if not (np.all(np.isfinite(self.hess)) and np.all(np.isfinite(self.grad))):
            raise NonFinite("non-finite normal equations")
        self.diag = _floored(self.hess.diagonal())

    def step(self, mu: float) -> np.ndarray:
        """Solve (H + mu diag(d)) step = -g; raises LinAlgError if it fails to factor."""
        s = self.hess.copy()
        s[np.diag_indices(s.shape[0])] += mu * self.diag
        return cho_solve(cho_factor(s, overwrite_a=True, check_finite=False), -self.grad, check_finite=False)


class _BlockNormalEquations:
    """Normal equations of a BlockJacobian, kept in blocks for elimination.

    H = J^T J splits into U, the F diagonal 6x6 camera blocks; V, the L
    diagonal 3x3 landmark blocks; and W, one 6x3 block per observation. Each
    is a stacked matmul of the weighted Jacobian blocks, summed per camera
    and per landmark by the structure's 0/1 matrices. The damping scales
    are the diagonals of U and V, floored at 1e-12.
    """

    def __init__(self, jac: BlockJacobian, r, row_w):
        st = self.structure = jac.structure
        n_obs, n_cams = st.obs_cam.shape[0], st.n_cams
        # Stacked matmuls are fast only on C-contiguous operands: build J_k^T
        # as its own array rather than as a transposed view.
        blocks = np.concatenate([jac.cam, jac.land], axis=2)  # (m, 2, 9)
        blocks_t = np.concatenate([jac.cam.transpose(0, 2, 1), jac.land.transpose(0, 2, 1)], axis=1)
        frame_rows = jac.frame_rows
        frame_rows_t = [block.transpose(0, 2, 1).copy() for block in frame_rows]
        r_obs = r[: 2 * n_obs].reshape(n_obs, 2, 1)
        r_frame = r[2 * n_obs :].reshape(len(frame_rows), n_cams, 3, 1)
        if row_w is not None:  # J^T diag(w) J and J^T diag(w) r
            blocks_t = blocks_t * row_w[: 2 * n_obs].reshape(n_obs, 1, 2)
            w_frame = row_w[2 * n_obs :].reshape(len(frame_rows), n_cams, 1, 3)
            frame_rows_t = [block_t * w for block_t, w in zip(frame_rows_t, w_frame)]
        hess = blocks_t @ blocks  # (m, 9, 9)
        grad = (blocks_t @ r_obs)[:, :, 0]  # (m, 9)

        u = st.cam_sum @ hess[:, :6, :6].reshape(n_obs, 36)
        g_cam = st.cam_sum @ grad[:, :6]
        for block, block_t, r_block in zip(frame_rows, frame_rows_t, r_frame):
            u += (block_t @ block).reshape(n_cams, 36)
            g_cam += (block_t @ r_block)[:, :, 0]
        self.u = u.reshape(n_cams, 6, 6)
        self.v = (st.land_sum @ hess[:, 6:, 6:].reshape(n_obs, 9)).reshape(-1, 3, 3)
        self.g_cam, self.g_land = g_cam, st.land_sum @ grad[:, 6:]
        self.grad = np.concatenate([g_cam.ravel(), self.g_land.ravel()])
        # |W_ij| <= sqrt(U_ii V_jj), so W is finite when U and V are.
        if not (np.isfinite(self.u).all() and np.isfinite(self.v).all() and np.isfinite(self.grad).all()):
            raise NonFinite("non-finite normal equations")
        self.w = np.ascontiguousarray(hess[:, :6, 6:])  # (m, 6, 3)
        self.w_t = np.ascontiguousarray(hess[:, 6:, :6])  # (m, 3, 6)
        self.u_diag = _floored(np.diagonal(self.u, axis1=1, axis2=2))
        self.v_diag = _floored(np.diagonal(self.v, axis1=1, axis2=2))

    def step(self, mu: float) -> np.ndarray:
        """Solve (H + mu diag(H)) step = -g; raises LinAlgError if S fails to factor.

        The landmark blocks are eliminated first: S = U_mu - W V_mu^-1 W^T
        goes into upper band storage in the structure's camera order and is
        Cholesky-factored there for the camera step; then each landmark's
        step is V_mu^-1 (-g_l - W^T step_camera).
        """
        st = self.structure
        n_cams = st.n_cams
        v = self.v.copy()
        v[:, [0, 1, 2], [0, 1, 2]] += mu * self.v_diag
        v_inv = np.linalg.inv(v)
        # np.take on axis 0 gathers blocks about twice as fast as fancy indexing.
        y = self.w @ np.take(v_inv, st.obs_land, axis=0)  # W_k V_mu^-1 per observation, (m, 6, 3)
        pairs = np.take(y, st.pair_i, axis=0) @ np.take(self.w_t, st.pair_j, axis=0)
        reduction = st.pair_sum @ pairs.reshape(-1, 36)  # W V_mu^-1 W^T, one row per camera block
        u = self.u.copy()
        u[:, np.arange(6), np.arange(6)] += mu * self.u_diag
        band = np.zeros((st.kd + 1, 6 * n_cams))
        band.reshape(-1)[st.block_slots] = -np.take(reduction, st.block_entries)
        band.reshape(-1)[st.diag_slots] += np.take(u, st.diag_entries)

        g_land = np.take(self.g_land, st.obs_land, axis=0)[:, :, None]
        rhs = st.cam_sum @ (y @ g_land)[:, :, 0] - self.g_cam
        factor = cholesky_banded(band, overwrite_ab=True, lower=False, check_finite=False)
        step_cam = np.empty((n_cams, 6))
        step_cam[st.order] = cho_solve_banded((factor, False), rhs[st.order].ravel(), check_finite=False).reshape(-1, 6)
        w_step = self.w_t @ np.take(step_cam, st.obs_cam, axis=0)[:, :, None]
        back = self.g_land + st.land_sum @ w_step[:, :, 0]
        return np.concatenate([step_cam.ravel(), -(v_inv @ back[:, :, None]).ravel()])


def _normal_equations(jac, r, row_w):
    if isinstance(jac, BlockJacobian):
        return _BlockNormalEquations(jac, r, row_w)
    return _DenseNormalEquations(jac, r, row_w)


def solve_least_squares(
    residual_fn,
    x0,
    jacobian=None,
    *,
    robust=None,
    max_iterations=100,
    rel_cost_tol=1e-10,
    damping_init=1e-4,
    damping_max=1e10,
):
    """Minimize the (optionally robustified) sum of squared residuals.

    `jacobian` returns a dense ndarray or a BlockJacobian. A dense Jacobian
    is solved whole. A BlockJacobian's landmarks are eliminated on each
    damped step, and only the reduced camera system is factored, by a banded
    Cholesky in the structure's reverse Cuthill-McKee camera order. The
    Jacobian is evaluated once per iteration; a failed factorisation raises
    the damping like a rejected step.

    Returns a SolveResult; ``converged`` is True when the relative cost
    decrease fell below tolerance or the problem stalled at a stationary
    point, False when the iteration budget ran out first. Raises NonFinite
    if residuals at the current iterate or a solved step are non-finite.
    """
    x = np.asarray(x0, dtype=float).copy()
    if jacobian is None:
        jac_fn = lambda p: numeric_jacobian(residual_fn, p)
    else:
        jac_fn = jacobian

    r = np.asarray(residual_fn(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise NonFinite("non-finite residuals at initial parameters")
    cost = robust_cost(r, robust)
    history = [cost]
    if cost == 0.0:
        return SolveResult(x, cost, True, 0, "zero cost at start", history)

    mu = damping_init
    iteration = 0
    message = "max iterations reached"
    converged = False
    solves = rejected = 0
    gradient_norm = float("nan")

    while iteration < max_iterations:
        iteration += 1
        normal = _normal_equations(jac_fn(x), r, _row_weights(r, robust))
        gradient_norm = float(np.linalg.norm(normal.grad))
        accepted = False
        while mu <= damping_max:
            solves += 1
            try:
                step = normal.step(mu)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            if not np.all(np.isfinite(step)):
                raise NonFinite("non-finite update step")
            x_trial = x + step
            r_trial = np.asarray(residual_fn(x_trial), dtype=float)
            if np.all(np.isfinite(r_trial)):
                cost_trial = robust_cost(r_trial, robust)
                if cost_trial < cost:
                    accepted = True
                    break
            rejected += 1
            mu *= 10.0
        if not accepted:
            # No descent at maximal damping: stationary within precision.
            converged = True
            message = "no further decrease"
            break

        decrease = cost - cost_trial
        x, r, cost = x_trial, r_trial, cost_trial
        history.append(cost)
        mu = max(mu / 3.0, 1e-12)
        if decrease <= rel_cost_tol * max(cost, 1e-300):
            converged = True
            message = "relative cost decrease below tolerance"
            break
        if cost <= 1e-18 * max(1.0, history[0]):
            # Zero-residual fixed point: relative decreases stay large in
            # floating noise, so an absolute floor ends the iteration.
            converged = True
            message = "cost negligible"
            break

    return SolveResult(x, cost, converged, iteration, message, history, solves, rejected, gradient_norm)
