"""Damped Gauss-Newton (Levenberg-Marquardt) solver on the reduced camera system.

The residual vector may carry a robustified prefix: the first
``n_blocks * block_size`` rows are grouped into fixed-size blocks whose
norms go through a Huber loss (optionally with per-block outer weights);
all remaining rows contribute plain squared error. Steps are accepted only
if the true (robust) cost decreases, so the recorded cost history is
non-increasing by construction.

Bundle adjustment declares its block structure: the last ``landmark_blocks``
groups of 3 parameters are landmarks, and no residual row touches two of
them, so the landmark block V of the normal equations is 3x3
block-diagonal. Each damped step eliminates those blocks (Schur
complement): the camera block is solved from the reduced camera system
S = U - W V^-1 W^T by Cholesky and the landmarks follow by
back-substitution, so no n x n matrix is built or factored (Triggs et al.,
"Bundle Adjustment - A Modern Synthesis"; Agarwal et al., "Bundle
Adjustment in the Large"). With no landmark blocks S is the whole damped
normal matrix.

Jacobians may be dense ndarrays or scipy.sparse matrices; with
``jacobian=None`` a central-difference Jacobian is used (only sensible for
small problems).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

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


def _split_normal_matrix(hess, p: int, n_landmarks: int):
    """U = H[:p, :p] (dense), W = H[:p, p:] (CSR) and the (L, 3, 3) diagonal blocks V of H[p:, p:].

    `hess` is a dense array or a sparse product, so it holds no duplicate
    entries. Raises ValueError if H[p:, p:] is not 3x3 block-diagonal.
    """
    h = sp.coo_matrix(hess)
    row, col, data = h.row, h.col, h.data
    cam_row, cam_col = row < p, col < p
    u = np.zeros((p, p))
    m = cam_row & cam_col
    u[row[m], col[m]] = data[m]
    m = cam_row & ~cam_col
    w = sp.csr_matrix((data[m], (row[m], col[m] - p)), shape=(p, 3 * n_landmarks))
    m = ~(cam_row | cam_col)
    lrow, lcol = row[m] - p, col[m] - p
    if np.any(lrow // 3 != lcol // 3):
        raise ValueError("landmark parameters are coupled across 3x3 blocks")
    v = np.zeros((n_landmarks, 3, 3))
    v[lrow // 3, lrow % 3, lcol % 3] = data[m]
    return u, w, v


class _NormalEquations:
    """Weighted Gauss-Newton normal equations at one iterate, split for elimination.

    With p = n - 3 L camera parameters, H = J^T J splits into U = H[:p, :p]
    (dense), W = H[:p, p:] (sparse) and V, the L diagonal 3x3 blocks of
    H[p:, p:]; g = J^T r. `diag` is diag(H) floored at 1e-12, the
    Levenberg-Marquardt damping scale.
    """

    def __init__(self, jac, r, row_w, landmark_blocks: int = 0):
        sw = None if row_w is None else np.sqrt(row_w)
        if sp.issparse(jac):
            jw = jac.tocsr()
            if sw is not None:
                jw = sp.csr_matrix((jw.data * np.repeat(sw, np.diff(jw.indptr)), jw.indices, jw.indptr), shape=jw.shape)
        else:
            jw = np.asarray(jac, dtype=float)
            if sw is not None:
                jw = sw[:, None] * jw
        hess = jw.T @ jw
        self.grad = np.asarray(jw.T @ (r if sw is None else sw * r)).ravel()
        values = hess.data if sp.issparse(hess) else hess
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(self.grad))):
            raise NonFinite("non-finite normal equations")

        self.n_landmarks = landmark_blocks
        p = self.grad.shape[0] - 3 * landmark_blocks
        self.diag = hess.diagonal().copy()
        self.diag[self.diag <= 0.0] = 1e-12
        if landmark_blocks or sp.issparse(hess):
            self.u, self.w, self.v = _split_normal_matrix(hess, p, landmark_blocks)
            self.wt = self.w.T.tocsr()
            self.v_diag = self.diag[p:].reshape(-1, 3)
        else:
            self.u = hess

    def step(self, mu: float) -> np.ndarray:
        """Solve (H + mu diag(d)) step = -g; raises LinAlgError if it fails to factor.

        The landmark blocks are eliminated first: S = U_mu - W V_mu^-1 W^T
        is Cholesky-factored for the camera step, then each landmark's step
        is V_mu^-1 (-g_l - W^T step_camera).
        """
        p = self.u.shape[0]
        g_cam = self.grad[:p]
        if self.n_landmarks:
            v = self.v.copy()
            v[:, [0, 1, 2], [0, 1, 2]] += mu * self.v_diag
            v_inv = np.linalg.inv(v)
            blocks = np.arange(self.n_landmarks + 1)
            wv = self.w @ sp.bsr_matrix((v_inv, blocks[:-1], blocks), shape=(3 * self.n_landmarks,) * 2)
            s = (wv @ self.wt).toarray()
            np.subtract(self.u, s, out=s)
            rhs = wv @ self.grad[p:] - g_cam
        else:
            s = self.u.copy()
            rhs = -g_cam
        s[np.diag_indices(p)] += mu * self.diag[:p]
        step_cam = cho_solve(cho_factor(s, overwrite_a=True, check_finite=False), rhs, check_finite=False)
        if not self.n_landmarks:
            return step_cam
        back = (self.grad[p:] + self.wt @ step_cam).reshape(-1, 3)
        return np.concatenate([step_cam, -np.einsum("lij,lj->li", v_inv, back).ravel()])


def solve_least_squares(
    residual_fn,
    x0,
    jacobian=None,
    *,
    robust=None,
    landmark_blocks=0,
    max_iterations=100,
    rel_cost_tol=1e-10,
    damping_init=1e-4,
    damping_max=1e10,
):
    """Minimize the (optionally robustified) sum of squared residuals.

    `landmark_blocks` is the number of trailing 3-parameter blocks that no
    residual row couples to each other (bundle-adjustment landmarks); each
    damped step eliminates them and factors only the reduced camera system.

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

    while iteration < max_iterations:
        iteration += 1
        normal = _NormalEquations(jac_fn(x), r, _row_weights(r, robust), landmark_blocks)
        accepted = False
        while mu <= damping_max:
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

    return SolveResult(x, cost, converged, iteration, message, history)
