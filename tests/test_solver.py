"""Least-squares solver checks: standard test functions and robustness."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cityvps.geometry import (
    NonFinite,
    RobustPrefix,
    Termination,
    numeric_jacobian,
    robust_cost,
    solve_least_squares,
)
from cityvps.geometry import least_squares


def test_quadratic_bowl():
    res = solve_least_squares(lambda x: x - 3.0, np.zeros(1))
    assert res.converged
    assert abs(res.params[0] - 3.0) < 1e-8


def test_rosenbrock():
    def residuals(p):
        a, b = p
        return np.array([1.0 - a, 10.0 * (b - a * a)])

    res = solve_least_squares(residuals, np.array([-1.2, 1.0]), max_iterations=200)
    assert res.converged
    assert np.allclose(res.params, [1.0, 1.0], atol=1e-6)


def test_cost_history_non_increasing():
    def residuals(p):
        a, b = p
        return np.array([1.0 - a, 10.0 * (b - a * a), 0.5 * a * b])

    res = solve_least_squares(residuals, np.array([-1.2, 1.0]), max_iterations=200)
    hist = np.array(res.cost_history)
    assert np.all(np.diff(hist) <= 0.0)


def test_huber_outlier_point_fit():
    # Fit a 2D point to samples around (1, 2) with one 1000-sigma outlier;
    # oracle is the coordinate-wise median of the inliers.
    rng = np.random.default_rng(42)
    sigma = 0.1
    inliers = np.array([1.0, 2.0]) + rng.normal(scale=sigma, size=(40, 2))
    samples = np.vstack([inliers, np.array([[1.0 + 1000.0 * sigma, 2.0]])])
    oracle = np.median(inliers, axis=0)

    def residuals(p):
        return (samples - p).ravel()

    robust = RobustPrefix(n_blocks=samples.shape[0], block_size=2, delta=1.0)
    res = solve_least_squares(residuals, np.zeros(2), robust=robust)
    assert res.converged
    assert np.linalg.norm(res.params - oracle) < 3.0 * sigma


def test_robust_cost_matches_huber_closed_form():
    r = np.array([3.0, 4.0, 1.0, 0.5])  # one block of norm 5, two plain rows
    prefix = RobustPrefix(n_blocks=1, block_size=2, delta=1.0)
    expected = 1.0 * (5.0 - 0.5) + 0.5 * (1.0 + 0.25)
    assert robust_cost(r, prefix) == pytest.approx(expected)


def test_non_finite_start_raises():
    with pytest.raises(NonFinite):
        solve_least_squares(lambda x: np.array([np.nan]), np.zeros(1))


def test_analytic_jacobian_usage():
    def residuals(p):
        return np.array([p[0] ** 2 - 2.0, p[0] - p[1]])

    def jacobian(p):
        return np.array([[2.0 * p[0], 0.0], [1.0, -1.0]])

    fd = numeric_jacobian(residuals, np.array([1.3, 0.7]))
    assert np.allclose(jacobian(np.array([1.3, 0.7])), fd, atol=1e-6)
    res = solve_least_squares(residuals, np.array([3.0, 0.0]), jacobian=jacobian)
    assert res.converged
    assert np.allclose(res.params, [np.sqrt(2.0), np.sqrt(2.0)], atol=1e-8)


def test_zero_residual_immediate():
    res = solve_least_squares(lambda x: np.zeros(2), np.array([1.0, 2.0]))
    assert res.converged
    assert res.iterations == 0


def rosenbrock(p):
    a, b = p
    return np.array([1.0 - a, 10.0 * (b - a * a)])


# One solve per reason a solve can stop: (residuals, start, keyword arguments).
TERMINATION_CASES = {
    Termination.ZERO_COST: (lambda x: np.zeros(2), [1.0, 2.0], {}),
    # A non-zero minimum: the steps' gains shrink below the tolerance.
    Termination.COST_TOLERANCE: (lambda p: np.append(rosenbrock(p), 0.5 * p[0] * p[1]), [-1.2, 1.0], {}),
    # A zero minimum: the cost falls to rounding while each step still gains most of it.
    Termination.NEGLIGIBLE_COST: (lambda x: x - 3.0, [0.0], {}),
    # A Jacobian of the wrong sign: every step climbs, however damped.
    Termination.STALLED: (lambda x: x - 3.0, [0.0], {"jacobian": lambda x: -np.eye(1)}),
    Termination.ITERATION_BUDGET: (rosenbrock, [-1.2, 1.0], {"max_iterations": 2}),
}


@pytest.mark.parametrize("reason", list(Termination), ids=lambda reason: reason.name.lower())
def test_termination_reason(reason):
    residuals, x0, kwargs = TERMINATION_CASES[reason]
    res = solve_least_squares(residuals, np.array(x0), **kwargs)
    assert res.termination is reason
    assert res.converged == (reason is not Termination.ITERATION_BUDGET)


def test_counters_match_cost_history(monkeypatch):
    # Rosenbrock from the classic start rejects some trial steps. The first
    # factorisation is made to fail: it counts as a linear solve but not as
    # a trial step, and only raises the damping.
    evaluations = []

    def residuals(p):
        evaluations.append(p)
        a, b = p
        return np.array([1.0 - a, 10.0 * (b - a * a)])

    def jacobian(p):
        return np.array([[-1.0, 0.0], [-20.0 * p[0], 10.0]])

    factorisations = []

    cholesky = least_squares._cholesky

    def failing_cholesky(a):
        factorisations.append(a)
        if len(factorisations) == 1:
            raise np.linalg.LinAlgError("not positive definite")
        return cholesky(a)

    monkeypatch.setattr(least_squares, "_cholesky", failing_cholesky)
    res = solve_least_squares(residuals, np.array([-1.2, 1.0]), jacobian, max_iterations=200)
    assert res.converged
    trials = len(evaluations) - 1  # the first evaluates the start
    accepted = len(res.cost_history) - 1
    assert res.rejected_steps >= 1
    assert res.rejected_steps == trials - accepted
    assert res.linear_solves == len(factorisations) == trials + 1
    assert res.gradient_norm < 1e-6


# The dense damped step solves PnP (6 parameters) and fusion (7 per submap).
dense_sizes = st.integers(1, 14)
seeds = st.integers(0, 2**32 - 1)


@given(dense_sizes, seeds, st.floats(-12.0, 4.0))
@settings(max_examples=200, deadline=None)
def test_dense_step_backward_error_is_within_scipy_cho_solve_bound(n, seed, log_mu):
    # The step and SciPy's Cholesky solve of the same damped system both
    # meet one normwise backward-error bound; column scales of 1e-3 to 1e3
    # make the system ill-conditioned, so the steps themselves may differ
    # by more than rounding.
    rng = np.random.default_rng(seed)
    jac = rng.normal(size=(n + 3, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    normal = least_squares._DenseNormalEquations(jac, rng.normal(size=n + 3), rng.uniform(0.1, 1.0, size=n + 3))
    mu = 10.0**log_mu
    damped = normal.hess.copy()
    damped[np.diag_indices(n)] += mu * normal.diag
    reference = scipy.linalg.cho_solve(scipy.linalg.cho_factor(damped), -normal.grad)
    for step in (reference, normal.step(mu)):
        residual = np.linalg.norm(damped @ step + normal.grad)
        assert residual <= 1e-12 * (np.linalg.norm(damped) * np.linalg.norm(step) + np.linalg.norm(normal.grad))


@given(dense_sizes, seeds)
@settings(max_examples=100, deadline=None)
def test_dense_step_raises_on_a_non_positive_definite_system(n, seed):
    # LinAlgError is what makes the solver raise the damping and retry.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigenvalues = rng.uniform(0.1, 10.0, size=n)
    eigenvalues[rng.integers(n)] = -1.0
    normal = least_squares._DenseNormalEquations(np.eye(n), np.ones(n), None)
    normal.hess = (q * eigenvalues) @ q.T
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.cho_factor(normal.hess + np.diag(1e-6 * normal.diag))
    with pytest.raises(np.linalg.LinAlgError):
        normal.step(1e-6)


def street_structure(n_cams, width, seed):
    """A BlockStructure whose landmarks are each seen by up to width + 1 neighbouring cameras.

    The cameras' ids are shuffled along the street, and camera 0 observes
    nothing, like a frame held by its priors alone.
    """
    rng = np.random.default_rng(seed)
    along = rng.permutation(n_cams)  # camera id at each position along the street
    obs_cam, obs_land = [], []
    for landmark, start in enumerate(rng.integers(0, n_cams, size=3 * n_cams)):
        cams = [int(c) for c in along[start : start + width + 1] if c != 0]
        obs_cam += cams
        obs_land += [landmark] * len(cams)
    return least_squares.BlockStructure(obs_cam, obs_land, n_cams, 3 * n_cams)


def schur_inputs(structure, rng):
    """Random per-observation W_k (6x3) and per-landmark symmetric positive definite V^-1 (3x3).

    Returns (y, w_t, dense): the inputs of `BlockStructure.reduced_chunks`,
    y_k = W_k V^-1 and w_t_k = W_k^T, and W V^-1 W^T as a dense
    (6 n_cams, 6 n_cams) matrix in camera id order.
    """
    n_cams, n_landmarks = structure.n_cams, structure.n_landmarks
    w = rng.normal(size=(structure.obs_cam.size, 6, 3))
    a = rng.normal(size=(n_landmarks, 3, 3))
    v_inv = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(3)
    dense_w = np.zeros((n_cams, 6, n_landmarks, 3))
    np.add.at(dense_w, (structure.obs_cam, slice(None), structure.obs_land), w)
    dense_w = dense_w.reshape(6 * n_cams, 3 * n_landmarks)
    dense_v_inv = np.zeros((n_landmarks, 3, n_landmarks, 3))
    dense_v_inv[np.arange(n_landmarks), :, np.arange(n_landmarks)] = v_inv
    dense = dense_w @ dense_v_inv.reshape(3 * n_landmarks, 3 * n_landmarks) @ dense_w.T
    return w @ v_inv[structure.obs_land], w.transpose(0, 2, 1).copy(), dense


def check_reduced_chunks(structure, seed):
    """`reduced_chunks` equals the chunks of the dense S = U - W V^-1 W^T, and S has no entry outside them."""
    rng = np.random.default_rng(seed)
    n_cams, chunk, n_chunks = structure.n_cams, structure.chunk, structure.n_chunks
    y, w_t, reduction = schur_inputs(structure, rng)
    u = rng.normal(size=(n_cams, 6, 6))
    dense = np.zeros((n_cams, 6, n_cams, 6))
    dense[np.arange(n_cams), :, np.arange(n_cams)] = u
    dense -= reduction.reshape(n_cams, 6, n_cams, 6)
    # In the structure's camera order, padded with identity blocks to whole chunks.
    padded = np.zeros((n_chunks * chunk, 6, n_chunks * chunk, 6))
    padded[:n_cams, :, :n_cams] = dense[structure.order][:, :, structure.order]
    padded[np.arange(n_cams, n_chunks * chunk), :, np.arange(n_cams, n_chunks * chunk)] = np.eye(6)
    padded = padded.reshape(n_chunks, 6 * chunk, n_chunks, 6 * chunk)
    expected = [padded[k, :, k] for k in range(n_chunks)] + [padded[k, :, k + 1] for k in range(n_chunks - 1)]
    far = np.abs(np.arange(n_chunks)[:, None] - np.arange(n_chunks)) > 1
    assert not padded.transpose(0, 2, 1, 3)[far].any()
    chunks = structure.reduced_chunks(y, w_t, u)
    assert chunks.shape == (2 * n_chunks - 1, 6 * chunk, 6 * chunk)
    assert np.allclose(chunks, np.array(expected), rtol=0.0, atol=1e-12 * max(1.0, np.abs(dense).max()))


@given(st.integers(1, 40), st.integers(0, 8), seeds)
@example(1, 0, 0)  # one camera, observing nothing
@example(7, 0, 3)  # bandwidth 0: chunks of one camera
@settings(max_examples=100, deadline=None)
def test_reduced_chunks_equal_dense_schur_complement(n_cams, width, seed):
    # A damped bundle-adjustment step assembles S one row of chunks at a
    # time; the reference is U - W V^-1 W^T formed densely.
    check_reduced_chunks(street_structure(n_cams, width, seed), seed + 1)


def test_reduced_chunks_of_a_long_street():
    structure = street_structure(40, 3, 5)
    assert len(structure.rows) >= 5  # rows of the chunks that hold pairs
    check_reduced_chunks(structure, 6)


@given(st.integers(1, 40), st.integers(0, 8), seeds, st.booleans())
@example(1, 0, 0, False)  # one camera, observing nothing
@example(7, 0, 3, False)  # bandwidth 0: chunks of one camera
@example(40, 3, 5, False)  # 40 cameras in chunks of 3
@example(40, 3, 5, True)
@settings(max_examples=200, deadline=None)
def test_chunked_camera_solve_equals_dense_solve(n_cams, width, seed, indefinite):
    # Bundle adjustment solves its reduced camera system S = U - W V^-1 W^T
    # in block-tridiagonal chunks of `bandwidth` cameras; the reference is
    # S formed densely and solved whole.
    structure = street_structure(n_cams, width, seed)
    assert structure.chunk == max(1, structure.bandwidth)
    assert 0 not in structure.obs_cam
    rng = np.random.default_rng(seed + 1)
    y, w_t, reduction = schur_inputs(structure, rng)
    block = rng.normal(size=(n_cams, 6, 6))
    u = block + block.transpose(0, 2, 1)
    dense = -reduction
    dense.reshape(n_cams, 6, n_cams, 6)[np.arange(n_cams), :, np.arange(n_cams)] += u
    low, second = np.linalg.eigvalsh(dense)[:2]
    # Positive definite with smallest eigenvalue about 1, or one negative
    # eigenvalue: a shift of every diagonal entry of U shifts S's spectrum.
    shift = -0.5 * (low + second) if indefinite else 1.0 - low
    u[:, np.arange(6), np.arange(6)] += shift
    dense[np.diag_indices(6 * n_cams)] += shift
    rhs = rng.normal(size=(n_cams, 6))
    if indefinite:
        with pytest.raises(np.linalg.LinAlgError):
            structure.solve_reduced(y, w_t, u, rhs)
        return
    expected = np.linalg.solve(dense, rhs.ravel()).reshape(n_cams, 6)
    step = structure.solve_reduced(y, w_t, u, rhs)
    assert np.linalg.norm(step - expected) <= 1e-10 * np.linalg.norm(expected)


@given(st.integers(1, 40), seeds, st.floats(-6.0, 6.0))
@settings(max_examples=100, deadline=None)
def test_landmark_inverse_matches_lapack(n, seed, log_scale):
    # Bundle adjustment inverts its damped 3x3 landmark blocks in closed form.
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 3, 3))
    blocks = (a @ a.transpose(0, 2, 1) + 0.1 * np.eye(3)) * 10.0**log_scale
    expected = np.linalg.inv(blocks)
    inverse = least_squares._symmetric_inverse(blocks)
    assert np.all(np.abs(inverse - expected) <= 1e-12 * np.abs(expected).max(axis=(1, 2), keepdims=True))


@pytest.mark.parametrize("singular", [np.zeros((3, 3)), np.diag([2.0, 1.0, 0.0]), -np.eye(3)])
def test_landmark_inverse_raises_unless_every_determinant_is_positive(singular):
    # LinAlgError is what makes the solver raise the damping and retry.
    blocks = np.repeat(np.eye(3)[None], 4, axis=0)
    blocks[2] = singular
    with pytest.raises(np.linalg.LinAlgError):
        least_squares._symmetric_inverse(blocks)


@given(st.integers(1, 12), st.integers(1, 20), st.integers(1, 80), seeds, st.booleans())
@settings(max_examples=200, deadline=None)
def test_block_structure_sums_equal_dense_products(n_cams, n_landmarks, n_obs, seed, by_landmark):
    # Bundle adjustment sums its per-observation blocks by segments; the
    # reference is the 0/1 summation matrix times the blocks. Its per-pair
    # blocks go into the chunks of S; the reference is S formed densely.
    # Camera 0 has no observation, like a frame held by its priors alone.
    rng = np.random.default_rng(seed)
    obs_cam = rng.integers(1, n_cams, size=n_obs) if n_cams > 1 else np.zeros(0, dtype=int)
    obs_land = rng.integers(0, n_landmarks, size=obs_cam.size)
    if by_landmark:  # the rows of a bundle-adjustment problem run landmark by landmark
        obs_land = np.sort(obs_land)
    structure = least_squares.BlockStructure(obs_cam, obs_land, n_cams, n_landmarks)

    def dense_sum(labels, n, blocks):
        return (np.arange(n)[:, None] == labels[None, :]).astype(float) @ blocks

    for sums, labels, n in ((structure.cam_sum, obs_cam, n_cams), (structure.land_sum, obs_land, n_landmarks)):
        blocks = rng.normal(size=(labels.size, 36))
        assert np.allclose(sums(blocks), dense_sum(labels, n, blocks), rtol=0.0, atol=1e-12)
    assert not structure.cam_sum(np.ones((obs_cam.size, 6)))[0].any()

    rank = structure.rank
    expected_pairs = [
        (i, j) for i in range(obs_cam.size) for j in range(obs_cam.size)
        if obs_land[i] == obs_land[j] and rank[obs_cam[i]] <= rank[obs_cam[j]]
    ]
    # The pairs run camera block by camera block in the order, and within a
    # block landmark by landmark, each landmark's pairs as enumerated above;
    # the rows of the chunks take them in turn.
    in_order = sorted(expected_pairs, key=lambda ij: (rank[obs_cam[ij[0]]], rank[obs_cam[ij[1]]], obs_land[ij[0]]))
    assert list(zip(structure.pair_i.tolist(), structure.pair_j.tolist())) == in_order
    for name, k in (("pair_i", 0), ("pair_j", 1)):
        rows = [row[k] for row in structure.rows]
        assert np.array_equal(np.concatenate(rows or [np.zeros(0, dtype=int)]), getattr(structure, name))
    check_reduced_chunks(structure, seed + 1)
