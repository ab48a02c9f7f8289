"""The reprojection and gravity model shared by registration and BA.

Pose parameters are [rotvec (3), translation (3)] with the pose mapping
camera coordinates to world coordinates, so a world point projects through
x_cam = R(rotvec)^T (X - t). Observations whose point falls behind the
camera get a large constant residual with zero Jacobian: trial steps that
push points behind the camera raise the cost and get rejected instead of
producing non-finite values.

``camera_projection`` is the projection kernel: camera-frame points to
pixels, their dpixel/dx_cam blocks and validity; the simulator's
observations go through it too. ``project_observations``,
``observation_residuals``, ``observation_blocks`` and ``gravity_rows`` are
the one observation model over a set of cameras: registration counts a
pose's inliers from its residuals (``reprojection_errors``, through
``reprojection_rows``), and bundle adjustment adds its GPS rows to them.
One projection serves both the residuals and the Jacobian blocks of its
point. A residual sees its point only through X - t, so
``observation_blocks`` returns the 2x6 camera blocks alone: the 2x3 point
block is minus their translation half.

Single-pose refinement (``PoseModel``) is the one-camera case with its
points held fixed, and the one model with its own projection: registration
evaluates it about ten times per frame, so it skips what a single camera
does not need. There is nothing to gather per point: it projects (X - t) R with
one reciprocal depth per point, and forms its Jacobian's reprojection rows
in closed form in camera coordinates, turned into ``observation_blocks``'
rows by one (n,9) by (9,12) product; tests hold it to the shared model's
numbers. It and bundle adjustment project once per LM point:
Levenberg-Marquardt asks for the Jacobian at the point whose residuals it
has just accepted, so each model keeps the projection of the last point it
evaluated (``LastEvaluation``) and its Jacobian reuses it only at that
same point, compared byte for byte; anywhere else it projects afresh. The
reuse changes no number.
"""

from __future__ import annotations

import weakref

import numpy as np

from . import so3
from .camera import MIN_DEPTH, Camera
from .least_squares import RobustPrefix, solve_least_squares
from .pose import GRAVITY_WORLD, Pose

BEHIND_RESIDUAL = 1e4


def camera_projection(xc, camera: Camera):
    """Pixel projections, dpixel/dx_cam blocks and validity of camera-frame points.

    Returns (pix (n,2), A (n,2,3), valid (n,)) where invalid rows
    (depth <= MIN_DEPTH) have NaN pix and zero A.
    """
    xc = np.asarray(xc, dtype=float)
    z = xc[:, 2]
    valid = z > MIN_DEPTH
    zs = np.where(valid, z, 1.0)
    f = camera.focal
    pix = f * xc[:, :2] / zs[:, None] + np.array([camera.cx, camera.cy])
    a = np.zeros((xc.shape[0], 2, 3))
    a[:, 0, 0] = a[:, 1, 1] = f / zs
    a[:, :, 2] = -f * xc[:, :2] / (zs * zs)[:, None]
    if not valid.all():
        pix[~valid] = np.nan
        a[~valid] = 0.0
    return pix, a, valid


def project_observations(rots, ts, points, cams, camera: Camera):
    """The projection of observations: what their residuals and Jacobian blocks share.

    Observation k sees world point `points[k]` from camera `cams[k]`, whose
    rotation and position are `rots` and `ts` (F,...). Returns (xc (m,3),
    pix, A, valid): the camera-frame points R^T (X - t) and their
    ``camera_projection``.
    """
    rot = np.take(rots, cams, axis=0)
    xc = np.einsum("nji,nj->ni", rot, points - np.take(ts, cams, axis=0))  # R^T (X - t)
    return (xc, *camera_projection(xc, camera))


def observation_residuals(projection, pixels):
    """(m,2) residuals pixel - projection; behind-camera rows read BEHIND_RESIDUAL."""
    _, pix, _, valid = projection
    return np.where(valid[:, None], pixels - pix, BEHIND_RESIDUAL)


def observation_blocks(projection, rots, cams, jrs):
    """Camera Jacobian blocks (m,2,6) on [rotvec, t] of the residuals at `projection`.

    `rots` and `jrs` are the cameras' rotations and right Jacobians (F,3,3).
    A residual sees its point only through X - t, so its point block is
    minus the translation half of its camera block, `-blocks[:, :, 3:]`.
    """
    xc, _, a, _ = projection
    # dxc/drho = skew(xc) Jr ; dxc/dt = -R^T = -dxc/dX ; residual = pixel - proj.
    # np.take returns C-contiguous stacks, on which matmul is fastest.
    d_t = a @ np.take(np.transpose(rots, (0, 2, 1)), cams, axis=0)
    d_rho = -((a @ so3.batch_skew(xc)) @ np.take(jrs, cams, axis=0))
    return np.concatenate([d_rho, d_t], axis=2)


def reprojection_rows(rots, ts, points, cams, pixels, camera: Camera):
    """(m,2) residuals of observations: ``project_observations`` then ``observation_residuals``."""
    return observation_residuals(project_observations(rots, ts, points, cams, camera), pixels)


def gravity_rows(rots, gravity, sqrtw: float, jrs=None):
    """Gravity-direction residuals sqrtw (R^T g_w - g_meas) per camera, or their (F,3,6) blocks with `jrs`.

    `gravity` holds each camera's measured unit gravity direction in its own frame.
    """
    g_body = GRAVITY_WORLD @ rots  # R^T g_w per camera
    if jrs is None:
        return (g_body - gravity) * sqrtw
    # d(R^T g_w)/drho = skew(R^T g_w) Jr.
    blocks = np.zeros((rots.shape[0], 3, 6))
    blocks[:, :, :3] = sqrtw * (so3.batch_skew(g_body) @ jrs)
    return blocks


class LastEvaluation:
    """`fn`, a bound method, of a parameter vector, kept for the last vector it was called with.

    The key is the vector's exact bytes, so a call at any other vector runs
    `fn` afresh and the reuse changes no number. The method's owner holds
    this cache, so the cache holds the method weakly: a strong reference
    would make a cycle, and the owner's arrays would then live until the
    garbage collector's next pass instead of being freed with it.
    """

    def __init__(self, fn):
        self._fn = weakref.WeakMethod(fn)
        self._key = self._value = None

    def __call__(self, x):
        key = x.tobytes()
        if key != self._key:
            self._value = self._fn()(x)
            self._key = key
        return self._value


def _pose_block(u, v, one, uu, uv, vv, u_z, v_z, inv_z):
    """d(u, v)/d[rotation, xc] of one point in camera coordinates, u = x/z and v = y/z.

    Linear in its arguments, the monomials of the point: `one` is 1.
    """
    return [[uv, -(one + uu), v, inv_z, 0.0, -u_z], [one + vv, -uv, -u, 0.0, inv_z, -v_z]]


# Row k holds the 2x6 coefficients of monomial k in _pose_block, flattened.
_POSE_ROW_TERMS = np.array([_pose_block(*unit) for unit in np.eye(9)]).reshape(18, 6)


class PoseModel:
    """Reprojection and gravity rows of one pose against fixed world points.

    Parameters are [rotvec, t]. With one camera there is nothing to gather:
    the points project as (X - t) R, one row each, through one reciprocal
    depth 1/z. The Jacobian's reprojection rows are formed in closed form
    in camera coordinates (``_pose_block``), and a product with
    f blockdiag(-J_r, R^T) turns them into the rows ``observation_blocks``
    gives. Both products are one matmul: the (n, 9) monomials of the points
    by their (9, 12) coefficients times that (6, 6) matrix.
    Residuals and Jacobian at one pose share its rotation and projection
    (``LastEvaluation``).
    """

    def __init__(self, points_world, pixels, camera: Camera, gravity_meas, gravity_sqrtw: float):
        self.points, self.pixels, self.camera = points_world, pixels, camera
        self.gravity, self.gravity_sqrtw = gravity_meas, gravity_sqrtw
        self._center = np.array([camera.cx, camera.cy])
        self._project = LastEvaluation(self._projection)

    def _projection(self, p):
        """The rotation, the Jacobian's monomials and the residuals at `p`."""
        # The scalar so3 helpers: on one pose the batched ones cost twice as much.
        rot = so3.exp(p[:3])
        # (X - t) R, row by row: R^T (X - t) summed in project_observations' order.
        xc = np.einsum("ji,nj->ni", rot, self.points - p[3:])
        z = xc[:, 2]
        valid = z > MIN_DEPTH
        inv_z = 1.0 / np.where(valid, z, 1.0)
        terms = np.empty((xc.shape[0], 9))  # the monomials of _pose_block
        np.multiply(xc[:, :2], inv_z[:, None], out=terms[:, :2])
        terms[:, 2] = 1.0
        np.multiply(terms[:, :2], terms[:, :1], out=terms[:, 3:5])
        np.multiply(terms[:, 1], terms[:, 1], out=terms[:, 5])
        np.multiply(terms[:, :3], inv_z[:, None], out=terms[:, 6:])
        r = self.pixels - (self.camera.focal * terms[:, :2] + self._center)
        if not valid.all():
            r[~valid] = BEHIND_RESIDUAL
            terms[~valid] = 0.0
        rows = np.concatenate([r.ravel(), gravity_rows(rot[None], self.gravity, self.gravity_sqrtw).ravel()])
        return rot, terms, rows

    def residuals(self, p):
        return self._project(p)[2]

    def jacobian(self, p):
        rot, terms, _ = self._project(p)
        jr = so3.right_jacobian(p[:3])
        f = self.camera.focal
        to_params = np.zeros((6, 6))
        to_params[:3, :3] = -f * jr
        to_params[3:, 3:] = f * rot.T
        rows = 2 * terms.shape[0]
        jac = np.empty((rows + 3, 6))
        np.matmul(terms, (_POSE_ROW_TERMS @ to_params).reshape(9, 12), out=jac[:rows].reshape(-1, 12))
        jac[rows:] = gravity_rows(rot[None], self.gravity, self.gravity_sqrtw, jr[None])[0]
        return jac


def refine_pose(
    points_world,
    pixels,
    camera: Camera,
    init: Pose,
    gravity_meas,
    gravity_sqrtw: float,
    huber_delta: float,
):
    """Robust least-squares pose from 2D-3D matches and gravity, warm-started from `init`.

    `gravity_meas` is the measured gravity direction in the camera frame;
    its row pins the roll axis. Returns (pose, rms pixel error, converged
    flag); the rms covers reprojection rows only.
    """
    points_world = np.asarray(points_world, dtype=float)
    pixels = np.asarray(pixels, dtype=float)
    n = points_world.shape[0]
    g_meas = np.asarray(gravity_meas, dtype=float)[None]
    model = PoseModel(points_world, pixels, camera, g_meas / np.linalg.norm(g_meas), gravity_sqrtw)
    result = solve_least_squares(
        model.residuals,
        init.params(),
        jacobian=model.jacobian,
        robust=RobustPrefix(n_blocks=n, block_size=2, delta=huber_delta),
        max_iterations=30,
    )
    res = model.residuals(result.params)[: 2 * n].reshape(-1, 2)
    rms = float(np.sqrt(np.mean(np.sum(res * res, axis=1)))) if n else float("nan")
    return Pose.from_params(result.params), rms, result.converged


def reprojection_errors(pose: Pose, points_world, pixels, camera: Camera):
    """Per-observation pixel error norms, capped at BEHIND_RESIDUAL; behind-camera rows read BEHIND_RESIDUAL."""
    points_world = np.asarray(points_world, dtype=float)
    cams = np.zeros(points_world.shape[0], dtype=int)
    r = reprojection_rows(pose.rotation[None], pose.t[None], points_world, cams, pixels, camera)
    return np.minimum(np.linalg.norm(r, axis=1), BEHIND_RESIDUAL)
