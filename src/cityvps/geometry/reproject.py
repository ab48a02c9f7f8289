"""The reprojection and gravity model shared by registration, window scoring and BA.

Pose parameters are [rotvec (3), translation (3)] with the pose mapping
camera coordinates to world coordinates, so a world point projects through
x_cam = R(rotvec)^T (X - t). Observations whose point falls behind the
camera get a large constant residual with zero Jacobian: trial steps that
push points behind the camera raise the cost and get rejected instead of
producing non-finite values.

``camera_projection`` is the one projection kernel: camera-frame points to
pixels, their dpixel/dx_cam blocks and validity; the simulator's
observations go through it too. ``reprojection_rows`` and ``gravity_rows``
are the one observation model over a set of cameras: single-pose
refinement is their one-camera case with its points held fixed, seed
window scoring evaluates them once per window, and bundle adjustment adds
its GPS rows to them.
"""

from __future__ import annotations

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
    pix = np.empty((xc.shape[0], 2))
    pix[:, 0] = f * xc[:, 0] / zs + camera.cx
    pix[:, 1] = f * xc[:, 1] / zs + camera.cy
    pix[~valid] = np.nan
    a = np.zeros((xc.shape[0], 2, 3))
    a[:, 0, 0] = a[:, 1, 1] = f / zs
    zz = zs * zs
    a[:, 0, 2] = -f * xc[:, 0] / zz
    a[:, 1, 2] = -f * xc[:, 1] / zz
    a[~valid] = 0.0
    return pix, a, valid


def reprojection_rows(rots, ts, points, cams, pixels, camera: Camera, jrs=None):
    """Residuals of observations, or their Jacobian blocks when `jrs` is given.

    Observation k sees world point `points[k]` from camera `cams[k]`, whose
    rotation, position and right Jacobian are `rots`, `ts` and `jrs` (F,...).
    Returns the (m,2) residuals pixel - projection (BEHIND_RESIDUAL on
    behind-camera rows) or, with `jrs`, the camera blocks (m,2,6) on
    [rotvec, t] and the point blocks (m,2,3).
    """
    rot = np.take(rots, cams, axis=0)
    xc = np.einsum("nji,nj->ni", rot, points - ts[cams])  # R^T (X - t)
    pix, a, valid = camera_projection(xc, camera)
    if jrs is None:
        return np.where(valid[:, None], pixels - pix, BEHIND_RESIDUAL)
    # dxc/drho = skew(xc) Jr ; dxc/dt = -R^T = -dxc/dX ; residual = pixel - proj.
    # np.take returns C-contiguous stacks, on which matmul is fastest.
    d_t = a @ np.take(np.transpose(rots, (0, 2, 1)), cams, axis=0)
    d_rho = -((a @ so3.batch_skew(xc)) @ np.take(jrs, cams, axis=0))
    return np.concatenate([d_rho, d_t], axis=2), -d_t


def gravity_rows(rots, gravity, sqrtw: float, jrs=None):
    """Gravity-direction residuals sqrtw (R^T g_w - g_meas) per camera, or their (F,3,6) blocks with `jrs`.

    `gravity` holds each camera's measured unit gravity direction in its own frame.
    """
    g_body = np.einsum("nji,j->ni", rots, GRAVITY_WORLD)  # R^T g_w per camera
    if jrs is None:
        return (g_body - gravity) * sqrtw
    # d(R^T g_w)/drho = skew(R^T g_w) Jr.
    blocks = np.zeros((rots.shape[0], 3, 6))
    blocks[:, :, :3] = sqrtw * (so3.batch_skew(g_body) @ jrs)
    return blocks


def refine_pose(
    points_world,
    pixels,
    camera: Camera,
    init: Pose,
    gravity_meas,
    gravity_sqrtw: float,
    huber_delta: float,
    max_iterations: int = 30,
):
    """Robust least-squares pose from 2D-3D matches and gravity, warm-started from `init`.

    `gravity_meas` is the measured gravity direction in the camera frame;
    its row pins the roll axis. Returns (pose, rms pixel error, converged
    flag); the rms covers reprojection rows only.
    """
    points_world = np.asarray(points_world, dtype=float)
    pixels = np.asarray(pixels, dtype=float)
    n = points_world.shape[0]
    cams = np.zeros(n, dtype=int)
    g_meas = np.asarray(gravity_meas, dtype=float)[None]
    g_meas = g_meas / np.linalg.norm(g_meas)

    # The scalar so3 helpers: on one pose the batched ones cost twice as much.
    def residuals(p):
        rot = so3.exp(p[:3])[None]
        r = reprojection_rows(rot, p[None, 3:], points_world, cams, pixels, camera)
        return np.concatenate([r.ravel(), gravity_rows(rot, g_meas, gravity_sqrtw).ravel()])

    def jacobian(p):
        rot, jr = so3.exp(p[:3])[None], so3.right_jacobian(p[:3])[None]
        cam, _ = reprojection_rows(rot, p[None, 3:], points_world, cams, pixels, camera, jr)
        return np.vstack([cam.reshape(-1, 6), gravity_rows(rot, g_meas, gravity_sqrtw, jr)[0]])

    result = solve_least_squares(
        residuals,
        init.params(),
        jacobian=jacobian,
        robust=RobustPrefix(n_blocks=n, block_size=2, delta=huber_delta),
        max_iterations=max_iterations,
    )
    res = residuals(result.params)[: 2 * n].reshape(-1, 2)
    rms = float(np.sqrt(np.mean(np.sum(res * res, axis=1)))) if n else float("nan")
    return Pose.from_params(result.params), rms, result.converged


def reprojection_errors(pose: Pose, points_world, pixels, camera: Camera):
    """Per-observation pixel error norms, capped at BEHIND_RESIDUAL; behind-camera rows read BEHIND_RESIDUAL."""
    points_world = np.asarray(points_world, dtype=float)
    cams = np.zeros(points_world.shape[0], dtype=int)
    r = reprojection_rows(pose.rotation[None], pose.t[None], points_world, cams, pixels, camera)
    return np.minimum(np.linalg.norm(r, axis=1), BEHIND_RESIDUAL)
