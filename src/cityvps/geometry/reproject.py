"""Reprojection residuals with analytic Jacobians, and single-pose refinement.

Pose parameters are [rotvec (3), translation (3)] with the pose mapping
camera coordinates to world coordinates, so a world point projects through
x_cam = R(rotvec)^T (X - t). Observations whose point falls behind the
camera get a large constant residual with zero Jacobian: trial steps that
push points behind the camera raise the cost and get rejected instead of
producing non-finite values.

``camera_projection`` is the one projection kernel: camera-frame points to
pixels, their dpixel/dx_cam blocks and validity. Single-pose refinement
here, bundle adjustment and the simulator's observations all go through it;
each caller forms its own camera-frame points.
"""

from __future__ import annotations

import numpy as np

from . import so3
from .camera import Camera
from .least_squares import RobustPrefix, solve_least_squares
from .pose import GRAVITY_WORLD, Pose

BEHIND_RESIDUAL = 1e4
MIN_BA_DEPTH = 1e-6


def camera_projection(xc, camera: Camera):
    """Pixel projections, dpixel/dx_cam blocks and validity of camera-frame points.

    Returns (pix (n,2), A (n,2,3), valid (n,)) where invalid rows
    (depth <= MIN_BA_DEPTH) have NaN pix and zero A.
    """
    xc = np.asarray(xc, dtype=float)
    z = xc[:, 2]
    valid = z > MIN_BA_DEPTH
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


def projection_terms(points_world, rot, t, camera: Camera):
    """Camera-frame points of world points, and their camera_projection.

    Returns (x_cam (n,3), pix (n,2), A (n,2,3), valid (n,)).
    """
    points_world = np.asarray(points_world, dtype=float)
    xc = (points_world - t) @ rot  # row-wise R^T (X - t)
    return (xc, *camera_projection(xc, camera))


def pose_residuals(params, points_world, pixels, camera: Camera):
    """Reprojection residuals (2n,) of fixed world points for one pose."""
    rot = so3.exp(params[:3])
    xc, pix, _, valid = projection_terms(points_world, rot, params[3:6], camera)
    r = np.where(valid[:, None], pixels - pix, BEHIND_RESIDUAL)
    return r.ravel()


def pose_jacobian(params, points_world, pixels, camera: Camera):
    """Analytic (2n,6) Jacobian of pose_residuals."""
    rotvec = params[:3]
    rot = so3.exp(rotvec)
    jr = so3.right_jacobian(rotvec)
    xc, _, a, _ = projection_terms(points_world, rot, params[3:6], camera)
    # dxc/drho = skew(xc) Jr ; dxc/dt = -R^T ; residual = pixel - proj.
    dxc_drho = so3.batch_skew(xc) @ jr
    j = np.empty((xc.shape[0], 2, 6))
    j[:, :, :3] = -np.einsum("nij,njk->nik", a, dxc_drho)
    j[:, :, 3:] = np.einsum("nij,kj->nik", a, rot)  # -A @ (-R^T)
    return j.reshape(-1, 6)


def refine_pose(
    points_world,
    pixels,
    camera: Camera,
    init: Pose,
    huber_delta: float | None = None,
    max_iterations: int = 30,
    gravity: tuple | None = None,
):
    """Least-squares pose from 2D-3D matches, warm-started from `init`.

    `gravity`, when given, is (measured gravity direction in camera frame,
    sqrt weight); it appends a plain direction-agreement residual that pins
    the roll axis. Returns (pose, rms pixel error, converged flag); the rms
    covers reprojection rows only.
    """
    points_world = np.asarray(points_world, dtype=float)
    pixels = np.asarray(pixels, dtype=float)
    n = points_world.shape[0]

    if gravity is None:
        residual_fn = lambda p: pose_residuals(p, points_world, pixels, camera)
        jacobian_fn = lambda p: pose_jacobian(p, points_world, pixels, camera)
    else:
        g_meas, g_sqrtw = gravity
        g_meas = np.asarray(g_meas, dtype=float)
        g_meas = g_meas / np.linalg.norm(g_meas)

        def residual_fn(p):
            r = pose_residuals(p, points_world, pixels, camera)
            g_body = so3.exp(p[:3]).T @ GRAVITY_WORLD
            return np.concatenate([r, g_sqrtw * (g_body - g_meas)])

        def jacobian_fn(p):
            j = pose_jacobian(p, points_world, pixels, camera)
            rot = so3.exp(p[:3])
            g_body = rot.T @ GRAVITY_WORLD
            g_rows = np.zeros((3, 6))
            g_rows[:, :3] = g_sqrtw * (so3.skew(g_body) @ so3.right_jacobian(p[:3]))
            return np.vstack([j, g_rows])

    robust = None
    if huber_delta is not None:
        robust = RobustPrefix(n_blocks=n, block_size=2, delta=huber_delta)
    result = solve_least_squares(
        residual_fn,
        init.params(),
        jacobian=jacobian_fn,
        robust=robust,
        max_iterations=max_iterations,
    )
    pose = Pose.from_params(result.params)
    res = pose_residuals(result.params, points_world, pixels, camera).reshape(-1, 2)
    rms = float(np.sqrt(np.mean(np.sum(res * res, axis=1)))) if n else float("nan")
    return pose, rms, result.converged


def reprojection_errors(pose: Pose, points_world, pixels, camera: Camera):
    """Per-observation pixel error norms; behind-camera rows get BEHIND_RESIDUAL."""
    rot = pose.rotation
    _, pix, _, valid = projection_terms(points_world, rot, pose.t, camera)
    err = np.linalg.norm(np.asarray(pixels, dtype=float) - pix, axis=1)
    err[~valid] = BEHIND_RESIDUAL
    return err
