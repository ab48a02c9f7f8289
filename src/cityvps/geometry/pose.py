"""Rigid poses and 7DoF similarity transforms.

A Pose maps local (body/camera) coordinates into the world frame:
``x_world = R x_local + t``, so ``t`` is the body origin expressed in world
coordinates. A Sim3 acts on points as ``s R x + t`` and on poses by rotating
the orientation and similarity-transforming the position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import so3

# Gravity direction in the world frame, whose +z axis points up.
GRAVITY_WORLD = np.array([0.0, 0.0, -1.0])
GRAVITY_WORLD.setflags(write=False)


def _as_vec3(v):
    v = np.asarray(v, dtype=float).reshape(3)
    v.setflags(write=False)
    return v


def _as_quat(q):
    q = so3.quat_normalize(np.asarray(q, dtype=float).reshape(4))
    q.setflags(write=False)
    return q


@dataclass(frozen=True)
class Pose:
    """Rigid transform with unit-quaternion rotation [w,x,y,z] and translation in meters."""

    q: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _as_quat(self.q))
        object.__setattr__(self, "t", _as_vec3(self.t))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    @staticmethod
    def from_matrix(rotation, translation) -> "Pose":
        return Pose(so3.matrix_to_quat(rotation), translation)

    @staticmethod
    def from_rotvec(rotvec, translation) -> "Pose":
        return Pose(so3.quat_from_rotvec(rotvec), translation)

    @property
    def rotation(self) -> np.ndarray:
        return so3.quat_to_matrix(self.q)

    def rotvec(self) -> np.ndarray:
        return so3.quat_to_rotvec(self.q)

    def compose(self, other: "Pose") -> "Pose":
        """self applied after other: (self*other)(x) = self(other(x))."""
        return Pose(
            so3.quat_multiply(self.q, other.q),
            so3.quat_rotate(self.q, other.t) + self.t,
        )

    def inverse(self) -> "Pose":
        qinv = so3.quat_conjugate(self.q)
        return Pose(qinv, -so3.quat_rotate(qinv, self.t))

    def apply(self, point) -> np.ndarray:
        return so3.quat_rotate(self.q, point) + self.t

    def apply_many(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.T + self.t

    def params(self) -> np.ndarray:
        """6-vector [rotvec, t] used by the solvers."""
        return np.concatenate([self.rotvec(), self.t])

    @staticmethod
    def from_params(p) -> "Pose":
        p = np.asarray(p, dtype=float)
        return Pose.from_rotvec(p[:3], p[3:6])


@dataclass(frozen=True)
class Sim3:
    """Similarity transform: rotation (unit quaternion), translation (m), scale > 0."""

    q: np.ndarray
    t: np.ndarray
    s: float = 1.0

    def __post_init__(self):
        if not self.s > 0.0:
            raise ValueError(f"scale must be positive, got {self.s}")
        object.__setattr__(self, "q", _as_quat(self.q))
        object.__setattr__(self, "t", _as_vec3(self.t))
        object.__setattr__(self, "s", float(self.s))

    @staticmethod
    def identity() -> "Sim3":
        return Sim3(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3), 1.0)

    @property
    def rotation(self) -> np.ndarray:
        return so3.quat_to_matrix(self.q)

    def apply(self, point) -> np.ndarray:
        return self.s * so3.quat_rotate(self.q, point) + self.t

    def apply_many(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return self.s * (points @ self.rotation.T) + self.t

    def apply_pose(self, pose: Pose) -> Pose:
        """Transform a pose into this frame; scale acts on position only."""
        return Pose(so3.quat_multiply(self.q, pose.q), self.apply(pose.t))

    def compose(self, other: "Sim3") -> "Sim3":
        return Sim3(
            so3.quat_multiply(self.q, other.q),
            self.apply(other.t),
            self.s * other.s,
        )

    def inverse(self) -> "Sim3":
        qinv = so3.quat_conjugate(self.q)
        return Sim3(qinv, -so3.quat_rotate(qinv, self.t) / self.s, 1.0 / self.s)

    def params(self) -> np.ndarray:
        """7-vector [rotvec, t, log s] used by the fusion solver."""
        return np.concatenate([so3.quat_to_rotvec(self.q), self.t, [np.log(self.s)]])

    @staticmethod
    def from_params(p) -> "Sim3":
        p = np.asarray(p, dtype=float)
        return Sim3(so3.quat_from_rotvec(p[:3]), p[3:6], float(np.exp(p[6])))


def umeyama(src, dst, with_scale=True):
    """Closed-form similarity aligning src points onto dst (least squares).

    Returns the Sim3 (or rigid transform when with_scale is False) minimizing
    sum ||dst_i - (s R src_i + t)||^2. Needs >= 3 non-degenerate points for a
    unique rotation; degenerate inputs still return a best-effort transform.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 3:
        raise ValueError("umeyama expects matching (n,3) arrays")
    n = src.shape[0]
    if n == 0:
        return Sim3.identity()
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    xs = src - mu_s
    xd = dst - mu_d
    cov = xd.T @ xs / n
    u, d, vt = np.linalg.svd(cov)
    sgn = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0.0:
        sgn[2, 2] = -1.0
    rotation = u @ sgn @ vt
    if with_scale:
        var_s = (xs * xs).sum() / n
        scale = float((d * np.diag(sgn)).sum() / var_s) if var_s > 0.0 else 1.0
        if not np.isfinite(scale) or scale <= 0.0:
            scale = 1.0
    else:
        scale = 1.0
    t = mu_d - scale * rotation @ mu_s
    return Sim3(so3.matrix_to_quat(rotation), t, scale)
