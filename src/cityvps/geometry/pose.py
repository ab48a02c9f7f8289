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


def yaw_between(src, dst) -> float:
    """Yaw ψ about +z that best turns the horizontal parts of `src`'s rows onto those of `dst`.

    The weighted 2-D Procrustes angle atan2(Σ src × dst, Σ src · dst) over
    the xy columns; each row pair weighs by the product of its lengths.
    """
    (sx, sy), (dx, dy) = np.asarray(src, dtype=float)[:, :2].T, np.asarray(dst, dtype=float)[:, :2].T
    return float(np.arctan2(sx @ dy - sy @ dx, sx @ dx + sy @ dy))


def umeyama_yaw(src, dst, weights) -> Sim3:
    """Yaw-only similarity s R_z(ψ) x + t minimizing Σ w_i |s R_z src_i + t − dst_i|².

    About the weighted centroids p̄ of `src` and ḡ of `dst`, ψ is the
    weighted Procrustes angle of the centred xy columns (``yaw_between``),
    s = Σ w g̃·R_z p̃ / Σ w |p̃|² and t = ḡ − s R_z p̄: the exact minimizer.
    Returns the identity when the fit is degenerate: no weight, no spread
    of `src`, or a scale that is not positive.
    """
    src = np.asarray(src, dtype=float).reshape(-1, 3)
    dst = np.asarray(dst, dtype=float).reshape(-1, 3)
    w = np.asarray(weights, dtype=float).reshape(-1)
    total = w.sum()
    if not total > 0.0:
        return Sim3.identity()
    # Centroids taken relative to the first rows, so that rows which all
    # coincide centre to exactly zero.
    p_bar, g_bar = src[0] + w @ (src - src[0]) / total, dst[0] + w @ (dst - dst[0]) / total
    p, g = src - p_bar, dst - g_bar
    spread = w @ np.einsum("ij,ij->i", p, p)
    if not spread > 0.0:
        return Sim3.identity()
    rz = so3.yaw_matrix(yaw_between(w[:, None] * p, g))
    s = float(w @ np.einsum("ij,ij->i", g, p @ rz.T)) / spread
    if not (np.isfinite(s) and s > 0.0):
        return Sim3.identity()
    return Sim3(so3.matrix_to_quat(rz), g_bar - s * rz @ p_bar, s)
