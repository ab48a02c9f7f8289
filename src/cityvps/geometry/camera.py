"""Ideal pinhole camera and projection.

Camera frame convention: +z forward (optical axis), +x right, +y down.
Projection of a world point through a camera whose pose maps camera
coordinates to world coordinates: x_cam = R^T (x_world - t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pose import Pose

# Depth at or below this is treated as behind the camera, by the scalar
# projection here and by the batched projection kernel alike.
MIN_DEPTH = 1e-6


@dataclass(frozen=True)
class Camera:
    focal: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not self.focal > 0.0:
            raise ValueError("focal length must be positive")
        if not (0.0 <= self.cx <= self.width and 0.0 <= self.cy <= self.height):
            raise ValueError("principal point outside image bounds")

    def project_camera_frame(self, point_cam):
        """Pixel of a camera-frame point, or None when depth <= MIN_DEPTH."""
        x, y, z = point_cam
        if z <= MIN_DEPTH:
            return None
        return np.array([self.focal * x / z + self.cx, self.focal * y / z + self.cy])

    def rays(self, pixels):
        """Unit ray directions in the camera frame through (n,2) pixels -> (n,3)."""
        pixels = np.asarray(pixels, dtype=float)
        d = np.ones((pixels.shape[0], 3))
        d[:, :2] = (pixels - [self.cx, self.cy]) / self.focal
        return d / np.linalg.norm(d, axis=1, keepdims=True)


def project(point_world, pose: Pose, camera: Camera):
    """Pixel coordinates of a world point, or None if behind the camera."""
    point_cam = pose.rotation.T @ (np.asarray(point_world, dtype=float) - pose.t)
    return camera.project_camera_frame(point_cam)


def backproject(pixel, depth, pose: Pose, camera: Camera):
    """World point at the given camera-frame depth along the pixel's ray."""
    u, v = pixel
    point_cam = np.array(
        [(u - camera.cx) / camera.focal * depth, (v - camera.cy) / camera.focal * depth, depth]
    )
    return pose.apply(point_cam)
