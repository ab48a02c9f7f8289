"""Submap-pipeline domain types."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class InsufficientOverlap(RuntimeError):
    """No frame pair shares enough tracks to seed reconstruction."""


class SolverDiverged(RuntimeError):
    """Reconstruction or fusion optimization failed to converge."""


@dataclass
class FrameSubset:
    """Spatially contiguous chunk of one experience plus borrowed frames."""

    subset_id: int
    experience_id: int
    member_ids: list  # ordered frame ids owned by this subset
    augmented_ids: list = field(default_factory=list)  # borrowed frames, never owned
    center: np.ndarray = None  # 2D GPS centroid of members
    radius: float = 0.0  # circumscribed-circle radius over member GPS

    def all_ids(self) -> list:
        return list(self.member_ids) + list(self.augmented_ids)


@dataclass
class Track:
    """Transitively matched observations of (presumably) one landmark."""

    track_id: int
    observations: list  # (frame_id, observation_index) pairs


@dataclass
class VerificationReport:
    passed: bool
    reasons: list = field(default_factory=list)
    median_rel_rot_deg: float = float("nan")
    median_gravity_deg: float = float("nan")
    max_speed: float = float("nan")
    max_accel: float = float("nan")


@dataclass
class Submap:
    """Reconstructed poses and landmarks of one frame subset."""

    submap_id: int
    experience_id: int
    poses: dict  # frame_id -> Pose, submap frame
    landmark_positions: np.ndarray  # (n, 3)
    landmark_descriptors: np.ndarray  # (n, d)
    landmark_track_ids: np.ndarray  # (n,)
    gps_priors: dict  # frame_id -> [x, y, z, sigma]
    member_ids: list  # provenance: frames owned by the origin subset
    augmented_ids: list
    status: str = "built"  # "built" or "discarded"
    reprojection_rmse: float = float("nan")
    final_cost: float = float("nan")
    discard_reasons: list = field(default_factory=list)
    verification: VerificationReport | None = None
    # Observations retained for landmark bookkeeping:
    # track id -> list of (frame_id, pixel) used in the reconstruction.
    track_observations: dict = field(default_factory=dict)

    @property
    def n_landmarks(self) -> int:
        return int(self.landmark_positions.shape[0])

    def frame_ids(self) -> list:
        return sorted(self.poses)

    def positions(self) -> np.ndarray:
        return np.array([self.poses[fid].t for fid in self.frame_ids()])
