"""Ground-truth poses of simulated frames, for tests and evaluation."""

from __future__ import annotations

import numpy as np

from ..geometry import Pose


class UnknownFrame(KeyError):
    """Oracle lookup for a frame id that does not exist."""


class Oracle:
    """Ground-truth pose accessor backed by in-memory experiences."""

    def __init__(self):
        self._truth = {}

    @staticmethod
    def from_experiences(experiences) -> "Oracle":
        oracle = Oracle()
        for exp in experiences:
            for f in exp.frames:
                if f.true_pose is not None:
                    oracle._truth[f.frame_id] = {
                        "pose": f.true_pose,
                        "landmark_ids": f.landmark_ids,
                    }
        return oracle

    def pose(self, frame_id: int) -> Pose:
        try:
            return self._truth[frame_id]["pose"]
        except KeyError:
            raise UnknownFrame(frame_id) from None

    def landmark_ids(self, frame_id: int) -> np.ndarray:
        try:
            return self._truth[frame_id]["landmark_ids"]
        except KeyError:
            raise UnknownFrame(frame_id) from None

    def __contains__(self, frame_id: int) -> bool:
        return frame_id in self._truth

    def frame_ids(self):
        return self._truth.keys()
