"""File formats for experiences, truth sidecars, and worlds.

Experience logs are JSON Lines, one record per frame:
{"frame_id", "experience_id", "timestamp", "gps": [x, y, z, sigma],
 "ins": {"gravity": [..], "rel_rot": [w, x, y, z]},
 "observations": [{"pixel": [u, v], "descriptor": [..]}, ...],
 "condition": {"label": str, "value": float}}

True poses never appear in the log; they live in a sidecar consumed only by
tests and evaluation: {"frame_id", "q": [w,x,y,z], "t": [x,y,z],
"landmark_ids": [..]} per line.
"""

from __future__ import annotations

import json

import numpy as np

from ..geometry import Pose
from .experience import Experience, Frame
from .world import Landmark, Street, World, WorldConfig


class UnknownFrame(KeyError):
    """Oracle lookup for a frame id that does not exist."""


def _floats(arr):
    return [float(v) for v in np.asarray(arr).ravel()]


def write_experience(experience: Experience, path) -> None:
    with open(path, "w") as fh:
        for f in experience.frames:
            rec = {
                "frame_id": f.frame_id,
                "experience_id": f.experience_id,
                "timestamp": f.timestamp,
                "gps": _floats(f.gps),
                "ins": {"gravity": _floats(f.ins_gravity), "rel_rot": _floats(f.ins_rel_rot)},
                "observations": [
                    {"pixel": _floats(f.pixels[i]), "descriptor": _floats(f.descriptors[i])}
                    for i in range(f.n_observations)
                ],
                "condition": {"label": experience.condition_label, "value": f.condition_value},
            }
            fh.write(json.dumps(rec) + "\n")


def read_experience(path) -> Experience:
    frames = []
    exp_id = None
    label = "day"
    value = 0.0
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            exp_id = rec["experience_id"]
            label = rec["condition"]["label"]
            value = rec["condition"]["value"]
            obs = rec["observations"]
            pixels = np.array([o["pixel"] for o in obs], dtype=float).reshape(-1, 2)
            descriptors = (
                np.array([o["descriptor"] for o in obs], dtype=float)
                if obs
                else np.zeros((0, 0))
            )
            frames.append(
                Frame(
                    frame_id=rec["frame_id"],
                    experience_id=rec["experience_id"],
                    timestamp=rec["timestamp"],
                    gps=np.array(rec["gps"], dtype=float),
                    ins_gravity=np.array(rec["ins"]["gravity"], dtype=float),
                    ins_rel_rot=np.array(rec["ins"]["rel_rot"], dtype=float),
                    pixels=pixels,
                    descriptors=descriptors,
                    condition_value=value,
                )
            )
    if exp_id is None:
        raise ValueError(f"empty experience file: {path}")
    return Experience(id=exp_id, frames=frames, condition_label=label, condition_value=value, platform="unknown")


def write_truth_sidecar(experience: Experience, path) -> None:
    with open(path, "w") as fh:
        for f in experience.frames:
            if f.true_pose is None:
                continue
            rec = {
                "frame_id": f.frame_id,
                "q": _floats(f.true_pose.q),
                "t": _floats(f.true_pose.t),
                "landmark_ids": [int(i) for i in (f.landmark_ids if f.landmark_ids is not None else [])],
            }
            fh.write(json.dumps(rec) + "\n")


def read_truth_sidecar(path) -> dict:
    truth = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            truth[rec["frame_id"]] = {
                "pose": Pose(np.array(rec["q"]), np.array(rec["t"])),
                "landmark_ids": np.array(rec["landmark_ids"], dtype=int),
            }
    return truth


def write_world(world: World, path) -> None:
    data = {
        "seed": world.seed,
        "config": {
            "extent_x": world.config.extent_x,
            "extent_y": world.config.extent_y,
            "street_spacing": world.config.street_spacing,
            "street_width": world.config.street_width,
            "landmarks_per_100m": world.config.landmarks_per_100m,
            "landmark_height_range": list(world.config.landmark_height_range),
            "descriptor_dim": world.config.descriptor_dim,
        },
        "bias_phases": _floats(world.bias_phases),
        "streets": [
            {"id": s.id, "polyline": [_floats(p) for p in s.polyline], "width": s.width}
            for s in (world.streets[k] for k in sorted(world.streets))
        ],
        "landmarks": [
            {
                "id": lm.id,
                "position": _floats(lm.position),
                "descriptor": _floats(lm.descriptor),
                "condition_dir": _floats(world.condition_dirs[lm.id]),
            }
            for lm in world.landmarks
        ],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True)


def read_world(path) -> World:
    with open(path) as fh:
        data = json.load(fh)
    cfg = data["config"]
    config = WorldConfig(
        extent_x=cfg["extent_x"],
        extent_y=cfg["extent_y"],
        street_spacing=cfg["street_spacing"],
        street_width=cfg["street_width"],
        landmarks_per_100m=cfg["landmarks_per_100m"],
        landmark_height_range=tuple(cfg["landmark_height_range"]),
        descriptor_dim=cfg["descriptor_dim"],
    )
    streets = {
        s["id"]: Street(s["id"], np.array(s["polyline"]), s["width"]) for s in data["streets"]
    }
    landmarks = []
    condition_dirs = {}
    for rec in data["landmarks"]:
        landmarks.append(Landmark(rec["id"], np.array(rec["position"]), np.array(rec["descriptor"])))
        condition_dirs[rec["id"]] = np.array(rec["condition_dir"])
    return World(
        streets=streets,
        landmarks=landmarks,
        seed=data["seed"],
        config=config,
        condition_dirs=condition_dirs,
        bias_phases=np.array(data["bias_phases"]),
    )


class Oracle:
    """Ground-truth pose accessor backed by in-memory experiences or sidecars."""

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

    @staticmethod
    def from_sidecars(paths) -> "Oracle":
        oracle = Oracle()
        for p in paths:
            oracle._truth.update(read_truth_sidecar(p))
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
