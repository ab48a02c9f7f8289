"""The benchmark's own measurements: oracle errors, frame accounting,
failed operations and the output checks.

Nothing here trusts the program's own quality figures: errors are taken
against the simulator's truth and RMSE is recomputed from the camera model.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from cityvps.geometry import so3

BEHIND_DEPTH = 1e-6  # bundle adjustment treats shallower points as behind the camera
OUTLIER_PX = 5000.0  # and leaves residual norms above this out of its RMSE


class CheckFailed(AssertionError):
    """An output of the program failed one of the benchmark's checks."""


def check(condition, message: str):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Ledger:
    """Operations attempted and failed, with the reasons they failed."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def record(self, reasons=()):
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons["; ".join(reasons)] += 1


@dataclass
class FusionAccount:
    """Maps returned by one pass's fusion calls, and its update calls' times."""

    maps: list = field(default_factory=list)
    updates_s: list = field(default_factory=list)  # wall seconds per update_map or remove_submaps call

    def record(self, global_map, update_s=None):
        """Count a returned map; `update_s` is the wall time of an update call."""
        self.maps.append(global_map)
        if update_s is not None:
            self.updates_s.append(update_s)

    @property
    def fused_frames(self) -> int:
        """Sum over the calls of the distinct frames in the map each returned."""
        return sum(len(fused_frame_ids(m)) for m in self.maps)


def fused_frame_ids(global_map) -> set:
    return {fid for sm in global_map.submaps.values() for fid in sm.poses}


def _map_entries(global_map):
    for sid in global_map.submap_ids():
        for fid in sorted(global_map.submaps[sid].poses):
            yield sid, fid


def pose_errors(global_map, oracle):
    """Position error (m) and orientation error (deg) of every pose the map holds."""
    pos, rot = [], []
    for sid, fid in _map_entries(global_map):
        fused = global_map.global_pose(sid, fid)
        truth = oracle.pose(fid)
        pos.append(float(np.linalg.norm(fused.t - truth.t)))
        rot.append(float(np.degrees(so3.geodesic_angle(fused.q, truth.q))))
    return np.array(pos), np.array(rot)


def gps_errors(global_map, oracle) -> np.ndarray:
    """Raw GPS fix error (m) of the same poses, where the submap holds a fix."""
    return np.array(
        [
            float(np.linalg.norm(global_map.submaps[sid].gps_priors[fid][:3] - oracle.pose(fid).t))
            for sid, fid in _map_entries(global_map)
            if fid in global_map.submaps[sid].gps_priors
        ]
    )


def landmark_errors(global_map, oracle, frames_by_id, landmarks) -> np.ndarray:
    """Fused landmark error (m) against the world landmark seen by the
    landmark's first retained observation."""
    errors = []
    for sid in global_map.submap_ids():
        sm = global_map.submaps[sid]
        fused = global_map.transforms[sid].apply_many(sm.landmark_positions)
        for tid, xyz in zip(sm.landmark_track_ids, fused):
            fid, pixel = sm.track_observations[int(tid)][0]
            (oi,) = np.flatnonzero((frames_by_id[fid].pixels == pixel).all(axis=1))[:1]
            errors.append(float(np.linalg.norm(xyz - landmarks[int(oracle.landmark_ids(fid)[oi])])))
    return np.array(errors)


def recomputed_rmse(submap, camera) -> float:
    """Reprojection RMSE (px) from the submap's poses, landmarks and observations."""
    sq = []
    for tid, xyz in zip(submap.landmark_track_ids, submap.landmark_positions):
        for fid, pixel in submap.track_observations[int(tid)]:
            pose = submap.poses[fid]
            xc = pose.rotation.T @ (xyz - pose.t)
            if xc[2] <= BEHIND_DEPTH:
                continue
            err = float(np.linalg.norm(pixel - camera.project_camera_frame(xc)))
            if err < OUTLIER_PX:
                sq.append(err * err)
    return float(np.sqrt(np.mean(sq))) if sq else float("inf")


def check_rmse(submap, camera):
    recomputed = recomputed_rmse(submap, camera)
    check(
        abs(recomputed - submap.reprojection_rmse) <= 1e-6 * max(1.0, recomputed),
        f"submap {submap.submap_id}: reprojection_rmse {submap.reprojection_rmse!r} "
        f"but the observations give {recomputed!r}",
    )


def check_tiles(global_map):
    """Every fused frame position lies in a tile the index lists for its submap."""
    size = global_map.tile_size
    for sid, fid in _map_entries(global_map):
        x, y = global_map.global_pose(sid, fid).t[:2]
        key = (int(np.floor(x / size)), int(np.floor(y / size)))
        check(sid in global_map.tiles.get(key, ()), f"frame {fid} of submap {sid} lies in tile {key}, not indexed")


def check_better_than_gps(global_map, oracle):
    fused = float(np.mean(pose_errors(global_map, oracle)[0]))
    raw = float(np.mean(gps_errors(global_map, oracle)))
    check(fused <= raw, f"mean fused position error {fused:.3f} m exceeds that of the GPS fixes, {raw:.3f} m")


def transform_gap(a, b) -> float:
    """Largest of translation (m), rotation (rad) and log-scale differences."""
    return max(
        float(np.linalg.norm(a.t - b.t)),
        float(so3.geodesic_angle(a.q, b.q)),
        abs(float(np.log(a.s / b.s))),
    )


def check_roundtrip(before, after, tol=1e-6):
    check(sorted(before.transforms) == sorted(after.transforms), "remove and re-add changed the map's submaps")
    worst = max((transform_gap(before.transforms[s], after.transforms[s]) for s in before.transforms), default=0.0)
    check(worst <= tol, f"remove and re-add moved a transform by {worst:.3g}")
