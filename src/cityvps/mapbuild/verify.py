"""Submap sanity checks against INS readings and a vehicle motion model.

Three independent checks, all required: (a) reconstructed relative
rotations between consecutive frames of the origin experience agree with
the INS chain (median geodesic angle below threshold); (b) the gravity
direction implied by the reconstructed poses agrees with the INS gravity
(median per-frame angle); (c) implied speed and acceleration between
consecutive frames stay within a simple vehicle motion model.
"""

from __future__ import annotations

import numpy as np

from ..geometry import GRAVITY_WORLD, so3
from .types import Submap, VerificationReport

REL_ROT_DEG = 2.0
GRAVITY_DEG = 5.0
MAX_SPEED = 15.0  # m/s
MAX_ACCEL = 5.0  # m/s^2


def verify_submap(submap: Submap, frames_by_id: dict) -> VerificationReport:
    """Run all three checks; failure is a value, not an exception."""
    reasons = []

    # Consecutive reconstructed frames of the origin experience, time order.
    origin = sorted(
        (fid for fid in submap.poses if frames_by_id[fid].experience_id == submap.experience_id),
        key=lambda fid: frames_by_id[fid].timestamp,
    )
    consecutive = []
    for a, b in zip(origin[:-1], origin[1:]):
        # Only genuinely adjacent capture indices count as consecutive.
        if abs(b - a) == 1:
            consecutive.append((a, b))

    rel_angles = []
    for a, b in consecutive:
        rot_sfm = submap.poses[a].rotation.T @ submap.poses[b].rotation
        rot_ins = so3.quat_to_matrix(frames_by_id[b].ins_rel_rot)
        angle = np.linalg.norm(so3.log(rot_ins.T @ rot_sfm))
        rel_angles.append(np.degrees(angle))
    median_rel = float(np.median(rel_angles)) if rel_angles else float("nan")
    if rel_angles and median_rel >= REL_ROT_DEG:
        reasons.append(f"relative rotations disagree with INS (median {median_rel:.2f} deg)")

    grav_angles = []
    for fid in submap.poses:
        measured = frames_by_id[fid].ins_gravity
        measured = measured / np.linalg.norm(measured)
        reconstructed = submap.poses[fid].rotation.T @ GRAVITY_WORLD
        cosang = float(np.clip(np.dot(measured, reconstructed), -1.0, 1.0))
        grav_angles.append(np.degrees(np.arccos(cosang)))
    median_grav = float(np.median(grav_angles)) if grav_angles else float("nan")
    if grav_angles and median_grav >= GRAVITY_DEG:
        reasons.append(f"gravity deviates from INS (median {median_grav:.2f} deg)")

    speeds = []
    for a, b in consecutive:
        dt = frames_by_id[b].timestamp - frames_by_id[a].timestamp
        if dt <= 0:
            continue
        speeds.append(float(np.linalg.norm(submap.poses[b].t - submap.poses[a].t)) / dt)
    max_speed = float(np.max(speeds)) if speeds else float("nan")
    if speeds and max_speed > MAX_SPEED:
        reasons.append(f"implied speed {max_speed:.1f} m/s exceeds {MAX_SPEED}")
    accels = []
    for (a, b), (c, d) in zip(consecutive[:-1], consecutive[1:]):
        if b != c:
            continue
        dt1 = frames_by_id[b].timestamp - frames_by_id[a].timestamp
        dt2 = frames_by_id[d].timestamp - frames_by_id[c].timestamp
        if dt1 <= 0 or dt2 <= 0:
            continue
        v1 = (submap.poses[b].t - submap.poses[a].t) / dt1
        v2 = (submap.poses[d].t - submap.poses[c].t) / dt2
        accels.append(float(np.linalg.norm(v2 - v1)) / (0.5 * (dt1 + dt2)))
    max_accel = float(np.max(accels)) if accels else float("nan")
    if accels and max_accel > MAX_ACCEL:
        reasons.append(f"implied acceleration {max_accel:.1f} m/s^2 exceeds {MAX_ACCEL}")

    return VerificationReport(
        passed=not reasons,
        reasons=reasons,
        median_rel_rot_deg=median_rel,
        median_gravity_deg=median_grav,
        max_speed=max_speed,
        max_accel=max_accel,
    )
