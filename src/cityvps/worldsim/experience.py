"""Simulated data-collection sessions with sensor noise.

An experience is simulated in arrays: the camera poses, the visibility of
the landmarks, the GPS fixes, the measured gravity and the INS relative
rotations are computed once for all its frames. Only the generator's draws
(dropout, permutation, pixel, descriptor and GPS noise, and the two tilts)
and the gathers that use them run frame by frame, in the contract's order
(see `simulate_experience`). Every frame's arrays are byte-identical to
those of the frame-at-a-time loop that the tests keep as a reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..geometry import GRAVITY_WORLD, Camera, Pose, camera_projection, so3
from .world import World, route_path

# Globally unique frame ids: experience id * FRAME_ID_STRIDE + index.
FRAME_ID_STRIDE = 1_000_000

# Frames whose visibility is tested together. A chunk's (frames, landmarks
# in its box, 3) temporaries stay under 30 kB in the benchmark's worlds and
# under 70 kB in the default 1 km^2 world: small enough that simulation
# never sets a process's peak memory, as larger chunks could.
VISIBILITY_CHUNK_FRAMES = 8
# Added to the box padding, so that rounding in the box test cannot drop a
# landmark that the exact distance test would keep.
_BOX_MARGIN = 1.0


@dataclass(frozen=True)
class NoiseConfig:
    gps_sigma: float = 5.0
    pixel_sigma: float = 1.0
    descriptor_sigma: float = 0.08
    # Urban-canyon GPS bias amplitude (m); spatially correlated, not white.
    canyon_amplitude: float = 8.0
    canyon_wavelength: float = 200.0
    ins_rot_noise_deg: float = 0.1
    # Descriptor shift per unit condition value; 5x descriptor noise keeps
    # same-condition matching intact while separating day from night.
    condition_offset: float = 0.4
    dropout: float = 0.0

    @staticmethod
    def zero() -> "NoiseConfig":
        return NoiseConfig(0.0, 0.0, 0.0, 0.0, 200.0, 0.0, 0.4, 0.0)


def default_camera() -> Camera:
    # 640x480 with ~120 degree horizontal field of view.
    return Camera(focal=185.0, cx=320.0, cy=240.0, width=640, height=480)


@dataclass(frozen=True)
class SimConfig:
    camera: Camera = field(default_factory=default_camera)
    frame_rate: float = 1.0
    speed: float | None = None  # m/s; platform default when None
    max_obs_distance: float = 40.0
    yaw_amplitude_deg: float = 45.0  # camera yaw alternates +/- this
    sidewalk_offset: float = 4.0  # pedestrian lateral offset from centerline
    sidewalk_side: float = 1.0
    camera_height: float | None = None

    def resolved_speed(self, platform: str) -> float:
        if self.speed is not None:
            return self.speed
        return 10.0 if platform == "vehicle" else 1.4

    def resolved_height(self, platform: str) -> float:
        if self.camera_height is not None:
            return self.camera_height
        return 1.8 if platform == "vehicle" else 1.5


@dataclass
class Frame:
    frame_id: int
    experience_id: int
    timestamp: float
    gps: np.ndarray  # [x, y, z, sigma]
    ins_gravity: np.ndarray  # gravity direction in camera frame
    ins_rel_rot: np.ndarray  # quaternion, rotation from previous frame
    pixels: np.ndarray  # (n, 2)
    descriptors: np.ndarray  # (n, d)
    condition_value: float
    # Ground truth, consumed only by the oracle and tests.
    true_pose: Pose | None = None
    landmark_ids: np.ndarray | None = None

    @property
    def n_observations(self) -> int:
        return int(self.pixels.shape[0])


@dataclass
class Experience:
    id: int
    frames: list
    condition_label: str
    condition_value: float
    platform: str


def _camera_orientation(heading) -> np.ndarray:
    """World rotation of a camera looking horizontally along `heading`.

    Camera axes: +z forward, +x right, +y down; world +z is up. Headings
    of shape (...) give rotations of shape (..., 3, 3).
    """
    c, s = np.cos(heading), np.sin(heading)
    zero = np.zeros_like(c)
    right = np.stack([s, -c, zero], axis=-1)
    down = np.broadcast_to([0.0, 0.0, -1.0], right.shape)
    forward = np.stack([c, s, zero], axis=-1)
    return np.stack([right, down, forward], axis=-1)


def _resample_path(path: np.ndarray, step: float):
    """Points and headings at fixed arclength intervals along a polyline."""
    seg = np.diff(path, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    keep = seg_len > 1e-12
    seg, seg_len = seg[keep], seg_len[keep]
    starts = path[:-1][keep]
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]
    if total == 0.0:
        return np.array([path[0]]), np.array([0.0]), np.array([0.0])
    n = int(np.floor(total / step + 1e-9)) + 1
    arcs = np.arange(n) * step
    idx = np.minimum(np.searchsorted(cum, arcs, side="right") - 1, len(seg_len) - 1)
    frac = (arcs - cum[idx]) / seg_len[idx]
    pts = starts[idx] + seg[idx] * frac[:, None]
    headings = np.arctan2(seg[:, 1], seg[:, 0])[idx]
    return pts, headings, arcs


def _tilts(axes, angles, n: int) -> np.ndarray:
    """(n, 3, 3) small rotations, each about its drawn axis by its drawn angle; identities when none were drawn."""
    if not axes:
        return np.broadcast_to(np.eye(3), (n, 3, 3))
    axes = np.array(axes)
    # Each axis over its norm, the norm's square a dot product of the axis
    # with itself: the same bits as normalising the axes one by one.
    axes /= np.sqrt(axes[:, None, :] @ axes[:, :, None])[:, :, 0]
    return np.array([so3.exp(v) for v in axes * np.array(angles)[:, None]])


def _visible_landmarks(lm_pos, rotations, positions, sim: SimConfig) -> list:
    """Per frame, the indices of the landmarks in view, ascending, and their pixels.

    A landmark is in view when it lies within ``max_obs_distance`` of the
    camera, more than 5 cm in front of it, and projects inside the image.
    Frames are tested ``VISIBILITY_CHUNK_FRAMES`` at a time, each against
    the landmarks in the chunk's xy box padded by ``max_obs_distance``; the
    exact tests above still decide. The arithmetic per frame and landmark
    is that of projecting every landmark one frame at a time.
    """
    camera = sim.camera
    pad = sim.max_obs_distance + _BOX_MARGIN
    out = []
    for start in range(0, len(positions), VISIBILITY_CHUNK_FRAMES):
        pos = positions[start : start + VISIBILITY_CHUNK_FRAMES]
        lo = pos[:, :2].min(axis=0) - pad
        hi = pos[:, :2].max(axis=0) + pad
        cand = np.flatnonzero(((lm_pos[:, :2] >= lo) & (lm_pos[:, :2] <= hi)).all(axis=1))
        rel = lm_pos[cand] - pos[:, None]  # (frames, landmarks, 3)
        cam_pts = rel @ rotations[start : start + VISIBILITY_CHUNK_FRAMES]  # == R^T rel per landmark
        near = (np.linalg.norm(rel, axis=2) <= sim.max_obs_distance) & (cam_pts[..., 2] > 0.05)
        pix = camera_projection(cam_pts[near], camera)[0]
        inside = (
            (pix[:, 0] >= 0.0)
            & (pix[:, 0] < camera.width)
            & (pix[:, 1] >= 0.0)
            & (pix[:, 1] < camera.height)
        )
        frame_of, lm_of = np.nonzero(near)  # frame-major, landmarks ascending
        frame_of, idx, pix = frame_of[inside], cand[lm_of[inside]], pix[inside]
        bounds = np.searchsorted(frame_of, np.arange(len(pos) + 1))
        out += [(idx[a:b], pix[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    return out


def simulate_experience(
    world: World,
    route,
    *,
    experience_id: int,
    condition_label: str = "day",
    condition_value: float = 0.0,
    noise: NoiseConfig | None = None,
    platform: str = "vehicle",
    sim: SimConfig | None = None,
    seed: int = 0,
) -> Experience:
    """One collection session along a route, with sensor noise.

    Vehicles follow the street centerline; pedestrians walk a sidewalk
    offset. The camera alternates its yaw by +/- the configured amplitude to
    stand in for a multi-camera rosette. Only landmarks within
    ``sim.max_obs_distance`` of the camera can be seen.

    Every frame's pose and visible landmarks come first; the random draws
    follow, frame by frame, in this order: observation dropout, the
    permutation of the observations, pixel noise, descriptor noise, GPS
    noise, the gravity tilt and the INS relative-rotation tilt. That order,
    on the one generator seeded by (seed, experience_id), is the contract
    that keeps an experience's inputs bit-identical across code changes.

    The loop over frames makes only those draws and the gathers that use
    them. The rest is computed once for the experience, over arrays: the
    camera orientations and true poses, the GPS fixes, the measured gravity
    and the INS relative rotations. Each frame's arrays are byte-identical
    to those of simulating one frame at a time.
    """
    if platform not in ("vehicle", "pedestrian"):
        raise ValueError(f"unknown platform {platform!r}")
    noise = noise if noise is not None else NoiseConfig()
    sim = sim if sim is not None else SimConfig()
    rng = np.random.default_rng([seed, experience_id])

    path = route_path(world, route)
    speed = sim.resolved_speed(platform)
    if platform == "vehicle" and speed > 15.0:
        raise ValueError("vehicle speed exceeds 15 m/s")
    step = speed / sim.frame_rate
    pts, headings, arcs = _resample_path(path, step)
    if platform == "pedestrian":
        normals = np.column_stack([-np.sin(headings), np.cos(headings)])
        pts = pts + sim.sidewalk_side * sim.sidewalk_offset * normals
    n = len(pts)

    yaw_amp = np.deg2rad(sim.yaw_amplitude_deg)
    ins_sigma = np.deg2rad(noise.ins_rot_noise_deg)
    yaws = headings
    if yaw_amp != 0.0:
        yaws = headings + np.where(np.arange(n) % 2 == 0, yaw_amp, -yaw_amp)
    rotations = _camera_orientation(yaws)
    positions = np.column_stack([pts, np.full(n, sim.resolved_height(platform))])

    lm_desc = world.descriptors
    if condition_value != 0.0 and world.positions.shape[0]:
        # Condition shifts are linear in the condition value, so repeated
        # experiences in one condition give matchable descriptors.
        lm_desc = lm_desc + world.condition_dirs * (condition_value * noise.condition_offset)
    dim = lm_desc.shape[1]
    desc_scale = noise.descriptor_sigma / math.sqrt(dim) if dim else 0.0
    visible = _visible_landmarks(world.positions, rotations, positions, sim)

    observations, gps_noise, tilt_axes, tilt_angles = [], [], [], []
    for k, (vis_idx, vis_pix) in enumerate(visible):
        if noise.dropout > 0.0 and len(vis_idx):
            kept = rng.random(len(vis_idx)) >= noise.dropout
            vis_idx, vis_pix = vis_idx[kept], vis_pix[kept]
        order = rng.permutation(len(vis_idx))
        vis_idx = vis_idx[order]  # landmark i is row i: these are the ids
        pixels = vis_pix[order] + rng.normal(0.0, noise.pixel_sigma, size=(len(vis_idx), 2))
        descs = lm_desc[vis_idx]
        if noise.descriptor_sigma > 0.0 and len(vis_idx):
            descs += rng.normal(0.0, desc_scale, size=descs.shape)
        observations.append((pixels, descs, vis_idx))
        if noise.gps_sigma > 0.0:
            gps_noise.append(rng.normal(0.0, noise.gps_sigma, size=3))
        if ins_sigma != 0.0:
            for _ in range(2 if k else 1):  # the gravity tilt, then from frame 1 on the INS tilt
                tilt_axes.append(rng.normal(size=3))
                tilt_angles.append(rng.normal(0.0, ins_sigma))

    gps = np.empty((n, 4))
    gps[:, :3] = positions + world.gps_bias(positions, noise.canyon_amplitude, noise.canyon_wavelength)
    if gps_noise:
        gps[:, :3] += gps_noise
    gps[:, 3] = noise.gps_sigma
    # Tilts in draw order: frame 0's gravity, then each later frame's gravity and INS.
    tilts = _tilts(tilt_axes, tilt_angles, 2 * n - 1)
    gravity_body = rotations.transpose(0, 2, 1) @ GRAVITY_WORLD
    gravity = (np.concatenate([tilts[:1], tilts[1::2]]) @ gravity_body[:, :, None])[:, :, 0]
    rel_rots = np.concatenate(
        [
            [[1.0, 0.0, 0.0, 0.0]],
            so3.matrix_to_quat_many(rotations[:-1].transpose(0, 2, 1) @ rotations[1:] @ tilts[2::2]),
        ]
    )
    true_quats = so3.matrix_to_quat_many(rotations)

    frames = [
        Frame(
            frame_id=experience_id * FRAME_ID_STRIDE + k,
            experience_id=experience_id,
            timestamp=k / sim.frame_rate,
            gps=gps[k],
            ins_gravity=gravity[k],
            ins_rel_rot=rel_rots[k],
            pixels=pixels,
            descriptors=descs,
            condition_value=condition_value,
            true_pose=Pose(true_quats[k], positions[k]),
            landmark_ids=vis_idx,
        )
        for k, (pixels, descs, vis_idx) in enumerate(observations)
    ]
    return Experience(
        id=experience_id,
        frames=frames,
        condition_label=condition_label,
        condition_value=condition_value,
        platform=platform,
    )


def corrupt_observations(experience: Experience, fraction: float, seed: int) -> Experience:
    """Shuffle pixel coordinates across a fraction of all observations.

    Descriptors keep matching but the geometry they imply is garbage, which
    is how moving-object chaos breaks structure recovery.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    rng = np.random.default_rng([seed, experience.id, 0xC0DE])
    slots = [
        (fi, oi) for fi, frame in enumerate(experience.frames) for oi in range(frame.n_observations)
    ]
    n_corrupt = int(round(fraction * len(slots)))
    if n_corrupt < 2:
        return experience
    chosen = rng.choice(len(slots), size=n_corrupt, replace=False)
    perm = rng.permutation(n_corrupt)
    new_frames = [
        replace(f, pixels=f.pixels.copy(), descriptors=f.descriptors)
        for f in experience.frames
    ]
    originals = [experience.frames[slots[c][0]].pixels[slots[c][1]].copy() for c in chosen]
    for dst_pos, src_pos in enumerate(perm):
        fi, oi = slots[chosen[dst_pos]]
        new_frames[fi].pixels[oi] = originals[src_pos]
    return replace(experience, frames=new_frames)
