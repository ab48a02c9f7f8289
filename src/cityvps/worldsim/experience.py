"""Simulated data-collection sessions with sensor noise."""

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


def _camera_orientation(heading: float) -> np.ndarray:
    """World rotation of a camera looking horizontally along `heading`.

    Camera axes: +z forward, +x right, +y down; world +z is up.
    """
    c, s = np.cos(heading), np.sin(heading)
    right = np.array([s, -c, 0.0])
    down = np.array([0.0, 0.0, -1.0])
    forward = np.array([c, s, 0.0])
    return np.column_stack([right, down, forward])


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
    pts = np.empty((n, 2))
    headings = np.empty(n)
    idx = np.minimum(np.searchsorted(cum, arcs, side="right") - 1, len(seg_len) - 1)
    for k, (s_val, i) in enumerate(zip(arcs, idx)):
        frac = (s_val - cum[i]) / seg_len[i]
        pts[k] = starts[i] + seg[i] * frac
        headings[k] = np.arctan2(seg[i][1], seg[i][0])
    return pts, headings, arcs


def _small_rotation(rng, sigma_rad: float) -> np.ndarray:
    if sigma_rad == 0.0:
        return np.eye(3)
    axis = rng.normal(size=3)
    axis /= math.sqrt(axis.dot(axis))  # np.linalg.norm of one vector, without its dispatch
    return so3.exp(axis * rng.normal(0.0, sigma_rad))


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

    yaw_amp = np.deg2rad(sim.yaw_amplitude_deg)
    ins_sigma = np.deg2rad(noise.ins_rot_noise_deg)
    yaws = headings
    if yaw_amp != 0.0:
        yaws = [h + (yaw_amp if k % 2 == 0 else -yaw_amp) for k, h in enumerate(headings)]
    rotations = [_camera_orientation(yaw) for yaw in yaws]
    positions = np.column_stack([pts, np.full(len(pts), sim.resolved_height(platform))])

    lm_pos = world.landmark_positions().reshape(-1, 3)
    lm_desc = world.landmark_descriptors().reshape(-1, world.config.descriptor_dim)
    lm_ids = np.array([lm.id for lm in world.landmarks], dtype=int)
    cond_offsets = None
    if condition_value != 0.0 and len(world.landmarks):
        cond_offsets = np.array(
            [world.condition_offset(int(i), condition_value, noise.condition_offset) for i in lm_ids]
        )
    visible = _visible_landmarks(lm_pos, np.array(rotations), positions, sim)

    frames = []
    prev_rotation = None
    for k, (rotation, position, (vis_idx, vis_pix)) in enumerate(zip(rotations, positions, visible)):
        if noise.dropout > 0.0 and len(vis_idx):
            kept = rng.random(len(vis_idx)) >= noise.dropout
            vis_idx, vis_pix = vis_idx[kept], vis_pix[kept]
        order = rng.permutation(len(vis_idx))
        vis_idx = vis_idx[order]
        pixels = vis_pix[order] + rng.normal(0.0, noise.pixel_sigma, size=(len(vis_idx), 2))
        descs = lm_desc[vis_idx]
        if cond_offsets is not None:
            descs += cond_offsets[vis_idx]
        if noise.descriptor_sigma > 0.0 and len(vis_idx):
            dim = descs.shape[1]
            descs += rng.normal(0.0, noise.descriptor_sigma / np.sqrt(dim), size=descs.shape)

        gps = position + world.gps_bias(position, noise.canyon_amplitude, noise.canyon_wavelength)
        if noise.gps_sigma > 0.0:
            gps = gps + rng.normal(0.0, noise.gps_sigma, size=3)
        gps = np.concatenate([gps, [noise.gps_sigma]])

        gravity_body = rotation.T @ GRAVITY_WORLD
        gravity_meas = _small_rotation(rng, ins_sigma) @ gravity_body
        if prev_rotation is None:
            rel_rot = np.array([1.0, 0.0, 0.0, 0.0])
        else:
            rel = prev_rotation.T @ rotation
            rel = rel @ _small_rotation(rng, ins_sigma)
            rel_rot = so3.matrix_to_quat(rel)
        prev_rotation = rotation

        frames.append(
            Frame(
                frame_id=experience_id * FRAME_ID_STRIDE + k,
                experience_id=experience_id,
                timestamp=k / sim.frame_rate,
                gps=gps,
                ins_gravity=gravity_meas,
                ins_rel_rot=rel_rot,
                pixels=pixels,
                descriptors=descs,
                condition_value=condition_value,
                true_pose=Pose.from_matrix(rotation, position),
                landmark_ids=lm_ids[vis_idx],
            )
        )

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
