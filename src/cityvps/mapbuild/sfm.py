"""Incremental structure-from-motion with GPS-prior bundle adjustment.

A submap is reconstructed by: (1) seeding from the frame pair sharing the
most tracks, with GPS translations and INS-derived attitudes resolved by a
coarse yaw grid; (2) midpoint-triangulating the shared tracks; (3)
registering the remaining frames in covisibility order, each refined by a
robust single-pose solve; (4) re-triangulating everything and running a
full bundle adjustment that jointly minimizes robust reprojection error and
the GPS prior on camera positions.

Triangulation, in (2), (4) and after each registration and bundle
adjustment, is one batched midpoint solve per call over all the tracks it is
given (`triangulate_tracks`), not one solve per track.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import (
    BEHIND_RESIDUAL,
    GRAVITY_WORLD,
    BlockJacobian,
    BlockStructure,
    Camera,
    NonFinite,
    Pose,
    RobustPrefix,
    gravity_rows,
    refine_pose,
    reprojection_errors,
    reprojection_rows,
    so3,
    solve_least_squares,
)
from .types import FrameSubset, InsufficientOverlap, Submap, Track


@dataclass(frozen=True)
class BuildParams:
    huber_delta_px: float = 2.0
    gps_weight: float | None = None  # None: 1/sigma^2 per fix
    gps_sigma_floor: float = 0.1
    # INS gravity prior. Straight-street trajectories leave the roll about
    # the street axis unobservable to reprojection + GPS; the measured
    # gravity direction pins it.
    gravity_sigma_deg: float = 0.2
    min_seed_shared_tracks: int = 8
    min_register_matches: int = 4
    yaw_grid: int = 8
    seed_window: int = 6  # frames in the multi-view seed neighborhood
    min_triangulation_angle_deg: float = 1.0
    min_triangulation_depth: float = 0.05
    register_inlier_px: float = 4.0
    rmse_max: float = 3.0
    min_registered_fraction: float = 0.5
    min_landmarks: int = 10
    periodic_ba_every: int = 8
    # While fewer than this many frames are registered the map's scale still
    # hangs on very few GPS fixes: the inlier gate is loosened and a bundle
    # adjustment runs after every registration so new fixes correct it.
    early_phase_frames: int = 8
    ba_max_iterations: int = 100
    ba_rel_tol: float = 1e-10


def gps_weight_for(sigma: float, params) -> float:
    """GPS prior weight of a fix with standard deviation `sigma`.

    `params` is a BuildParams or a FusionParams; both carry ``gps_weight``
    and ``gps_sigma_floor``.
    """
    if params.gps_weight is not None:
        return params.gps_weight
    s = max(float(sigma), params.gps_sigma_floor)
    return 1.0 / (s * s)


# ---------------------------------------------------------------------------
# Orientation initialization from INS


def ins_orientation_chain(frames) -> dict:
    """Cumulative INS rotation per frame id, relative to the first frame."""
    chain = {}
    current = np.eye(3)
    for i, f in enumerate(frames):
        if i > 0:
            current = current @ so3.quat_to_matrix(f.ins_rel_rot)
        chain[f.frame_id] = current
    return chain


def gravity_aligned_base(gravity_body) -> np.ndarray:
    """Some body-to-world rotation consistent with the measured gravity."""
    g = np.asarray(gravity_body, dtype=float)
    g = g / np.linalg.norm(g)
    return so3.rotation_between(g, GRAVITY_WORLD)


# ---------------------------------------------------------------------------
# Triangulation


def triangulate_midpoints(origins, directions, starts, min_angle_deg: float, min_depth: float):
    """Midpoints of many tracks' rays (origin, unit direction) at once.

    Track k owns rows ``starts[k]:starts[k + 1]`` (the last runs to the
    end), and each track has at least two rays. Returns (points (T,3),
    ok (T,)). A track is rejected when its largest pairwise ray angle is
    below `min_angle_deg`, its 3x3 normal system is singular, or its point
    lies at depth <= `min_depth` along any of its rays (behind or too close
    to an observing camera); its row of `points` is then meaningless.
    """
    origins = np.asarray(origins, dtype=float)
    directions = np.asarray(directions, dtype=float)
    starts = np.asarray(starts, dtype=int)
    m = origins.shape[0]
    counts = np.diff(np.append(starts, m))
    track = np.repeat(np.arange(starts.size), counts)
    # Every ray pair (i, j > i) of a track; the pairs of one track are
    # contiguous and each track has at least one.
    partners = np.repeat(starts + counts, counts) - np.arange(m) - 1
    first_pair = np.cumsum(partners) - partners
    i = np.repeat(np.arange(m), partners)
    j = i + 1 + np.arange(i.size) - np.repeat(first_pair, partners)
    dots = np.clip(np.einsum("ij,ij->i", directions[i], directions[j]), -1.0, 1.0)
    max_angle = np.degrees(np.arccos(np.minimum.reduceat(dots, first_pair[starts])))
    ok = max_angle >= min_angle_deg

    # Closest point to the rays: sum_k (I - d_k d_k^T) x = sum_k (I - d_k d_k^T) o_k.
    proj = np.eye(3) - directions[:, :, None] * directions[:, None, :]
    a = np.add.reduceat(proj, starts)
    b = np.add.reduceat(np.einsum("kij,kj->ki", proj, origins), starts)
    points = np.zeros((starts.size, 3))
    x, solved = _solve_each(a[ok], b[ok])
    points[ok] = x
    ok[ok] = solved
    depths = np.einsum("ij,ij->i", points[track] - origins, directions)
    ok &= np.minimum.reduceat(depths, starts) > min_depth
    return points, ok


def _solve_each(a, b):
    """x with a[k] x[k] = b[k] for a stack of 3x3 systems, and which were solvable.

    A stacked solve raises for the whole stack when any one matrix is
    singular; then each system is solved alone, so a singular one is
    rejected by itself.
    """
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0], np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
        solved = np.ones(len(a), dtype=bool)
        for k in range(len(a)):
            try:
                x[k] = np.linalg.solve(a[k], b[k])
            except np.linalg.LinAlgError:
                solved[k] = False
        return x, solved


def triangulate_midpoint(origins, directions, min_angle_deg: float, min_depth: float):
    """Midpoint of the rays (origin, unit direction); None when degenerate.

    The one-track case of `triangulate_midpoints`, with its rejection rules.
    """
    if len(origins) < 2:
        return None
    points, ok = triangulate_midpoints(origins, directions, [0], min_angle_deg, min_depth)
    return points[0] if ok[0] else None


def triangulate_tracks(tracks, poses: dict, frames_by_id: dict, camera: Camera, params: BuildParams) -> dict:
    """{track_id: midpoint} of the given tracks, by one batched solve.

    Only observations in registered frames (`poses`) count. Tracks with
    fewer than two of them, or rejected by `triangulate_midpoints`, are
    left out. Each frame's rotation is computed once and all rays come from
    one `Camera.rays` call.
    """
    track_ids, starts, observed = [], [], []
    for track in tracks:
        registered = [(fid, oi) for fid, oi in track.observations if fid in poses]
        if len(registered) < 2:
            continue
        track_ids.append(track.track_id)
        starts.append(len(observed))
        observed.extend(registered)
    if not track_ids:
        return {}
    column = {fid: k for k, fid in enumerate(dict.fromkeys(fid for fid, _ in observed))}
    rots = np.array([poses[fid].rotation for fid in column])
    ts = np.array([poses[fid].t for fid in column])
    cams = np.array([column[fid] for fid, _ in observed])
    rays = camera.rays(np.array([frames_by_id[fid].pixels[oi] for fid, oi in observed]))
    points, ok = triangulate_midpoints(
        ts[cams],
        np.einsum("kij,kj->ki", rots[cams], rays),
        starts,
        params.min_triangulation_angle_deg,
        params.min_triangulation_depth,
    )
    return {tid: points[k] for k, tid in enumerate(track_ids) if ok[k]}


def triangulate_track(track: Track, poses: dict, frames_by_id: dict, camera: Camera, params: BuildParams):
    """Midpoint of one track's registered rays, or None: `triangulate_tracks` of one track.

    The pipeline batches its tracks and does not call this. It is kept
    because the benchmark's traced run (``perfbench/tracing.py``) rebinds
    ``sfm.triangulate_track`` by name and fails without it.
    """
    return triangulate_tracks([track], poses, frames_by_id, camera, params).get(track.track_id)


# ---------------------------------------------------------------------------
# Bundle adjustment (block Jacobian; landmarks eliminated, banded reduced camera system factored)


class _BAProblem:
    def __init__(self, frame_ids, track_ids, observations, gps, gps_weights, camera: Camera,
                 gravity_meas, gravity_sqrtw: float):
        self.frame_ids = list(frame_ids)  # sorted
        self.track_ids = list(track_ids)  # sorted
        self.fidx = {fid: i for i, fid in enumerate(self.frame_ids)}
        self.lidx = {tid: i for i, tid in enumerate(self.track_ids)}
        # observations: (frame_id, track_id, pixel)
        self.obs_f = np.array([self.fidx[fid] for fid, _, _ in observations], dtype=int)
        self.obs_l = np.array([self.lidx[tid] for _, tid, _ in observations], dtype=int)
        self.obs_px = np.array([px for _, _, px in observations], dtype=float)
        self.gps = np.asarray(gps, dtype=float)  # (F, 3)
        self.gps_sqrtw = np.sqrt(np.asarray(gps_weights, dtype=float))  # (F,)
        self.camera = camera
        self.nf = len(self.frame_ids)
        self.nl = len(self.track_ids)
        self.nobs = self.obs_f.shape[0]
        # Per-frame measured gravity direction (camera frame).
        self.gravity = np.asarray(gravity_meas, dtype=float)
        self.gravity_sqrtw = float(gravity_sqrtw)
        self.structure = BlockStructure(self.obs_f, self.obs_l, self.nf, self.nl)

    def pack(self, poses: dict, points: dict) -> np.ndarray:
        x = np.empty(6 * self.nf + 3 * self.nl)
        for i, fid in enumerate(self.frame_ids):
            x[6 * i : 6 * i + 6] = poses[fid].params()
        for j, tid in enumerate(self.track_ids):
            x[6 * self.nf + 3 * j : 6 * self.nf + 3 * j + 3] = points[tid]
        return x

    def unpack(self, x):
        poses = {}
        points = {}
        for i, fid in enumerate(self.frame_ids):
            poses[fid] = Pose.from_params(x[6 * i : 6 * i + 6])
        for j, tid in enumerate(self.track_ids):
            points[tid] = x[6 * self.nf + 3 * j : 6 * self.nf + 3 * j + 3].copy()
        return poses, points

    def _split(self, x):
        """Rotation vectors, positions and each observation's world point."""
        frames = x[: 6 * self.nf].reshape(self.nf, 6)
        pts = x[6 * self.nf :].reshape(self.nl, 3)
        return frames[:, :3], frames[:, 3:], pts[self.obs_l]

    def residuals(self, x):
        rotvecs, ts, pts = self._split(x)
        rots = so3.exp_many(rotvecs)
        r_obs = reprojection_rows(rots, ts, pts, self.obs_f, self.obs_px, self.camera)
        r_gps = (ts - self.gps) * self.gps_sqrtw[:, None]
        r_gravity = gravity_rows(rots, self.gravity, self.gravity_sqrtw)
        return np.concatenate([r_obs.ravel(), r_gps.ravel(), r_gravity.ravel()])

    def jacobian(self, x) -> BlockJacobian:
        rotvecs, ts, pts = self._split(x)
        rots, jrs = so3.exp_many(rotvecs), so3.right_jacobian_many(rotvecs)
        cam, land = reprojection_rows(rots, ts, pts, self.obs_f, self.obs_px, self.camera, jrs)
        gps = np.zeros((self.nf, 3, 6))
        gps[:, [0, 1, 2], [3, 4, 5]] = self.gps_sqrtw[:, None]  # d/dt = sqrt(w) I
        gravity = gravity_rows(rots, self.gravity, self.gravity_sqrtw, jrs)
        return BlockJacobian(self.structure, cam, land, [gps, gravity])


def bundle_adjust(poses, points, tracks_by_id, frames_by_id, camera, params: BuildParams, max_iterations=None):
    """Joint robust reprojection + GPS-prior refinement of poses and points.

    Returns (poses, points, SolveResult, rmse) where rmse is over valid
    (in-front) observations after optimization.
    """
    frame_ids = sorted(poses)
    track_ids = sorted(points)
    observations = []
    for tid in track_ids:
        for fid, oi in tracks_by_id[tid].observations:
            if fid in poses:
                observations.append((fid, tid, frames_by_id[fid].pixels[oi]))
    gps = np.array([frames_by_id[fid].gps[:3] for fid in frame_ids])
    weights = np.array([gps_weight_for(frames_by_id[fid].gps[3], params) for fid in frame_ids])
    gravity = np.array([frames_by_id[fid].ins_gravity for fid in frame_ids])
    gravity = gravity / np.linalg.norm(gravity, axis=1, keepdims=True)
    problem = _BAProblem(frame_ids, track_ids, observations, gps, weights, camera,
                         gravity_meas=gravity, gravity_sqrtw=1.0 / np.deg2rad(params.gravity_sigma_deg))
    robust = RobustPrefix(n_blocks=problem.nobs, block_size=2, delta=params.huber_delta_px)
    result = solve_least_squares(
        problem.residuals,
        problem.pack(poses, points),
        jacobian=problem.jacobian,
        robust=robust,
        max_iterations=max_iterations or params.ba_max_iterations,
        rel_cost_tol=params.ba_rel_tol,
    )
    new_poses, new_points = problem.unpack(result.params)
    r = problem.residuals(result.params)[: 2 * problem.nobs].reshape(-1, 2)
    norms = np.linalg.norm(r, axis=1)
    norms = norms[norms < BEHIND_RESIDUAL * 0.5]
    rmse = float(np.sqrt(np.mean(norms * norms))) if norms.size else float("inf")
    return new_poses, new_points, result, rmse


# ---------------------------------------------------------------------------
# Incremental reconstruction


def _yaw_candidates(n: int):
    return [2.0 * np.pi * k / n for k in range(n)]


def _matches_for_frame(frame_id, frames_by_id, frame_tracks, points):
    pts = []
    pix = []
    for tid, oi in frame_tracks.get(frame_id, []):
        if tid in points:
            pts.append(points[tid])
            pix.append(frames_by_id[frame_id].pixels[oi])
    if not pts:
        return np.zeros((0, 3)), np.zeros((0, 2))
    return np.array(pts), np.array(pix)


def _triangulate_solvable(candidates, points: dict, poses, frames_by_id, camera, params):
    """Add to `points` each candidate track that has no point yet and triangulates from its registered observations."""
    unsolved = [track for track in candidates if track.track_id not in points]
    points.update(triangulate_tracks(unsolved, poses, frames_by_id, camera, params))


def _window_score(poses: dict, tracks, frames_by_id, camera, params):
    """Triangulate every track visible from >= 2 of the given poses and
    score mean reprojection over those tracks' window observations.

    Tracks that fail to triangulate count as a large error so hypotheses
    cannot win by explaining away most of the evidence.
    """
    fids = list(poses)
    fidx = {fid: i for i, fid in enumerate(fids)}
    points = triangulate_tracks(tracks, poses, frames_by_id, camera, params)
    solved = []  # per window observation: did its track triangulate
    cams, world, pixels = [], [], []
    for track in tracks:
        in_window = [(f, oi) for f, oi in track.observations if f in poses]
        if len(in_window) < 2:
            continue
        x = points.get(track.track_id)
        solved.extend([x is not None] * len(in_window))
        if x is None:
            continue
        for f, oi in in_window:
            cams.append(fidx[f])
            world.append(x)
            pixels.append(frames_by_id[f].pixels[oi])
    if not points:
        return None, float("inf")
    rots = np.array([poses[f].rotation for f in fids])
    ts = np.array([poses[f].t for f in fids])
    r = reprojection_rows(rots, ts, np.array(world), np.array(cams), np.array(pixels), camera)
    errors = np.full(len(solved), BEHIND_RESIDUAL)
    errors[np.array(solved)] = np.minimum(np.linalg.norm(r, axis=1), BEHIND_RESIDUAL)
    return points, float(np.mean(errors))


def build_submap(
    subset: FrameSubset,
    tracks: list,
    frames_by_id: dict,
    camera: Camera,
    params: BuildParams | None = None,
    submap_id: int | None = None,
) -> Submap:
    """Reconstruct one subset into a Submap; failures come back discarded.

    Raises InsufficientOverlap when no frame pair shares enough tracks to
    seed. Non-converging optimization marks the submap discarded rather
    than raising.
    """
    params = params or BuildParams()
    frame_ids = [fid for fid in subset.all_ids() if fid in frames_by_id]
    if len(frame_ids) < 2:
        raise InsufficientOverlap("need at least two frames")
    tracks_by_id = {t.track_id: t for t in tracks}
    # frame id -> [(track_id, observation_index)] for covisibility lookups.
    frame_tracks: dict = {}
    for track in tracks:
        for fid, oi in track.observations:
            frame_tracks.setdefault(fid, []).append((track.track_id, oi))

    # Shared-track counts per frame pair.
    pair_counts: dict = {}
    for track in tracks:
        fids = [fid for fid, _ in track.observations]
        for i in range(len(fids)):
            for j in range(i + 1, len(fids)):
                key = (min(fids[i], fids[j]), max(fids[i], fids[j]))
                pair_counts[key] = pair_counts.get(key, 0) + 1
    if not pair_counts:
        raise InsufficientOverlap("no shared tracks")

    def pair_rank(item):
        (fa, fb), count = item
        same_exp = frames_by_id[fa].experience_id == frames_by_id[fb].experience_id
        return (count, same_exp, -fa, -fb)

    (seed_a, seed_b), best_count = max(pair_counts.items(), key=pair_rank)
    if best_count < params.min_seed_shared_tracks:
        raise InsufficientOverlap(f"best pair shares {best_count} tracks")

    fa, fb = frames_by_id[seed_a], frames_by_id[seed_b]
    base_a = gravity_aligned_base(fa.ins_gravity)
    # Each experience's frames in time order and its INS orientation chain,
    # for the seed window and for registration inits.
    exp_frames = {
        eid: sorted((f for f in frames_by_id.values() if f.experience_id == eid), key=lambda f: f.timestamp)
        for eid in {frames_by_id[fid].experience_id for fid in frame_ids} | {fa.experience_id}
    }
    chains = {eid: ins_orientation_chain(frames) for eid, frames in exp_frames.items()}
    exp_frames_a = exp_frames[fa.experience_id]

    # Seed window: the pair plus nearby frames of its experience. GPS noise
    # on a short two-frame baseline is enough to fold two-view geometry into
    # the wrong basin; multi-view triangulation over the window averages the
    # noise out and makes the yaw hypotheses cleanly separable.
    window_ids = {seed_a, seed_b}
    t_lo = min(fa.timestamp, fb.timestamp)
    t_hi = max(fa.timestamp, fb.timestamp)
    neighbors = sorted(
        (f for f in exp_frames_a if f.frame_id not in window_ids),
        key=lambda f: min(abs(f.timestamp - t_lo), abs(f.timestamp - t_hi)),
    )
    for f in neighbors[: max(0, params.seed_window - len(window_ids))]:
        window_ids.add(f.frame_id)

    candidates = []
    for psi in _yaw_candidates(params.yaw_grid):
        rot_a = so3.yaw_matrix(psi) @ base_a
        hyp_poses = {}
        chain = chains[fa.experience_id]
        for fid in window_ids:
            f = frames_by_id[fid]
            if f.experience_id == fa.experience_id:
                rot = rot_a @ (chain[seed_a].T @ chain[fid])
            elif fid == seed_b:
                rot = so3.yaw_matrix(psi) @ gravity_aligned_base(fb.ins_gravity)
            else:
                continue
            hyp_poses[fid] = Pose.from_matrix(rot, f.gps[:3])
        points, score = _window_score(hyp_poses, tracks, frames_by_id, camera, params)
        if points is not None and len(points) >= 4:
            candidates.append((score, psi, hyp_poses, points))
    candidates.sort(key=lambda c: c[0])
    if not candidates:
        raise InsufficientOverlap("seed triangulation failed for all yaw hypotheses")

    # Refine the leading hypotheses and keep the best refined geometry.
    best = None
    failures = []
    for score, psi, hyp_poses, points in candidates[:3]:
        try:
            ref_poses, ref_points, _, _ = bundle_adjust(
                hyp_poses, points, tracks_by_id, frames_by_id, camera, params, max_iterations=20
            )
        except NonFinite as exc:
            failures.append(f"yaw {np.degrees(psi):.0f} deg: {exc}")
            continue
        _, cost = _window_score(ref_poses, tracks, frames_by_id, camera, params)
        if best is None or cost < best[0]:
            best = (cost, ref_poses)
    if best is None:
        raise InsufficientOverlap("seed refinement failed: " + "; ".join(failures))

    poses = best[1]
    points, _ = _window_score(poses, tracks, frames_by_id, camera, params)
    poses, points, result, _ = bundle_adjust(
        poses, points, tracks_by_id, frames_by_id, camera, params, max_iterations=30
    )

    failed: dict = {}  # frame id -> match count when registration last failed
    since_ba = 0
    gravity_sqrtw = 1.0 / np.deg2rad(params.gravity_sigma_deg)
    while True:
        # Next frame: most observations of already-triangulated tracks.
        # Failed frames become eligible again once they can see more points.
        candidates = []
        for fid in frame_ids:
            if fid in poses:
                continue
            count = sum(1 for tid, _ in frame_tracks.get(fid, []) if tid in points)
            if count >= params.min_register_matches and count > failed.get(fid, -1):
                candidates.append((count, -fid))
        if not candidates:
            break
        count, neg_fid = max(candidates)
        fid = -neg_fid
        frame = frames_by_id[fid]
        pts3d, pix = _matches_for_frame(fid, frames_by_id, frame_tracks, points)

        # Initial rotation: INS chain from the nearest registered frame of the
        # same experience, else gravity + yaw grid scored on reprojection.
        chain = chains[frame.experience_id]
        ref = None
        for other in sorted(poses, key=lambda o: abs(frames_by_id[o].timestamp - frame.timestamp)):
            if frames_by_id[other].experience_id == frame.experience_id:
                ref = other
                break
        inits = []
        if ref is not None:
            rot = poses[ref].rotation @ (chain[ref].T @ chain[fid])
            inits.append(Pose.from_matrix(rot, frame.gps[:3]))
        else:
            base = gravity_aligned_base(frame.ins_gravity)
            for psi in _yaw_candidates(params.yaw_grid):
                inits.append(Pose.from_matrix(so3.yaw_matrix(psi) @ base, frame.gps[:3]))

        early = len(poses) < params.early_phase_frames
        inlier_px = params.register_inlier_px * (3.0 if early else 1.0)
        best_pose = None
        best_inliers = -1
        for init in inits:
            pose, _, _ = refine_pose(pts3d, pix, camera, init, frame.ins_gravity, gravity_sqrtw, params.huber_delta_px)
            errs = reprojection_errors(pose, pts3d, pix, camera)
            inliers = int((errs < inlier_px).sum())
            if inliers > best_inliers:
                best_pose, best_inliers = pose, inliers
        if best_pose is None or best_inliers < params.min_register_matches:
            failed[fid] = count
            continue
        poses[fid] = best_pose
        since_ba += 1

        # Only tracks observing the new frame can have become solvable.
        new_tracks = (tracks_by_id[tid] for tid, _ in frame_tracks.get(fid, []))
        _triangulate_solvable(new_tracks, points, poses, frames_by_id, camera, params)
        if early or since_ba >= params.periodic_ba_every:
            poses, points, _, _ = bundle_adjust(
                poses, points, tracks_by_id, frames_by_id, camera, params, max_iterations=15
            )
            # Cleaner geometry: re-triangulate everything solvable and give
            # previously failed frames another chance.
            _triangulate_solvable(tracks, points, poses, frames_by_id, camera, params)
            failed.clear()
            since_ba = 0

    # Re-triangulate everything from the final incremental poses.
    points = {}
    _triangulate_solvable(tracks, points, poses, frames_by_id, camera, params)

    discard_reasons = []
    if len(points) < params.min_landmarks:
        discard_reasons.append(f"only {len(points)} landmarks triangulated")
        rmse = float("inf")
        final_cost = float("inf")
    else:
        poses, points, result, rmse = bundle_adjust(
            poses, points, tracks_by_id, frames_by_id, camera, params
        )
        final_cost = result.cost
        if not result.converged:
            discard_reasons.append("bundle adjustment diverged")
        if rmse > params.rmse_max:
            discard_reasons.append(f"reprojection rmse {rmse:.2f} px exceeds {params.rmse_max}")

    registered_fraction = len(poses) / max(1, len(frame_ids))
    if registered_fraction < params.min_registered_fraction:
        discard_reasons.append(
            f"registered {len(poses)}/{len(frame_ids)} frames"
        )

    track_ids = sorted(points)
    descriptors = []
    track_observations = {}
    for tid in track_ids:
        track = tracks_by_id[tid]
        descs = [
            frames_by_id[f].descriptors[oi]
            for f, oi in track.observations
            if f in frames_by_id
        ]
        descriptors.append(np.mean(descs, axis=0))
        track_observations[tid] = [
            (f, frames_by_id[f].pixels[oi].copy())
            for f, oi in track.observations
            if f in poses
        ]

    return Submap(
        submap_id=subset.subset_id if submap_id is None else submap_id,
        experience_id=subset.experience_id,
        poses=poses,
        landmark_positions=np.array([points[tid] for tid in track_ids]).reshape(-1, 3),
        landmark_descriptors=np.array(descriptors).reshape(len(track_ids), -1)
        if descriptors
        else np.zeros((0, 0)),
        landmark_track_ids=np.array(track_ids, dtype=int),
        gps_priors={fid: frames_by_id[fid].gps.copy() for fid in poses},
        member_ids=[fid for fid in subset.member_ids if fid in poses],
        augmented_ids=[fid for fid in subset.augmented_ids if fid in poses],
        status="discarded" if discard_reasons else "built",
        reprojection_rmse=rmse,
        final_cost=final_cost,
        discard_reasons=discard_reasons,
        track_observations=track_observations,
    )
