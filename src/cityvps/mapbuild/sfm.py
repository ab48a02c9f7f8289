"""Incremental structure-from-motion with GPS-prior bundle adjustment.

A submap is reconstructed by: (1) seeding from the frame pair sharing the
most tracks and a window of nearby frames, placed at their GPS fixes with
attitudes known from gravity and the INS chain up to one yaw, solved in
closed form from the window's baselines; (2) midpoint-triangulating the
shared tracks; (3) registering the remaining frames in covisibility order,
each started from its own measured gravity and the closed-form yaw that
turns its matches' rays onto their bearings from its GPS fix, a frame of
any experience alike, then refined by a robust single-pose solve and
accepted by one inlier gate; (4) re-triangulating everything and running a
full bundle adjustment that jointly minimizes robust reprojection error and
the GPS prior on camera positions. Every bundle adjustment, of the seed,
during registration and the final one, starts in its GPS gauge: the poses
and points are first moved by the closed-form yaw, scale and shift that fit
the cameras to their fixes (`umeyama_yaw`), so its iterations go to the
map's shape.

The subset's tracks are flattened once into an `Observations` table: per
observation its track, frame, index in the frame and pixel, track by track
in ascending id. Every stage selects its rows by mask, with `of(track_ids)`
and `seen_from(poses)`: the seed pair's shared-track counts, each frame's
candidate matches, the tracks to triangulate and the observations bundle
adjustment holds. The build is therefore a function of the set of tracks,
not of their list order.

Triangulation, in (2), (4) and after each registration and bundle
adjustment, is one batched midpoint solve per call over all the tracks it is
given (`triangulate_tracks`), not one solve per track.

Each threshold has one value, a module constant below. A fix's GPS weight
is `gps_weight`, the rule fusion applies to the same fixes.
"""

from __future__ import annotations

import numpy as np

from ..geometry import (
    BEHIND_RESIDUAL,
    GRAVITY_WORLD,
    BlockJacobian,
    BlockStructure,
    Camera,
    LastEvaluation,
    NonFinite,
    Pose,
    RobustPrefix,
    gravity_rows,
    observation_blocks,
    observation_residuals,
    project_observations,
    refine_pose,
    reprojection_errors,
    so3,
    solve_least_squares,
    umeyama_yaw,
    yaw_between as _yaw_between,
)
from .types import FrameSubset, InsufficientOverlap, Submap, Track


# Thresholds of the reconstruction; each is read when it is used.
HUBER_DELTA_PX = 2.0
GPS_SIGMA_FLOOR = 0.1  # m, see gps_weight
# INS gravity prior. Straight-street trajectories leave the roll about
# the street axis unobservable to reprojection + GPS; the measured
# gravity direction pins it.
GRAVITY_SIGMA_DEG = 0.2
GRAVITY_SQRTW = 1.0 / np.deg2rad(GRAVITY_SIGMA_DEG)  # a gravity row's square-root weight, set at import
MIN_SEED_SHARED_TRACKS = 8
MIN_REGISTER_MATCHES = 4
SEED_WINDOW = 6  # frames in the multi-view seed neighborhood
MIN_TRIANGULATION_ANGLE_DEG = 1.0
MIN_TRIANGULATION_DEPTH = 0.05
REGISTER_INLIER_PX = 4.0
RMSE_MAX = 3.0
MIN_REGISTERED_FRACTION = 0.5
MIN_LANDMARKS = 10
PERIODIC_BA_EVERY = 8
# While fewer than this many frames are registered the map's scale still
# hangs on very few GPS fixes: a bundle adjustment runs after every
# registration so new fixes correct it.
EARLY_PHASE_FRAMES = 8
BA_MAX_ITERATIONS = 100


def gps_weight(sigma: float) -> float:
    """GPS prior weight 1/sigma^2 of a fix with standard deviation `sigma` (m).

    The one weight rule of bundle adjustment and fusion; sigma is floored
    at ``GPS_SIGMA_FLOOR``.
    """
    s = max(float(sigma), GPS_SIGMA_FLOOR)
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


def _row_pairs(starts, m: int):
    """Every pair of rows (i, j > i) within each run of `m` rows.

    Run k holds rows ``starts[k]`` up to the next start, the last up to m.
    Returns (i, j, first): the pairs of one run are contiguous, and row r's
    pairs begin at ``first[r]``.
    """
    counts = np.diff(np.append(starts, m))
    partners = np.repeat(starts + counts, counts) - np.arange(m) - 1
    first = np.cumsum(partners) - partners
    i = np.repeat(np.arange(m), partners)
    return i, i + 1 + np.arange(i.size) - np.repeat(first, partners), first


def triangulate_midpoints(origins, directions, starts):
    """Midpoints of many tracks' rays (origin, unit direction) at once.

    Track k owns rows ``starts[k]:starts[k + 1]`` (the last runs to the
    end), and each track has at least two rays. Returns (points (T,3),
    ok (T,)). A track is rejected when its largest pairwise ray angle is
    below ``MIN_TRIANGULATION_ANGLE_DEG``, or its point lies at depth
    <= ``MIN_TRIANGULATION_DEPTH`` along any of its rays (behind or too
    close to an observing camera); its row of `points` is then meaningless.
    """
    origins = np.asarray(origins, dtype=float)
    directions = np.asarray(directions, dtype=float)
    starts = np.asarray(starts, dtype=int)
    m = origins.shape[0]
    track = np.repeat(np.arange(starts.size), np.diff(np.append(starts, m)))
    # Every ray pair of a track; each track has at least one.
    i, j, first_pair = _row_pairs(starts, m)
    dots = np.clip(np.einsum("ij,ij->i", directions[i], directions[j]), -1.0, 1.0)
    max_angle = np.degrees(np.arccos(np.minimum.reduceat(dots, first_pair[starts])))
    ok = max_angle >= MIN_TRIANGULATION_ANGLE_DEG

    # Closest point to the rays: sum_k (I - d_k d_k^T) x = sum_k (I - d_k d_k^T) o_k.
    # The sum is singular only when all the rays are parallel to one line.
    # Rays at least MIN_TRIANGULATION_ANGLE_DEG apart are not, unless they
    # point exactly opposite ways along it (a measure-zero case for rays
    # computed from camera poses), so the stacked solve of the tracks kept
    # does not raise.
    proj = np.eye(3) - directions[:, :, None] * directions[:, None, :]
    a = np.add.reduceat(proj, starts)
    b = np.add.reduceat(np.einsum("kij,kj->ki", proj, origins), starts)
    points = np.zeros((starts.size, 3))
    points[ok] = np.linalg.solve(a[ok], b[ok][:, :, None])[:, :, 0]
    depths = np.einsum("ij,ij->i", points[track] - origins, directions)
    ok &= np.minimum.reduceat(depths, starts) > MIN_TRIANGULATION_DEPTH
    return points, ok


class Observations:
    """A subset's track observations as one table, flattened once per build.

    Row k is observation ``index[k]`` of frame ``frame[k]``, at pixel
    ``pixel[k]``, in track ``track[k]``. Rows run track by track in
    ascending id, each track's in the order of its observations.
    Observations of frames outside `frames_by_id` are left out.

    Membership is looked up, not searched: `of` and `seen_from` mark the
    given ids in a boolean table over the table's distinct track ids or
    frame ids and read it at each row's slot.
    """

    def __init__(self, tracks, frames_by_id: dict):
        rows = [
            (track.track_id, fid, oi)
            for track in sorted(tracks, key=lambda t: t.track_id)
            for fid, oi in track.observations
            if fid in frames_by_id
        ]
        self.track, self.frame, self.index = np.array(rows, dtype=int).reshape(-1, 3).T.copy()
        self.pixel = np.array([frames_by_id[fid].pixels[oi] for _, fid, oi in rows]).reshape(-1, 2)
        self._track_ids, self._track_slot = np.unique(self.track, return_inverse=True)
        self._frame_ids, self._frame_slot = np.unique(self.frame, return_inverse=True)

    def of(self, track_ids):
        """Mask of the rows of the given tracks."""
        return _member(self._track_ids, track_ids)[self._track_slot]

    def seen_from(self, poses):
        """Mask of the rows in the frames of `poses`."""
        return _member(self._frame_ids, poses)[self._frame_slot]


def _member(table_ids, ids):
    """Mask over the sorted `table_ids` of those among `ids` (an array, or any sized collection of ints)."""
    if not isinstance(ids, np.ndarray):
        ids = np.fromiter(ids, dtype=int, count=len(ids))
    slot = np.searchsorted(table_ids, ids)
    hit = slot < table_ids.size
    hit[hit] = table_ids[slot[hit]] == ids[hit]
    member = np.zeros(table_ids.size, dtype=bool)
    member[slot[hit]] = True
    return member


def _registered_rows(obs: Observations, rows, poses: dict):
    """Indices of the `rows` (a mask) in registered frames, of tracks with at least two of them."""
    rows = np.flatnonzero(rows & obs.seen_from(poses))
    _, counts = np.unique(obs.track[rows], return_counts=True)
    return rows[np.repeat(counts >= 2, counts)]


def _frame_geometry(obs: Observations, rows, poses: dict):
    """Rotations and positions of the frames of `rows`, and each row's position among them."""
    fids, cams = np.unique(obs.frame[rows], return_inverse=True)
    fids = fids.tolist()
    return np.array([poses[f].rotation for f in fids]), np.array([poses[f].t for f in fids]), cams


def triangulate_tracks(obs: Observations, rows, poses: dict, camera: Camera) -> dict:
    """{track_id: midpoint} of the tracks of `rows` (a mask of `obs`), by one batched solve.

    Only rows in registered frames (`poses`) count. Tracks with fewer than
    two of them, or rejected by `triangulate_midpoints`, are left out. Each
    frame's rotation is computed once and all rays come from one
    `Camera.rays` call.
    """
    rows = _registered_rows(obs, rows, poses)
    if rows.size == 0:
        return {}
    track_ids, starts = np.unique(obs.track[rows], return_index=True)
    rots, ts, cams = _frame_geometry(obs, rows, poses)
    rays = camera.rays(obs.pixel[rows])
    points, ok = triangulate_midpoints(ts[cams], np.einsum("kij,kj->ki", rots[cams], rays), starts)
    return dict(zip(track_ids[ok].tolist(), points[ok]))


def triangulate_track(track: Track, poses: dict, frames_by_id: dict, camera: Camera):
    """Midpoint of one track's registered rays, or None: `triangulate_tracks` of a one-track table.

    The pipeline batches its tracks and does not call this. It is kept
    because the benchmark's traced run (``perfbench/tracing.py``) rebinds
    ``sfm.triangulate_track`` by name and fails without it.
    """
    obs = Observations([track], frames_by_id)
    return triangulate_tracks(obs, obs.seen_from(poses), poses, camera).get(track.track_id)


# ---------------------------------------------------------------------------
# Bundle adjustment (block Jacobian; landmarks eliminated, reduced camera system solved in chunks)


class _BAProblem:
    def __init__(self, frame_ids, track_ids, obs_frames, obs_tracks, obs_pixels, gps, gps_weights,
                 camera: Camera, gravity_meas, gravity_sqrtw: float):
        self.frame_ids = list(frame_ids)  # sorted
        self.track_ids = list(track_ids)  # sorted
        # Observation k is pixel obs_pixels[k] of track obs_tracks[k] in frame obs_frames[k].
        self.obs_f = np.searchsorted(self.frame_ids, obs_frames)
        self.obs_l = np.searchsorted(self.track_ids, obs_tracks)
        self.obs_px = np.asarray(obs_pixels, dtype=float).reshape(-1, 2)
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
        # Residuals and Jacobian at one point share its projection.
        self._project = LastEvaluation(self._projection)

    def pack(self, poses: dict, points: dict) -> np.ndarray:
        cams = [poses[fid].params() for fid in self.frame_ids]
        return np.concatenate(cams + [np.array([points[tid] for tid in self.track_ids]).ravel()])

    def start(self, poses: dict, points: dict) -> np.ndarray:
        """`pack` of `poses` and `points` moved into their GPS gauge.

        The yaw about +z, scale and shift that best fit the cameras to their
        fixes under the GPS weights (``umeyama_yaw``) move every pose and
        point. Camera-frame points only scale, so no pixel moves; a turn
        about +z moves no gravity row; and the GPS rows' cost cannot rise,
        as the fit's family holds the identity. LM then spends its
        iterations on the map's shape, not on its gauge.
        """
        gauge = umeyama_yaw([poses[fid].t for fid in self.frame_ids], self.gps, self.gps_sqrtw**2)
        moved = gauge.apply_many(np.array([points[tid] for tid in self.track_ids]).reshape(-1, 3))
        poses = {fid: gauge.apply_pose(poses[fid]) for fid in self.frame_ids}
        return self.pack(poses, dict(zip(self.track_ids, moved)))

    def unpack(self, x):
        poses = {fid: Pose.from_params(p) for fid, p in zip(self.frame_ids, x[: 6 * self.nf].reshape(-1, 6))}
        points = dict(zip(self.track_ids, x[6 * self.nf :].reshape(-1, 3).copy()))
        return poses, points

    def _frames(self, x):
        """Rotation vectors and positions of the cameras."""
        frames = x[: 6 * self.nf].reshape(self.nf, 6)
        return frames[:, :3], frames[:, 3:]

    def _projection(self, x):
        """Camera rotations and the projection of every observation."""
        rotvecs, ts = self._frames(x)
        rots = so3.exp_many(rotvecs)
        pts = np.take(x[6 * self.nf :].reshape(self.nl, 3), self.obs_l, axis=0)
        return rots, project_observations(rots, ts, pts, self.obs_f, self.camera)

    def residuals(self, x):
        rots, projection = self._project(x)
        r_obs = observation_residuals(projection, self.obs_px)
        r_gps = (self._frames(x)[1] - self.gps) * self.gps_sqrtw[:, None]
        r_gravity = gravity_rows(rots, self.gravity, self.gravity_sqrtw)
        return np.concatenate([r_obs.ravel(), r_gps.ravel(), r_gravity.ravel()])

    def jacobian(self, x) -> BlockJacobian:
        rots, projection = self._project(x)
        jrs = so3.right_jacobian_many(self._frames(x)[0])
        cam = observation_blocks(projection, rots, self.obs_f, jrs)
        gps = np.zeros((self.nf, 3, 6))
        gps[:, [0, 1, 2], [3, 4, 5]] = self.gps_sqrtw[:, None]  # d/dt = sqrt(w) I
        gravity = gravity_rows(rots, self.gravity, self.gravity_sqrtw, jrs)
        return BlockJacobian(self.structure, cam, [gps, gravity])


def bundle_adjust(poses, points, obs: Observations, frames_by_id, camera, max_iterations=None):
    """Joint robust reprojection + GPS-prior refinement of poses and points.

    Adjusts the rows of `obs` that lie in the frames of `poses` and belong
    to the tracks of `points`, starting from them moved into their GPS
    gauge (`_BAProblem.start`). Runs at most `max_iterations` LM
    iterations, ``BA_MAX_ITERATIONS`` when None. Returns (poses, points,
    SolveResult, rmse) where rmse is over valid (in-front) observations
    after optimization.
    """
    frame_ids = sorted(poses)
    rows = obs.seen_from(poses) & obs.of(points)
    gps = np.array([frames_by_id[fid].gps[:3] for fid in frame_ids])
    weights = np.array([gps_weight(frames_by_id[fid].gps[3]) for fid in frame_ids])
    gravity = np.array([frames_by_id[fid].ins_gravity for fid in frame_ids])
    gravity = gravity / np.linalg.norm(gravity, axis=1, keepdims=True)
    problem = _BAProblem(frame_ids, sorted(points), obs.frame[rows], obs.track[rows], obs.pixel[rows], gps,
                         weights, camera, gravity_meas=gravity, gravity_sqrtw=GRAVITY_SQRTW)
    robust = RobustPrefix(n_blocks=problem.nobs, block_size=2, delta=HUBER_DELTA_PX)
    result = solve_least_squares(
        problem.residuals,
        problem.start(poses, points),
        jacobian=problem.jacobian,
        robust=robust,
        max_iterations=max_iterations or BA_MAX_ITERATIONS,
    )
    new_poses, new_points = problem.unpack(result.params)
    r = problem.residuals(result.params)[: 2 * problem.nobs].reshape(-1, 2)
    norms = np.linalg.norm(r, axis=1)
    norms = norms[norms < BEHIND_RESIDUAL * 0.5]
    rmse = float(np.sqrt(np.mean(norms * norms))) if norms.size else float("inf")
    return new_poses, new_points, result, rmse


# ---------------------------------------------------------------------------
# Incremental reconstruction


def _seed_yaw(obs: Observations, seed_a: int, levelled: dict, frames_by_id: dict, camera: Camera) -> float:
    """The yaw that turns the `levelled` window rotations onto the world.

    `levelled` maps seed_a and its window frames to their rotations up to
    one common yaw. A frame i sharing at least 5 tracks with seed_a gives a
    baseline direction b in the levelled frame: each shared track's rays
    u_a, u_i span a plane that holds b, so b is the null vector of the
    stacked u_a × u_i. Its sign follows from cheirality: b × u_i =
    λ_a (u_a × u_i) with the depth λ_a > 0. The yaw turns these directions,
    scaled by the GPS baseline lengths, onto the GPS baselines g_i − g_a.
    Raises InsufficientOverlap when no frame gives a baseline.
    """
    in_a = obs.frame == seed_a
    rays_a = camera.rays(obs.pixel[in_a]) @ levelled[seed_a].T
    g_a = frames_by_id[seed_a].gps[:3]
    directions, baselines = [], []
    for fid, rot in levelled.items():
        if fid == seed_a:
            continue
        in_i = obs.frame == fid
        _, ia, ii = np.intersect1d(obs.track[in_a], obs.track[in_i], return_indices=True)
        if ia.size < 5:
            continue
        u_a, u_i = rays_a[ia], camera.rays(obs.pixel[in_i][ii]) @ rot.T
        normals = np.cross(u_a, u_i)
        b = np.linalg.svd(normals)[2][-1]
        if np.einsum("ij,ij->", np.cross(b, u_i), normals) < 0.0:
            b = -b
        baseline = frames_by_id[fid].gps[:3] - g_a
        directions.append(b * np.linalg.norm(baseline))
        baselines.append(baseline)
    if not directions:
        raise InsufficientOverlap("no seed window frame gives a baseline")
    return _yaw_between(np.array(directions), np.array(baselines))


def _seed_pair(obs: Observations, frames_by_id: dict):
    """(frame a, frame b, shared tracks) of the pair a < b sharing the most tracks.

    Ties go to a pair within one experience, then to the lowest ids. Each
    pair of one track's rows in two frames counts once for that frame
    pair: the counts are the upper triangle of AᵀA, with A the incidence of
    tracks on frames.
    """
    fids, cols = np.unique(obs.frame, return_inverse=True)
    i, j, _ = _row_pairs(np.unique(obs.track, return_index=True)[1], obs.track.size)
    a, b = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
    distinct = a != b
    codes, shared = np.unique(a[distinct] * fids.size + b[distinct], return_counts=True)
    if codes.size == 0:
        raise InsufficientOverlap("no shared tracks")
    col_a, col_b = np.divmod(codes, fids.size)
    experience = np.array([frames_by_id[fid].experience_id for fid in fids.tolist()])
    fa, fb = fids[col_a], fids[col_b]
    same_exp = experience[col_a] == experience[col_b]
    best = np.lexsort((-fb, -fa, same_exp, shared))[-1]
    return int(fa[best]), int(fb[best]), int(shared[best])


def build_submap(
    subset: FrameSubset,
    tracks: list,
    frames_by_id: dict,
    camera: Camera,
) -> Submap:
    """Reconstruct one subset into a Submap; failures come back discarded.

    Raises InsufficientOverlap when no frame pair shares enough tracks to
    seed, or the seed window gives no baseline, triangulates fewer than 4
    tracks or fails to refine. Non-converging optimization marks the
    submap discarded rather than raising. A subset with fewer than
    ``MIN_REGISTERED_FRACTION`` of its frames registered is discarded as
    soon as registration ends, with its registered poses, no landmarks and
    infinite RMSE and cost: step (4) could not register more.
    """
    frame_ids = [fid for fid in subset.all_ids() if fid in frames_by_id]
    if len(frame_ids) < 2:
        raise InsufficientOverlap("need at least two frames")
    obs = Observations(tracks, frames_by_id)
    seed_a, seed_b, best_count = _seed_pair(obs, frames_by_id)
    if best_count < MIN_SEED_SHARED_TRACKS:
        raise InsufficientOverlap(f"best pair shares {best_count} tracks")

    fa, fb = frames_by_id[seed_a], frames_by_id[seed_b]
    # The seed experience's frames in time order and its INS orientation
    # chain, which levels the seed window up to one yaw.
    exp_frames_a = sorted((f for f in frames_by_id.values() if f.experience_id == fa.experience_id),
                          key=lambda f: f.timestamp)
    chain = ins_orientation_chain(exp_frames_a)

    # Seed window: the pair plus nearby frames of its experience. GPS noise
    # on a short two-frame baseline is enough to fold two-view geometry into
    # the wrong basin; the window's several baselines average the noise out
    # of the yaw, and its multi-view triangulation out of the points.
    window_ids = {seed_a, seed_b}
    t_lo = min(fa.timestamp, fb.timestamp)
    t_hi = max(fa.timestamp, fb.timestamp)
    neighbors = sorted(
        (f for f in exp_frames_a if f.frame_id not in window_ids),
        key=lambda f: min(abs(f.timestamp - t_lo), abs(f.timestamp - t_hi)),
    )
    for f in neighbors[: max(0, SEED_WINDOW - len(window_ids))]:
        window_ids.add(f.frame_id)

    base_a = gravity_aligned_base(fa.ins_gravity)
    levelled = {
        fid: base_a @ (chain[seed_a].T @ chain[fid])
        for fid in sorted(window_ids)
        if frames_by_id[fid].experience_id == fa.experience_id
    }
    yaw = so3.yaw_matrix(_seed_yaw(obs, seed_a, levelled, frames_by_id, camera))
    poses = {fid: Pose.from_matrix(yaw @ rot, frames_by_id[fid].gps[:3]) for fid, rot in levelled.items()}
    if seed_b not in poses:
        poses[seed_b] = Pose.from_matrix(yaw @ gravity_aligned_base(fb.ins_gravity), fb.gps[:3])
    points = triangulate_tracks(obs, obs.seen_from(poses), poses, camera)
    if len(points) < 4:
        raise InsufficientOverlap(f"seed triangulated {len(points)} tracks")
    try:
        poses, points, _, _ = bundle_adjust(poses, points, obs, frames_by_id, camera, max_iterations=20)
    except NonFinite as exc:
        raise InsufficientOverlap(f"seed refinement failed: {exc}") from exc
    points = triangulate_tracks(obs, obs.seen_from(poses), poses, camera)
    poses, points, _, _ = bundle_adjust(poses, points, obs, frames_by_id, camera, max_iterations=30)

    failed: dict = {}  # frame id -> match count when registration last failed
    since_ba = 0
    subset_frames = set(frame_ids)
    while True:
        # Next frame: most observations of already-triangulated tracks.
        # Failed frames become eligible again once they can see more points.
        with_point = obs.of(points)
        fids, counts = np.unique(obs.frame[with_point], return_counts=True)
        candidates = [
            (count, -fid)
            for fid, count in zip(fids.tolist(), counts.tolist())
            if fid in subset_frames and fid not in poses
            and count >= MIN_REGISTER_MATCHES and count > failed.get(fid, -1)
        ]
        if not candidates:
            break
        count, neg_fid = max(candidates)
        fid = -neg_fid
        frame = frames_by_id[fid]
        matches = with_point & (obs.frame == fid)
        pts3d = np.array([points[tid] for tid in obs.track[matches].tolist()])
        pix = obs.pixel[matches]

        # Initial rotation, alike for a frame of any experience: its gravity,
        # and the yaw that turns its matches' rays onto their bearings from
        # its GPS fix.
        base = gravity_aligned_base(frame.ins_gravity)
        rot = so3.yaw_matrix(_yaw_between(camera.rays(pix) @ base.T, pts3d - frame.gps[:3])) @ base
        early = len(poses) < EARLY_PHASE_FRAMES
        init = Pose.from_matrix(rot, frame.gps[:3])
        pose, _, _ = refine_pose(pts3d, pix, camera, init, frame.ins_gravity, GRAVITY_SQRTW, HUBER_DELTA_PX)
        if (reprojection_errors(pose, pts3d, pix, camera) < REGISTER_INLIER_PX).sum() < MIN_REGISTER_MATCHES:
            failed[fid] = count
            continue
        poses[fid] = pose
        since_ba += 1

        # Only tracks observing the new frame can have become solvable.
        new_tracks = obs.of(obs.track[obs.frame == fid]) & ~obs.of(points)
        points.update(triangulate_tracks(obs, new_tracks, poses, camera))
        if early or since_ba >= PERIODIC_BA_EVERY:
            poses, points, _, _ = bundle_adjust(poses, points, obs, frames_by_id, camera, max_iterations=15)
            # Cleaner geometry: re-triangulate everything solvable and give
            # previously failed frames another chance.
            points.update(triangulate_tracks(obs, ~obs.of(points), poses, camera))
            failed.clear()
            since_ba = 0

    discard_reasons = []
    rmse = final_cost = float("inf")
    if len(poses) / max(1, len(frame_ids)) < MIN_REGISTERED_FRACTION:
        # No later step registers a frame, so the verdict is in: the submap
        # is discarded with its registered poses and no landmarks.
        discard_reasons.append(f"registered {len(poses)}/{len(frame_ids)} frames")
        points = {}
    else:
        # Re-triangulate everything from the final incremental poses.
        points = triangulate_tracks(obs, obs.seen_from(poses), poses, camera)
        if len(points) < MIN_LANDMARKS:
            discard_reasons.append(f"only {len(points)} landmarks triangulated")
        else:
            poses, points, result, rmse = bundle_adjust(poses, points, obs, frames_by_id, camera)
            final_cost = result.cost
            if not result.converged:
                discard_reasons.append("bundle adjustment diverged")
            if rmse > RMSE_MAX:
                discard_reasons.append(f"reprojection rmse {rmse:.2f} px exceeds {RMSE_MAX}")

    track_ids = sorted(points)
    descriptors = []
    track_observations = {}
    seen = obs.seen_from(poses)
    # Each track's rows are the slice a:b of the table.
    starts, ends = np.searchsorted(obs.track, track_ids), np.searchsorted(obs.track, track_ids, "right")
    for tid, a, b in zip(track_ids, starts, ends):
        descs = [frames_by_id[f].descriptors[oi] for f, oi in zip(obs.frame[a:b].tolist(), obs.index[a:b].tolist())]
        descriptors.append(np.mean(descs, axis=0))
        kept = np.flatnonzero(seen[a:b]) + a
        track_observations[tid] = list(zip(obs.frame[kept].tolist(), obs.pixel[kept]))

    return Submap(
        submap_id=subset.subset_id,
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
