"""Submap reconstruction: zero-noise fixed points, noise, corruption."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cityvps.geometry import (
    NonFinite,
    Pose,
    RobustPrefix,
    Sim3,
    huber_weight_many,
    numeric_jacobian,
    so3,
    umeyama,
)
from cityvps.geometry import least_squares
from cityvps.geometry.least_squares import _normal_equations, _row_weights
from cityvps.mapbuild import (
    BuildParams,
    InsufficientOverlap,
    Track,
    VerifyThresholds,
    build_submap,
    build_tracks,
    bundle_adjust,
    split_experience,
    triangulate_midpoint,
    verify_submap,
)
from cityvps.mapbuild import sfm
from cityvps.mapbuild.sfm import _BAProblem, gps_weight_for, triangulate_midpoints
from cityvps.worldsim import (
    Experience,
    Frame,
    NoiseConfig,
    SimConfig,
    Street,
    WorldConfig,
    corrupt_observations,
    generate_world_from_streets,
    simulate_experience,
)

CAMERA = SimConfig().camera


def street_world(length=150.0, density=40.0, seed=7):
    streets = {"main": Street("main", np.array([[0.0, 0.0], [length, 0.0]]), 12.0)}
    config = WorldConfig(extent_x=length, extent_y=100.0, street_spacing=100.0, landmarks_per_100m=density)
    return generate_world_from_streets(streets, config, seed=seed)


def build_from(world, noise, seed=0, experience_id=1, params=None):
    exp = simulate_experience(
        world, ["main"], experience_id=experience_id, noise=noise,
        sim=SimConfig(speed=6.0, frame_rate=1.0), seed=seed,
    )
    frames_by_id = {f.frame_id: f for f in exp.frames}
    subset = split_experience(exp, seed=0)[0]
    tracks = build_tracks(subset, frames_by_id)
    submap = build_submap(subset, tracks, frames_by_id, CAMERA, params or BuildParams())
    return exp, frames_by_id, subset, tracks, submap


class TestZeroNoise:
    def test_exact_recovery(self):
        world = street_world()
        _, frames_by_id, _, _, submap = build_from(world, NoiseConfig.zero())
        assert submap.status == "built"
        assert submap.reprojection_rmse < 1e-8

        fids = sorted(submap.poses)
        est = np.array([submap.poses[f].t for f in fids])
        tru = np.array([frames_by_id[f].true_pose.t for f in fids])
        # Absolute positions (GPS term active): within 1e-4 m.
        assert np.abs(est - tru).max() < 1e-4
        # After optimal rigid alignment: 1e-6 m.
        align = umeyama(est, tru, with_scale=False)
        assert np.linalg.norm(align.apply_many(est) - tru, axis=1).max() < 1e-6
        # Orientations against the truth directly, 1e-6 rad: the positions of
        # a straight street are collinear, so the alignment's roll about the
        # street axis is set by rounding and cannot carry this check.
        for f in fids:
            assert so3.geodesic_angle(submap.poses[f].q, frames_by_id[f].true_pose.q) < 1e-6

    def test_landmarks_match_world(self):
        world = street_world()
        _, frames_by_id, _, tracks, submap = build_from(world, NoiseConfig.zero())
        # Every triangulated landmark should coincide with a true landmark.
        truth = world.landmark_positions()
        for pos in submap.landmark_positions:
            d = np.linalg.norm(truth - pos, axis=1).min()
            assert d < 1e-6

    def test_verification_passes(self):
        world = street_world()
        _, frames_by_id, _, _, submap = build_from(world, NoiseConfig.zero())
        report = verify_submap(submap, frames_by_id)
        assert report.passed


class TestNoise:
    def test_rmse_and_absolute_error(self):
        world = street_world()
        noise = NoiseConfig(gps_sigma=5.0, pixel_sigma=1.0, descriptor_sigma=0.08,
                            canyon_amplitude=0.0, ins_rot_noise_deg=0.1)
        rmses = []
        abs_errs = []
        for seed in (1, 2, 4):
            _, frames_by_id, _, _, submap = build_from(world, noise, seed=seed, experience_id=seed)
            assert submap.status == "built"
            rmses.append(submap.reprojection_rmse)
            errs = [np.linalg.norm(submap.poses[f].t - frames_by_id[f].true_pose.t) for f in submap.poses]
            abs_errs.append(np.mean(errs))
        assert 0.8 <= np.mean(rmses) <= 1.3
        # Well below the 5 m GPS sigma (and far below the ~8.7 m 3D error norm).
        assert np.mean(abs_errs) < 2.5

    def test_corrupted_subset_detected(self):
        world = street_world()
        noise = NoiseConfig(gps_sigma=5.0, pixel_sigma=1.0, descriptor_sigma=0.08,
                            canyon_amplitude=0.0, ins_rot_noise_deg=0.1)
        exp = simulate_experience(world, ["main"], experience_id=1, noise=noise,
                                  sim=SimConfig(speed=6.0, frame_rate=1.0), seed=1)
        exp = corrupt_observations(exp, 0.6, seed=2)
        frames_by_id = {f.frame_id: f for f in exp.frames}
        subset = split_experience(exp, seed=0)[0]
        tracks = build_tracks(subset, frames_by_id)
        try:
            submap = build_submap(subset, tracks, frames_by_id, CAMERA, BuildParams())
        except InsufficientOverlap:
            return  # failure surfaced loudly, acceptable
        if submap.status == "built":
            report = verify_submap(submap, frames_by_id)
            assert not report.passed, "corruption must be detected somewhere"


class TestBundleAdjustInternals:
    def make_problem(self, seed=0, behind_camera=False):
        """Four frames and twelve landmarks with GPS and gravity rows.

        `behind_camera` appends a thirteenth landmark seen only by frame 0,
        from behind, so its Jacobian columns are all zero.
        """
        rng = np.random.default_rng(seed)
        n_frames, n_points = 4, 12
        frame_ids = list(range(n_frames))
        track_ids = list(range(n_points))
        gps = rng.uniform(0, 20, size=(n_frames, 3))
        points = rng.uniform(-10, 10, size=(n_points, 3)) + np.array([10.0, 30.0, 0.0])
        observations = []
        for fi in frame_ids:
            for ti in track_ids:
                observations.append((fi, ti, rng.uniform(0, 500, size=2)))
        gravity = rng.normal(size=(n_frames, 3))
        gravity /= np.linalg.norm(gravity, axis=1, keepdims=True)
        x = rng.normal(scale=0.3, size=6 * n_frames + 3 * n_points)
        for fi in frame_ids:
            x[6 * fi + 3 : 6 * fi + 6] = gps[fi] + rng.normal(scale=0.5, size=3)
        for ti in track_ids:
            x[6 * n_frames + 3 * ti : 6 * n_frames + 3 * ti + 3] = points[ti]
        if behind_camera:
            observations.append((0, n_points, rng.uniform(0, 500, size=2)))
            track_ids.append(n_points)
            x = np.concatenate([x, x[3:6] - 5.0 * so3.exp(x[:3])[:, 2]])
        problem = _BAProblem(frame_ids, track_ids, observations, gps,
                             np.full(n_frames, 0.04), CAMERA,
                             gravity_meas=gravity, gravity_sqrtw=5.0)
        return problem, x

    def test_analytic_jacobian_matches_finite_differences(self):
        problem, x = self.make_problem()
        analytic = problem.jacobian(x).toarray()
        numeric = numeric_jacobian(problem.residuals, x)
        scale = max(1.0, np.abs(analytic).max())
        assert np.abs(analytic - numeric).max() / scale < 1e-5

    @staticmethod
    def dense_step(problem, jac, r, mu):
        """The damped normal equations of all n parameters, solved densely."""
        dense = jac.toarray()
        norms = np.linalg.norm(r[: 2 * problem.nobs].reshape(-1, 2), axis=1)
        sw = np.ones_like(r)
        sw[: 2 * problem.nobs] = np.repeat(np.sqrt(huber_weight_many(norms, 2.0)), 2)
        assert sw.min() < 1.0  # some observations are down-weighted
        jw = sw[:, None] * dense
        hess = jw.T @ jw
        diag = np.diag(hess).copy()
        diag[diag <= 0.0] = 1e-12
        return np.linalg.solve(hess + mu * np.diag(diag), -jw.T @ (sw * r))

    @pytest.mark.parametrize("mu", [1e-4, 10.0])
    def test_schur_step_matches_dense_step(self, mu):
        problem, x = self.make_problem(behind_camera=True)
        jac, r = problem.jacobian(x), problem.residuals(x)
        dense = jac.toarray()
        assert not dense[:, -3:].any() and dense[:, -6:-3].any()
        robust = RobustPrefix(n_blocks=problem.nobs, block_size=2, delta=2.0)
        reference = self.dense_step(problem, jac, r, mu)

        for jac in (jac, dense):
            step = _normal_equations(jac, r, _row_weights(r, robust)).step(mu)
            assert np.linalg.norm(step - reference) <= 1e-9 * np.linalg.norm(reference)

    @pytest.mark.parametrize("mu", [1e-4, 10.0])
    def test_banded_step_in_reordered_cameras(self, mu):
        # Two experiences of one street: frame ids run along the first pass,
        # then along the second, so in id order every frame shares landmarks
        # with a frame about one pass away. The camera reordering must
        # narrow the band, and the step must not depend on it.
        world = street_world(length=300.0)
        frames = []
        for k in (1, 2):
            frames += simulate_experience(world, ["main"], experience_id=k, noise=NoiseConfig.zero(),
                                          sim=SimConfig(speed=6.0, frame_rate=1.0), seed=k).frames
        observations = [(f.frame_id, int(lid), f.pixels[oi]) for f in frames for oi, lid in enumerate(f.landmark_ids)]
        seen = {}
        for fid, lid, _ in observations:
            seen.setdefault(lid, set()).add(fid)
        track_ids = sorted(lid for lid, fids in seen.items() if len(fids) >= 2)
        observations = [o for o in observations if len(seen[o[1]]) >= 2]
        frame_ids = sorted(f.frame_id for f in frames)
        problem = _BAProblem(frame_ids, track_ids, observations, np.array([f.gps[:3] for f in frames]),
                             np.full(len(frames), 0.04), CAMERA,
                             gravity_meas=np.array([f.ins_gravity for f in frames]), gravity_sqrtw=5.0)
        position = {fid: k for k, fid in enumerate(frame_ids)}
        natural = max(max(position[f] for f in fids) - min(position[f] for f in fids) for fids in seen.values())
        assert problem.structure.bandwidth < natural / 2

        truth = world.landmark_positions()
        rng = np.random.default_rng(2)
        by_id = {f.frame_id: f for f in frames}
        poses = {fid: Pose.from_params(by_id[fid].true_pose.params() + rng.normal(scale=0.02, size=6))
                 for fid in frame_ids}
        x = problem.pack(poses, {lid: truth[lid] + rng.normal(scale=0.3, size=3) for lid in track_ids})
        jac, r = problem.jacobian(x), problem.residuals(x)
        reference = self.dense_step(problem, jac, r, mu)
        robust = RobustPrefix(n_blocks=problem.nobs, block_size=2, delta=2.0)
        step = _normal_equations(jac, r, _row_weights(r, robust)).step(mu)
        assert np.linalg.norm(step - reference) <= 1e-9 * np.linalg.norm(reference)

    @staticmethod
    def truth_started_street(length):
        """A zero-noise street, started from the truth plus a small perturbation."""
        world = street_world(length=length)
        exp = simulate_experience(world, ["main"], experience_id=1, noise=NoiseConfig.zero(),
                                  sim=SimConfig(speed=6.0, frame_rate=1.0), seed=0)
        frames_by_id = {f.frame_id: f for f in exp.frames}
        observations = {}
        for f in exp.frames:
            for oi, lid in enumerate(f.landmark_ids):
                observations.setdefault(int(lid), []).append((f.frame_id, oi))
        truth = world.landmark_positions()
        tracks_by_id = {lid: Track(lid, obs) for lid, obs in observations.items() if len(obs) >= 2}
        rng = np.random.default_rng(5)
        poses = {
            f.frame_id: Pose.from_params(f.true_pose.params() + rng.normal(scale=1e-3, size=6))
            for f in exp.frames
        }
        points = {lid: truth[lid] + rng.normal(scale=0.01, size=3) for lid in tracks_by_id}
        return poses, points, tracks_by_id, frames_by_id

    @staticmethod
    def traced_bundle_adjust(poses, points, tracks_by_id, frames_by_id):
        """bundle_adjust's result and RMSE, and the peak of memory traced while it ran."""
        tracemalloc.start()
        try:
            _, _, result, rmse = bundle_adjust(poses, points, tracks_by_id, frames_by_id, CAMERA, BuildParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, rmse, peak

    def test_memory_below_one_dense_normal_matrix(self):
        # A 250-frame zero-noise street, started from the truth plus a small
        # perturbation: the solve must converge without ever holding as much
        # as one dense n x n float64 matrix.
        poses, points, tracks_by_id, frames_by_id = self.truth_started_street(1500.0)
        n = 6 * len(poses) + 3 * len(points)
        assert len(poses) >= 250

        result, rmse, peak = self.traced_bundle_adjust(poses, points, tracks_by_id, frames_by_id)
        assert result.converged
        assert rmse < 1e-8
        assert peak < 8 * n * n

    def test_thousand_frames_below_one_dense_camera_matrix(self):
        # The split's default subset size: 1001 frames. The reduced camera
        # system is banded, so the solve must not hold as much as one dense
        # 6F x 6F float64 matrix (289 MB) either.
        poses, points, tracks_by_id, frames_by_id = self.truth_started_street(6000.0)
        p = 6 * len(poses)
        assert len(poses) >= 1000

        result, rmse, peak = self.traced_bundle_adjust(poses, points, tracks_by_id, frames_by_id)
        assert result.converged
        assert rmse < 1e-8
        assert peak < 8 * p * p

    def test_failed_banded_factorisation_raises_damping(self, monkeypatch):
        factorisations = []

        def cholesky_banded(ab, **kwargs):
            factorisations.append(ab.shape)
            if len(factorisations) == 1:
                raise np.linalg.LinAlgError("not positive definite")
            return scipy.linalg.cholesky_banded(ab, **kwargs)

        monkeypatch.setattr(least_squares, "cholesky_banded", cholesky_banded)
        poses, points, tracks_by_id, frames_by_id = self.truth_started_street(150.0)
        _, _, result, rmse = bundle_adjust(poses, points, tracks_by_id, frames_by_id, CAMERA, BuildParams())
        assert result.converged and rmse < 1e-8
        trials = len(result.cost_history) - 1 + result.rejected_steps
        assert result.linear_solves == len(factorisations) == trials + 1

    def test_cost_history_non_increasing(self):
        world = street_world(length=80.0)
        exp = simulate_experience(world, ["main"], experience_id=1,
                                  noise=NoiseConfig(2.0, 1.0, 0.08, 0.0, 200.0, 0.1, 0.4, 0.0),
                                  sim=SimConfig(speed=6.0), seed=3)
        frames_by_id = {f.frame_id: f for f in exp.frames}
        subset = split_experience(exp)[0]
        tracks = build_tracks(subset, frames_by_id)
        submap = build_submap(subset, tracks, frames_by_id, CAMERA, BuildParams())
        # Re-run the final optimization to inspect its cost trace.
        poses = dict(submap.poses)
        tracks_by_id = {t.track_id: t for t in tracks}
        points = {int(tid): submap.landmark_positions[i]
                  for i, tid in enumerate(submap.landmark_track_ids)}
        _, _, result, _ = bundle_adjust(poses, points, tracks_by_id, frames_by_id, CAMERA, BuildParams())
        hist = np.array(result.cost_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_reprojection_term_sim3_invariant(self):
        # With the GPS weight off, the reprojection part of the objective is
        # exactly invariant under a global similarity transform.
        world = street_world(length=80.0)
        _, frames_by_id, subset, tracks, submap = build_from(
            world, NoiseConfig.zero(),
            params=BuildParams(gps_weight=1e-12),
        )
        g = Sim3(so3.quat_from_rotvec([0.1, -0.2, 0.3]), np.array([5.0, -3.0, 1.0]), 1.3)

        def reproj_cost(poses, landmarks):
            total = 0.0
            tracks_by_id = {t.track_id: t for t in tracks}
            for i, tid in enumerate(submap.landmark_track_ids):
                for fid, oi in tracks_by_id[int(tid)].observations:
                    if fid not in poses:
                        continue
                    pose = poses[fid]
                    xc = pose.rotation.T @ (landmarks[i] - pose.t)
                    px = CAMERA.project_camera_frame(xc)
                    if px is None:
                        continue
                    r = frames_by_id[fid].pixels[oi] - px
                    total += float(r @ r)
            return total

        base = reproj_cost(submap.poses, submap.landmark_positions)
        moved_poses = {fid: g.apply_pose(p) for fid, p in submap.poses.items()}
        moved_landmarks = g.apply_many(submap.landmark_positions)
        assert reproj_cost(moved_poses, moved_landmarks) == pytest.approx(base, abs=1e-9)

    def test_gps_weight_defaults(self):
        params = BuildParams()
        assert gps_weight_for(5.0, params) == pytest.approx(1.0 / 25.0)
        # Sigma floor keeps zero-noise weights finite.
        assert np.isfinite(gps_weight_for(0.0, params))


class TestSeedRefinementFailures:
    def build(self):
        world = street_world(length=80.0)
        exp = simulate_experience(world, ["main"], experience_id=1, noise=NoiseConfig.zero(),
                                  sim=SimConfig(speed=6.0), seed=0)
        frames_by_id = {f.frame_id: f for f in exp.frames}
        subset = split_experience(exp)[0]
        return build_submap(subset, build_tracks(subset, frames_by_id), frames_by_id, CAMERA, BuildParams())

    def test_solver_failure_reason_is_reported(self, monkeypatch):
        def failing(*args, **kwargs):
            raise NonFinite("non-finite update step")

        monkeypatch.setattr(sfm, "bundle_adjust", failing)
        with pytest.raises(InsufficientOverlap, match="seed refinement failed: .*non-finite update step") as info:
            self.build()
        # One reason per refined yaw hypothesis.
        assert str(info.value).count("non-finite update step") == 3

    def test_other_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bundle_adjust() got an unexpected keyword argument")

        monkeypatch.setattr(sfm, "bundle_adjust", broken)
        with pytest.raises(TypeError, match="unexpected keyword"):
            self.build()


class TestTriangulation:
    def test_midpoint_exact(self):
        point = np.array([3.0, 4.0, 10.0])
        origins = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
        dirs = point - origins
        dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        x = triangulate_midpoint(origins, dirs, 1.0, 0.05)
        assert np.allclose(x, point, atol=1e-9)

    def test_low_parallax_rejected(self):
        origins = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0]])
        d = np.array([0.0, 0.0, 1.0])
        dirs = np.array([d, d])
        assert triangulate_midpoint(origins, dirs, 1.0, 0.05) is None

    def test_behind_camera_rejected(self):
        origins = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        target = np.array([5.0, 0.0, -10.0])
        dirs = np.array([
            -(target - origins[0]) / np.linalg.norm(target - origins[0]),
            -(target - origins[1]) / np.linalg.norm(target - origins[1]),
        ])
        assert triangulate_midpoint(origins, dirs, 1.0, 0.05) is None


def reference_midpoint(origins, directions, min_angle_deg, min_depth):
    """One track's midpoint, one ray at a time: the reference for `triangulate_midpoints`."""
    n = origins.shape[0]
    if n < 2:
        return None
    dots = np.clip(directions @ directions.T, -1.0, 1.0)
    iu = np.triu_indices(n, k=1)
    max_angle = float(np.max(np.degrees(np.arccos(dots[iu]))))
    if max_angle < min_angle_deg:
        return None
    eye = np.eye(3)
    a = np.zeros((3, 3))
    b = np.zeros(3)
    for o, d in zip(origins, directions):
        m = eye - np.outer(d, d)
        a += m
        b += m @ o
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None
    depths = np.einsum("ij,ij->i", x[None, :] - origins, directions)
    if np.any(depths <= min_depth):
        return None
    return x


TRACK_KINDS = ("accepted", "low_parallax", "behind", "parallel")
AXES = np.vstack([np.eye(3), -np.eye(3)])


def track_rays(kind, n, rng):
    """(origins, unit directions) of one n-ray track of the given kind.

    accepted: a 12 m baseline at 15-45 m, rays noisy by about 1e-3 rad.
    low_parallax: exact rays whose largest angle is 0.1-0.8 deg.
    behind: exact rays pointing away from the point they meet at.
    parallel: one axis direction for every ray, so I - d d^T is exactly
    singular and the normal system has a zero pivot.
    """
    point = rng.uniform([-10.0, -10.0, 15.0], [10.0, 10.0, 40.0])
    if kind == "parallel":
        return rng.uniform(-5.0, 5.0, (n, 3)), np.repeat(AXES[rng.integers(6)][None], n, axis=0)
    if kind == "low_parallax":
        baseline = np.linalg.norm(point) * np.tan(np.radians(rng.uniform(0.2, 0.8)))
        along = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, n - 2)])
        origins = np.outer(along * baseline, [1.0, 0.0, 0.0])
    else:
        origins = rng.uniform(-6.0, 6.0, (n, 3))
        origins[:2] = [[-6.0, 0.0, 0.0], [6.0, 0.0, 0.0]] + rng.uniform(-1.0, 1.0, (2, 3))
    dirs = point - origins
    if kind == "accepted":
        dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) + rng.normal(scale=1e-3, size=(n, 3))
    elif kind == "behind":
        dirs = -dirs
    return origins, dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


class TestBatchedTriangulation:
    @given(
        st.lists(st.tuples(st.sampled_from(TRACK_KINDS), st.integers(2, 6)), min_size=1, max_size=8),
        st.sampled_from([0.0, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    @example(tracks=[("accepted", 3), ("parallel", 2), ("low_parallax", 4), ("behind", 2)], min_angle_deg=0.0, seed=0)
    @settings(max_examples=200, deadline=None)
    def test_matches_per_track_reference(self, tracks, min_angle_deg, seed):
        """Same accepted set and points to 1e-9 relative; a singular track fails alone."""
        rng = np.random.default_rng(seed)
        rays = [track_rays(kind, n, rng) for kind, n in tracks]
        starts = np.cumsum([0] + [n for _, n in tracks[:-1]])
        points, ok = triangulate_midpoints(
            np.concatenate([o for o, _ in rays]), np.concatenate([d for _, d in rays]), starts, min_angle_deg, 0.05
        )
        assert ok.shape == (len(tracks),)
        for k, ((kind, _), (origins, dirs)) in enumerate(zip(tracks, rays)):
            expected = reference_midpoint(origins, dirs, min_angle_deg, 0.05)
            # The generator makes the kinds it claims.
            assert (expected is not None) == (kind == "accepted" or (kind == "low_parallax" and min_angle_deg == 0.0))
            assert ok[k] == (expected is not None), kind
            # The batch sums in another order; 1e-9 relative covers that
            # rounding through the low-parallax systems' conditioning.
            if expected is not None:
                assert np.linalg.norm(points[k] - expected) <= 1e-9 * np.linalg.norm(expected)


class TestVerify:
    def build_zero_noise(self):
        world = street_world()
        return build_from(world, NoiseConfig.zero())

    def test_shear_breaks_gravity(self):
        _, frames_by_id, _, _, submap = self.build_zero_noise()
        tilt = so3.exp(np.array([np.deg2rad(10.0), 0.0, 0.0]))
        center = np.mean([p.t for p in submap.poses.values()], axis=0)
        for fid, pose in list(submap.poses.items()):
            submap.poses[fid] = Pose.from_matrix(
                tilt @ pose.rotation, center + tilt @ (pose.t - center)
            )
        report = verify_submap(submap, frames_by_id)
        assert not report.passed
        assert any("gravity" in r for r in report.reasons)
        assert report.median_gravity_deg == pytest.approx(10.0, abs=0.5)
        # Relative rotations are untouched by a global rotation.
        assert report.median_rel_rot_deg < 0.01

    def test_teleport_breaks_kinematics(self):
        _, frames_by_id, _, _, submap = self.build_zero_noise()
        fids = sorted(submap.poses)
        mid = fids[len(fids) // 2]
        pose = submap.poses[mid]
        submap.poses[mid] = Pose(pose.q, pose.t + np.array([0.0, 80.0, 0.0]))
        report = verify_submap(submap, frames_by_id)
        assert not report.passed
        assert any("speed" in r for r in report.reasons)

    def test_monotone_in_perturbation(self):
        # If a tilted submap passes, a less tilted one must also pass.
        _, frames_by_id, _, _, submap = self.build_zero_noise()
        results = []
        for deg in (6.0, 3.0, 1.0, 0.0):
            tilted = {fid: p for fid, p in submap.poses.items()}
            tilt = so3.exp(np.array([np.deg2rad(deg), 0.0, 0.0]))
            center = np.mean([p.t for p in submap.poses.values()], axis=0)
            test_sub = type(submap)(
                submap_id=submap.submap_id,
                experience_id=submap.experience_id,
                poses={
                    fid: Pose.from_matrix(tilt @ p.rotation, center + tilt @ (p.t - center))
                    for fid, p in tilted.items()
                },
                landmark_positions=submap.landmark_positions,
                landmark_descriptors=submap.landmark_descriptors,
                landmark_track_ids=submap.landmark_track_ids,
                gps_priors=submap.gps_priors,
                member_ids=submap.member_ids,
                augmented_ids=submap.augmented_ids,
            )
            results.append(verify_submap(test_sub, frames_by_id).passed)
        # passes must be a suffix: once small enough, always passes
        first_pass = results.index(True)
        assert all(results[first_pass:])
        assert not results[0]  # 6 degrees exceeds the 5 degree gate


def test_minimal_frames_rejected():
    world = street_world()
    exp = simulate_experience(world, ["main"], experience_id=1, noise=NoiseConfig.zero(),
                              sim=SimConfig(speed=6.0), seed=0)
    frames_by_id = {exp.frames[0].frame_id: exp.frames[0]}
    subset = split_experience(exp)[0]
    subset.member_ids = [exp.frames[0].frame_id]
    subset.augmented_ids = []
    with pytest.raises(InsufficientOverlap):
        build_submap(subset, [], frames_by_id, CAMERA, BuildParams())
