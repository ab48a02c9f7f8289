"""Submap reconstruction: zero-noise fixed points, noise, corruption."""

import gc
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cityvps.geometry import (
    GRAVITY_WORLD,
    NonFinite,
    Pose,
    RobustPrefix,
    Sim3,
    huber_weight_many,
    numeric_jacobian,
    so3,
    umeyama_yaw,
)
from cityvps.geometry import least_squares
from cityvps.geometry.least_squares import _normal_equations, _row_weights
from cityvps.fusion import _gps_rows
from cityvps.mapbuild import (
    InsufficientOverlap,
    Submap,
    Track,
    build_submap,
    build_tracks,
    bundle_adjust,
    split_experience,
    verify_submap,
)
from cityvps.mapbuild import sfm
from cityvps.mapbuild.sfm import Observations, _BAProblem, gps_weight, triangulate_midpoints
from cityvps.worldsim import (
    NoiseConfig,
    Oracle,
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


def build_from(world, noise, seed=0, experience_id=1):
    exp = simulate_experience(
        world, ["main"], experience_id=experience_id, noise=noise,
        sim=SimConfig(speed=6.0, frame_rate=1.0), seed=seed,
    )
    frames_by_id = {f.frame_id: f for f in exp.frames}
    subset = split_experience(exp, seed=0)[0]
    tracks = build_tracks(subset, frames_by_id)
    submap = build_submap(subset, tracks, frames_by_id, CAMERA)
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
        # After the optimal alignment in yaw, shift and scale: 1e-6 m.
        align = umeyama_yaw(est, tru, np.ones(len(est)))
        assert np.linalg.norm(align.apply_many(est) - tru, axis=1).max() < 1e-6
        # Orientations against the truth directly: 1e-6 rad.
        for f in fids:
            assert so3.geodesic_angle(submap.poses[f].q, frames_by_id[f].true_pose.q) < 1e-6

    def test_landmarks_match_world(self):
        world = street_world()
        _, frames_by_id, _, tracks, submap = build_from(world, NoiseConfig.zero())
        # Every triangulated landmark should coincide with a true landmark.
        truth = world.positions
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

    def test_default_stop_builds_the_tight_tolerance_submap(self, monkeypatch):
        # A build whose solves stop at REL_COST_TOL matches one whose solves
        # run to 1e-12 in all the map resolves: the same frames and
        # landmarks, and poses within 1 cm and 0.01 degrees.
        world = street_world()
        noise = NoiseConfig(gps_sigma=5.0, pixel_sigma=1.0, descriptor_sigma=0.08,
                            canyon_amplitude=0.0, ins_rot_noise_deg=0.1)
        for seed in (1, 2, 4):
            submap = build_from(world, noise, seed=seed, experience_id=seed)[-1]
            with monkeypatch.context() as patch:
                patch.setattr(least_squares, "REL_COST_TOL", 1e-12)
                tight = build_from(world, noise, seed=seed, experience_id=seed)[-1]
            assert submap.status == tight.status == "built"
            assert sorted(submap.poses) == sorted(tight.poses)
            assert np.array_equal(submap.landmark_track_ids, tight.landmark_track_ids)
            for fid, pose in tight.poses.items():
                assert np.linalg.norm(submap.poses[fid].t - pose.t) < 0.01
                assert np.degrees(so3.geodesic_angle(submap.poses[fid].q, pose.q)) < 0.01

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
            submap = build_submap(subset, tracks, frames_by_id, CAMERA)
        except InsufficientOverlap:
            return  # failure surfaced loudly, acceptable
        if submap.status == "built":
            report = verify_submap(submap, frames_by_id)
            assert not report.passed, "corruption must be detected somewhere"


class TestBundleAdjustInternals:
    def make_problem(self, seed=0, behind_camera=False, pixel_sigma=None, prior_only=False):
        """Four frames and twelve landmarks with GPS and gravity rows.

        With `prior_only` the last frame observes nothing and is held by its
        GPS and gravity rows alone.

        `behind_camera` appends a thirteenth landmark seen only by frame 0,
        from behind, so its Jacobian columns are all zero. With `pixel_sigma`
        the problem is a well-posed one with noise: the landmarks lie 40 m
        higher, in front of the cameras, and the pixels and gravity
        directions are those of the returned point plus Gaussian noise of
        `pixel_sigma` pixels and under a degree, not uniform draws.
        """
        rng = np.random.default_rng(seed)
        n_frames, n_points = 4, 12
        frame_ids = list(range(n_frames))
        track_ids = list(range(n_points))
        gps = rng.uniform(0, 20, size=(n_frames, 3))
        points = rng.uniform(-10, 10, size=(n_points, 3)) + np.array([10.0, 30.0, 0.0])
        if pixel_sigma is not None:
            points[:, 2] += 40.0
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
        if prior_only:
            observations = [o for o in observations if o[0] != n_frames - 1]
        if behind_camera:
            observations.append((0, n_points, rng.uniform(0, 500, size=2)))
            track_ids.append(n_points)
            x = np.concatenate([x, x[3:6] - 5.0 * so3.exp(x[:3])[:, 2]])
        problem = _BAProblem(frame_ids, track_ids, *map(np.array, zip(*observations)), gps,
                             np.full(n_frames, 0.04), CAMERA,
                             gravity_meas=gravity, gravity_sqrtw=5.0)
        if pixel_sigma is not None:
            fids, tids, pixels = map(np.array, zip(*observations))
            projected = pixels - problem.residuals(x)[: 2 * problem.nobs].reshape(-1, 2)
            pixels = projected + rng.normal(scale=pixel_sigma, size=projected.shape)
            gravity = GRAVITY_WORLD @ so3.exp_many(x[: 6 * n_frames].reshape(-1, 6)[:, :3])
            gravity += rng.normal(scale=0.01, size=gravity.shape)
            gravity /= np.linalg.norm(gravity, axis=1, keepdims=True)
            problem = _BAProblem(frame_ids, track_ids, fids, tids, pixels, gps, np.full(n_frames, 0.04), CAMERA,
                                 gravity_meas=gravity, gravity_sqrtw=5.0)
        return problem, x

    def test_analytic_jacobian_matches_finite_differences(self):
        problem, x = self.make_problem()
        analytic = problem.jacobian(x).toarray()
        numeric = numeric_jacobian(problem.residuals, x)
        scale = max(1.0, np.abs(analytic).max())
        assert np.abs(analytic - numeric).max() / scale < 1e-5

    def test_default_stop_ends_near_a_tight_solve(self, monkeypatch):
        # The solve that stops once a step lowers the cost by less than
        # REL_COST_TOL ends within that fraction of the cost a solve run to
        # 1e-12 reaches, in fewer iterations.
        for seed in range(8):
            problem, x = self.make_problem(seed, pixel_sigma=1.0)
            start = x + np.random.default_rng(seed).normal(scale=0.05, size=x.shape)
            robust = RobustPrefix(n_blocks=problem.nobs, block_size=2, delta=sfm.HUBER_DELTA_PX)

            def solve():
                return least_squares.solve_least_squares(
                    problem.residuals, start, problem.jacobian, robust=robust, max_iterations=1000
                )

            default = solve()
            with monkeypatch.context() as patch:
                patch.setattr(least_squares, "REL_COST_TOL", 1e-12)
                tight = solve()
            assert tight.converged
            assert abs(default.cost - tight.cost) <= 1e-6 * tight.cost
            assert default.iterations < tight.iterations

    def test_cached_jacobian_is_that_of_its_own_point(self):
        # The problem keeps the projection of the last point it evaluated. A
        # Jacobian asked for elsewhere must not reuse it, and one asked for
        # at that point must equal a freshly built problem's.
        problem, a = self.make_problem(behind_camera=True)
        b = a + np.random.default_rng(12).normal(scale=0.01, size=a.shape)
        problem.residuals(b)
        for x in (a, b):
            jac, fresh = problem.jacobian(x), self.make_problem(behind_camera=True)[0]
            assert np.array_equal(jac.toarray(), fresh.jacobian(x).toarray())
            assert np.array_equal(problem.residuals(x), fresh.residuals(x))
        assert not np.array_equal(problem.jacobian(a).cam, problem.jacobian(b).cam)

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
    def test_schur_step_matches_dense_step(self, mu, prior_only=False):
        problem, x = self.make_problem(behind_camera=True, prior_only=prior_only)
        jac, r = problem.jacobian(x), problem.residuals(x)
        dense = jac.toarray()
        assert not dense[:, -3:].any() and dense[:, -6:-3].any()
        robust = RobustPrefix(n_blocks=problem.nobs, block_size=2, delta=2.0)
        reference = self.dense_step(problem, jac, r, mu)

        for jac in (jac, dense):
            step = _normal_equations(jac, r, _row_weights(r, robust)).step(mu)
            assert np.linalg.norm(step - reference) <= 1e-9 * np.linalg.norm(reference)

    @pytest.mark.parametrize("mu", [1e-4, 10.0])
    def test_schur_step_with_a_prior_only_frame(self, mu):
        # A frame that observes nothing gets zero observation blocks and is
        # solved by its priors, as a frame with a prior-only pose is.
        self.test_schur_step_matches_dense_step(mu, prior_only=True)

    @staticmethod
    def two_pass_street():
        """Two zero-noise experiences of one 300 m street as one BA problem, and its frames and world.

        Frame ids run along the first pass, then along the second, so in id
        order every frame shares landmarks with a frame about one pass away.
        """
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
        problem = _BAProblem(frame_ids, track_ids, *map(np.array, zip(*observations)),
                             np.array([f.gps[:3] for f in frames]),
                             np.full(len(frames), 0.04), CAMERA,
                             gravity_meas=np.array([f.ins_gravity for f in frames]), gravity_sqrtw=5.0)
        return problem, frames, world

    @pytest.mark.parametrize("mu", [1e-4, 10.0])
    def test_banded_step_in_reordered_cameras(self, mu):
        # In id order every frame of the two-pass street shares landmarks
        # with a frame about one pass away. The camera reordering must
        # narrow the band, and the step must not depend on it.
        problem, frames, world = self.two_pass_street()
        frame_ids, track_ids = problem.frame_ids, problem.track_ids
        lowest, highest = np.full(problem.nl, problem.nf), np.zeros(problem.nl, dtype=int)
        np.minimum.at(lowest, problem.obs_l, problem.obs_f)
        np.maximum.at(highest, problem.obs_l, problem.obs_f)
        assert problem.structure.bandwidth < (highest - lowest).max() / 2

        truth = world.positions
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
        truth = world.positions
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
        obs = Observations(tracks_by_id.values(), frames_by_id)
        tracemalloc.start()
        try:
            _, _, result, rmse = bundle_adjust(poses, points, obs, frames_by_id, CAMERA)
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
        # 6F x 6F float64 matrix (289 MB) either. Nor may it hold an array
        # with a row per observation pair for the whole problem, nor two
        # iterations' normal equations, nor each observation's 6x6 product
        # between steps: it peaks at about 1,360 bytes per observation,
        # against 1,900 with the last two held and 3,650 with every pair's
        # 6x6 product held as well.
        poses, points, tracks_by_id, frames_by_id = self.truth_started_street(6000.0)
        p = 6 * len(poses)
        n_obs = sum(len(track.observations) for track in tracks_by_id.values())
        assert len(poses) >= 1000

        result, rmse, peak = self.traced_bundle_adjust(poses, points, tracks_by_id, frames_by_id)
        assert result.converged
        assert rmse < 1e-8
        assert peak < 8 * p * p
        assert peak <= 1600 * n_obs

    @staticmethod
    def upper_ordered_pairs(st):
        """Every ordered pair (i, j) of observations of one landmark with rank[cam i] <= rank[cam j].

        Built whole, both orders of every pair, then filtered. The pairs run
        landmark by landmark in landmark order, i-major.
        """
        by_land = np.argsort(st.obs_land, kind="stable")
        sorted_land = st.obs_land[by_land]
        first = np.searchsorted(sorted_land, sorted_land)
        count = np.bincount(sorted_land, minlength=st.n_landmarks)[sorted_land]
        offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        pair_i = np.repeat(by_land, count)
        pair_j = by_land[np.repeat(first, count) + offset]
        upper = st.rank[st.obs_cam[pair_i]] <= st.rank[st.obs_cam[pair_j]]
        return pair_i[upper], pair_j[upper]

    def test_kept_pairs_equal_the_filtered_ordered_pairs(self):
        # BlockStructure builds only the pairs it keeps. Stably sorted by
        # camera block in the order of S, the filtered ordered pairs must be
        # the same arrays, so every block of S sums in the same order. On
        # the two-pass street the order interleaves the two passes' frames.
        st = self.two_pass_street()[0].structure
        assert not (st.order[1:] > st.order[:-1]).all()
        pair_i, pair_j = self.upper_ordered_pairs(st)
        by_block = np.argsort(st.rank[st.obs_cam[pair_i]] * st.n_cams + st.rank[st.obs_cam[pair_j]], kind="stable")
        assert np.array_equal(st.pair_i, pair_i[by_block])
        assert np.array_equal(st.pair_j, pair_j[by_block])

    @staticmethod
    def whole_array_step(normal, mu):
        """`normal.step(mu)` with S assembled whole, as a reference.

        Every pair's product is held at once and summed per camera block in
        camera id order; the sums are scattered into the chunks by flat
        index, entry by entry.
        """
        st = normal.structure
        n_cams, chunk, n_chunks = st.n_cams, st.chunk, st.n_chunks
        pair_i, pair_j = TestBundleAdjustInternals.upper_ordered_pairs(st)
        blocks, block_of_pair = np.unique(st.obs_cam[pair_i] * n_cams + st.obs_cam[pair_j], return_inverse=True)
        by_block = np.argsort(block_of_pair, kind="stable")
        pair_i, pair_j = pair_i[by_block], pair_j[by_block]
        pair_sum = least_squares._SegmentSum(block_of_pair[by_block], blocks.shape[0])
        size = 6 * chunk

        def chunk_slots(cams_a, cams_b):
            pos_a, pos_b = st.rank[cams_a], st.rank[cams_b]
            chunk_a = pos_a // chunk
            inside = chunk_a == pos_b // chunk
            index = np.where(inside, chunk_a, n_chunks + chunk_a)[:, None, None]
            i = 6 * (pos_a % chunk)[:, None, None] + np.arange(6)[:, None]
            j = 6 * (pos_b % chunk)[:, None, None] + np.arange(6)
            entries = np.arange(36 * pos_a.shape[0]).reshape(-1, 6, 6)
            mirror = inside & (pos_a < pos_b)
            slots = [(index * size + i) * size + j, (index[mirror] * size + j[mirror]) * size + i[mirror]]
            return np.concatenate([s.ravel() for s in slots]), np.concatenate([entries.ravel(), entries[mirror].ravel()])

        block_slots, block_entries = chunk_slots(blocks // n_cams, blocks % n_cams)
        diag_slots, diag_entries = chunk_slots(np.arange(n_cams), np.arange(n_cams))
        padding = np.arange(6 * n_cams, size * n_chunks) - size * (n_chunks - 1)

        v_inv = least_squares._symmetric_inverse(least_squares._damped(normal.v, normal.v_diag, mu))
        y = normal.minus_w @ np.take(v_inv, st.obs_land, axis=0)
        products = np.take(y, pair_i, axis=0) @ np.take(normal.minus_w_t, pair_j, axis=0)
        reduction = pair_sum(products.reshape(-1, 36))
        minus_g_land = np.take(normal.minus_g_land, st.obs_land, axis=0)[:, :, None]
        rhs = st.cam_sum((y @ minus_g_land)[:, :, 0]) - normal.g_cam
        chunks = np.zeros((2 * n_chunks - 1, size, size))
        flat = chunks.reshape(-1)
        flat[block_slots] = -np.take(reduction, block_entries)
        flat[diag_slots] += np.take(least_squares._damped(normal.u, normal.u_diag, mu), diag_entries)
        flat[((n_chunks - 1) * size + padding) * size + padding] = 1.0
        padded = np.zeros((n_chunks * chunk, 6))
        padded[:n_cams] = rhs[st.order]
        step_cam = np.empty_like(rhs)
        solved = least_squares._solve_block_tridiagonal(chunks, padded.reshape(n_chunks, -1))
        step_cam[st.order] = solved.reshape(-1, 6)[:n_cams]
        minus_w_step = normal.minus_w_t @ np.take(step_cam, st.obs_cam, axis=0)[:, :, None]
        minus_back = normal.minus_g_land + st.land_sum(minus_w_step[:, :, 0])
        return np.concatenate([step_cam.ravel(), (v_inv @ minus_back[:, :, None]).ravel()])

    @pytest.mark.parametrize("mu", [1e-4, 10.0])
    def test_step_equals_whole_array_assembly_bit_for_bit(self, mu, monkeypatch):
        # S is assembled one row of chunks at a time, each camera block's
        # pairs summed in the same order as with every pair held at once, so
        # a damped step on the 250-frame street is the same to the last bit.
        poses, points, tracks_by_id, frames_by_id = self.truth_started_street(1500.0)
        solve = sfm.solve_least_squares
        handed = {}

        def spy(residual_fn, x0, jacobian=None, **kwargs):
            handed.update(problem=jacobian.__self__, x0=x0, robust=kwargs["robust"])
            return solve(residual_fn, x0, jacobian=jacobian, **kwargs)

        monkeypatch.setattr(sfm, "solve_least_squares", spy)
        obs = Observations(tracks_by_id.values(), frames_by_id)
        bundle_adjust(poses, points, obs, frames_by_id, CAMERA, max_iterations=1)
        problem, x0 = handed["problem"], handed["x0"]
        assert problem.nf >= 250
        r = problem.residuals(x0)
        normal = _normal_equations(problem.jacobian(x0), r, _row_weights(r, handed["robust"]))
        assert normal.structure.n_chunks >= 5
        assert np.array_equal(normal.step(mu), self.whole_array_step(normal, mu))

    def test_failed_banded_factorisation_raises_damping(self, monkeypatch):
        factorisations = []
        solve_block_tridiagonal = least_squares._solve_block_tridiagonal

        def failing_solve(chunks, rhs):
            factorisations.append(chunks.shape)
            if len(factorisations) == 1:
                raise np.linalg.LinAlgError("not positive definite")
            return solve_block_tridiagonal(chunks, rhs)

        monkeypatch.setattr(least_squares, "_solve_block_tridiagonal", failing_solve)
        poses, points, tracks_by_id, frames_by_id = self.truth_started_street(150.0)
        obs = Observations(tracks_by_id.values(), frames_by_id)
        _, _, result, rmse = bundle_adjust(poses, points, obs, frames_by_id, CAMERA)
        assert result.converged and rmse < 1e-8
        trials = len(result.cost_history) - 1 + result.rejected_steps
        assert result.linear_solves == len(factorisations) == trials + 1

    def test_failed_landmark_inverse_raises_damping(self, monkeypatch):
        # A landmark block whose determinant is not positive fails the step
        # like a failed factorisation: the damping rises and the solve goes on.
        inversions = []
        symmetric_inverse = least_squares._symmetric_inverse

        def failing_inverse(v):
            inversions.append(v.shape)
            if len(inversions) == 1:
                v = v.copy()
                v[0] = 0.0
            return symmetric_inverse(v)

        monkeypatch.setattr(least_squares, "_symmetric_inverse", failing_inverse)
        poses, points, tracks_by_id, frames_by_id = self.truth_started_street(150.0)
        obs = Observations(tracks_by_id.values(), frames_by_id)
        _, _, result, rmse = bundle_adjust(poses, points, obs, frames_by_id, CAMERA)
        assert result.converged and rmse < 1e-8
        trials = len(result.cost_history) - 1 + result.rejected_steps
        assert result.linear_solves == len(inversions) == trials + 1

    def test_one_set_of_normal_equations_at_a_time(self, monkeypatch):
        # Each LM iteration forms the normal equations at its point. The
        # last iteration's set must be let go before the next is formed, so
        # a solve never holds two.
        live, held = weakref.WeakSet(), []
        normal_equations = least_squares._normal_equations

        def tracked(jac, r, row_w):
            held.append(len(live))
            normal = normal_equations(jac, r, row_w)
            live.add(normal)
            return normal

        monkeypatch.setattr(least_squares, "_normal_equations", tracked)
        poses, points, tracks_by_id, frames_by_id = self.truth_started_street(150.0)
        obs = Observations(tracks_by_id.values(), frames_by_id)
        _, _, result, _ = bundle_adjust(poses, points, obs, frames_by_id, CAMERA)
        assert result.iterations >= 2
        assert held == [0] * result.iterations

    def test_landmark_columns_are_minus_translation_columns(self):
        problem, x = self.make_problem(behind_camera=True)
        jac = problem.jacobian(x)
        dense = jac.toarray()
        st = jac.structure
        for k, (cam, land) in enumerate(zip(st.obs_cam, st.obs_land)):
            rows = dense[2 * k : 2 * k + 2]
            assert np.array_equal(rows[:, 6 * cam : 6 * cam + 6], jac.cam[k])
            landmark = 6 * st.n_cams + 3 * land
            assert np.array_equal(rows[:, landmark : landmark + 3], -jac.cam[k][:, 3:])
            assert np.count_nonzero(rows) == np.count_nonzero(jac.cam[k]) + np.count_nonzero(jac.cam[k][:, 3:])

    def test_cost_history_non_increasing(self):
        world = street_world(length=80.0)
        exp = simulate_experience(world, ["main"], experience_id=1,
                                  noise=NoiseConfig(2.0, 1.0, 0.08, 0.0, 200.0, 0.1, 0.4, 0.0),
                                  sim=SimConfig(speed=6.0), seed=3)
        frames_by_id = {f.frame_id: f for f in exp.frames}
        subset = split_experience(exp)[0]
        tracks = build_tracks(subset, frames_by_id)
        submap = build_submap(subset, tracks, frames_by_id, CAMERA)
        # Re-run the final optimization to inspect its cost trace.
        poses = dict(submap.poses)
        points = {int(tid): submap.landmark_positions[i]
                  for i, tid in enumerate(submap.landmark_track_ids)}
        obs = Observations(tracks, frames_by_id)
        _, _, result, _ = bundle_adjust(poses, points, obs, frames_by_id, CAMERA)
        hist = np.array(result.cost_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_reprojection_term_sim3_invariant(self):
        # The reprojection part of the objective is exactly invariant under a
        # global similarity transform, whatever the GPS weight.
        world = street_world(length=80.0)
        _, frames_by_id, subset, tracks, submap = build_from(world, NoiseConfig.zero())
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
        assert gps_weight(5.0) == pytest.approx(1.0 / 25.0)
        # Sigma floor keeps zero-noise weights finite.
        assert gps_weight(0.0) == pytest.approx(100.0)

    def test_bundle_adjustment_and_fusion_weigh_a_fix_alike(self, monkeypatch):
        # A fix of sigma 0 m (floored) and one of 5 m get the same weight in
        # BA's GPS rows as in fusion's.
        poses, points, tracks_by_id, frames_by_id = self.truth_started_street(150.0)
        fixes = {fid: sigma for fid, sigma in zip(sorted(poses)[:2], (0.0, 5.0))}
        for fid, sigma in fixes.items():
            frames_by_id[fid].gps[3] = sigma
        solve = sfm.solve_least_squares
        handed = {}

        def spy(residual_fn, x0, jacobian=None, **kwargs):
            handed.update(x0=x0, jacobian=jacobian)
            return solve(residual_fn, x0, jacobian=jacobian, **kwargs)

        monkeypatch.setattr(sfm, "solve_least_squares", spy)
        obs = Observations(tracks_by_id.values(), frames_by_id)
        bundle_adjust(poses, points, obs, frames_by_id, CAMERA, max_iterations=1)
        gps_block = handed["jacobian"](handed["x0"]).frame_rows[0]  # sqrt(w) I on each camera's position
        ba_sqrtw = dict(zip(sorted(poses), gps_block[:, 0, 3]))
        submap = Submap(
            submap_id=1, experience_id=1, poses=poses, landmark_positions=np.zeros((0, 3)),
            landmark_descriptors=np.zeros((0, 16)), landmark_track_ids=np.zeros(0, dtype=int),
            gps_priors={fid: frames_by_id[fid].gps.copy() for fid in poses}, member_ids=sorted(poses),
            augmented_ids=[],
        )
        fusion_sqrtw = {fid: sw for (_, _, _, sw), fid in zip(_gps_rows([submap]), sorted(poses))}
        for fid, sigma in fixes.items():
            assert ba_sqrtw[fid] == fusion_sqrtw[fid] == np.sqrt(gps_weight(sigma))

    def test_problem_is_freed_when_bundle_adjust_returns(self, monkeypatch):
        # The problem's projection cache holds its method weakly: a cycle
        # would keep every finished problem's arrays until a collection.
        poses, points, tracks_by_id, frames_by_id = self.truth_started_street(150.0)
        solve = sfm.solve_least_squares
        handed = {}

        def spy(residual_fn, x0, jacobian=None, **kwargs):
            handed["problem"] = weakref.ref(jacobian.__self__)
            return solve(residual_fn, x0, jacobian=jacobian, **kwargs)

        monkeypatch.setattr(sfm, "solve_least_squares", spy)
        obs = Observations(tracks_by_id.values(), frames_by_id)
        gc.disable()
        try:
            bundle_adjust(poses, points, obs, frames_by_id, CAMERA, max_iterations=2)
            assert handed["problem"]() is None
        finally:
            gc.enable()


class TestGaugeStart:
    def test_start_moves_only_the_gps_rows(self):
        # A problem turned off its fixes by a yaw, scale and shift: the start
        # moves it by one yaw, scale and shift, so its pixel and gravity rows
        # stay and its GPS rows' cost does not rise.
        for seed in range(8):
            problem, x = TestBundleAdjustInternals().make_problem(seed, pixel_sigma=1.0)
            rng = np.random.default_rng(seed)
            off = Sim3(so3.matrix_to_quat(so3.yaw_matrix(rng.uniform(-3.0, 3.0))), rng.normal(scale=5.0, size=3),
                       rng.uniform(0.7, 1.4))
            poses, points = problem.unpack(x)
            poses = {fid: off.apply_pose(pose) for fid, pose in poses.items()}
            points = {tid: off.apply(point) for tid, point in points.items()}
            before = problem.residuals(problem.pack(poses, points))
            after = problem.residuals(problem.start(poses, points))
            gps = slice(2 * problem.nobs, 2 * problem.nobs + 3 * problem.nf)
            for rows in (slice(0, gps.start), slice(gps.stop, None)):  # pixels, gravity
                assert np.abs(after[rows] - before[rows]).max() <= 1e-9 * np.abs(before[rows]).max()
            assert after[gps] @ after[gps] <= before[gps] @ before[gps]
            assert after[gps] @ after[gps] < 0.5 * (before[gps] @ before[gps])

    def test_yawed_window_is_adjusted_back_at_once(self):
        # Zero noise: eight frames of the street and their points, turned 10
        # degrees and scaled by 0.9 about their centroid, are adjusted back
        # onto the submap by the start alone (5 iterations from the turned
        # poses themselves).
        _, frames_by_id, _, tracks, submap = build_from(street_world(), NoiseConfig.zero())
        obs = Observations(tracks, frames_by_id)
        fids = sorted(submap.poses)
        window = fids[len(fids) // 2 - 4 : len(fids) // 2 + 4]
        tids, counts = np.unique(obs.track[obs.seen_from(window)], return_counts=True)
        landmarks = dict(zip(submap.landmark_track_ids.tolist(), submap.landmark_positions))
        points = {tid: landmarks[tid] for tid in tids[counts >= 2].tolist() if tid in landmarks}
        assert len(points) >= 20
        c = np.mean([submap.poses[fid].t for fid in window], axis=0)
        yaw = so3.yaw_matrix(np.radians(10.0))
        turn = Sim3(so3.matrix_to_quat(yaw), c - 0.9 * yaw @ c, 0.9)

        poses, _, result, _ = bundle_adjust(
            {fid: turn.apply_pose(submap.poses[fid]) for fid in window},
            {tid: turn.apply(point) for tid, point in points.items()},
            obs, frames_by_id, CAMERA,
        )
        assert result.iterations <= 2
        for fid in window:
            assert np.linalg.norm(poses[fid].t - submap.poses[fid].t) < 1e-6
            assert so3.geodesic_angle(poses[fid].q, submap.poses[fid].q) < 1e-6


class TestSeedRefinementFailures:
    def build(self):
        world = street_world(length=80.0)
        exp = simulate_experience(world, ["main"], experience_id=1, noise=NoiseConfig.zero(),
                                  sim=SimConfig(speed=6.0), seed=0)
        frames_by_id = {f.frame_id: f for f in exp.frames}
        subset = split_experience(exp)[0]
        return build_submap(subset, build_tracks(subset, frames_by_id), frames_by_id, CAMERA)

    def test_solver_failure_reason_is_reported(self, monkeypatch):
        def failing(*args, **kwargs):
            raise NonFinite("non-finite update step")

        monkeypatch.setattr(sfm, "bundle_adjust", failing)
        with pytest.raises(InsufficientOverlap, match="seed refinement failed: .*non-finite update step") as info:
            self.build()
        # The seed is refined once, so its one failure is reported once.
        assert str(info.value).count("non-finite update step") == 1

    def test_other_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bundle_adjust() got an unexpected keyword argument")

        monkeypatch.setattr(sfm, "bundle_adjust", broken)
        with pytest.raises(TypeError, match="unexpected keyword"):
            self.build()


class TestClosedFormYaw:
    @given(
        st.integers(1, 20),
        st.floats(-10.0, 10.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_yaw_between_recovers_a_turn_about_z(self, n, psi, seed):
        """Rows turned by ψ about +z and rescaled give back ψ, modulo 2π."""
        rng = np.random.default_rng(seed)
        src = rng.normal(size=(n, 3))
        dst = (src @ so3.yaw_matrix(psi).T) * rng.uniform(0.1, 10.0, size=(n, 1))
        got = sfm._yaw_between(src, dst)
        assert abs(np.angle(np.exp(1j * (got - psi)))) < 1e-9

    def test_frame_of_an_unregistered_experience_is_registered_exactly(self, monkeypatch):
        """Zero noise: a seed from borrowed frames of experience 2, then experience 1 by gravity and yaw.

        The subset is experience 1 with frames 10-11 of experience 2
        borrowed; they are the seed pair, so the first experience-1 frame
        has no registered frame of its own experience. Every registration
        calls `_yaw_between`, after the seed's one call; the first of them
        is that frame's, and its start is already exact.
        """
        world = street_world()
        exp1 = simulate_experience(world, ["main"], experience_id=1, noise=NoiseConfig.zero(),
                                   sim=SimConfig(speed=6.0), seed=0)
        exp2 = simulate_experience(world, ["main"], experience_id=2, noise=NoiseConfig.zero(),
                                   sim=SimConfig(speed=6.0, yaw_amplitude_deg=30.0), seed=1)
        frames_by_id = {f.frame_id: f for exp in (exp1, exp2) for f in exp.frames}
        [subset] = split_experience(exp1)
        borrowed = [exp2.frames[10].frame_id, exp2.frames[11].frame_id]
        subset.augmented_ids = borrowed
        yaws, inits = [], []
        yaw_between, refine_pose = sfm._yaw_between, sfm.refine_pose

        def yaw_spy(src, dst):
            yaws.append(len(src))
            return yaw_between(src, dst)

        def refine_spy(points, pixels, camera, init, *args):
            inits.append((len(yaws), init))
            return refine_pose(points, pixels, camera, init, *args)

        monkeypatch.setattr(sfm, "_yaw_between", yaw_spy)
        monkeypatch.setattr(sfm, "refine_pose", refine_spy)
        tracks = build_tracks(subset, frames_by_id)
        assert sfm._seed_pair(Observations(tracks, frames_by_id), frames_by_id)[:2] == tuple(borrowed)
        submap = build_submap(subset, tracks, frames_by_id, CAMERA)

        # One call seeds; the next gives the yaw of the first registered
        # frame, of experience 1.
        assert len(yaws) >= 2
        oracle = Oracle.from_experiences([exp1, exp2])
        init = next(init for n, init in inits if n == 2)
        [fid] = [f.frame_id for f in exp1.frames if np.allclose(f.gps[:3], init.t)]
        assert np.degrees(np.linalg.norm(so3.log(oracle.pose(fid).rotation.T @ init.rotation))) < 1e-6
        assert submap.status == "built"
        for fid, pose in submap.poses.items():
            truth = oracle.pose(fid)
            assert np.degrees(np.linalg.norm(so3.log(truth.rotation.T @ pose.rotation))) < 1e-6, fid
            assert np.linalg.norm(pose.t - truth.t) < 1e-6, fid
        assert verify_submap(submap, frames_by_id).passed

    def test_registration_starts_do_not_read_the_ins_chain(self, monkeypatch):
        """Zero noise, but every frame more than 6 ids from the seed pair reports a wrong 0.3 rad INS turn.

        The seed window lies within 6 ids of the pair and keeps its true
        relative rotations. Every registration starts from its own gravity
        and the closed-form yaw of its matches, so each start is exact.
        """
        world = street_world()
        exp = simulate_experience(world, ["main"], experience_id=1, noise=NoiseConfig.zero(),
                                  sim=SimConfig(speed=6.0), seed=0)
        frames_by_id = {f.frame_id: f for f in exp.frames}
        [subset] = split_experience(exp)
        tracks = build_tracks(subset, frames_by_id)
        seed_pair = sfm._seed_pair(Observations(tracks, frames_by_id), frames_by_id)[:2]
        wrong_turn = so3.quat_from_rotvec(np.array([0.0, 0.3, 0.0]))
        far = {f.frame_id for f in exp.frames if min(abs(f.frame_id - s) for s in seed_pair) > 6}
        for fid in far:
            frames_by_id[fid].ins_rel_rot = wrong_turn.copy()
        inits = []
        refine_pose = sfm.refine_pose

        def refine_spy(points, pixels, camera, init, *args):
            inits.append(init)
            return refine_pose(points, pixels, camera, init, *args)

        monkeypatch.setattr(sfm, "refine_pose", refine_spy)
        submap = build_submap(subset, tracks, frames_by_id, CAMERA)

        oracle = Oracle.from_experiences([exp])
        started = set()
        for init in inits:
            [fid] = [f.frame_id for f in exp.frames if np.allclose(f.gps[:3], init.t)]
            started.add(fid)
            error = np.degrees(np.linalg.norm(so3.log(oracle.pose(fid).rotation.T @ init.rotation)))
            assert error < 1e-6, (fid, error)
        assert len(started & far) >= 10
        assert submap.status == "built"


class TestTriangulation:
    def test_midpoint_exact(self):
        point = np.array([3.0, 4.0, 10.0])
        origins = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
        dirs = point - origins
        dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        x, ok = triangulate_midpoints(origins, dirs, [0])
        assert ok[0] and np.allclose(x[0], point, atol=1e-9)

    def test_low_parallax_rejected(self):
        origins = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0]])
        d = np.array([0.0, 0.0, 1.0])
        dirs = np.array([d, d])
        assert not triangulate_midpoints(origins, dirs, [0])[1][0]

    def test_behind_camera_rejected(self):
        origins = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        target = np.array([5.0, 0.0, -10.0])
        dirs = np.array([
            -(target - origins[0]) / np.linalg.norm(target - origins[0]),
            -(target - origins[1]) / np.linalg.norm(target - origins[1]),
        ])
        assert not triangulate_midpoints(origins, dirs, [0])[1][0]


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
    parallel: one axis direction for every ray, so its largest angle is 0
    and its normal system, exactly singular, must be kept out of the solve.
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
        st.integers(0, 2**32 - 1),
    )
    @example(tracks=[("accepted", 3), ("parallel", 2), ("low_parallax", 4), ("behind", 2)], seed=0)
    @settings(max_examples=200, deadline=None)
    def test_matches_per_track_reference(self, tracks, seed):
        """Same accepted set and points to 1e-9 relative; a parallel-ray track is rejected alone."""
        rng = np.random.default_rng(seed)
        rays = [track_rays(kind, n, rng) for kind, n in tracks]
        starts = np.cumsum([0] + [n for _, n in tracks[:-1]])
        points, ok = triangulate_midpoints(
            np.concatenate([o for o, _ in rays]), np.concatenate([d for _, d in rays]), starts
        )
        assert ok.shape == (len(tracks),)
        for k, ((kind, _), (origins, dirs)) in enumerate(zip(tracks, rays)):
            expected = reference_midpoint(origins, dirs, sfm.MIN_TRIANGULATION_ANGLE_DEG, sfm.MIN_TRIANGULATION_DEPTH)
            # The generator makes the kinds it claims.
            assert (expected is not None) == (kind == "accepted")
            assert ok[k] == (expected is not None), kind
            # The batch sums in another order; 1e-9 relative covers that rounding.
            if expected is not None:
                assert np.linalg.norm(points[k] - expected) <= 1e-9 * np.linalg.norm(expected)


def reference_seed_pair(tracks, frames_by_id):
    """(frame a, frame b, count) ranked pair by pair, or None: the reference for `sfm._seed_pair`."""
    pair_counts = {}
    for track in tracks:
        fids = [fid for fid, _ in track.observations]
        for i in range(len(fids)):
            for j in range(i + 1, len(fids)):
                key = (min(fids[i], fids[j]), max(fids[i], fids[j]))
                pair_counts[key] = pair_counts.get(key, 0) + 1
    if not pair_counts:
        return None

    def pair_rank(item):
        (fa, fb), count = item
        same_exp = frames_by_id[fa].experience_id == frames_by_id[fb].experience_id
        return (count, same_exp, -fa, -fb)

    (fa, fb), count = max(pair_counts.items(), key=pair_rank)
    return fa, fb, count


class TestObservationTable:
    def test_build_is_independent_of_track_order(self):
        world = street_world()
        noise = NoiseConfig(gps_sigma=5.0, pixel_sigma=1.0, descriptor_sigma=0.08,
                            canyon_amplitude=0.0, ins_rot_noise_deg=0.1)
        _, frames_by_id, subset, tracks, submap = build_from(world, noise, seed=1)
        shuffled = list(tracks)
        np.random.default_rng(0).shuffle(shuffled)
        other = build_submap(subset, shuffled, frames_by_id, CAMERA)

        assert sorted(other.poses) == sorted(submap.poses)
        for fid, pose in submap.poses.items():
            assert np.array_equal(pose.q, other.poses[fid].q) and np.array_equal(pose.t, other.poses[fid].t)
        for name in ("landmark_positions", "landmark_descriptors", "landmark_track_ids"):
            assert np.array_equal(getattr(submap, name), getattr(other, name))
        for name in ("status", "discard_reasons", "reprojection_rmse", "final_cost"):
            assert getattr(submap, name) == getattr(other, name)
        assert submap.track_observations.keys() == other.track_observations.keys()
        for tid, observed in submap.track_observations.items():
            assert len(observed) == len(other.track_observations[tid])
            for (fa, pa), (fb, pb) in zip(observed, other.track_observations[tid]):
                assert fa == fb and np.array_equal(pa, pb)

    @given(
        st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=4), max_size=12),
        st.lists(st.integers(1, 2), min_size=8, max_size=8),
    )
    # Count ties across experiences: the pair within one wins over lower ids.
    @example(frame_sets=[{0, 1}, {0, 1}, {0, 2}, {0, 2}], experiences=[1, 2, 1, 1, 1, 1, 1, 1])
    # Count ties within one experience: the lowest first id, then second id, wins.
    @example(frame_sets=[{0, 3}, {0, 3}, {1, 2}, {1, 2}, {0, 1}, {0, 1}], experiences=[1] * 8)
    @settings(max_examples=200, deadline=None)
    def test_seed_pair_matches_pairwise_ranking(self, frame_sets, experiences):
        frames_by_id = {10 * k + 3: SimpleNamespace(experience_id=e, pixels=np.zeros((1, 2)))
                        for k, e in enumerate(experiences)}
        tracks = [Track(k, [(10 * f + 3, 0) for f in fids]) for k, fids in enumerate(frame_sets)]
        obs = Observations(tracks, frames_by_id)
        expected = reference_seed_pair(tracks, frames_by_id)
        if expected is None:
            with pytest.raises(InsufficientOverlap, match="no shared tracks"):
                sfm._seed_pair(obs, frames_by_id)
        else:
            assert sfm._seed_pair(obs, frames_by_id) == expected

    @given(
        st.dictionaries(st.integers(0, 9), st.sets(st.integers(0, 5), min_size=1), max_size=8),
        st.sets(st.integers(-3, 12)),
        st.sets(st.integers(-3, 12)),
    )
    @settings(max_examples=200, deadline=None)
    def test_membership_equals_isin(self, frames_of_track, track_ids, frame_keys):
        # Frame 5 is outside frames_by_id, so its observations are left out
        # of the table; asked-for ids may be absent from it.
        frames_by_id = {10 * k + 3: SimpleNamespace(pixels=np.zeros((1, 2))) for k in range(5)}
        tracks = [Track(tid, [(10 * k + 3, 0) for k in sorted(ks)]) for tid, ks in frames_of_track.items()]
        obs = Observations(tracks, frames_by_id)
        frame_ids = [10 * k + 3 for k in frame_keys]

        expected = np.isin(obs.track, list(track_ids))
        assert np.array_equal(obs.of(track_ids), expected)
        assert np.array_equal(obs.of(dict.fromkeys(track_ids)), expected)
        assert np.array_equal(obs.of(np.array(sorted(track_ids), dtype=int)), expected)
        assert np.array_equal(obs.seen_from(dict.fromkeys(frame_ids)), np.isin(obs.frame, frame_ids))

    def test_triangulate_tracks_over_a_mask_matches_per_track_reference(self):
        poses, _, tracks_by_id, frames_by_id = TestBundleAdjustInternals.truth_started_street(150.0)
        registered = {fid: poses[fid] for fid in sorted(poses)[::3]}
        chosen = sorted(tracks_by_id)[::2]
        obs = Observations(tracks_by_id.values(), frames_by_id)
        points = sfm.triangulate_tracks(obs, obs.of(chosen), registered, CAMERA)

        expected, single = {}, 0
        for tid in chosen:
            seen = [(fid, oi) for fid, oi in tracks_by_id[tid].observations if fid in registered]
            single += len(seen) == 1
            origins = np.array([registered[fid].t for fid, _ in seen]).reshape(-1, 3)
            rays = CAMERA.rays(np.array([frames_by_id[fid].pixels[oi] for fid, oi in seen]).reshape(-1, 2))
            dirs = np.array([registered[fid].rotation @ ray for (fid, _), ray in zip(seen, rays)]).reshape(-1, 3)
            x = reference_midpoint(origins, dirs, sfm.MIN_TRIANGULATION_ANGLE_DEG, sfm.MIN_TRIANGULATION_DEPTH)
            if x is not None:
                expected[tid] = x
        assert single > 0  # some chosen tracks have one registered row and are dropped
        assert sorted(points) == sorted(expected)
        for tid, x in expected.items():
            assert np.linalg.norm(points[tid] - x) <= 1e-9 * np.linalg.norm(x)

    def test_bundle_adjust_holds_the_observations_of_its_frames_and_points(self, monkeypatch):
        poses, points, tracks_by_id, frames_by_id = TestBundleAdjustInternals.truth_started_street(150.0)
        poses = {fid: pose for k, (fid, pose) in enumerate(sorted(poses.items())) if k % 4}
        points = {
            tid: x for k, (tid, x) in enumerate(sorted(points.items()))
            if k % 5 and sum(fid in poses for fid, _ in tracks_by_id[tid].observations) >= 2
        }
        solve = sfm.solve_least_squares
        handed = {}

        def spy(residual_fn, x0, jacobian=None, **kwargs):
            handed["problem"] = jacobian.__self__
            return solve(residual_fn, x0, jacobian=jacobian, **kwargs)

        monkeypatch.setattr(sfm, "solve_least_squares", spy)
        obs = Observations(tracks_by_id.values(), frames_by_id)
        bundle_adjust(poses, points, obs, frames_by_id, CAMERA, max_iterations=1)

        expected = [
            (fid, tid, frames_by_id[fid].pixels[oi])
            for tid in sorted(points)
            for fid, oi in tracks_by_id[tid].observations
            if fid in poses
        ]
        problem = handed["problem"]
        assert problem.frame_ids == sorted(poses) and problem.track_ids == sorted(points)
        assert np.array(problem.frame_ids)[problem.obs_f].tolist() == [fid for fid, _, _ in expected]
        assert np.array(problem.track_ids)[problem.obs_l].tolist() == [tid for _, tid, _ in expected]
        assert np.array_equal(problem.obs_px, np.array([px for _, _, px in expected]))


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
        build_submap(subset, [], frames_by_id, CAMERA)
