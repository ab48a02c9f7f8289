"""Pose/Sim3 algebra, projection, and Huber loss checks."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cityvps.geometry import (
    BEHIND_RESIDUAL,
    GRAVITY_WORLD,
    Camera,
    Pose,
    Sim3,
    camera_projection,
    huber_loss_many,
    huber_weight_many,
    numeric_jacobian,
    project,
    refine_pose,
    reprojection_errors,
    so3,
    umeyama_yaw,
)
from cityvps.geometry import reproject
from cityvps.geometry.camera import MIN_DEPTH

unit_floats = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
angles = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
coords = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
scales = st.floats(0.2, 5.0, allow_nan=False, allow_infinity=False)


def random_sim3(rng):
    rotvec = rng.normal(size=3)
    return Sim3(so3.quat_from_rotvec(rotvec), rng.normal(scale=10.0, size=3), float(rng.uniform(0.3, 3.0)))


def random_pose(rng):
    return Pose(so3.quat_from_rotvec(rng.normal(size=3)), rng.normal(scale=10.0, size=3))


class TestPose:
    def test_identity_roundtrip(self):
        p = Pose.identity()
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(p.apply(x), x)

    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = random_pose(rng)
            ident = p.compose(p.inverse())
            assert so3.geodesic_angle(ident.q, np.array([1.0, 0, 0, 0])) < 1e-9
            assert np.linalg.norm(ident.t) < 1e-9

    def test_quaternion_stays_normalized(self):
        rng = np.random.default_rng(1)
        p = random_pose(rng)
        for _ in range(200):
            p = p.compose(random_pose(rng))
        assert abs(np.linalg.norm(p.q) - 1.0) < 1e-9

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(2)
        p = random_pose(rng)
        x = rng.normal(size=3)
        assert np.allclose(p.apply(x), p.rotation @ x + p.t)


class TestSim3:
    def test_apply_definition(self):
        rng = np.random.default_rng(3)
        s = random_sim3(rng)
        x = rng.normal(size=3)
        assert np.allclose(s.apply(x), s.s * s.rotation @ x + s.t)

    def test_group_law(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = random_sim3(rng), random_sim3(rng)
            x = rng.normal(size=3)
            assert np.allclose(a.compose(b).apply(x), a.apply(b.apply(x)), atol=1e-9)

    def test_inverse_law(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = random_sim3(rng)
            x = rng.normal(size=3)
            assert np.allclose(s.inverse().apply(s.apply(x)), x, atol=1e-9)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            Sim3(np.array([1.0, 0, 0, 0]), np.zeros(3), 0.0)

    @given(angles, angles, angles, coords, coords, coords, scales, coords, coords, coords)
    @settings(max_examples=100, deadline=None)
    def test_group_law_hypothesis(self, r1, r2, r3, t1, t2, t3, s, x1, x2, x3):
        a = Sim3(so3.quat_from_rotvec([r1, r2, r3]), [t1, t2, t3], s)
        b = Sim3(so3.quat_from_rotvec([r3, r1, r2]), [t2, t3, t1], 1.0 / s)
        x = np.array([x1, x2, x3])
        assert np.allclose(a.compose(b).apply(x), a.apply(b.apply(x)), atol=1e-7)


class TestRotations:
    def test_exp_log_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.normal(size=3)
            v = v / np.linalg.norm(v) * rng.uniform(0, np.pi - 1e-6)
            assert np.allclose(so3.log(so3.exp(v)), v, atol=1e-9)

    def test_quat_matrix_consistency(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            v = rng.normal(size=3)
            assert np.allclose(so3.quat_to_matrix(so3.quat_from_rotvec(v)), so3.exp(v), atol=1e-12)

    def test_right_jacobian_definition(self):
        # exp(v + d) ~= exp(v) exp(Jr(v) d) for small d
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = rng.normal(size=3)
            d = rng.normal(size=3) * 1e-6
            lhs = so3.exp(v + d)
            rhs = so3.exp(v) @ so3.exp(so3.right_jacobian(v) @ d)
            assert np.allclose(lhs, rhs, atol=1e-10)


class TestProjection:
    def test_on_axis(self):
        cam = Camera(500.0, 320.0, 240.0, 640, 480)
        px = project(np.array([0.0, 0.0, 10.0]), Pose.identity(), cam)
        assert np.allclose(px, [320.0, 240.0])

    def test_behind_camera(self):
        cam = Camera(500.0, 320.0, 240.0, 640, 480)
        assert project(np.array([0.0, 0.0, -1.0]), Pose.identity(), cam) is None

    def test_offset_point(self):
        # u = f*x/z + cx = 500*0.1 + 320 = 370
        cam = Camera(500.0, 320.0, 240.0, 640, 480)
        px = project(np.array([1.0, 0.0, 10.0]), Pose.identity(), cam)
        assert np.allclose(px, [370.0, 240.0])

    def test_invalid_camera(self):
        with pytest.raises(ValueError):
            Camera(-1.0, 320.0, 240.0, 640, 480)
        with pytest.raises(ValueError):
            Camera(500.0, 900.0, 240.0, 640, 480)


class TestCameraProjection:
    cam = Camera(400.0, 320.0, 240.0, 640, 480)

    def points(self, n=50, seed=12):
        rng = np.random.default_rng(seed)
        depth = rng.uniform(0.5, 50.0, size=n)
        return np.column_stack([rng.uniform(-1, 1, size=n) * depth, rng.uniform(-1, 1, size=n) * depth, depth])

    def test_pixels_match_scalar_projection(self):
        xc = self.points()
        pix, _, valid = camera_projection(xc, self.cam)
        assert valid.all()
        for row, p in zip(xc, pix):
            assert np.array_equal(p, self.cam.project_camera_frame(row))

    def test_rows_at_or_behind_min_depth_are_invalid(self):
        xc = np.vstack([self.points(3), [[1.0, 2.0, MIN_DEPTH], [1.0, 2.0, 0.0], [1.0, 2.0, -5.0]]])
        pix, a, valid = camera_projection(xc, self.cam)
        assert valid.tolist() == [True] * 3 + [False] * 3
        assert np.isnan(pix[3:]).all() and np.isfinite(pix[:3]).all()
        assert not a[3:].any()

    def test_blocks_match_central_difference(self):
        xc = self.points()
        _, a, _ = camera_projection(xc, self.cam)
        h = 1e-6
        for j in range(3):
            step = np.zeros(3)
            step[j] = h
            plus, _, _ = camera_projection(xc + step, self.cam)
            minus, _, _ = camera_projection(xc - step, self.cam)
            assert np.allclose((plus - minus) / (2 * h), a[:, :, j], rtol=1e-6, atol=1e-6)


class TestRefinePose:
    cam = Camera(400.0, 320.0, 240.0, 640, 480)
    gravity_sqrtw = 1.0 / np.deg2rad(0.2)

    def scene(self, n=20, seed=5):
        """A random pose, world points in front of it, their exact pixels and its gravity direction."""
        rng = np.random.default_rng(seed)
        pose = random_pose(rng)
        depth = rng.uniform(2.0, 40.0, size=n)
        xc = np.column_stack([rng.uniform(-0.6, 0.6, n) * depth, rng.uniform(-0.45, 0.45, n) * depth, depth])
        pix, _, _ = camera_projection(xc, self.cam)
        return pose, pose.apply_many(xc), pix, pose.rotation.T @ GRAVITY_WORLD

    def test_jacobian_matches_finite_differences(self, monkeypatch):
        pose, world, pix, gravity = self.scene()
        rng = np.random.default_rng(8)
        solve = reproject.solve_least_squares
        handed = {}

        def spy(residual_fn, x0, jacobian=None, **kwargs):
            handed.update(residuals=residual_fn, jacobian=jacobian)
            return solve(residual_fn, x0, jacobian=jacobian, **kwargs)

        monkeypatch.setattr(reproject, "solve_least_squares", spy)
        refine_pose(world, pix + rng.normal(size=pix.shape), self.cam, pose, gravity, self.gravity_sqrtw, 2.0)
        x = pose.params() + np.concatenate([rng.normal(scale=0.05, size=3), rng.normal(scale=0.3, size=3)])
        analytic = handed["jacobian"](x)
        assert analytic.shape == (2 * len(world) + 3, 6) and analytic[-3:, :3].any()
        numeric = numeric_jacobian(handed["residuals"], x)
        scale = max(1.0, np.abs(analytic).max())
        assert np.abs(analytic - numeric).max() / scale < 1e-5

    def test_cached_jacobian_is_that_of_its_own_pose(self):
        # The model keeps the projection of the last pose it evaluated. A
        # Jacobian asked for elsewhere must not reuse it, and one asked for
        # at that pose must equal a freshly built model's.
        pose, world, pix, gravity = self.scene(n=6)
        world = np.vstack([world, pose.apply(np.array([0.5, -0.2, -4.0]))])
        pix = np.vstack([pix, [320.0, 240.0]])
        g_meas = (gravity / np.linalg.norm(gravity))[None]

        def fresh():
            return reproject.PoseModel(world, pix, self.cam, g_meas, self.gravity_sqrtw)

        rng = np.random.default_rng(10)
        a = pose.params()
        b = a + np.concatenate([rng.normal(scale=0.02, size=3), rng.normal(scale=0.2, size=3)])
        model = fresh()
        assert np.array_equal(model.residuals(b)[12:14], [BEHIND_RESIDUAL, BEHIND_RESIDUAL])
        for x in (a, b):
            jac = model.jacobian(x)
            assert np.array_equal(jac, fresh().jacobian(x))
            assert not jac[12:14].any() and jac[:12].all()
        assert not np.array_equal(model.jacobian(a)[:12], model.jacobian(b)[:12])

    @staticmethod
    def gathered_rows(model, p):
        """Residuals and Jacobian of a PoseModel, formed as bundle adjustment forms them.

        The one camera is gathered once per point (camera index 0 for every
        observation) through project_observations and observation_blocks.
        """
        rot, jr = so3.exp(p[:3])[None], so3.right_jacobian(p[:3])[None]
        cams = np.zeros(len(model.points), dtype=int)
        projection = reproject.project_observations(rot, p[None, 3:], model.points, cams, model.camera)
        residuals = np.concatenate([
            reproject.observation_residuals(projection, model.pixels).ravel(),
            reproject.gravity_rows(rot, model.gravity, model.gravity_sqrtw).ravel(),
        ])
        jacobian = np.vstack([
            reproject.observation_blocks(projection, rot, cams, jr).reshape(-1, 6),
            reproject.gravity_rows(rot, model.gravity, model.gravity_sqrtw, jr)[0],
        ])
        return residuals, jacobian

    def test_model_matches_gathered_reference(self):
        # PoseModel projects its single camera without gathering it per point;
        # that must not change its rows, behind-camera rows included.
        pose, world, pix, gravity = self.scene(n=12)
        world = np.vstack([world, pose.apply(np.array([0.5, -0.2, -4.0]))])
        pix = np.vstack([pix, [320.0, 240.0]])
        g_meas = (gravity / np.linalg.norm(gravity))[None]
        rng = np.random.default_rng(11)
        for _ in range(5):
            model = reproject.PoseModel(world, pix, self.cam, g_meas, self.gravity_sqrtw)
            p = pose.params() + np.concatenate([rng.normal(scale=0.05, size=3), rng.normal(scale=0.3, size=3)])
            residuals, jacobian = self.gathered_rows(model, p)
            assert np.array_equal(model.residuals(p)[24:26], [BEHIND_RESIDUAL, BEHIND_RESIDUAL])
            assert not model.jacobian(p)[24:26].any()
            for got, want in ((model.residuals(p), residuals), (model.jacobian(p), jacobian)):
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_zero_noise_recovers_truth_from_perturbed_start(self):
        pose, world, pix, gravity = self.scene()
        rng = np.random.default_rng(9)
        init = Pose.from_params(
            pose.params() + np.concatenate([rng.normal(scale=0.05, size=3), rng.normal(scale=0.5, size=3)])
        )
        est, rms, converged = refine_pose(world, pix, self.cam, init, gravity, self.gravity_sqrtw, 2.0)
        assert converged and rms < 1e-9
        assert so3.geodesic_angle(est.q, pose.q) < 1e-9
        assert np.abs(est.t - pose.t).max() < 1e-9

    def test_point_behind_camera_reads_behind_residual(self):
        pose, world, pix, _ = self.scene(n=3)
        behind = pose.apply(np.array([0.5, -0.2, -4.0]))
        errs = reprojection_errors(pose, np.vstack([world, behind]), np.vstack([pix, [320.0, 240.0]]), self.cam)
        assert errs[-1] == BEHIND_RESIDUAL
        assert errs[:-1].max() < 1e-9


# Rotation vectors across both branches of the series: exactly zero, below
# the 1e-8 rad small-angle cutoff, generic, and within 1e-6 rad of pi.
rotation_angles = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e-8),
    st.floats(0.0, np.pi),
    st.floats(np.pi - 1e-6, np.pi),
)
axes = st.tuples(unit_floats, unit_floats, unit_floats).map(np.array).filter(lambda a: np.linalg.norm(a) > 1e-3)
rotation_vectors = st.tuples(axes, rotation_angles).map(lambda v: v[0] / np.linalg.norm(v[0]) * v[1])


class TestBatchedRotations:
    @given(st.lists(rotation_vectors, min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_match_scalar_helpers(self, rotvecs):
        stack = np.array(rotvecs)
        rots = so3.exp_many(stack)
        jrs = so3.right_jacobian_many(stack)
        assert rots.shape == jrs.shape == (len(rotvecs), 3, 3)
        for v, rot, jr in zip(stack, rots, jrs):
            assert np.abs(rot - so3.exp(v)).max() < 1e-12
            assert np.abs(jr - so3.right_jacobian(v)).max() < 1e-12

    def test_batch_skew_matches_skew(self):
        # Each row's skew matrix K is antisymmetric, with K w = v x w.
        v, w = np.random.default_rng(3).normal(size=(2, 5, 3))
        k = so3.batch_skew(v)
        assert np.array_equal(k, -np.swapaxes(k, 1, 2))
        np.testing.assert_allclose((k @ w[:, :, None])[:, :, 0], np.cross(v, w), rtol=0.0, atol=1e-12)

    def test_matrix_to_quat_many_matches_scalar_bytes(self):
        rng = np.random.default_rng(8)
        half_turn_axes = rng.normal(size=(20, 3))
        rotvecs = np.concatenate(
            [
                rng.normal(scale=0.5, size=(20, 3)),  # trace > 0
                # Turns past 2 pi / 3 about x, y and z: each diagonal entry
                # dominant in turn; the negative turns give w < 0 before the flip.
                *(np.outer(sign * np.array([2.2, 2.6, 3.0, np.pi]), axis) for sign in (1.0, -1.0) for axis in np.eye(3)),
                half_turn_axes * (np.pi / np.linalg.norm(half_turn_axes, axis=1))[:, None],
            ]
        )
        matrices = so3.exp_many(rotvecs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quats = so3.matrix_to_quat_many(matrices)
        for matrix, q in zip(matrices, quats):
            ref = so3.matrix_to_quat(matrix)
            assert q.dtype == ref.dtype and q.shape == ref.shape and q.tobytes() == ref.tobytes()
        # Every branch is taken, and some rows of the diagonal branches are flipped to w >= 0.
        trace = np.trace(matrices, axis1=1, axis2=2)
        big = np.argmax(np.diagonal(matrices, axis1=1, axis2=2), axis=1)
        m = matrices.transpose(1, 2, 0)
        w_times_s = np.stack([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]], axis=1)[np.arange(len(big)), big]
        assert (trace > 0.0).any()
        assert set(big[trace <= 0.0]) == {0, 1, 2}
        assert ((trace <= 0.0) & (w_times_s < 0.0)).any()
        assert so3.matrix_to_quat_many(np.zeros((0, 3, 3))).shape == (0, 4)


def huber(norm, delta):
    """Huber loss and IRLS weight of one residual norm."""
    return float(huber_loss_many([norm], delta)[0]), float(huber_weight_many([norm], delta)[0])


class TestHuber:
    def test_zero(self):
        loss, weight = huber(0.0, 1.0)
        assert loss == 0.0 and weight == 1.0

    def test_boundary(self):
        delta = 0.7
        loss, weight = huber(delta, delta)
        assert loss == pytest.approx(delta * delta / 2.0)
        assert weight == 1.0

    def test_linear_region(self):
        # norm = 2*delta, delta = 0.5: loss = delta*(norm - delta/2) = 0.375
        loss, weight = huber(1.0, 0.5)
        assert loss == pytest.approx(0.375)
        assert weight == pytest.approx(0.5)

    @given(st.floats(0.0, 100.0), st.floats(0.01, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_weight_formula(self, norm, delta):
        loss, weight = huber(norm, delta)
        assert weight == pytest.approx(min(1.0, delta / norm) if norm > 0 else 1.0)
        assert loss >= 0.0

    @given(st.floats(0.01, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_continuity_at_delta(self, delta):
        eps = delta * 1e-9
        below, _ = huber(delta - eps, delta)
        above, _ = huber(delta + eps, delta)
        assert abs(below - above) < delta * 1e-6


class TestUmeyamaYaw:
    @given(
        st.integers(2, 12),
        angles,
        st.floats(0.5, 2.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_recovers_a_yaw_scale_and_shift(self, n, psi, scale, seed):
        """Weighted points turned about +z, scaled and shifted give back that transform."""
        rng = np.random.default_rng(seed)
        src = rng.normal(scale=20.0, size=(n, 3)) + rng.uniform(-5000.0, 5000.0, size=3)
        truth = Sim3(so3.matrix_to_quat(so3.yaw_matrix(psi)), rng.normal(scale=100.0, size=3), scale)
        fit = umeyama_yaw(src, truth.apply_many(src), rng.uniform(0.01, 100.0, size=n))
        assert np.abs(fit.rotation - truth.rotation).max() < 1e-9
        assert abs(fit.s - truth.s) < 1e-9
        assert np.abs(fit.t - truth.t).max() < 1e-9 * max(1.0, np.abs(truth.t).max())

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_is_the_least_squares_minimizer(self, n, seed):
        """No nearby yaw, scale or shift lowers the weighted cost of the fit."""
        rng = np.random.default_rng(seed)
        src = rng.normal(scale=10.0, size=(n + 1, 3))
        dst = 1.5 * src @ so3.yaw_matrix(rng.uniform(-3.0, 3.0)).T + rng.normal(scale=2.0, size=src.shape)
        w = rng.uniform(0.1, 10.0, size=n + 1)
        fit = umeyama_yaw(src, dst, w)

        def cost(psi, log_s, t):
            moved = np.exp(log_s) * src @ so3.yaw_matrix(psi).T + t
            return w @ ((moved - dst) ** 2).sum(axis=1)

        psi = np.arctan2(fit.rotation[1, 0], fit.rotation[0, 0])
        best = cost(psi, np.log(fit.s), fit.t)
        for step in rng.normal(scale=1e-3, size=(20, 5)):
            assert cost(psi + step[0], np.log(fit.s) + step[1], fit.t + step[2:]) >= best - 1e-9 * (1.0 + best)

    def test_degenerate_fits_are_the_identity(self):
        rng = np.random.default_rng(3)
        src = rng.normal(size=(6, 3))
        dst = rng.normal(size=(6, 3))
        point = np.array([4321.0, -1234.5, 7.0])
        vertical = np.column_stack([np.zeros((6, 2)), rng.normal(size=6)])
        for args in (
            (np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0)),  # nothing to fit
            (src, dst, np.zeros(6)),  # no weight
            (np.tile(point, (6, 1)), dst, np.ones(6)),  # no spread
            (vertical + point, point - vertical, np.ones(6)),  # only a negative scale fits
        ):
            fit = umeyama_yaw(*args)
            assert np.array_equal(fit.q, Sim3.identity().q) and np.array_equal(fit.t, np.zeros(3)) and fit.s == 1.0
