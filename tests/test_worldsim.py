"""World generation, experience simulation, and the ground-truth oracle."""

import numpy as np
import pytest

from cityvps.geometry import project
from cityvps.worldsim import (
    BadConfig,
    NoiseConfig,
    Oracle,
    RouteNotInWorld,
    SimConfig,
    Street,
    UnknownFrame,
    WorldConfig,
    corrupt_observations,
    generate_world,
    generate_world_from_streets,
    simulate_experience,
)


def single_street_world(length=200.0, density=50.0, seed=7):
    streets = {"main": Street("main", np.array([[0.0, 0.0], [length, 0.0]]), 12.0)}
    config = WorldConfig(
        extent_x=length, extent_y=100.0, street_spacing=100.0, landmarks_per_100m=density
    )
    return generate_world_from_streets(streets, config, seed)


class TestGenerateWorld:
    def test_deterministic(self):
        config = WorldConfig(extent_x=300.0, extent_y=300.0, street_spacing=100.0)
        w1 = generate_world(config, seed=7)
        w2 = generate_world(config, seed=7)
        assert len(w1.landmarks) == len(w2.landmarks)
        assert np.array_equal(w1.landmark_positions(), w2.landmark_positions())
        assert np.array_equal(w1.landmark_descriptors(), w2.landmark_descriptors())

    def test_zero_extents_rejected(self):
        with pytest.raises(BadConfig):
            generate_world(WorldConfig(extent_x=0.0), seed=1)

    def test_density_count(self):
        # 50 per 100 m on a 200 m street: 100 +/- 10 per side.
        world = single_street_world(length=200.0, density=50.0)
        positions = world.landmark_positions()
        per_side_left = int((positions[:, 1] > 0).sum())
        per_side_right = int((positions[:, 1] < 0).sum())
        assert abs(per_side_left - 100) <= 10
        assert abs(per_side_right - 100) <= 10

    def test_landmarks_near_streets(self):
        world = generate_world(WorldConfig(extent_x=200.0, extent_y=200.0), seed=3)
        for lm in world.landmarks:
            dists = []
            for street in world.streets.values():
                poly = street.polyline
                for a, b in zip(poly[:-1], poly[1:]):
                    seg = b - a
                    t = np.clip(np.dot(lm.position[:2] - a, seg) / np.dot(seg, seg), 0, 1)
                    dists.append(np.linalg.norm(lm.position[:2] - (a + t * seg)))
            assert min(dists) <= world.config.street_width / 2.0 + 2.0

    def test_unique_ids(self):
        world = generate_world(WorldConfig(extent_x=200.0, extent_y=200.0), seed=4)
        ids = [lm.id for lm in world.landmarks]
        assert len(ids) == len(set(ids))


class TestSimulateExperience:
    def test_zero_noise_straight_street(self):
        world = single_street_world(length=100.0)
        exp = simulate_experience(
            world,
            ["main"],
            experience_id=1,
            noise=NoiseConfig.zero(),
            sim=SimConfig(speed=10.0, frame_rate=1.0),
            seed=0,
        )
        assert len(exp.frames) == 11
        for f in exp.frames:
            assert np.allclose(f.gps[:3], f.true_pose.t, atol=1e-12)

    def test_observation_pixels_match_projection(self):
        world = single_street_world()
        exp = simulate_experience(
            world, ["main"], experience_id=2, noise=NoiseConfig.zero(), seed=0
        )
        cam = SimConfig().camera
        checked = 0
        lm_by_id = {lm.id: lm for lm in world.landmarks}
        for f in exp.frames:
            for i in range(f.n_observations):
                lm = lm_by_id[int(f.landmark_ids[i])]
                px = project(lm.position, f.true_pose, cam)
                assert px is not None
                assert np.allclose(px, f.pixels[i], atol=1e-9)
                checked += 1
        assert checked > 100

    def test_gps_noise_std(self):
        world = single_street_world(length=150.0)
        noise = NoiseConfig(gps_sigma=5.0, pixel_sigma=0.0, descriptor_sigma=0.0, canyon_amplitude=0.0, ins_rot_noise_deg=0.0)
        errs = []
        for seed in range(12):
            exp = simulate_experience(
                world, ["main"], experience_id=seed, noise=noise,
                sim=SimConfig(speed=1.5, frame_rate=1.0), seed=seed,
            )
            for f in exp.frames:
                errs.extend((f.gps[:3] - f.true_pose.t).tolist())
        std = np.std(errs)
        assert 4.0 <= std <= 6.0

    def test_condition_offset_separates_day_night(self):
        world = single_street_world()
        sigma = 0.08
        noise = NoiseConfig(
            gps_sigma=0.0, pixel_sigma=0.0, descriptor_sigma=sigma,
            canyon_amplitude=0.0, ins_rot_noise_deg=0.0,
            condition_offset=3.0 * sigma,
        )
        day = simulate_experience(world, ["main"], experience_id=1, condition_value=0.0, noise=noise, seed=5)
        night = simulate_experience(world, ["main"], experience_id=2, condition_value=1.0, noise=noise, seed=5)
        threshold = 3.0 * sigma
        day_desc = {}
        for f in day.frames:
            for i in range(f.n_observations):
                day_desc.setdefault(int(f.landmark_ids[i]), f.descriptors[i])
        dists = []
        for f in night.frames:
            for i in range(f.n_observations):
                lid = int(f.landmark_ids[i])
                if lid in day_desc:
                    dists.append(np.linalg.norm(f.descriptors[i] - day_desc[lid]))
        assert len(dists) > 50
        assert np.median(dists) > threshold

    def test_same_condition_descriptors_match(self):
        world = single_street_world()
        sigma = 0.08
        noise = NoiseConfig(0.0, 0.0, sigma, 0.0, 200.0, 0.0, 0.4, 0.0)
        a = simulate_experience(world, ["main"], experience_id=1, condition_value=1.0, noise=noise, seed=5)
        b = simulate_experience(world, ["main"], experience_id=2, condition_value=1.0, noise=noise, seed=9)
        desc_a = {}
        for f in a.frames:
            for i in range(f.n_observations):
                desc_a.setdefault(int(f.landmark_ids[i]), f.descriptors[i])
        dists = []
        for f in b.frames:
            for i in range(f.n_observations):
                lid = int(f.landmark_ids[i])
                if lid in desc_a:
                    dists.append(np.linalg.norm(f.descriptors[i] - desc_a[lid]))
        assert np.median(dists) < 3.0 * sigma

    def test_unknown_route(self):
        world = single_street_world()
        with pytest.raises(RouteNotInWorld):
            simulate_experience(world, ["nope"], experience_id=1, seed=0)

    def test_pedestrian_offset(self):
        world = single_street_world()
        exp = simulate_experience(
            world, ["main"], experience_id=3, platform="pedestrian",
            noise=NoiseConfig.zero(), sim=SimConfig(speed=1.0), seed=0,
        )
        # main street runs along y=0; sidewalk default 4 m to the left (+y).
        ys = [f.true_pose.t[1] for f in exp.frames]
        assert np.allclose(ys, 4.0)

    def test_determinism(self):
        world = single_street_world()
        e1 = simulate_experience(world, ["main"], experience_id=5, noise=NoiseConfig(), seed=11)
        e2 = simulate_experience(world, ["main"], experience_id=5, noise=NoiseConfig(), seed=11)
        for f1, f2 in zip(e1.frames, e2.frames):
            assert np.array_equal(f1.gps, f2.gps)
            assert np.array_equal(f1.pixels, f2.pixels)
            assert np.array_equal(f1.descriptors, f2.descriptors)


class TestOracle:
    def test_roundtrip_and_unknown(self):
        world = single_street_world()
        exp = simulate_experience(world, ["main"], experience_id=1, noise=NoiseConfig.zero(), seed=0)
        oracle = Oracle.from_experiences([exp])
        first = exp.frames[0]
        assert oracle.pose(first.frame_id) is first.true_pose
        with pytest.raises(UnknownFrame):
            oracle.pose(999999999)

    def test_constant_velocity_interpolation(self):
        world = single_street_world(length=100.0)
        exp = simulate_experience(
            world, ["main"], experience_id=1, noise=NoiseConfig.zero(),
            sim=SimConfig(speed=5.0), seed=0,
        )
        oracle = Oracle.from_experiences([exp])
        f = exp.frames
        mid = oracle.pose(f[5].frame_id).t
        lerp = 0.5 * (oracle.pose(f[4].frame_id).t + oracle.pose(f[6].frame_id).t)
        assert np.allclose(mid, lerp, atol=1e-9)


class TestCorruption:
    def test_shuffle_changes_pixels_keeps_descriptors(self):
        world = single_street_world()
        exp = simulate_experience(world, ["main"], experience_id=1, noise=NoiseConfig.zero(), seed=0)
        bad = corrupt_observations(exp, 0.6, seed=1)
        moved = 0
        total = 0
        for f0, f1 in zip(exp.frames, bad.frames):
            assert np.array_equal(f0.descriptors, f1.descriptors)
            total += f0.n_observations
            moved += int((np.abs(f0.pixels - f1.pixels).sum(axis=1) > 1e-9).sum())
        assert moved > 0.4 * total

    def test_zero_fraction_is_identity(self):
        world = single_street_world()
        exp = simulate_experience(world, ["main"], experience_id=1, noise=NoiseConfig.zero(), seed=0)
        same = corrupt_observations(exp, 0.0, seed=1)
        for f0, f1 in zip(exp.frames, same.frames):
            assert np.array_equal(f0.pixels, f1.pixels)
