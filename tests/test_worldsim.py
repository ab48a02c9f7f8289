"""World generation, experience simulation, and the ground-truth oracle."""

import numpy as np
import pytest

from cityvps.geometry import GRAVITY_WORLD, Pose, camera_projection, project, so3
from cityvps.worldsim import (
    FRAME_ID_STRIDE,
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
    route_path,
    simulate_experience,
)
from cityvps.worldsim.experience import _camera_orientation, _resample_path


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


def grid_world():
    return generate_world(WorldConfig(extent_x=200.0, extent_y=200.0, landmarks_per_100m=30), seed=3)


GRID_ROUTE = ["h1", "v1", "h2"]


def test_canyon_gps_bias_is_a_function_of_position():
    # With white GPS noise off, a frame's GPS is its true position plus the
    # world's urban-canyon bias there, whichever experience records it.
    world = grid_world()
    amplitude = NoiseConfig().canyon_amplitude
    assert amplitude > 0.0
    noise = NoiseConfig(gps_sigma=0.0)
    first, second = (
        simulate_experience(world, GRID_ROUTE, experience_id=k, noise=noise, seed=seed)
        for k, seed in ((1, 0), (2, 5))
    )
    biases = []
    for f1, f2 in zip(first.frames, second.frames, strict=True):
        t = f1.true_pose.t
        assert np.array_equal(t, f2.true_pose.t)
        bias = world.gps_bias(t, amplitude, noise.canyon_wavelength)
        assert np.array_equal(f1.gps, np.concatenate([t + bias, [0.0]]))
        assert np.array_equal(f2.gps, f1.gps)
        biases.append(bias)
    biases = np.array(biases)
    assert np.all(np.abs(biases[:, :2]) <= amplitude)
    assert np.all(np.abs(biases[:, 2]) <= 0.3 * amplitude)
    # The bias varies along the route: it is a field, not one offset.
    assert np.ptp(biases[:, 0]) > 0.2 * amplitude


def reference_world_landmarks(streets, config, seed):
    """(position, descriptor, condition direction) per landmark, drawn one landmark at a time."""
    rng = np.random.default_rng(seed)
    out = []
    zmin, zmax = config.landmark_height_range
    for sid in sorted(streets):
        street = streets[sid]
        poly = street.polyline
        for a, b in zip(poly[:-1], poly[1:]):
            seg = b - a
            seg_len = float(np.linalg.norm(seg))
            if seg_len == 0.0:
                continue
            direction = seg / seg_len
            normal = np.array([-direction[1], direction[0]])
            count = int(round(config.landmarks_per_100m * seg_len / 100.0))
            for side in (-1.0, 1.0):
                offsets = rng.uniform(0.0, seg_len, size=count)
                offsets.sort()
                lateral = side * (street.width / 2.0) + rng.normal(0.0, 0.3, size=count)
                heights = rng.uniform(zmin, zmax, size=count)
                for along, lat, z in zip(offsets, lateral, heights):
                    xy = a + direction * along + normal * lat
                    descriptor = rng.normal(0.0, 1.0, size=config.descriptor_dim)
                    dir_vec = rng.normal(0.0, 1.0, size=config.descriptor_dim)
                    out.append((np.array([xy[0], xy[1], z]), descriptor, dir_vec / np.linalg.norm(dir_vec)))
    return out


def _reference_small_rotation(rng, sigma_rad):
    if sigma_rad == 0.0:
        return np.eye(3)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return so3.exp(axis * rng.normal(0.0, sigma_rad))


def reference_frames(world, route, *, experience_id, condition_value, noise, platform, sim, seed):
    """Frame fields of an experience, simulated one frame at a time against every landmark."""
    rng = np.random.default_rng([seed, experience_id])
    speed = sim.resolved_speed(platform)
    pts, headings, _ = _resample_path(route_path(world, route), speed / sim.frame_rate)
    if platform == "pedestrian":
        normals = np.column_stack([-np.sin(headings), np.cos(headings)])
        pts = pts + sim.sidewalk_side * sim.sidewalk_offset * normals
    height = sim.resolved_height(platform)
    camera = sim.camera
    lm_pos = world.landmark_positions()
    lm_desc = world.landmark_descriptors()
    lm_ids = np.array([lm.id for lm in world.landmarks])
    cond_offsets = None
    if condition_value != 0.0:
        cond_offsets = np.array(
            [world.condition_offset(int(i), condition_value, noise.condition_offset) for i in lm_ids]
        )
    yaw_amp = np.deg2rad(sim.yaw_amplitude_deg)
    ins_sigma = np.deg2rad(noise.ins_rot_noise_deg)
    frames = []
    prev_rotation = None
    for k in range(len(pts)):
        yaw = headings[k] + (yaw_amp if k % 2 == 0 else -yaw_amp)
        rotation = _camera_orientation(headings[k]) if yaw_amp == 0.0 else _camera_orientation(yaw)
        position = np.array([pts[k][0], pts[k][1], height])
        rel = lm_pos - position
        cam_pts = rel @ rotation
        near = (np.linalg.norm(rel, axis=1) <= sim.max_obs_distance) & (cam_pts[:, 2] > 0.05)
        pix = np.full((len(rel), 2), np.nan)
        pix[near] = camera_projection(cam_pts[near], camera)[0]
        visible = (
            near
            & (pix[:, 0] >= 0.0)
            & (pix[:, 0] < camera.width)
            & (pix[:, 1] >= 0.0)
            & (pix[:, 1] < camera.height)
        )
        vis_idx = np.flatnonzero(visible)
        if noise.dropout > 0.0 and len(vis_idx):
            vis_idx = vis_idx[rng.random(len(vis_idx)) >= noise.dropout]
        vis_idx = vis_idx[rng.permutation(len(vis_idx))]
        pixels = pix[vis_idx] + rng.normal(0.0, noise.pixel_sigma, size=(len(vis_idx), 2))
        descs = lm_desc[vis_idx].copy()
        if cond_offsets is not None:
            descs += cond_offsets[vis_idx]
        if noise.descriptor_sigma > 0.0 and len(vis_idx):
            dim = descs.shape[1]
            descs += rng.normal(0.0, noise.descriptor_sigma / np.sqrt(dim), size=descs.shape)
        gps = position + world.gps_bias(position, noise.canyon_amplitude, noise.canyon_wavelength)
        if noise.gps_sigma > 0.0:
            gps = gps + rng.normal(0.0, noise.gps_sigma, size=3)
        gps = np.concatenate([gps, [noise.gps_sigma]])
        gravity_meas = _reference_small_rotation(rng, ins_sigma) @ (rotation.T @ GRAVITY_WORLD)
        if prev_rotation is None:
            rel_rot = np.array([1.0, 0.0, 0.0, 0.0])
        else:
            rel_rot = so3.matrix_to_quat(prev_rotation.T @ rotation @ _reference_small_rotation(rng, ins_sigma))
        prev_rotation = rotation
        pose = Pose.from_matrix(rotation, position)
        frames.append(
            {
                "frame_id": experience_id * FRAME_ID_STRIDE + k,
                "timestamp": k / sim.frame_rate,
                "gps": gps,
                "ins_gravity": gravity_meas,
                "ins_rel_rot": rel_rot,
                "pixels": pixels,
                "descriptors": descs,
                "landmark_ids": lm_ids[vis_idx],
                "q": pose.q,
                "t": pose.t,
            }
        )
    return frames


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBitIdenticalInputs:
    """The batched simulator reproduces the one-landmark, one-frame-at-a-time loops byte for byte."""

    def test_world_landmarks(self):
        world = grid_world()
        reference = reference_world_landmarks(world.streets, world.config, world.seed)
        assert len(world.landmarks) == len(reference) > 500
        for lm, (position, descriptor, direction) in zip(world.landmarks, reference):
            assert same_bytes(lm.position, position)
            assert same_bytes(lm.descriptor, descriptor)
            assert same_bytes(world.condition_dirs[lm.id], direction)

    @pytest.mark.parametrize(
        "condition_value, noise, platform, sim",
        [
            (0.0, NoiseConfig(), "vehicle", SimConfig()),
            (1.0, NoiseConfig(), "vehicle", SimConfig()),
            (0.0, NoiseConfig(dropout=0.3), "pedestrian", SimConfig()),
            (0.0, NoiseConfig(), "vehicle", SimConfig(yaw_amplitude_deg=0.0)),
        ],
        ids=["day", "night", "pedestrian-dropout", "no-yaw"],
    )
    def test_frames(self, condition_value, noise, platform, sim):
        world = grid_world()
        kwargs = dict(
            experience_id=4, condition_value=condition_value, noise=noise, platform=platform, sim=sim, seed=9
        )
        experience = simulate_experience(world, GRID_ROUTE, **kwargs)
        reference = reference_frames(world, GRID_ROUTE, **kwargs)
        assert len(experience.frames) == len(reference) > 16
        observed = 0
        for frame, ref in zip(experience.frames, reference):
            assert frame.frame_id == ref["frame_id"] and frame.timestamp == ref["timestamp"]
            assert frame.condition_value == condition_value
            for name in ("gps", "ins_gravity", "ins_rel_rot", "pixels", "descriptors", "landmark_ids"):
                assert same_bytes(getattr(frame, name), ref[name]), name
            assert same_bytes(frame.true_pose.q, ref["q"])
            assert same_bytes(frame.true_pose.t, ref["t"])
            observed += frame.n_observations
        assert observed > 10 * len(reference)


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
