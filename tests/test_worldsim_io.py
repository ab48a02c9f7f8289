"""Experience log / sidecar / world file roundtrips."""

import json

import numpy as np

from cityvps.worldsim import (
    NoiseConfig,
    Oracle,
    generate_world,
    WorldConfig,
    read_experience,
    read_world,
    simulate_experience,
    write_experience,
    write_truth_sidecar,
    write_world,
)


def make_experience(seed=0):
    world = generate_world(WorldConfig(extent_x=200.0, extent_y=100.0, street_spacing=100.0), seed=1)
    return world, simulate_experience(world, ["h0"], experience_id=3, noise=NoiseConfig(), seed=seed)


def test_experience_roundtrip(tmp_path):
    _, exp = make_experience()
    path = tmp_path / "exp3.jsonl"
    write_experience(exp, path)
    loaded = read_experience(path)
    assert loaded.id == exp.id
    assert len(loaded.frames) == len(exp.frames)
    for f0, f1 in zip(exp.frames, loaded.frames):
        assert f1.frame_id == f0.frame_id
        assert np.allclose(f1.gps, f0.gps)
        assert np.allclose(f1.pixels, f0.pixels)
        assert np.allclose(f1.descriptors, f0.descriptors)
        assert np.allclose(f1.ins_gravity, f0.ins_gravity)
        assert np.allclose(f1.ins_rel_rot, f0.ins_rel_rot)
        assert f1.true_pose is None  # truth never rides along in the log


def test_log_lines_have_required_fields(tmp_path):
    _, exp = make_experience()
    path = tmp_path / "exp.jsonl"
    write_experience(exp, path)
    with open(path) as fh:
        rec = json.loads(fh.readline())
    assert set(rec) == {"frame_id", "experience_id", "timestamp", "gps", "ins", "observations", "condition"}
    assert set(rec["ins"]) == {"gravity", "rel_rot"}
    assert len(rec["gps"]) == 4
    if rec["observations"]:
        assert set(rec["observations"][0]) == {"pixel", "descriptor"}


def test_sidecar_oracle(tmp_path):
    _, exp = make_experience()
    side = tmp_path / "exp3.truth.jsonl"
    write_truth_sidecar(exp, side)
    oracle = Oracle.from_sidecars([side])
    f = exp.frames[4]
    assert np.allclose(oracle.pose(f.frame_id).t, f.true_pose.t)
    assert np.array_equal(oracle.landmark_ids(f.frame_id), f.landmark_ids)


def test_world_roundtrip(tmp_path):
    world = generate_world(WorldConfig(extent_x=200.0, extent_y=200.0), seed=9)
    path = tmp_path / "world.json"
    write_world(world, path)
    loaded = read_world(path)
    assert sorted(loaded.streets) == sorted(world.streets)
    assert np.allclose(loaded.landmark_positions(), world.landmark_positions())
    assert np.allclose(loaded.landmark_descriptors(), world.landmark_descriptors())
    assert np.allclose(loaded.bias_phases, world.bias_phases)
    lid = world.landmarks[0].id
    assert np.allclose(
        loaded.condition_offset(lid, 1.0, 0.4), world.condition_offset(lid, 1.0, 0.4)
    )
