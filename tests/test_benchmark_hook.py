"""The benchmark's traced run rebinds the program's entry points by name.

``perfbench.tracing.instrument`` replaces ``sfm.refine_pose``,
``sfm.triangulate_track``, ``fusion.fuse`` and the solvers that ``sfm``,
``reproject`` and ``fusion`` call; a renamed or moved entry point, or a
signature its wrapper cannot take, breaks the traced run, so the binding is
checked here with the program's own tests.
"""

import numpy as np

from cityvps import fusion
from cityvps.geometry import GRAVITY_WORLD, Camera, Pose, camera_projection, reproject, so3
from cityvps.mapbuild import Submap, build_tracks, sfm, split_experience
from cityvps.worldsim import (
    NoiseConfig,
    SimConfig,
    Street,
    WorldConfig,
    generate_world_from_streets,
    simulate_experience,
)
from perfbench.tracing import Tracer, instrument


def test_traced_refine_pose_counts_one_pnp_solve():
    camera = Camera(400.0, 320.0, 240.0, 640, 480)
    rng = np.random.default_rng(4)
    pose = Pose.from_rotvec(rng.normal(scale=0.3, size=3), rng.normal(size=3))
    depth = rng.uniform(2.0, 30.0, size=12)
    xc = np.column_stack([rng.uniform(-0.5, 0.5, 12) * depth, rng.uniform(-0.4, 0.4, 12) * depth, depth])
    pixels, _, _ = camera_projection(xc, camera)
    init = Pose.from_rotvec(so3.quat_to_rotvec(pose.q) + 0.02, pose.t + 0.2)
    original = sfm.refine_pose

    tracer = Tracer(True)
    restore = instrument(tracer)
    try:
        sfm.refine_pose(pose.apply_many(xc), pixels, camera, init, pose.rotation.T @ GRAVITY_WORLD, 10.0, 2.0)
    finally:
        restore()
    assert sfm.refine_pose is original
    assert tracer.counts["lsq.pnp.solves"] == 1
    assert tracer.counts["lsq.pnp.iterations"] >= 1
    assert [span[0] for span in tracer.spans] == ["sfm.refine_pose", "lsq.pnp.solve"]


def test_traced_build_submap_restores_every_rebound_name():
    """A traced zero-noise build succeeds, and `restore` puts back every name `instrument` rebound."""
    street = Street("main", np.array([[0.0, 0.0], [80.0, 0.0]]), 12.0)
    config = WorldConfig(extent_x=80.0, extent_y=100.0, street_spacing=100.0, landmarks_per_100m=40.0)
    world = generate_world_from_streets({"main": street}, config, seed=7)
    sim = SimConfig(speed=6.0)
    exp = simulate_experience(world, ["main"], experience_id=1, noise=NoiseConfig.zero(), sim=sim, seed=0)
    frames_by_id = {f.frame_id: f for f in exp.frames}
    subset = split_experience(exp)[0]
    tracks = build_tracks(subset, frames_by_id)
    modules = (sfm, reproject, fusion)
    before = [dict(vars(module)) for module in modules]

    tracer = Tracer(True)
    restore = instrument(tracer)
    try:
        rebound = {
            (module.__name__, name)
            for module, names in zip(modules, before)
            for name, value in names.items()
            if vars(module)[name] is not value
        }
        submap = sfm.build_submap(subset, tracks, frames_by_id, sim.camera)
    finally:
        restore()

    assert ("cityvps.mapbuild.sfm", "triangulate_track") in rebound
    assert submap.status == "built", submap.discard_reasons
    assert {"sfm.bundle_adjust", "sfm.refine_pose", "lsq.ba.solve", "lsq.pnp.solve"} <= {s[0] for s in tracer.spans}
    for module, names in zip(modules, before):
        assert vars(module).keys() == names.keys()
        assert not [name for name, value in names.items() if vars(module)[name] is not value], module.__name__


def street_submap(submap_id, first_frame, n=8, spacing=5.0):
    """n frames along x, GPS fixes at their positions: frame ids shared between submaps link them."""
    poses = {
        fid: Pose.from_rotvec(np.array([0.0, 0.0, 0.1 * (fid % 3)]), np.array([spacing * fid, 0.0, 1.8]))
        for fid in range(first_frame, first_frame + n)
    }
    return Submap(
        submap_id=submap_id,
        experience_id=1,
        poses=poses,
        landmark_positions=np.zeros((0, 3)),
        landmark_descriptors=np.zeros((0, 16)),
        landmark_track_ids=np.zeros(0, dtype=int),
        gps_priors={fid: np.concatenate([pose.t, [2.0]]) for fid, pose in poses.items()},
        member_ids=sorted(poses),
        augmented_ids=[],
    )


def test_traced_fusion_calls_solve_every_component():
    """The benchmark's three fusion calls run traced; `restore` puts back every name in `fusion`."""
    a, b = street_submap(1, 0), street_submap(2, 5)  # frames 5-7 in both
    far = street_submap(3, 1000)
    before = dict(vars(fusion))

    tracer = Tracer(True)
    restore = instrument(tracer)
    try:
        built = fusion.build_global_map([a, b])
        updated = fusion.update_map(built, [far])
        removed = fusion.remove_submaps(updated, [3])
    finally:
        restore()

    assert sorted(removed.transforms) == [1, 2]
    # Components (1, 2); then (1, 2) and (3,); then (1, 2): each fused afresh.
    assert tracer.counts["fusion.components_solved"] == 4
    assert tracer.counts["lsq.fusion.solves"] == 4
    assert tracer.counts["fusion.components_reused"] == 0
    assert [s[0] for s in tracer.spans].count("fusion.fuse") == 3
    assert vars(fusion).keys() == before.keys()
    assert not [name for name, value in before.items() if vars(fusion)[name] is not value]
