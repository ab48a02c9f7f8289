"""The benchmark's traced run rebinds the program's entry points by name.

``perfbench.tracing.instrument`` replaces ``sfm.refine_pose`` and the solver
that ``reproject`` calls; a renamed or moved entry point breaks the traced
run, so the binding is checked here with the program's own tests.
"""

import numpy as np

from cityvps.geometry import GRAVITY_WORLD, Camera, Pose, camera_projection, so3
from cityvps.mapbuild import sfm
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
