"""Build, verify and fuse a map with SciPy's import blocked.

    python tests/build_without_scipy.py

Needs only ``cityvps`` and numpy: run it with the package installed or
with ``src`` on PYTHONPATH. It builds the zero-noise 150 m street of
``test_sfm.street_world()`` (world seed 7) as one submap, verifies it and
fuses it into a global map; any import of SciPy on the way raises
ImportError. Exits non-zero unless the submap verifies, maps at least 20
of the street's 26 frames, and places each within 1e-6 m of its true
position.
"""

import sys

sys.modules["scipy"] = None  # `import scipy` and `import scipy.<anything>` now raise ImportError

import numpy as np  # noqa: E402

from cityvps.fusion import build_global_map  # noqa: E402
from cityvps.mapbuild import build_submap, build_tracks, split_experience, verify_submap  # noqa: E402
from cityvps.worldsim import (  # noqa: E402
    NoiseConfig,
    SimConfig,
    Street,
    WorldConfig,
    generate_world_from_streets,
    simulate_experience,
)


def main():
    """None once the map is built and checked, else what went wrong."""
    streets = {"main": Street("main", np.array([[0.0, 0.0], [150.0, 0.0]]), 12.0)}
    config = WorldConfig(extent_x=150.0, extent_y=100.0, street_spacing=100.0, landmarks_per_100m=40.0)
    world = generate_world_from_streets(streets, config, seed=7)
    sim = SimConfig(speed=6.0, frame_rate=1.0)
    exp = simulate_experience(world, ["main"], experience_id=1, noise=NoiseConfig.zero(), sim=sim, seed=0)
    frames_by_id = {f.frame_id: f for f in exp.frames}
    subset = split_experience(exp, seed=0)[0]
    submap = build_submap(subset, build_tracks(subset, frames_by_id), frames_by_id, sim.camera)
    if not verify_submap(submap, frames_by_id).passed:
        return "the submap failed verification"
    global_map = build_global_map([submap])
    errors = [
        np.linalg.norm(global_map.global_pose(submap.submap_id, fid).t - frames_by_id[fid].true_pose.t)
        for fid in submap.poses
    ]
    if len(errors) < 20 or max(errors) >= 1e-6:
        return f"{len(errors)} frames mapped, largest position error {max(errors):.3g} m"
    print(f"built, verified and fused {len(errors)} frames without SciPy")
    return None


if __name__ == "__main__":
    sys.exit(main())
