"""The benchmark's own metric code on hand-made inputs.

Run with: python3 -m pytest perfbench/tests -q
"""

from types import SimpleNamespace

import numpy as np
import pytest

from cityvps.fusion import GlobalMap, build_global_map, remove_submaps, update_map
from cityvps.geometry import Pose, Sim3, so3
from cityvps.mapbuild import FrameSubset, SolverDiverged, Submap
from cityvps.worldsim import default_camera
from perfbench import metrics
from perfbench.tracing import Tracer, self_times
from perfbench.workloads import attempt_subset, fusion_calls

CAMERA = default_camera()


class Truth:
    """Oracle stand-in: true poses and the landmark id behind each observation."""

    def __init__(self, poses, landmark_ids):
        self.poses, self.ids = poses, landmark_ids

    def pose(self, fid):
        return self.poses[fid]

    def landmark_ids(self, fid):
        return self.ids[fid]


def scene(n_frames=4, base_fid=0, x0=0.0):
    """Frames along +x looking along +y at landmarks 10 m ahead, one per frame."""
    rot = np.column_stack([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])  # camera z -> world +y
    poses, landmarks, frames, ids = {}, {}, {}, {}
    for k in range(n_frames):
        fid = base_fid + k
        poses[fid] = Pose.from_matrix(rot, [x0 + 5.0 * k, 0.0, 1.8])
        landmarks[fid] = np.array([x0 + 5.0 * k + 1.0, 10.0, 3.0])
        xc = rot.T @ (landmarks[fid] - poses[fid].t)
        frames[fid] = SimpleNamespace(pixels=CAMERA.project_camera_frame(xc)[None, :])
        ids[fid] = np.array([fid])
    return poses, landmarks, frames, ids


def submap_of(submap_id, poses, landmarks, frames, gps=None):
    tids = sorted(landmarks)
    return Submap(
        submap_id=submap_id,
        experience_id=1,
        poses=dict(poses),
        landmark_positions=np.array([landmarks[t] for t in tids]),
        landmark_descriptors=np.zeros((len(tids), 0)),
        landmark_track_ids=np.array(tids),
        gps_priors={fid: np.concatenate([(gps or {}).get(fid, p.t), [5.0]]) for fid, p in poses.items()},
        member_ids=sorted(poses),
        augmented_ids=[],
        track_observations={t: [(t, frames[t].pixels[0].copy())] for t in tids},
    )


def one_submap_map(transform):
    poses, landmarks, frames, ids = scene()
    sm = submap_of(1, poses, landmarks, frames)
    gmap = GlobalMap(submaps={1: sm}, transforms={1: transform}, tile_size=100.0)
    return gmap, Truth(poses, ids), frames, landmarks


def test_identity_map_has_zero_errors():
    gmap, truth, frames, landmarks = one_submap_map(Sim3.identity())
    pos, rot = metrics.pose_errors(gmap, truth)
    assert np.all(pos == 0.0) and np.all(rot == 0.0)
    assert np.all(metrics.landmark_errors(gmap, truth, frames, landmarks) == 0.0)


def test_known_rotation_gives_its_angle():
    angle = np.deg2rad(3.0)
    turn = Sim3(so3.quat_from_rotvec([0.0, 0.0, angle]), np.zeros(3), 1.0)
    gmap, truth, frames, landmarks = one_submap_map(turn)
    pos, rot = metrics.pose_errors(gmap, truth)
    np.testing.assert_allclose(rot, 3.0, rtol=1e-9)
    expected = [np.linalg.norm(turn.apply(p.t) - p.t) for p in truth.poses.values()]
    np.testing.assert_allclose(pos, expected, rtol=1e-12)
    lm = metrics.landmark_errors(gmap, truth, frames, landmarks)
    np.testing.assert_allclose(lm, [np.linalg.norm(turn.apply(x) - x) for x in landmarks.values()], rtol=1e-12)


def test_recomputed_rmse_sees_a_pixel_offset():
    poses, landmarks, frames, _ = scene()
    sm = submap_of(1, poses, landmarks, frames)
    assert metrics.recomputed_rmse(sm, CAMERA) == pytest.approx(0.0, abs=1e-9)
    sm.track_observations = {t: [(f, px + [3.0, 4.0])] for t, [(f, px)] in sm.track_observations.items()}
    assert metrics.recomputed_rmse(sm, CAMERA) == pytest.approx(5.0, rel=1e-9)


def test_frames_per_s_counts_frames_of_every_fusion_call():
    poses_a, lm_a, frames_a, _ = scene(6, base_fid=0)
    poses_b, lm_b, frames_b, _ = scene(6, base_fid=4, x0=20.0)  # frames 4 and 5 shared
    a = submap_of(1, poses_a, lm_a, frames_a)
    b = submap_of(2, poses_b, lm_b, frames_b)
    ledger = metrics.Ledger()
    maps, account = fusion_calls(
        [
            ("fusion.build_global_map", build_global_map, lambda m: ([a],), False),
            ("fusion.update_map", update_map, lambda m: (m[0], [b]), True),
            ("fusion.remove_submaps", remove_submaps, lambda m: (m[1], [2]), True),
        ],
        Tracer(False),
        ledger,
    )
    assert [len(metrics.fused_frame_ids(m)) for m in maps] == [6, 10, 6]
    assert account.fused_frames == 6 + 10 + 6
    assert len(account.updates_s) == 2 and all(t > 0.0 for t in account.updates_s)
    assert (ledger.attempted, ledger.failed) == (3, 0)
    metrics.check_roundtrip(maps[0], maps[2])


def test_failed_subset_is_counted_with_its_reason():
    poses, _, frames, _ = scene(1)
    subset = FrameSubset(0, 1, sorted(poses))
    inputs = SimpleNamespace(frames_by_id=frames, camera=CAMERA)
    ledger = metrics.Ledger()
    submap, reasons = attempt_subset(subset, [], inputs, Tracer(False))
    ledger.record(reasons)
    assert submap is None
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert dict(ledger.reasons) == {"InsufficientOverlap: need at least two frames": 1}


def test_diverged_fusion_fails_it_and_every_later_call():
    def diverge(*_):
        raise SolverDiverged("fusion did not converge: max iterations reached")

    poses, landmarks, frames, _ = scene()
    ledger = metrics.Ledger()
    maps, account = fusion_calls(
        [
            ("fusion.build_global_map", build_global_map, lambda m: ([submap_of(1, poses, landmarks, frames)],), False),
            ("fusion.remove_submaps", diverge, lambda m: (m[0],), True),
            ("fusion.update_map", update_map, lambda m: (m[1], []), True),
        ],
        Tracer(False),
        ledger,
    )
    assert maps[1] is None and maps[2] is None
    assert (ledger.attempted, ledger.failed) == (3, 2)
    reason = "fusion.remove_submaps: SolverDiverged: fusion did not converge: max iterations reached"
    assert dict(ledger.reasons) == {reason: 1, f"not run: {reason}": 1}
    assert account.fused_frames == 4 and account.updates_s == []


def test_self_times_add_up_to_the_root():
    spans = [
        ["pass", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 6.0, 0],
    ]
    table = self_times(spans)
    assert table["pass"] == (10.0, 6.0, 1)
    assert table["a"] == (4.0, 3.0, 2)
    assert table["b"] == (1.0, 1.0, 1)
    assert sum(own for _, own, _ in table.values()) == pytest.approx(10.0)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(False)
    with tracer.span("x"):
        tracer.count("n")
    assert tracer.spans == [] and tracer.take_counts() == {}
