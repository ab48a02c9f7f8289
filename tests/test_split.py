"""Line-sweep splitting and augmentation checks."""

import numpy as np
import pytest

from cityvps.mapbuild import augment_subsets, split_experience
from cityvps.worldsim import Experience, Frame


def make_experience(positions, experience_id=1):
    """Experience stub with GPS at the given 2D positions, 1 s spacing."""
    frames = []
    for k, (x, y) in enumerate(positions):
        frames.append(
            Frame(
                frame_id=experience_id * 1_000_000 + k,
                experience_id=experience_id,
                timestamp=float(k),
                gps=np.array([x, y, 0.0, 0.0]),
                ins_gravity=np.array([0.0, 0.0, -1.0]),
                ins_rel_rot=np.array([1.0, 0.0, 0.0, 0.0]),
                pixels=np.zeros((0, 2)),
                descriptors=np.zeros((0, 16)),
                condition_value=0.0,
            )
        )
    return Experience(id=experience_id, frames=frames, condition_label="day", condition_value=0.0, platform="vehicle")


def sweep_oracle(positions, max_size, min_radius):
    """Straightforward re-statement of the sweep rules: grow by count, then
    extend until the bounding-circle radius reaches the minimum."""
    n = len(positions)
    pts = np.asarray(positions, dtype=float)
    boundaries = []
    start = 0
    while start < n:
        end = min(start + max_size, n)

        def radius(a, b):
            seg = pts[a:b]
            c = 0.5 * (seg.min(axis=0) + seg.max(axis=0))
            return np.linalg.norm(seg - c, axis=1).max()

        while end < n and radius(start, end) < min_radius:
            end += 1
        boundaries.append((start, end))
        if end >= n:
            break
        start = end
    return boundaries


class TestSplit:
    def test_small_cluster_single_subset(self):
        rng = np.random.default_rng(0)
        exp = make_experience(rng.uniform(0, 10, size=(5, 2)))
        subsets = split_experience(exp)
        assert len(subsets) == 1
        assert len(subsets[0].member_ids) == 5

    def test_long_line_three_subsets_with_overlap(self):
        # 2,500 frames over 500 m: 3 subsets, each <= 1,000 members,
        # consecutive subsets share frames through the overlap region.
        positions = [(0.2 * k, 0.0) for k in range(2500)]
        exp = make_experience(positions)
        subsets = split_experience(exp, max_size=1000)
        assert len(subsets) == 3
        for s in subsets:
            assert len(s.member_ids) <= 1000
        for a, b in zip(subsets[:-1], subsets[1:]):
            shared = set(a.member_ids) & set(b.all_ids())
            assert len(shared) >= 1

        oracle = sweep_oracle(positions, 1000, 20.0)
        assert len(oracle) == len(subsets)
        for (start, end), subset in zip(oracle, subsets):
            expected = {exp.frames[i].frame_id for i in range(start, end)}
            assert set(subset.member_ids) == expected

    def test_dense_blob_subsamples_to_limit(self):
        rng = np.random.default_rng(1)
        theta = rng.uniform(0, 2 * np.pi, size=5000)
        r = 15.0 * np.sqrt(rng.uniform(0, 1, size=5000))
        positions = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        exp = make_experience(positions)
        subsets = split_experience(exp, max_size=1000, seed=3)
        assert len(subsets) == 1
        assert len(subsets[0].member_ids) == 1000

    def test_partition_of_members(self):
        positions = [(0.5 * k, 0.0) for k in range(900)]
        exp = make_experience(positions)
        subsets = split_experience(exp, max_size=300)
        seen = {}
        for s in subsets:
            for fid in s.member_ids:
                assert fid not in seen, "member lists must partition the experience"
                seen[fid] = s.subset_id
        assert len(seen) == 900

    def test_member_radius_meets_minimum(self):
        positions = [(0.5 * k, 0.0) for k in range(900)]
        exp = make_experience(positions)
        for s in split_experience(exp, max_size=300):
            assert s.radius >= 20.0 or len(s.member_ids) == 900

    def test_empty_experience_rejected(self):
        with pytest.raises(ValueError):
            split_experience(make_experience([]))

    @pytest.mark.parametrize("max_size", [0, -3])
    def test_nonpositive_max_size_rejected(self, max_size):
        with pytest.raises(ValueError, match="max_size"):
            split_experience(make_experience([(k, 0.0) for k in range(10)]), max_size=max_size)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        positions = rng.uniform(0, 12, size=(3000, 2))
        exp = make_experience(positions)
        a = split_experience(exp, seed=11)
        b = split_experience(exp, seed=11)
        assert [s.member_ids for s in a] == [s.member_ids for s in b]


class TestAugment:
    def test_single_subset_unchanged(self):
        exp = make_experience([(k, 0.0) for k in range(30)])
        subsets = split_experience(exp)
        frames_by_id = {f.frame_id: f for f in exp.frames}
        before = list(subsets[0].augmented_ids)
        augment_subsets(subsets, frames_by_id, per_subset_budget=50, seed=0)
        assert subsets[0].augmented_ids == before

    def test_cross_experience_on_same_street(self):
        a = make_experience([(k, 0.0) for k in range(40)], experience_id=1)
        b = make_experience([(k, 1.0) for k in range(40)], experience_id=2)
        subsets = split_experience(a) + split_experience(b, subset_id_base=100)
        frames_by_id = {f.frame_id: f for f in a.frames + b.frames}
        augment_subsets(subsets, frames_by_id, per_subset_budget=50, seed=0)
        for s in subsets:
            other = 2 if s.experience_id == 1 else 1
            borrowed = [fid for fid in s.augmented_ids if frames_by_id[fid].experience_id == other]
            assert len(borrowed) >= 1

    def test_distant_experiences_not_mixed(self):
        a = make_experience([(k, 0.0) for k in range(40)], experience_id=1)
        b = make_experience([(5000.0 + k, 0.0) for k in range(40)], experience_id=2)
        subsets = split_experience(a) + split_experience(b, subset_id_base=100)
        frames_by_id = {f.frame_id: f for f in a.frames + b.frames}
        augment_subsets(subsets, frames_by_id, per_subset_budget=50, seed=0)
        for s in subsets:
            other = 2 if s.experience_id == 1 else 1
            assert not any(frames_by_id[fid].experience_id == other for fid in s.augmented_ids)

    def test_budget_respected_and_deterministic(self):
        a = make_experience([(k, 0.0) for k in range(60)], experience_id=1)
        b = make_experience([(k, 1.0) for k in range(60)], experience_id=2)
        frames_by_id = {f.frame_id: f for f in a.frames + b.frames}
        s1 = split_experience(a) + split_experience(b, subset_id_base=100)
        s2 = split_experience(a) + split_experience(b, subset_id_base=100)
        augment_subsets(s1, frames_by_id, per_subset_budget=5, seed=2)
        augment_subsets(s2, frames_by_id, per_subset_budget=5, seed=2)
        for x, y in zip(s1, s2):
            assert x.augmented_ids == y.augmented_ids
            assert len(x.augmented_ids) <= 10  # budget each for same + cross
