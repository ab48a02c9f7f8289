"""Line-sweep experience splitting and cross-experience augmentation.

Frames are swept in capture order over their 2D GPS positions. A subset
grows until it holds `max_size` frames; if its GPS span is still below the
minimum radius ``MIN_RADIUS`` at that point, the sweep keeps extending the
region and the members are randomly sub-sampled back down to `max_size`.
Each new subset starts at the previous subset's boundary; the frames within
``OVERLAP`` meters before it are carried as augmented (borrowed) frames, so
member lists stay a partition of the experience.
"""

from __future__ import annotations

import numpy as np

from .types import FrameSubset

DEFAULT_MAX_SIZE = 1000
MIN_RADIUS = 20.0  # m
OVERLAP = 20.0  # m


def _circle(points: np.ndarray):
    """Center and circumscribed radius of 2D points (bounding-box center)."""
    center = 0.5 * (points.min(axis=0) + points.max(axis=0))
    radius = float(np.linalg.norm(points - center, axis=1).max())
    return center, radius


def split_experience(
    experience,
    max_size: int = DEFAULT_MAX_SIZE,
    seed: int = 0,
    subset_id_base: int = 0,
) -> list:
    """Split one experience into spatially contiguous frame subsets."""
    frames = experience.frames
    if not frames:
        raise ValueError("cannot split an empty experience")
    if max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    rng = np.random.default_rng([seed, experience.id])
    gps = np.array([f.gps[:2] for f in frames])
    ids = [f.frame_id for f in frames]
    n = len(frames)

    subsets = []
    start = 0
    prev_overlap_ids: list = []
    while start < n:
        # Grow by count first.
        end = min(n, start + max_size)
        # Keep extending the region until the minimum radius is met (the
        # experience may simply be shorter).
        _, radius = _circle(gps[start:end])
        while end < n and radius < MIN_RADIUS:
            end += 1
            _, radius = _circle(gps[start:end])
        span = end - start
        if span > max_size:
            chosen = np.sort(rng.choice(span, size=max_size, replace=False)) + start
        else:
            chosen = np.arange(start, end)
        member_ids = [ids[i] for i in chosen]
        center, radius = _circle(gps[chosen])
        subsets.append(
            FrameSubset(
                subset_id=subset_id_base + len(subsets),
                experience_id=experience.id,
                member_ids=member_ids,
                augmented_ids=list(prev_overlap_ids),
                center=center,
                radius=radius,
            )
        )
        if end >= n:
            break
        # Next subset starts right at the boundary; frames within OVERLAP
        # meters before it ride along as augmented frames.
        boundary = gps[end - 1]
        k = end - 1
        overlap_ids = []
        while k >= start and np.linalg.norm(gps[k] - boundary) <= OVERLAP:
            overlap_ids.append(ids[k])
            k -= 1
        prev_overlap_ids = list(reversed(overlap_ids))
        start = end
    return subsets


def augment_subsets(subsets: list, frames_by_id: dict, per_subset_budget: int = 50, seed: int = 0) -> list:
    """Borrow frames from overlapping subsets, same and other experiences.

    Each subset gains up to `per_subset_budget` frames from spatially
    overlapping subsets of its own experience and the same budget again from
    other experiences whose subsets intersect its circle. Mutates the
    augmented_ids lists in place and returns the subsets.
    """
    rng = np.random.default_rng(seed)
    order = sorted(range(len(subsets)), key=lambda i: subsets[i].subset_id)
    for i in order:
        sub = subsets[i]
        have = set(sub.member_ids) | set(sub.augmented_ids)
        same_pool = []
        cross_pool = []
        for j in order:
            if i == j:
                continue
            other = subsets[j]
            gap = float(np.linalg.norm(sub.center - other.center))
            if gap > sub.radius + other.radius:
                continue
            pool = same_pool if other.experience_id == sub.experience_id else cross_pool
            for fid in other.member_ids:
                if fid in have:
                    continue
                frame = frames_by_id.get(fid)
                if frame is None:
                    continue
                # Only frames inside this subset's circle are useful.
                if np.linalg.norm(frame.gps[:2] - sub.center) <= max(sub.radius, 1.0) + 5.0:
                    pool.append(fid)
        for pool in (same_pool, cross_pool):
            pool = sorted(set(pool))
            if not pool:
                continue
            take = min(per_subset_budget, len(pool))
            chosen = rng.choice(len(pool), size=take, replace=False)
            for c in np.sort(chosen):
                fid = pool[int(c)]
                if fid not in have:
                    sub.augmented_ids.append(fid)
                    have.add(fid)
    return subsets
