"""Feature tracks from transitive descriptor matching."""

from __future__ import annotations

import numpy as np

from ..geometry.graph import components
from .types import Track

DEFAULT_MATCH_THRESHOLD = 0.24  # 3x default descriptor noise scale
GATING_RADIUS = 60.0  # m


def _mutual_matches(desc_a, sq_a, desc_b, sq_b, starts, threshold: float):
    """Mutual nearest neighbours within the threshold of frame a and each of several frames b.

    `desc_b` stacks the b frames' descriptors, frame k from row `starts[k]`
    on; every frame has at least one. `sq_a` and `sq_b` are squared
    descriptor norms. Returns (ia, jb): matched rows of `desc_a` and of
    `desc_b`.
    """
    # Squared distances via the expansion trick.
    d2 = sq_a[:, None] + sq_b[None, :] - 2.0 * desc_a @ desc_b.T
    np.maximum(d2, 0.0, out=d2)
    nn_ba = np.argmin(d2, axis=0)
    # Per frame b, the first column at its row minimum: np.argmin over each frame's columns.
    nearest = np.minimum.reduceat(d2, starts, axis=1)
    columns = np.arange(d2.shape[1])
    at_min = d2 == np.repeat(nearest, np.diff(starts, append=d2.shape[1]), axis=1)
    nn_ab = np.minimum.reduceat(np.where(at_min, columns, d2.shape[1]), starts, axis=1)
    ia, frame = np.nonzero((nn_ba[nn_ab] == np.arange(d2.shape[0])[:, None]) & (nearest <= threshold * threshold))
    return ia, nn_ab[ia, frame]


def build_tracks(
    subset,
    frames_by_id: dict,
    match_threshold: float = DEFAULT_MATCH_THRESHOLD,
) -> list:
    """Match descriptors between nearby frames and chain them into tracks.

    Frame pairs are matched only when their GPS distance is below
    ``GATING_RADIUS``. Components that end up with two observations in one frame are
    inconsistent; the offending frame's observations are evicted and the
    remainder kept when it still spans two frames. Tracks come in the order
    of their components' first observations (subset frame order, then
    observation index), each listing its observations sorted.
    """
    frame_ids = [fid for fid in subset.all_ids() if fid in frames_by_id]
    frames = [frames_by_id[fid] for fid in frame_ids]
    counts = np.array([frame.n_observations for frame in frames], dtype=np.intp)
    offsets = np.cumsum(counts) - counts
    total = int(counts.sum())
    if total == 0:
        return []
    squared = [(frame.descriptors * frame.descriptors).sum(axis=1) for frame in frames]
    positions = np.array([frame.gps[:2] for frame in frames])
    near = np.linalg.norm(positions[:, None] - positions[None], axis=2) < GATING_RADIUS
    near &= (counts > 0)[:, None] & (counts > 0)[None, :]
    # Each frame is matched against all its later near frames at once.
    ends_a, ends_b = [], []
    for i in range(len(frames)):
        partners = np.flatnonzero(near[i, i + 1 :]) + i + 1
        if partners.size == 0:
            continue
        starts = np.cumsum(counts[partners]) - counts[partners]
        ia, jb = _mutual_matches(
            frames[i].descriptors,
            squared[i],
            np.concatenate([frames[j].descriptors for j in partners]),
            np.concatenate([squared[j] for j in partners]),
            starts,
            match_threshold,
        )
        ends_a.append(offsets[i] + ia)
        # Row jb of the stack is observation jb - starts[k] of partner k.
        k = np.searchsorted(starts, jb, side="right") - 1
        ends_b.append(offsets[partners[k]] + jb - starts[k])
    none = [np.empty(0, dtype=np.intp)]
    ends_a, ends_b = np.concatenate(none + ends_a), np.concatenate(none + ends_b)
    # Components are labelled in the order of their lowest observation.
    component = components(total, ends_a, ends_b)

    # An observation's frame (position in frame_ids) and index within it.
    frame_of = np.repeat(np.arange(len(frames)), counts)
    index_of = np.arange(total) - np.repeat(offsets, counts)
    fid_of = np.array(frame_ids)[frame_of]
    # A frame seen twice in one component is evicted from it.
    _, pair, seen = np.unique(component * len(frames) + frame_of, return_inverse=True, return_counts=True)
    kept = seen[pair] == 1
    kept &= np.bincount(component[kept], minlength=total)[component] >= 2
    order = np.lexsort((index_of, fid_of, component))
    order = order[kept[order]]
    observations = list(zip(fid_of[order].tolist(), index_of[order].tolist()))
    bounds = np.flatnonzero(np.diff(component[order], prepend=-1)).tolist() + [order.shape[0]]
    return [Track(track_id=k, observations=observations[a:b]) for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))]
