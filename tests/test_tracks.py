"""Track building: matching, gating, contamination behavior."""

import numpy as np
from scipy import stats

from cityvps.mapbuild import Track, build_tracks, split_experience
from cityvps.worldsim import (
    NoiseConfig,
    SimConfig,
    Street,
    WorldConfig,
    generate_world_from_streets,
    simulate_experience,
)
from cityvps.worldsim import Experience, Frame


def two_frame_setup(n_landmarks=20, dim=16, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n_landmarks, dim))
    frames = []
    for k in range(2):
        frames.append(
            Frame(
                frame_id=1_000_000 + k,
                experience_id=1,
                timestamp=float(k),
                gps=np.array([k * 5.0, 0.0, 0.0, 0.0]),
                ins_gravity=np.array([0.0, 0.0, -1.0]),
                ins_rel_rot=np.array([1.0, 0.0, 0.0, 0.0]),
                pixels=rng.uniform(0, 640, size=(n_landmarks, 2)),
                descriptors=base.copy(),
                condition_value=0.0,
                landmark_ids=np.arange(n_landmarks),
            )
        )
    exp = Experience(id=1, frames=frames, condition_label="day", condition_value=0.0, platform="vehicle")
    return exp, {f.frame_id: f for f in frames}


def test_zero_noise_exact_tracks():
    exp, frames_by_id = two_frame_setup()
    subset = split_experience(exp)[0]
    tracks = build_tracks(subset, frames_by_id)
    assert len(tracks) == 20
    for t in tracks:
        assert len(t.observations) == 2


def street_experience(noise, seed=0, experience_id=1, condition_value=0.0):
    streets = {"main": Street("main", np.array([[0.0, 0.0], [150.0, 0.0]]), 12.0)}
    config = WorldConfig(extent_x=150.0, extent_y=100.0, street_spacing=100.0, landmarks_per_100m=40.0)
    world = generate_world_from_streets(streets, config, seed=7)
    exp = simulate_experience(
        world, ["main"], experience_id=experience_id, condition_value=condition_value,
        noise=noise, sim=SimConfig(speed=6.0), seed=seed,
    )
    return world, exp


def test_contaminated_descriptors():
    # Replace 10% of descriptors with random vectors: >= 95% of honest
    # tracks survive, and cross-landmark contamination stays below the
    # false-positive probability implied by the threshold geometry.
    sigma = 0.08
    noise = NoiseConfig(0.0, 1.0, sigma, 0.0, 200.0, 0.0, 0.4, 0.0)
    _, exp = street_experience(noise, seed=3)
    rng = np.random.default_rng(9)
    for f in exp.frames:
        n = f.n_observations
        bad = rng.random(n) < 0.10
        f.descriptors[bad] = rng.normal(size=(int(bad.sum()), f.descriptors.shape[1]))

    frames_by_id = {f.frame_id: f for f in exp.frames}
    subset = split_experience(exp)[0]
    threshold = 3.0 * sigma
    tracks = build_tracks(subset, frames_by_id, match_threshold=threshold)

    # Honest landmark ids observable in >= 2 frames with clean descriptors.
    contaminated = 0
    recovered_ids = set()
    for t in tracks:
        ids = {int(frames_by_id[fid].landmark_ids[oi]) for fid, oi in t.observations}
        if len(ids) > 1:
            contaminated += 1
        else:
            recovered_ids.add(ids.pop())
    all_ids: dict = {}
    for f in exp.frames:
        for i, lid in enumerate(f.landmark_ids):
            all_ids.setdefault(int(lid), 0)
            all_ids[int(lid)] += 1
    honest = {lid for lid, cnt in all_ids.items() if cnt >= 2}
    assert len(recovered_ids & honest) / len(honest) >= 0.90

    # Threshold geometry: two independent N(0, I_d) descriptors land within
    # `threshold` with probability P(chi2_d < threshold^2 / 2).
    dim = exp.frames[0].descriptors.shape[1]
    p_fp = stats.chi2.cdf(threshold**2 / 2.0, df=dim)
    n_pairs = sum(f.n_observations for f in exp.frames) ** 2
    assert contaminated <= max(1.0, n_pairs * p_fp)


def test_no_cross_condition_tracks():
    # An offset of 3 sigma lands exactly on the matching threshold; the
    # deterministic gating claim needs the offset strictly past it.
    sigma = 0.08
    noise = NoiseConfig(0.0, 0.0, sigma, 0.0, 200.0, 0.0, 4.0 * sigma, 0.0)
    _, day = street_experience(noise, seed=3, experience_id=1, condition_value=0.0)
    _, night = street_experience(noise, seed=4, experience_id=2, condition_value=1.0)
    frames_by_id = {f.frame_id: f for f in day.frames + night.frames}

    subset = split_experience(day)[0]
    subset.augmented_ids.extend(f.frame_id for f in night.frames)
    tracks = build_tracks(subset, frames_by_id, match_threshold=3.0 * sigma)
    for t in tracks:
        conditions = {frames_by_id[fid].condition_value for fid, _ in t.observations}
        assert len(conditions) == 1


def test_track_observation_uniqueness_per_frame():
    _, exp = street_experience(NoiseConfig.zero(), seed=5)
    frames_by_id = {f.frame_id: f for f in exp.frames}
    subset = split_experience(exp)[0]
    for t in build_tracks(subset, frames_by_id):
        fids = [fid for fid, _ in t.observations]
        assert len(fids) == len(set(fids))


def reference_tracks(subset, frames_by_id, match_threshold, gating_radius=60.0):
    """Tracks from one descriptor match per frame pair and row, chained by union-find.

    The per-pair, per-row formulation that build_tracks batches: frame pairs
    gated one distance at a time, mutual nearest neighbours found row by row.
    """
    frame_ids = [fid for fid in subset.all_ids() if fid in frames_by_id]
    offsets, total = {}, 0
    for fid in frame_ids:
        offsets[fid] = total
        total += frames_by_id[fid].n_observations
    parent = list(range(total))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, fa in enumerate(frame_ids):
        for fb in frame_ids[i + 1 :]:
            a, b = frames_by_id[fa], frames_by_id[fb]
            if np.linalg.norm(a.gps[:2] - b.gps[:2]) >= gating_radius or not a.n_observations or not b.n_observations:
                continue
            da, db = a.descriptors, b.descriptors
            d2 = np.maximum((da * da).sum(axis=1)[:, None] + (db * db).sum(axis=1)[None, :] - 2.0 * da @ db.T, 0.0)
            nn_ab, nn_ba = np.argmin(d2, axis=1), np.argmin(d2, axis=0)
            for ia, ib in enumerate(nn_ab):
                if nn_ba[ib] == ia and d2[ia, ib] <= match_threshold * match_threshold:
                    ra, rb = find(offsets[fa] + ia), find(offsets[fb] + int(ib))
                    parent[max(ra, rb)] = min(ra, rb)

    components: dict = {}
    for fid in frame_ids:
        for oi in range(frames_by_id[fid].n_observations):
            components.setdefault(find(offsets[fid] + oi), []).append((fid, oi))
    tracks = []
    for root in sorted(components):
        fids = [fid for fid, _ in components[root]]
        observations = sorted((fid, oi) for fid, oi in components[root] if fids.count(fid) == 1)
        if len(observations) >= 2:
            tracks.append(Track(track_id=len(tracks), observations=observations))
    return tracks


def test_batched_matching_equals_per_pair_reference():
    # Two noisy experiences of one street, a tenth of their descriptors
    # replaced by random ones. In three nearby frames A, B, C, four
    # descriptors are then set so that a1 matches b1, b2 matches c1 and c1
    # matches a1: their component holds two observations of frame B, which
    # must be evicted from it.
    sigma = 0.08
    noise = NoiseConfig(gps_sigma=2.0, descriptor_sigma=sigma, canyon_amplitude=0.0)
    _, day = street_experience(noise, seed=3, experience_id=1)
    _, again = street_experience(noise, seed=4, experience_id=2)
    rng = np.random.default_rng(5)
    for f in day.frames + again.frames:
        bad = rng.random(f.n_observations) < 0.10
        f.descriptors[bad] = rng.normal(size=(int(bad.sum()), f.descriptors.shape[1]))
    a, b, c = day.frames[4:7]
    u = 3.0 * rng.normal(size=a.descriptors.shape[1])
    d = np.zeros_like(u)
    d[0] = 0.05
    a.descriptors[0], b.descriptors[0], b.descriptors[1], c.descriptors[0] = u + d, u + d, u - d, u - d
    frames_by_id = {f.frame_id: f for f in day.frames + again.frames}
    subset = split_experience(day)[0]
    subset.augmented_ids.extend(f.frame_id for f in again.frames[::2])

    threshold = 3.0 * sigma
    tracks = build_tracks(subset, frames_by_id, match_threshold=threshold)
    reference = reference_tracks(subset, frames_by_id, threshold)
    assert tracks == reference
    assert [(a.frame_id, 0), (c.frame_id, 0)] in [t.observations for t in tracks]
    observed = {obs for t in tracks for obs in t.observations}
    assert (b.frame_id, 0) not in observed and (b.frame_id, 1) not in observed
    experiences = [{frames_by_id[fid].experience_id for fid, _ in t.observations} for t in tracks]
    assert sum(len(e) == 2 for e in experiences) > 50
