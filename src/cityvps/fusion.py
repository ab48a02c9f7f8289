"""Rigid fusion of verified submaps into one geo-aligned global map.

Each submap gets a 7DoF similarity transform. The joint objective couples
submaps through frames reconstructed in more than one of them (position
difference plus a rotation-consistency term) and anchors everything to the
GPS priors of the reconstructed frames.

One constructor assembles a fusion problem: ``_FusionProblem(submaps)``
takes the submaps it fuses and builds its link pairs (``collect_links``),
its GPS rows (``_gps_rows``) and, in ``start()``, each submap's starting
transform: the closed-form alignment of its camera positions onto its GPS
fixes, or the identity when it has fewer than three. The objective is a
sum of independent terms over the connected components of the link graph
(submaps joined by shared frames), so ``fuse`` makes one problem per
component and solves it by Levenberg-Marquardt from its start, and makes
one more of all the submaps for the report.

Each submap turns and scales about its own camera centroid c_k: the solver
sees fused = s R (p - c_k) + t', and ``pack``/``unpack`` convert to and from
the transform p -> s R p + t with t = t' - s R c_k. Turned about the world
origin, hundreds of metres away, a rotation step would move a submap almost
as a translation step does, and LM would crawl along that near-degenerate
direction (Triggs et al., "Bundle Adjustment - A Modern Synthesis", 1999,
on gauge and parameterisation). What remains is
the roll of a submap about its own street, which nothing but GPS noise
pins: along it the cost is nearly flat, so where the solver's stop on small
relative cost decrease ends sets the fused roll and with it the map's
orientation error. An orientation term that anchors roll to gravity would
remove that mode.

So the map is a function of its submaps alone: the weights, the tile size
and the iteration budget are module constants, and each GPS fix is weighted
by ``sfm.gps_weight``, as in bundle adjustment. Building, updating and
removing edit the set of submaps and fuse it afresh. A component that an
update does not touch is solved again from the same inputs and gets the
same transforms bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose, Sim3, batch_skew, so3, solve_least_squares, umeyama
from .geometry.graph import components
from .mapbuild.sfm import gps_weight
from .mapbuild.types import SolverDiverged, Submap


ROTATION_WEIGHT = 1.0  # meters of residual per radian of disagreement
TILE_SIZE = 100.0  # m, side of a geo tile
BOUNDING_MARGIN = 20.0  # m added to a submap's bounding circle
# Each component is solved by Levenberg-Marquardt from the GPS alignment
# until the relative cost decrease falls below the solver's tolerance;
# running out of this budget first raises SolverDiverged.
MAX_ITERATIONS = 150


class UnknownSubmap(KeyError):
    """Operation referenced a submap id that is not in the map."""


@dataclass
class SharedFrameLink:
    frame_id: int
    entries: list  # (submap_id, Pose of the frame in that submap)


@dataclass
class FusionReport:
    final_cost: float = 0.0
    iterations: int = 0
    link_displacements: dict = field(default_factory=dict)  # frame_id -> meters
    mean_gps_residual: float = float("nan")
    mean_link_displacement: float = float("nan")


@dataclass
class GlobalMap:
    submaps: dict  # id -> Submap (built and verified only)
    transforms: dict  # id -> Sim3
    tile_size: float
    tiles: dict = field(default_factory=dict)  # (ix, iy) -> sorted submap ids
    report: FusionReport = field(default_factory=FusionReport)

    def submap_ids(self):
        return sorted(self.submaps)

    def global_pose(self, submap_id: int, frame_id: int) -> Pose:
        return self.transforms[submap_id].apply_pose(self.submaps[submap_id].poses[frame_id])


def collect_links(submaps) -> list:
    """One link per frame reconstructed in two or more submaps."""
    by_frame: dict = {}
    for sm in sorted(submaps, key=lambda s: s.submap_id):
        for fid in sorted(sm.poses):
            by_frame.setdefault(fid, []).append((sm.submap_id, sm.poses[fid]))
    return [
        SharedFrameLink(fid, entries)
        for fid, entries in sorted(by_frame.items())
        if len(entries) >= 2
    ]


def link_components(submap_ids, links) -> list:
    """Connected components of the link graph as sorted id tuples, in id order."""
    ids = sorted(submap_ids)
    index = {sid: i for i, sid in enumerate(ids)}
    heads, tails = [], []
    for link in links:
        members = [index[sid] for sid, _ in link.entries if sid in index]
        heads += members[:1] * (len(members) - 1)
        tails += members[1:]
    groups: dict = {}
    for sid, label in zip(ids, components(len(ids), heads, tails).tolist()):
        groups.setdefault(label, []).append(sid)
    return [tuple(g) for g in groups.values()]


def _gps_rows(submaps):
    """(submap_id, position_in_submap, gps_xyz, sqrt_weight) per anchored frame."""
    rows = []
    for sm in sorted(submaps, key=lambda s: s.submap_id):
        for fid in sorted(sm.poses):
            prior = sm.gps_priors.get(fid)
            if prior is None:
                continue
            sqrt_w = np.sqrt(gps_weight(prior[3]))
            rows.append((sm.submap_id, sm.poses[fid].t, np.asarray(prior[:3], dtype=float), sqrt_w))
    return rows


class _FusionProblem:
    """Residuals/Jacobian over stacked [rotvec, t', log s] per submap.

    Built from the submaps it fuses, in id order. A submap's fused position
    of p is s R (p - c_k) + t', about its camera centroid c_k (``pack``,
    ``unpack``). Per pair of submaps
    sharing a frame (``collect_links``): the difference of the frame's
    fused positions, then ``ROTATION_WEIGHT`` times the log of the relative
    rotation of its fused orientations. Per GPS-anchored frame after all
    pairs (``_gps_rows``): ``sqrt(w) * (fused position - gps)``.
    """

    def __init__(self, submaps):
        submaps = sorted(submaps, key=lambda s: s.submap_id)
        self.ids = [sm.submap_id for sm in submaps]
        self.n = len(self.ids)
        index = {sid: i for i, sid in enumerate(self.ids)}
        pairs = [
            (index[sk], index[sl], pk.t, pl.t, pk.rotation, pl.rotation, link.frame_id)
            for link in collect_links(submaps)
            for (sk, pk), (sl, pl) in itertools.combinations(link.entries, 2)
        ]
        gps = [(index[sid], pos, xyz, sw) for sid, pos, xyz, sw in _gps_rows(submaps)]

        def column(rows, k, shape, dtype=float):
            return np.array([row[k] for row in rows], dtype=dtype).reshape(shape)

        self.pair_k, self.pair_l = column(pairs, 0, -1, int), column(pairs, 1, -1, int)
        self.pos_k, self.pos_l = column(pairs, 2, (-1, 3)), column(pairs, 3, (-1, 3))
        self.rot_k, self.rot_l = column(pairs, 4, (-1, 3, 3)), column(pairs, 5, (-1, 3, 3))
        self.pair_frames = [row[6] for row in pairs]
        self.gps_idx = column(gps, 0, -1, int)
        self.gps_pos, self.gps_xyz = column(gps, 1, (-1, 3)), column(gps, 2, (-1, 3))
        self.gps_sw = column(gps, 3, -1)
        # Each submap turns and scales about its camera centroid c_k.
        self.centroids = np.array([sm.positions().mean(axis=0) for sm in submaps]).reshape(-1, 3)
        self.pos_k -= self.centroids[self.pair_k]
        self.pos_l -= self.centroids[self.pair_l]
        self.gps_pos -= self.centroids[self.gps_idx]

    def start(self) -> dict:
        """{submap_id: Sim3}: each submap's camera positions aligned onto its GPS fixes.

        The closed-form ``umeyama`` alignment of a submap's centred
        positions when it has three or more fixes; the identity for one
        with fewer.
        """
        transforms = {}
        for i, sid in enumerate(self.ids):
            mine = self.gps_idx == i
            if np.count_nonzero(mine) >= 3:
                fit = umeyama(self.gps_pos[mine], self.gps_xyz[mine], with_scale=True)
                transforms[sid] = Sim3(fit.q, fit.t - fit.s * fit.rotation @ self.centroids[i], fit.s)
            else:
                transforms[sid] = Sim3.identity()
        return transforms

    def pack(self, transforms: dict) -> np.ndarray:
        """Parameters [rotvec, t + s R c_k, log s] of each submap's transform p -> s R p + t."""
        x = np.concatenate([transforms[sid].params() for sid in self.ids]).reshape(self.n, 7)
        x[:, 3:6] += np.exp(x[:, 6:]) * np.einsum("nij,nj->ni", self._rotations(x), self.centroids)
        return x.ravel()

    def unpack(self, x) -> dict:
        x = np.reshape(x, (self.n, 7)).copy()
        x[:, 3:6] -= np.exp(x[:, 6:]) * np.einsum("nij,nj->ni", self._rotations(x), self.centroids)
        return {sid: Sim3.from_params(x[i]) for i, sid in enumerate(self.ids)}

    def _rotations(self, x):
        return np.array([so3.exp(v) for v in np.reshape(x, (self.n, 7))[:, :3]])

    def offsets(self, x, rots=None):
        """Fused position differences per pair and fused minus GPS position per fix."""
        if rots is None:
            rots = self._rotations(x)
        x = np.reshape(x, (self.n, 7))

        def fused(idx, pts):
            return np.exp(x[idx, 6])[:, None] * np.einsum("nij,nj->ni", rots[idx], pts) + x[idx, 3:6]

        links = fused(self.pair_k, self.pos_k) - fused(self.pair_l, self.pos_l)
        return links, fused(self.gps_idx, self.gps_pos) - self.gps_xyz

    def residuals(self, x):
        rots = self._rotations(x)
        links, gps = self.offsets(x, rots)
        q = rots[self.pair_k] @ self.rot_k @ np.swapaxes(rots[self.pair_l] @ self.rot_l, 1, 2)
        rot = ROTATION_WEIGHT * np.array([so3.log(m) for m in q]).reshape(-1, 3)
        return np.concatenate([np.hstack([links, rot]).ravel(), (self.gps_sw[:, None] * gps).ravel()])

    def jacobian(self, x):
        rots = self._rotations(x)
        xs = np.reshape(x, (self.n, 7))
        jrs = np.array([so3.right_jacobian(v) for v in xs[:, :3]])
        n_pairs = len(self.pair_k)
        jac = np.zeros((6 * n_pairs + 3 * len(self.gps_idx), 7 * self.n))

        def point_blocks(rows, idx, pts, weight):
            # d/d[rotvec, t, log s] of weight * (s R p + t), one 3-row block per point.
            r = rows[:, None] + np.arange(3)
            c = 7 * idx[:, None]
            ws = weight * np.exp(xs[idx, 6])
            jac[r[:, :, None], c[:, :, None] + np.arange(3)] = (
                -ws[:, None, None] * rots[idx] @ batch_skew(pts) @ jrs[idx]
            )
            jac[r, c + 3 + np.arange(3)] = weight[:, None]
            jac[r, c + 6] = ws[:, None] * np.einsum("nij,nj->ni", rots[idx], pts)

        link_rows = 6 * np.arange(n_pairs)
        point_blocks(link_rows, self.pair_k, self.pos_k, np.ones(n_pairs))
        point_blocks(link_rows, self.pair_l, self.pos_l, -np.ones(n_pairs))
        point_blocks(6 * n_pairs + 3 * np.arange(len(self.gps_idx)), self.gps_idx, self.gps_pos, self.gps_sw)
        w = ROTATION_WEIGHT
        for row, ik, il, rk, rl in zip(link_rows + 3, self.pair_k, self.pair_l, self.rot_k, self.rot_l):
            y = rk @ (rots[il] @ rl).T  # Q = R_k Y with Y fixed by the frames
            jinv = so3.right_jacobian_inv(so3.log(rots[ik] @ y))
            jac[row : row + 3, 7 * ik : 7 * ik + 3] = w * jinv @ y.T @ jrs[ik]
            jac[row : row + 3, 7 * il : 7 * il + 3] = -w * jinv @ rots[il] @ jrs[il]
        return jac


def fuse(submaps):
    """Jointly estimate one Sim3 per submap; returns (transforms, report).

    The submaps are linked by the frames they share (``collect_links``).
    Each connected component of the link graph is its own
    ``_FusionProblem``, solved by Levenberg-Marquardt from its ``start()``,
    and its transforms are what the solver returns. The report describes
    the whole map; its ``iterations`` sum the solves' iterations.

    Raises SolverDiverged when a component's optimization fails to converge.
    """
    by_id = {sm.submap_id: sm for sm in submaps}
    if not by_id:
        return {}, FusionReport()
    transforms = {}
    iterations = 0
    for component in link_components(by_id, collect_links(by_id.values())):
        problem = _FusionProblem(by_id[sid] for sid in component)
        result = solve_least_squares(
            problem.residuals,
            problem.pack(problem.start()),
            jacobian=problem.jacobian,
            max_iterations=MAX_ITERATIONS,
        )
        if not result.converged:
            raise SolverDiverged(
                f"fusion did not converge: {result.termination.value} after {result.iterations} iterations"
            )
        transforms.update(problem.unpack(result.params))
        iterations += result.iterations
    return transforms, _fusion_report(_FusionProblem(by_id.values()), transforms, iterations)


def _fusion_report(problem: _FusionProblem, transforms: dict, iterations: int) -> FusionReport:
    """Cost, link displacements and GPS residuals of the whole map at `transforms`."""
    x = problem.pack(transforms)
    r = problem.residuals(x)
    links, gps = problem.offsets(x)
    report = FusionReport(final_cost=0.5 * float(r @ r), iterations=iterations)
    for fid, d in zip(problem.pair_frames, np.linalg.norm(links, axis=1)):
        report.link_displacements[fid] = max(report.link_displacements.get(fid, 0.0), float(d))
    if report.link_displacements:
        report.mean_link_displacement = float(np.mean(list(report.link_displacements.values())))
    if len(gps):
        report.mean_gps_residual = float(np.mean(np.linalg.norm(gps, axis=1)))
    return report


# ---------------------------------------------------------------------------
# Geo-tile index


def _circle_tiles(center, radius, tile_size):
    """All integer tiles whose square intersects the circle."""
    cx, cy = float(center[0]), float(center[1])
    ix0 = int(np.floor((cx - radius) / tile_size))
    ix1 = int(np.floor((cx + radius) / tile_size))
    iy0 = int(np.floor((cy - radius) / tile_size))
    iy1 = int(np.floor((cy + radius) / tile_size))
    tiles = []
    for ix in range(ix0, ix1 + 1):
        for iy in range(iy0, iy1 + 1):
            # distance from circle center to the tile square
            qx = min(max(cx, ix * tile_size), (ix + 1) * tile_size)
            qy = min(max(cy, iy * tile_size), (iy + 1) * tile_size)
            if (qx - cx) ** 2 + (qy - cy) ** 2 <= radius * radius:
                tiles.append((ix, iy))
    return tiles


def transformed_bounding_circle(submap: Submap, transform: Sim3, margin: float):
    pts = transform.apply_many(submap.positions())[:, :2]
    center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    radius = float(np.linalg.norm(pts - center, axis=1).max()) + margin
    return center, radius


def build_tile_index(submaps: dict, transforms: dict, tile_size: float, margin: float) -> dict:
    """(ix, iy) -> sorted ids of the submaps whose bounding circle meets that tile."""
    tiles: dict = {}
    for sid in sorted(submaps):
        center, radius = transformed_bounding_circle(submaps[sid], transforms[sid], margin)
        for key in _circle_tiles(center, radius, tile_size):
            tiles.setdefault(key, []).append(sid)
    for key in tiles:
        tiles[key] = sorted(tiles[key])
    return tiles


def _fused_map(submaps: dict) -> GlobalMap:
    """Fuse and tile-index `submaps`: the one way a GlobalMap is made."""
    transforms, report = fuse(list(submaps.values()))
    return GlobalMap(
        submaps=submaps,
        transforms=transforms,
        tile_size=TILE_SIZE,
        tiles=build_tile_index(submaps, transforms, TILE_SIZE, BOUNDING_MARGIN),
        report=report,
    )


def build_global_map(submaps) -> GlobalMap:
    """Fuse built submaps into a fresh GlobalMap (discarded ones rejected)."""
    usable = {sm.submap_id: sm for sm in submaps if sm.status == "built"}
    return _fused_map(usable)


def update_map(global_map: GlobalMap, new_submaps) -> GlobalMap:
    """Fuse new verified submaps into an existing map.

    With no new built submaps the map itself is returned. Otherwise a new
    submap is added, or replaces the map's submap of the same id, and the
    result is fused afresh: it equals ``build_global_map`` of the same
    submaps, bit for bit. A component that no new
    submap links to or replaces a member of keeps its transforms bit for
    bit.
    """
    new_submaps = [sm for sm in new_submaps if sm.status == "built"]
    if not new_submaps:
        return global_map
    merged = dict(global_map.submaps)
    for sm in new_submaps:
        merged[sm.submap_id] = sm
    return _fused_map(merged)


def remove_submaps(global_map: GlobalMap, ids) -> GlobalMap:
    """Drop submaps and fuse the remainder afresh.

    The result equals ``build_global_map`` of the remaining submaps, bit
    for bit, so components that lost nothing keep
    their transforms. Raises UnknownSubmap for an id not in the map.
    """
    ids = list(ids)
    for sid in ids:
        if sid not in global_map.submaps:
            raise UnknownSubmap(sid)
    dropped = set(ids)
    remaining = {sid: sm for sid, sm in global_map.submaps.items() if sid not in dropped}
    return _fused_map(remaining)
