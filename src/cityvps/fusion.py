"""Fusion of verified submaps into one geo-aligned global map.

Each submap gets a similarity transform that turns it about +z only:
p -> s R_z(yaw) p + t, four degrees of freedom. Bundle adjustment's gravity
rows have already levelled every submap, so its roll and pitch are known
and fusion leaves them alone, as the 4-DoF pose graph of Qin et al.,
"VINS-Mono" (T-RO 2018) does. The joint objective couples submaps through
the positions of frames reconstructed in more than one of them and anchors
everything to the GPS priors of the reconstructed frames.

One constructor assembles a fusion problem: ``_FusionProblem(submaps)``
takes the submaps it fuses and builds its link pairs (``collect_links``),
its GPS rows (``_gps_rows``) and, in ``start()``, each submap's starting
transform: the closed-form yaw, shift and scale of its camera positions
onto its GPS fixes (``umeyama_yaw``, bundle adjustment's gauge rule),
which is the identity for a submap with one fix or none. The objective is
a sum of independent terms over the connected components of the link
graph (submaps joined by shared frames), so ``fuse`` makes one problem per
component and solves it by Levenberg-Marquardt from its start, and makes
one more of all the submaps for the report.

Each submap turns and scales about its own camera centroid c_k: the solver
sees fused = s R_z (p - c_k) + t', and ``pack``/``unpack`` convert to and
from the transform p -> s R_z p + t with t = t' - s R_z c_k. Turned about
the world origin, hundreds of metres away, a yaw step would move a submap
almost as a translation step does, and LM would crawl along that
near-degenerate direction (Triggs et al., "Bundle Adjustment - A Modern
Synthesis", 1999, on gauge and parameterisation).

So the map is a function of its submaps alone: the tile size and the
iteration budget are module constants, and each GPS fix is weighted by
``sfm.gps_weight``, as in bundle adjustment. Building, updating and
removing edit the set of submaps and fuse it afresh. A component that an
update does not touch is solved again from the same inputs and gets the
same transforms bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose, Sim3, solve_least_squares, umeyama_yaw
from .geometry.graph import components
from .mapbuild.sfm import gps_weight
from .mapbuild.types import SolverDiverged, Submap


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
    """Residuals/Jacobian over stacked [yaw, t', log s] per submap.

    Built from the submaps it fuses, in id order. A submap's fused position
    of p is s R_z(yaw) (p - c_k) + t', about its camera centroid c_k
    (``pack``, ``unpack``). Bundle adjustment's gravity rows have already
    levelled each submap, so only a turn about +z, a shift and a scale are
    left to fuse. Per pair of submaps sharing a frame (``collect_links``):
    the difference of the frame's fused positions. Per GPS-anchored frame
    after all pairs (``_gps_rows``): ``sqrt(w) * (fused position - gps)``.
    Every row is one of a 3-row point block.
    """

    def __init__(self, submaps):
        submaps = sorted(submaps, key=lambda s: s.submap_id)
        self.ids = [sm.submap_id for sm in submaps]
        self.n = len(self.ids)
        index = {sid: i for i, sid in enumerate(self.ids)}
        pairs = [
            (index[sk], index[sl], pk.t, pl.t, link.frame_id)
            for link in collect_links(submaps)
            for (sk, pk), (sl, pl) in itertools.combinations(link.entries, 2)
        ]
        gps = [(index[sid], pos, xyz, sw) for sid, pos, xyz, sw in _gps_rows(submaps)]

        def column(rows, k, shape, dtype=float):
            return np.array([row[k] for row in rows], dtype=dtype).reshape(shape)

        self.pair_k, self.pair_l = column(pairs, 0, -1, int), column(pairs, 1, -1, int)
        self.pos_k, self.pos_l = column(pairs, 2, (-1, 3)), column(pairs, 3, (-1, 3))
        self.pair_frames = [row[4] for row in pairs]
        self.gps_idx = column(gps, 0, -1, int)
        self.gps_cams, self.gps_xyz = column(gps, 1, (-1, 3)), column(gps, 2, (-1, 3))
        self.gps_sw = column(gps, 3, -1)
        # Each submap turns and scales about its camera centroid c_k;
        # start() fits the uncentred positions of the fixes, gps_cams.
        self.centroids = np.array([sm.positions().mean(axis=0) for sm in submaps]).reshape(-1, 3)
        self.pos_k -= self.centroids[self.pair_k]
        self.pos_l -= self.centroids[self.pair_l]
        self.gps_pos = self.gps_cams - self.centroids[self.gps_idx]

    def start(self) -> dict:
        """{submap_id: Sim3}: each submap's camera positions aligned onto its GPS fixes.

        ``umeyama_yaw`` of its own positions, uncentred, under the GPS
        weights: bundle adjustment's gauge rule. A submap with one fix or
        none starts at the identity.
        """
        transforms = {}
        for i, sid in enumerate(self.ids):
            mine = self.gps_idx == i
            transforms[sid] = umeyama_yaw(self.gps_cams[mine], self.gps_xyz[mine], self.gps_sw[mine] ** 2)
        return transforms

    def pack(self, transforms: dict) -> np.ndarray:
        """Parameters [yaw, t + s R_z c_k, log s] of each submap's transform p -> s R_z p + t."""
        fits = [transforms[sid] for sid in self.ids]
        x = np.array([[2.0 * np.arctan2(g.q[3], g.q[0]), *g.t, np.log(g.s)] for g in fits]).reshape(self.n, 5)
        x[:, 1:4] += self._turned(x, np.arange(self.n), self.centroids)
        return x.ravel()

    def unpack(self, x) -> dict:
        x = np.reshape(x, (self.n, 5)).copy()
        x[:, 1:4] -= self._turned(x, np.arange(self.n), self.centroids)
        return {
            sid: Sim3([np.cos(0.5 * yaw), 0.0, 0.0, np.sin(0.5 * yaw)], t, np.exp(log_s))
            for sid, (yaw, *t, log_s) in zip(self.ids, x)
        }

    def _turned(self, x, idx, arms):
        """s R_z(yaw) a for each arm a, by the parameters of submap idx."""
        x = np.reshape(x, (self.n, 5))[idx]
        c, s = np.cos(x[:, 0]), np.sin(x[:, 0])
        ax, ay, az = arms.T
        return np.exp(x[:, 4])[:, None] * np.column_stack([c * ax - s * ay, s * ax + c * ay, az])

    def offsets(self, x):
        """Fused position differences per pair and fused minus GPS position per fix."""
        t = np.reshape(x, (self.n, 5))[:, 1:4]

        def fused(idx, arms):
            return self._turned(x, idx, arms) + t[idx]

        links = fused(self.pair_k, self.pos_k) - fused(self.pair_l, self.pos_l)
        return links, fused(self.gps_idx, self.gps_pos) - self.gps_xyz

    def residuals(self, x):
        links, gps = self.offsets(x)
        return np.concatenate([links.ravel(), (self.gps_sw[:, None] * gps).ravel()])

    def jacobian(self, x):
        n_pairs = len(self.pair_k)
        jac = np.zeros((3 * n_pairs + 3 * len(self.gps_idx), 5 * self.n))

        def point_blocks(rows, idx, arms, weight):
            # d/d[yaw, t', log s] of weight * (s R_z a + t'), one 3-row block per point.
            r = rows[:, None] + np.arange(3)
            c = 5 * idx[:, None]
            turned = weight[:, None] * self._turned(x, idx, arms)
            jac[r[:, :2], c] = np.column_stack([-turned[:, 1], turned[:, 0]])
            jac[r, c + 1 + np.arange(3)] = weight[:, None]
            jac[r, c + 4] = turned

        link_rows = 3 * np.arange(n_pairs)
        point_blocks(link_rows, self.pair_k, self.pos_k, np.ones(n_pairs))
        point_blocks(link_rows, self.pair_l, self.pos_l, -np.ones(n_pairs))
        point_blocks(3 * n_pairs + 3 * np.arange(len(self.gps_idx)), self.gps_idx, self.gps_pos, self.gps_sw)
        return jac


def fuse(submaps):
    """Jointly estimate one Sim3 per submap, turned about +z only; returns (transforms, report).

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
