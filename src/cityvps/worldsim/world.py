"""Synthetic ground-truth worlds: street grids with facade landmarks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class Landmark:
    """3D localization landmark: world position, descriptor, unique id."""

    __slots__ = ("id", "position", "descriptor")

    def __init__(self, id, position, descriptor):
        self.id = int(id)
        self.position = np.asarray(position, dtype=float).reshape(3)
        self.descriptor = np.asarray(descriptor, dtype=float).ravel()

    def __repr__(self):
        return f"Landmark(id={self.id}, position={self.position.tolist()})"


class BadConfig(ValueError):
    """World generation parameters out of range."""


class RouteNotInWorld(KeyError):
    """Requested route references unknown or disconnected streets."""


@dataclass(frozen=True)
class Street:
    id: str
    polyline: np.ndarray  # (n, 2) centerline vertices, meters
    width: float

    def __post_init__(self):
        poly = np.asarray(self.polyline, dtype=float).reshape(-1, 2)
        poly.setflags(write=False)
        object.__setattr__(self, "polyline", poly)

    @property
    def length(self) -> float:
        return float(np.linalg.norm(np.diff(self.polyline, axis=0), axis=1).sum())


@dataclass(frozen=True)
class WorldConfig:
    extent_x: float = 1000.0
    extent_y: float = 1000.0
    street_spacing: float = 100.0
    street_width: float = 12.0
    landmarks_per_100m: float = 50.0
    landmark_height_range: tuple = (1.0, 8.0)
    descriptor_dim: int = 16

    def validate(self):
        if self.extent_x <= 0 or self.extent_y <= 0:
            raise BadConfig("extents must be positive")
        if self.street_spacing <= 0:
            raise BadConfig("street spacing must be positive")
        if self.landmarks_per_100m <= 0:
            raise BadConfig("landmark density must be positive")
        if self.street_width <= 0:
            raise BadConfig("street width must be positive")


@dataclass
class World:
    streets: dict
    landmarks: list
    seed: int
    config: WorldConfig
    # Unit direction per landmark id for condition-dependent descriptor
    # offsets; a pure function of (world, landmark id).
    condition_dirs: dict = field(default_factory=dict)
    # Phases of the smooth urban-canyon GPS bias field.
    bias_phases: np.ndarray = field(default_factory=lambda: np.zeros(4))

    def landmark_positions(self) -> np.ndarray:
        return np.array([lm.position for lm in self.landmarks])

    def landmark_descriptors(self) -> np.ndarray:
        return np.array([lm.descriptor for lm in self.landmarks])

    def condition_offset(self, landmark_id: int, condition_value: float, scale: float) -> np.ndarray:
        """Descriptor shift for a landmark seen under a visual condition.

        Linear in the condition value so repeated experiences in one
        condition always produce matchable descriptors.
        """
        return self.condition_dirs[landmark_id] * (condition_value * scale)

    def gps_bias(self, position, amplitude: float, wavelength: float = 200.0) -> np.ndarray:
        """Spatially correlated GPS offset (urban-canyon model)."""
        if amplitude == 0.0:
            return np.zeros(3)
        x, y = float(position[0]), float(position[1])
        p1, p2, p3, p4 = self.bias_phases
        k = 2.0 * np.pi / wavelength
        return amplitude * np.array(
            [
                np.sin(k * x + p1) * np.cos(k * y + p2),
                np.sin(k * y + p3) * np.cos(k * x + p4),
                0.3 * np.sin(k * (x + y) + p1 + p3),
            ]
        )


def _grid_streets(config: WorldConfig):
    streets = {}
    n_h = int(np.floor(config.extent_y / config.street_spacing)) + 1
    n_v = int(np.floor(config.extent_x / config.street_spacing)) + 1
    for i in range(n_h):
        y = i * config.street_spacing
        streets[f"h{i}"] = Street(f"h{i}", np.array([[0.0, y], [config.extent_x, y]]), config.street_width)
    for j in range(n_v):
        x = j * config.street_spacing
        streets[f"v{j}"] = Street(f"v{j}", np.array([[x, 0.0], [x, config.extent_y]]), config.street_width)
    return streets


def generate_world_from_streets(streets, config: WorldConfig, seed: int) -> World:
    """Place facade landmarks along both sides of the given streets."""
    config.validate()
    rng = np.random.default_rng(seed)
    landmarks = []
    condition_dirs = {}
    zmin, zmax = config.landmark_height_range
    next_id = 0
    for sid in sorted(streets):
        street = streets[sid]
        poly = street.polyline
        for a, b in zip(poly[:-1], poly[1:]):
            seg = b - a
            seg_len = float(np.linalg.norm(seg))
            if seg_len == 0.0:
                continue
            direction = seg / seg_len
            normal = np.array([-direction[1], direction[0]])
            count = int(round(config.landmarks_per_100m * seg_len / 100.0))
            for side in (-1.0, 1.0):
                offsets = rng.uniform(0.0, seg_len, size=count)
                offsets.sort()
                lateral = side * (street.width / 2.0) + rng.normal(0.0, 0.3, size=count)
                heights = rng.uniform(zmin, zmax, size=count)
                # Per landmark a descriptor, then a condition direction: one
                # block of draws reads the stream in that order.
                draws = rng.normal(0.0, 1.0, size=(count, 2, config.descriptor_dim))
                descriptors = draws[:, 0].copy()  # the landmarks keep no view of the directions
                xy = a + direction * offsets[:, None] + normal * lateral[:, None]
                positions = np.column_stack([xy, heights])
                for position, descriptor, dir_vec in zip(positions, descriptors, draws[:, 1]):
                    landmarks.append(Landmark(next_id, position, descriptor))
                    # np.linalg.norm of one vector, without its dispatch.
                    condition_dirs[next_id] = dir_vec / math.sqrt(dir_vec.dot(dir_vec))
                    next_id += 1
    bias_phases = rng.uniform(0.0, 2.0 * np.pi, size=4)
    return World(
        streets=dict(streets),
        landmarks=landmarks,
        seed=seed,
        config=config,
        condition_dirs=condition_dirs,
        bias_phases=bias_phases,
    )


def generate_world(config: WorldConfig, seed: int) -> World:
    """Deterministic street-grid world for a fixed config and seed."""
    config.validate()
    return generate_world_from_streets(_grid_streets(config), config, seed)


def _segment_intersection(a0, a1, b0, b1):
    """Intersection point of two 2D segments, or None."""
    d1 = a1 - a0
    d2 = b1 - b0
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(denom) < 1e-12:
        return None
    diff = b0 - a0
    t = (diff[0] * d2[1] - diff[1] * d2[0]) / denom
    u = (diff[0] * d1[1] - diff[1] * d1[0]) / denom
    if -1e-9 <= t <= 1.0 + 1e-9 and -1e-9 <= u <= 1.0 + 1e-9:
        return a0 + t * d1
    return None


def _polyline_intersection(poly_a, poly_b):
    for i in range(len(poly_a) - 1):
        for j in range(len(poly_b) - 1):
            pt = _segment_intersection(poly_a[i], poly_a[i + 1], poly_b[j], poly_b[j + 1])
            if pt is not None:
                return pt
    return None


def route_path(world: World, street_ids) -> np.ndarray:
    """Concatenated centerline polyline for a street sequence.

    Consecutive streets must intersect; each is traversed from the far side
    of its entry intersection toward the next one.
    """
    if not street_ids:
        raise RouteNotInWorld("empty route")
    for sid in street_ids:
        if sid not in world.streets:
            raise RouteNotInWorld(f"unknown street {sid!r}")
    polys = [world.streets[sid].polyline for sid in street_ids]
    if len(polys) == 1:
        return polys[0].copy()

    # Waypoints: start endpoint, pairwise intersections, end endpoint.
    waypoints = []
    first_cross = _polyline_intersection(polys[0], polys[1])
    if first_cross is None:
        raise RouteNotInWorld(f"{street_ids[0]!r} and {street_ids[1]!r} do not intersect")
    ends = [polys[0][0], polys[0][-1]]
    start = max(ends, key=lambda e: np.linalg.norm(e - first_cross))
    waypoints.append(start)
    prev_cross = first_cross
    for i in range(1, len(polys)):
        waypoints.append(prev_cross)
        if i == len(polys) - 1:
            ends = [polys[i][0], polys[i][-1]]
            exit_pt = max(ends, key=lambda e: np.linalg.norm(e - prev_cross))
            waypoints.append(exit_pt)
        else:
            nxt = _polyline_intersection(polys[i], polys[i + 1])
            if nxt is None:
                raise RouteNotInWorld(f"{street_ids[i]!r} and {street_ids[i+1]!r} do not intersect")
            prev_cross = nxt
    return np.array(waypoints)
