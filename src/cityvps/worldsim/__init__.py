"""Synthetic worlds, experiences, and the ground-truth oracle."""

from .experience import (
    FRAME_ID_STRIDE,
    Experience,
    Frame,
    NoiseConfig,
    SimConfig,
    corrupt_observations,
    default_camera,
    simulate_experience,
)
from .oracle import Oracle, UnknownFrame
from .world import (
    BadConfig,
    Landmark,
    RouteNotInWorld,
    Street,
    World,
    WorldConfig,
    generate_world,
    generate_world_from_streets,
    route_path,
)

__all__ = [
    "BadConfig",
    "Landmark",
    "RouteNotInWorld",
    "Street",
    "World",
    "WorldConfig",
    "generate_world",
    "generate_world_from_streets",
    "route_path",
    "Experience",
    "Frame",
    "FRAME_ID_STRIDE",
    "NoiseConfig",
    "SimConfig",
    "default_camera",
    "simulate_experience",
    "corrupt_observations",
    "Oracle",
    "UnknownFrame",
]
