"""Benchmark inputs: worlds and experiences.

Every input is a function of the workload seed alone. The program under
test only ever sees the generated inputs.

- street-long is ROADMAP S-straight-100 placed at a seed-drawn geo offset.
  Its noise realisation stays that of the ROADMAP scenario: with other
  experience seeds one build of the same street takes anywhere from 5.5 to
  16.5 s and registers 71-87 frames, a spread no run length within the
  benchmark's budget can steady. Moving the whole scene leaves the
  reconstruction unchanged up to rounding, which the benchmark's runs check.
- city-turns is ROADMAP S-turn as it stands, independent of the seed, so
  that its four failing subsets fail on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from cityvps.worldsim import (
    NoiseConfig,
    Oracle,
    SimConfig,
    Street,
    WorldConfig,
    default_camera,
    generate_world,
    generate_world_from_streets,
    simulate_experience,
)

SIM = SimConfig(speed=6.0)
NOISE = NoiseConfig(canyon_amplitude=0.0)
GEO_OFFSET_M = 5000.0  # street-long offset range, each axis


@dataclass
class Inputs:
    """What one workload's passes run on, plus the truth they are judged by."""

    experiences: list
    frames_by_id: dict
    oracle: Oracle
    landmarks: dict  # world landmark id -> true position
    camera: object = field(default_factory=default_camera)


def _inputs(world, experiences) -> Inputs:
    return Inputs(
        experiences=experiences,
        frames_by_id={f.frame_id: f for e in experiences for f in e.frames},
        oracle=Oracle.from_experiences(experiences),
        landmarks={lm.id: lm.position for lm in world.landmarks},
    )


def street_long(seed: int, tracer) -> Inputs:
    offset = np.random.default_rng([seed, 0x57]).uniform(-GEO_OFFSET_M, GEO_OFFSET_M, size=2)
    with tracer.span("worldsim.simulate"):
        street = Street("s", np.array([[0.0, 0.0], [600.0, 0.0]]) + offset, 12.0)
        world = generate_world_from_streets({"s": street}, WorldConfig(landmarks_per_100m=40), seed=7)
        experience = simulate_experience(world, ["s"], experience_id=1, sim=SIM, noise=NOISE, seed=1)
    return _inputs(world, [experience])


def city_turns(seed: int, tracer) -> Inputs:
    del seed  # fixed inputs, see the module docstring
    with tracer.span("worldsim.simulate"):
        world = generate_world(WorldConfig(extent_x=400, extent_y=200, landmarks_per_100m=30), seed=3)
        experiences = [
            simulate_experience(world, ["h1", "v2", "h2"], experience_id=k, sim=SIM, noise=NOISE, seed=k)
            for k in (1, 2)
        ]
    return _inputs(world, experiences)


SETUPS = {"street-long": street_long, "city-turns": city_turns}
