"""Print a SHA-256 digest of the benchmark's simulated inputs.

    python tests/input_digest.py

Run it from anywhere in a source checkout: the program comes from its
``src`` and the inputs from ``perfbench.scenarios``. One line per input
(street-long seeds 1 and 2, and city-turns), each the digest of every
``Frame`` array of every experience in order: gps, ins_gravity,
ins_rel_rot, pixels, descriptors, landmark_ids and the true pose's q and
t, each preceded by its name, dtype and shape. Two commits whose lines are
equal simulate byte-identical inputs.
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.scenarios import SETUPS  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

INPUTS = (("street-long", 1), ("street-long", 2), ("city-turns", 1))
FIELDS = ("gps", "ins_gravity", "ins_rel_rot", "pixels", "descriptors", "landmark_ids")


def frame_arrays(frame):
    """(name, array) of every array a frame carries."""
    yield from ((name, getattr(frame, name)) for name in FIELDS)
    yield "q", frame.true_pose.q
    yield "t", frame.true_pose.t


def digest(experiences) -> str:
    h = hashlib.sha256()
    for experience in experiences:
        for frame in experience.frames:
            for name, array in frame_arrays(frame):
                h.update(f"{name} {array.dtype.str} {array.shape}\n".encode())
                h.update(array.tobytes())
    return h.hexdigest()


def main():
    for workload, seed in INPUTS:
        inputs = SETUPS[workload](seed, Tracer(False))
        print(f"{workload} seed {seed} {digest(inputs.experiences)}")


if __name__ == "__main__":
    main()
