"""Experience splitting, track building, submap SfM, and verification."""

from .sfm import build_submap, bundle_adjust
from .split import (
    DEFAULT_MAX_SIZE,
    MIN_RADIUS,
    OVERLAP,
    augment_subsets,
    split_experience,
)
from .tracks import DEFAULT_MATCH_THRESHOLD, GATING_RADIUS, build_tracks
from .types import (
    FrameSubset,
    InsufficientOverlap,
    SolverDiverged,
    Submap,
    Track,
    VerificationReport,
)
from .verify import verify_submap

__all__ = [
    "build_submap",
    "bundle_adjust",
    "split_experience",
    "augment_subsets",
    "DEFAULT_MAX_SIZE",
    "MIN_RADIUS",
    "OVERLAP",
    "build_tracks",
    "DEFAULT_MATCH_THRESHOLD",
    "GATING_RADIUS",
    "FrameSubset",
    "Track",
    "Submap",
    "VerificationReport",
    "InsufficientOverlap",
    "SolverDiverged",
    "verify_submap",
]
