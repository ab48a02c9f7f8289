"""Pose algebra, camera projection, robust losses, and the shared solver."""

from . import so3
from .camera import MIN_DEPTH, Camera, project
from .least_squares import (
    BlockJacobian,
    BlockStructure,
    NonFinite,
    RobustPrefix,
    SolveResult,
    Termination,
    numeric_jacobian,
    robust_cost,
    solve_least_squares,
)
from .pose import GRAVITY_WORLD, Pose, Sim3, umeyama_yaw, yaw_between
from .reproject import (
    BEHIND_RESIDUAL,
    LastEvaluation,
    camera_projection,
    gravity_rows,
    observation_blocks,
    observation_residuals,
    project_observations,
    refine_pose,
    reprojection_errors,
    reprojection_rows,
)
from .robust import huber_loss_many, huber_weight_many
from .so3 import batch_skew

__all__ = [
    "so3",
    "Camera",
    "MIN_DEPTH",
    "project",
    "GRAVITY_WORLD",
    "Pose",
    "Sim3",
    "umeyama_yaw",
    "yaw_between",
    "huber_loss_many",
    "huber_weight_many",
    "BlockJacobian",
    "BlockStructure",
    "NonFinite",
    "RobustPrefix",
    "SolveResult",
    "Termination",
    "robust_cost",
    "numeric_jacobian",
    "solve_least_squares",
    "BEHIND_RESIDUAL",
    "LastEvaluation",
    "batch_skew",
    "camera_projection",
    "gravity_rows",
    "observation_blocks",
    "observation_residuals",
    "project_observations",
    "refine_pose",
    "reprojection_errors",
    "reprojection_rows",
]
