"""Rotation primitives: rotation vectors, quaternions, right Jacobians.

Quaternions are stored as [w, x, y, z] with unit norm and are canonicalized
to w >= 0 so serialized rotations are byte-stable. Rotation vectors (axis
times angle, radians) are the tangent-space parameterization used by all
solvers; `exp`/`log` use series expansions below 1e-8 rad to stay finite.
`exp_many` and `right_jacobian_many` are `exp` and `right_jacobian` over
(n, 3) stacks of rotation vectors, with the same series branch. On one
vector, `exp` and `right_jacobian` compute their nine entries with `math`:
there numpy's cost per call outweighs the arithmetic. `matrix_to_quat_many`
is `matrix_to_quat` over an (n, 3, 3) stack, row for row the same bytes.
"""

from __future__ import annotations

import math

import numpy as np

_SMALL_ANGLE = 1e-8


def _norm(v) -> float:
    """np.linalg.norm of a 1-D array, without its dispatch."""
    return math.sqrt(v.dot(v))


def batch_skew(v: np.ndarray) -> np.ndarray:
    """(n,3) vectors -> (n,3,3) skew matrices."""
    n = v.shape[0]
    out = np.zeros((n, 3, 3))
    out[:, 0, 1] = -v[:, 2]
    out[:, 0, 2] = v[:, 1]
    out[:, 1, 0] = v[:, 2]
    out[:, 1, 2] = -v[:, 0]
    out[:, 2, 0] = -v[:, 1]
    out[:, 2, 1] = v[:, 0]
    return out


def _series_terms(rotvecs):
    """Skew matrices, their squares, angles and the small-angle mask of (n,3) rotation vectors."""
    rotvecs = np.asarray(rotvecs, dtype=float)
    k = batch_skew(rotvecs)
    angle = np.linalg.norm(rotvecs, axis=1)
    small = angle < _SMALL_ANGLE
    return k, k @ k, np.where(small, 1.0, angle), small


def _rotvec_terms(rotvec):
    """The entries x, y, z of one rotation vector, their squares and its angle."""
    x, y, z = np.asarray(rotvec, dtype=float).tolist()
    xx, yy, zz = x * x, y * y, z * z
    return x, y, z, xx, yy, zz, math.sqrt(xx + yy + zz)


def _identity_plus(x, y, z, xx, yy, zz, s, c):
    """I + s K + c K^2 of K = skew([x, y, z]), entry by entry: K^2 = v v^T - |v|^2 I."""
    xy, xz, yz = c * x * y, c * x * z, c * y * z
    sx, sy, sz = s * x, s * y, s * z
    return np.array(
        [
            [1.0 - c * (yy + zz), xy - sz, xz + sy],
            [xy + sz, 1.0 - c * (xx + zz), yz - sx],
            [xz - sy, yz + sx, 1.0 - c * (xx + yy)],
        ]
    )


def exp(rotvec):
    """Rodrigues map from a rotation vector to a 3x3 rotation matrix."""
    x, y, z, xx, yy, zz, angle = _rotvec_terms(rotvec)
    if angle < _SMALL_ANGLE:
        return _identity_plus(x, y, z, xx, yy, zz, 1.0, 0.5)
    return _identity_plus(x, y, z, xx, yy, zz, math.sin(angle) / angle, (1.0 - math.cos(angle)) / (angle * angle))


def exp_many(rotvecs):
    """`exp` of each row of an (n,3) array of rotation vectors -> (n,3,3)."""
    k, k2, a, small = _series_terms(rotvecs)
    s = np.where(small, 1.0, np.sin(a) / a)
    c = np.where(small, 0.5, (1.0 - np.cos(a)) / (a * a))
    return np.eye(3) + s[:, None, None] * k + c[:, None, None] * k2


def log(matrix):
    """Rotation vector of a rotation matrix, angle in [0, pi]."""
    matrix = np.asarray(matrix, dtype=float)
    trace = np.clip((np.trace(matrix) - 1.0) * 0.5, -1.0, 1.0)
    angle = float(np.arccos(trace))
    if angle < _SMALL_ANGLE:
        return 0.5 * np.array(
            [
                matrix[2, 1] - matrix[1, 2],
                matrix[0, 2] - matrix[2, 0],
                matrix[1, 0] - matrix[0, 1],
            ]
        )
    if np.pi - angle < 1e-6:
        # Near pi the off-diagonal differences vanish; recover the axis from
        # the dominant diagonal entry instead.
        diag = np.diag(matrix)
        i = int(np.argmax(diag))
        axis = np.zeros(3)
        axis[i] = np.sqrt(max(0.0, (diag[i] + 1.0) * 0.5))
        j, k = (i + 1) % 3, (i + 2) % 3
        axis[j] = matrix[i, j] / (2.0 * axis[i])
        axis[k] = matrix[i, k] / (2.0 * axis[i])
        return axis / np.linalg.norm(axis) * angle
    scale = angle / (2.0 * np.sin(angle))
    return scale * np.array(
        [
            matrix[2, 1] - matrix[1, 2],
            matrix[0, 2] - matrix[2, 0],
            matrix[1, 0] - matrix[0, 1],
        ]
    )


def right_jacobian(rotvec):
    """J_r such that exp(v + d) = exp(v) exp(J_r(v) d) for small d."""
    x, y, z, xx, yy, zz, angle = _rotvec_terms(rotvec)
    if angle < _SMALL_ANGLE:
        return _identity_plus(x, y, z, xx, yy, zz, -0.5, 1.0 / 6.0)
    c1 = 2.0 * (math.sin(0.5 * angle) / angle) ** 2  # (1 - cos a) / a^2 without cancellation
    c2 = (angle - math.sin(angle)) / (angle * angle * angle)
    return _identity_plus(x, y, z, xx, yy, zz, -c1, c2)


def right_jacobian_many(rotvecs):
    """`right_jacobian` of each row of an (n,3) array of rotation vectors -> (n,3,3)."""
    k, k2, a, small = _series_terms(rotvecs)
    a2 = a * a
    c1 = np.where(small, 0.5, 2.0 * (np.sin(0.5 * a) / a) ** 2)
    c2 = np.where(small, 1.0 / 6.0, (a - np.sin(a)) / (a2 * a))
    return np.eye(3) - c1[:, None, None] * k + c2[:, None, None] * k2


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    n = _norm(q)
    if n == 0.0:
        raise ValueError("zero quaternion")
    q = q / n
    if q[0] < 0.0:
        q = -q
    return q


def quat_multiply(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_conjugate(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_matrix(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def matrix_to_quat(matrix):
    """Quaternion [w,x,y,z] of a rotation matrix, canonicalized to w >= 0."""
    m = np.asarray(matrix, dtype=float)
    trace = np.trace(m)
    if trace > 0.0:
        s = np.sqrt(trace + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
        )
    elif m[1, 1] > m[2, 2]:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array(
            [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array(
            [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
        )
    return quat_normalize(q)


def matrix_to_quat_many(matrices):
    """`matrix_to_quat` of each of (n,3,3) rotation matrices -> (n,4), row for row the same bytes.

    Each row takes its own branch of `matrix_to_quat`, and only that
    branch's square root is taken.
    """
    m = np.asarray(matrices, dtype=float)
    n = m.shape[0]
    m00, m11, m22 = m[:, 0, 0], m[:, 1, 1], m[:, 2, 2]
    trace = m00 + m11 + m22
    # The component matrix_to_quat takes from the square root: w, x, y or z.
    big = np.where(trace > 0.0, 0, np.where((m00 > m11) & (m00 > m22), 1, np.where(m11 > m22, 2, 3)))
    rows = np.arange(n)
    radicands = np.stack(
        [trace + 1.0, 1.0 + m00 - m11 - m22, 1.0 + m11 - m00 - m22, 1.0 + m22 - m00 - m11], axis=1
    )
    s = np.sqrt(radicands[rows, big]) * 2.0
    # pairs[:, a, b]: s times component b of a row whose big component is a.
    pairs = np.zeros((n, 4, 4))
    for (a, b), value in (
        ((0, 1), m[:, 2, 1] - m[:, 1, 2]),
        ((0, 2), m[:, 0, 2] - m[:, 2, 0]),
        ((0, 3), m[:, 1, 0] - m[:, 0, 1]),
        ((1, 2), m[:, 0, 1] + m[:, 1, 0]),
        ((1, 3), m[:, 0, 2] + m[:, 2, 0]),
        ((2, 3), m[:, 1, 2] + m[:, 2, 1]),
    ):
        pairs[:, a, b] = pairs[:, b, a] = value
    q = pairs[rows, big] / s[:, None]
    q[rows, big] = 0.25 * s
    # quat_normalize of each row; a row with itself through matmul is its dot product.
    norms = np.sqrt(q[:, None, :] @ q[:, :, None])[:, :, 0]
    if not norms.all():
        raise ValueError("zero quaternion")
    q /= norms
    q[q[:, 0] < 0.0] *= -1.0
    return q


def quat_from_rotvec(rotvec):
    rotvec = np.asarray(rotvec, dtype=float)
    angle = _norm(rotvec)
    if angle < _SMALL_ANGLE:
        q = np.array([1.0, 0.5 * rotvec[0], 0.5 * rotvec[1], 0.5 * rotvec[2]])
        return quat_normalize(q)
    axis = rotvec / angle
    half = 0.5 * angle
    return quat_normalize(np.concatenate(([np.cos(half)], np.sin(half) * axis)))


def quat_to_rotvec(q):
    q = quat_normalize(q)
    w = min(1.0, max(-1.0, float(q[0])))
    angle = 2.0 * np.arccos(w)
    s = np.sqrt(max(0.0, 1.0 - w * w))
    if s < _SMALL_ANGLE:
        return 2.0 * q[1:4]
    return q[1:4] / s * angle


def quat_rotate(q, v):
    return quat_to_matrix(q) @ np.asarray(v, dtype=float)


def geodesic_angle(qa, qb):
    """Angle in radians between two rotations given as quaternions."""
    d = abs(float(np.dot(quat_normalize(qa), quat_normalize(qb))))
    return 2.0 * np.arccos(min(1.0, d))


def rotation_between(a, b):
    """Minimal rotation matrix taking unit vector a onto unit vector b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    c = float(np.dot(a, b))
    if c > 1.0 - 1e-12:
        return np.eye(3)
    if c < -1.0 + 1e-12:
        # Antipodal: rotate pi about any axis orthogonal to a.
        axis = np.cross(a, np.array([1.0, 0.0, 0.0]))
        if np.linalg.norm(axis) < 1e-6:
            axis = np.cross(a, np.array([0.0, 1.0, 0.0]))
        axis = axis / np.linalg.norm(axis)
        return exp(axis * np.pi)
    axis = np.cross(a, b)
    angle = np.arccos(min(1.0, max(-1.0, c)))
    return exp(axis / np.linalg.norm(axis) * angle)


def yaw_matrix(psi):
    """Rotation about the world +z axis by psi radians."""
    c, s = np.cos(psi), np.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
