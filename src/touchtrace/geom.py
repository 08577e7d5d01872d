"""Quaternion / vector algebra shared by every stage of the pipeline.

Conventions, fixed once for the whole package:

* World frame is right-handed with Z up; gravity points along (0, 0, -1) g.
* Quaternions are stored (w, x, y, z) and renormalized by every producing
  operation, so the unit-norm invariant is checkable after any call.
* ``rotate_vector(q, v)`` maps a body-frame vector into the world frame;
  the inverse mapping rotates by the conjugate (w, -x, -y, -z).
* Euler angles are intrinsic Z-Y-X (yaw about world up, then pitch about
  the body lateral axis, then roll), in degrees. Pitch lies in [-90, +90];
  at gimbal lock the roll is defined to be zero.

Each operation is written once, as plain component expressions that
run alike on floats (the streaming filter, and the ``UnitQuat``/``Vec3``
methods the interaction techniques use) and on the columns of ``(N,4)``
or ``(trials, N, 4)`` quaternion arrays (the sensor synthesizer, the
lockstep filter, pointer projection and the evaluation metrics):
``_hamilton`` is the quaternion product, ``_rotate`` the rotation of a
vector, and ``quat_matrices`` the rotation matrix, from whose entries
Euler angles, touch-plane bases and the forward axes the metrics compare
are all read. On floats, ``_unit`` is the one renormalization and
``_integrate`` the one gyro step. ``_unit`` squares with ``**``, which
calls the C library's ``pow``: the C library is part of the platform
that pins the bytes (see ``quat_multiply``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_DEG = math.pi / 180.0


@dataclass(frozen=True, slots=True)
class Vec3:
    """A 3-vector. Units depend on context (mm, g, deg/s, gauss)."""

    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def scale(self, k: float) -> "Vec3":
        return Vec3(self.x * k, self.y * k, self.z * k)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def normalized(self) -> "Vec3":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero-length vector")
        return self.scale(1.0 / n)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True, slots=True)
class UnitQuat:
    """Unit quaternion (w, x, y, z) representing a rotation."""

    w: float
    x: float
    y: float
    z: float

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def normalized(self) -> "UnitQuat":
        return UnitQuat(*_unit(self.w, self.x, self.y, self.z))

    def multiply(self, other: "UnitQuat") -> "UnitQuat":
        """Hamilton product self ⊗ other, renormalized."""
        product = _hamilton(self.w, self.x, self.y, self.z, other.w, other.x, other.y, other.z)
        return UnitQuat(*_unit(*product))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)


IDENTITY_QUAT = UnitQuat(1.0, 0.0, 0.0, 0.0)

EX = Vec3(1.0, 0.0, 0.0)
EY = Vec3(0.0, 1.0, 0.0)
EZ = Vec3(0.0, 0.0, 1.0)
GRAVITY_WORLD = Vec3(0.0, 0.0, -1.0)  # in g
MAG_FIELD_WORLD = Vec3(0.2, 0.0, -0.4)  # in gauss; the simulated world's field


@dataclass(frozen=True, slots=True)
class EulerAngles:
    """Intrinsic Z-Y-X yaw/pitch/roll, degrees."""

    yaw: float
    pitch: float
    roll: float


@dataclass(frozen=True, slots=True)
class PlaneBasis:
    """Orthonormal in-plane axes (u, v) and normal n."""

    u: Vec3
    v: Vec3
    n: Vec3


def axis_angle_quat(axis: Vec3, angle_deg: float) -> UnitQuat:
    """Quaternion for a rotation of ``angle_deg`` about ``axis``."""
    a = axis.normalized()
    half = 0.5 * angle_deg * _DEG
    s = math.sin(half)
    return UnitQuat(math.cos(half), a.x * s, a.y * s, a.z * s).normalized()


def _unit(w: float, x: float, y: float, z: float) -> tuple[float, float, float, float]:
    """The quaternion (w, x, y, z) renormalized, as floats: every producer's last step."""
    n = math.sqrt(w**2 + x**2 + y**2 + z**2)
    if n < 1e-12:
        raise ValueError("cannot normalize a near-zero quaternion")
    return (w / n, x / n, y / n, z / n)


def _hamilton(w1, x1, y1, z1, w2, x2, y2, z2):
    """Components of the Hamilton product (w1, x1, y1, z1) ⊗ (w2, x2, y2, z2).

    Takes and returns floats or, elementwise, arrays of components alike.
    """
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _rotate(w, x, y, z, vx, vy, vz):
    """Components of R(q)·v, expanded; cheaper than building the full matrix.

    Takes and returns floats or, elementwise, arrays of components alike.
    """
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return (
        vx + w * tx + (y * tz - z * ty),
        vy + w * ty + (z * tx - x * tz),
        vz + w * tz + (x * ty - y * tx),
    )


def rotate_vector(q: UnitQuat, v: Vec3) -> Vec3:
    """Apply the rotation q to v (body frame -> world frame)."""
    return Vec3(*_rotate(q.w, q.x, q.y, q.z, v.x, v.y, v.z))


def integrate_gyro(q: UnitQuat, omega_dps: Vec3, dt_s: float) -> UnitQuat:
    """Advance q by the body-frame rotation vector omega*dt.

    omega is in deg/s. The increment uses the exact axis-angle exponential,
    so constant-rate integration is exact regardless of step size.
    """
    if dt_s < 0.0:
        raise ValueError(f"dt must be non-negative, got {dt_s}")
    r = omega_dps.x * _DEG * dt_s, omega_dps.y * _DEG * dt_s, omega_dps.z * _DEG * dt_s
    return UnitQuat(*_integrate(q.as_tuple(), *r))


def _integrate(q, rx: float, ry: float, rz: float) -> tuple[float, float, float, float]:
    """``integrate_gyro`` on floats: q ⊗ exp(r/2) for the rotation vector r in radians."""
    angle = math.sqrt(rx * rx + ry * ry + rz * rz)
    if angle < 1e-12:
        dq = (1.0, 0.5 * rx, 0.5 * ry, 0.5 * rz)
    else:
        half = 0.5 * angle
        k = math.sin(half) / angle
        dq = (math.cos(half), rx * k, ry * k, rz * k)
    return _unit(*_hamilton(*q, *dq))


def quat_from_matrix(m: list[list[float]]) -> UnitQuat:
    """Quaternion of a 3x3 rotation matrix (Shepperd's method).

    A positive trace gives w by 4w² = 1 + trace, else the largest diagonal entry m[i][i] gives q_i by
    4q_i² = 1 + m[i][i] - m[j][j] - m[k][k]; the rest are off-diagonal differences and sums over that root.
    """
    diff = [m[(a + 2) % 3][(a + 1) % 3] - m[(a + 1) % 3][(a + 2) % 3] for a in range(3)]
    trace = m[0][0] + m[1][1] + m[2][2]
    if trace > 0.0:
        s = math.sqrt(trace + 1.0) * 2.0
        return UnitQuat(0.25 * s, *(d / s for d in diff)).normalized()
    i = 0 if m[0][0] > m[1][1] and m[0][0] > m[2][2] else 1 if m[1][1] > m[2][2] else 2
    j, k = (i + 1) % 3, (i + 2) % 3
    lo, hi = sorted((j, k))
    s = math.sqrt(1.0 + m[i][i] - m[lo][lo] - m[hi][hi]) * 2.0
    q = [diff[i] / s, 0.0, 0.0, 0.0]
    q[1 + i] = 0.25 * s
    q[1 + j] = (m[i][j] + m[j][i]) / s
    q[1 + k] = (m[i][k] + m[k][i]) / s
    return UnitQuat(*q).normalized()


def from_euler(e: EulerAngles) -> UnitQuat:
    """Quaternion of intrinsic Z-Y-X Euler angles in degrees."""
    qz = axis_angle_quat(EZ, e.yaw)
    qy = axis_angle_quat(EY, e.pitch)
    qx = axis_angle_quat(EX, e.roll)
    return qz.multiply(qy).multiply(qx)


def to_euler(q: UnitQuat) -> EulerAngles:
    """Intrinsic Z-Y-X Euler angles of q, degrees.

    At |pitch| = 90 deg the yaw/roll split is by convention roll := 0.
    """
    m = quat_matrices(q.as_tuple())
    sp = -m[2][0]
    if abs(sp) >= 1.0 - 1e-12:
        pitch = math.copysign(90.0, sp)
        yaw = math.degrees(math.atan2(-m[0][1], m[1][1]))
        roll = 0.0
    else:
        pitch = math.degrees(math.asin(sp))
        yaw = math.degrees(math.atan2(m[1][0], m[0][0]))
        roll = math.degrees(math.atan2(m[2][1], m[2][2]))
    return EulerAngles(yaw, pitch, roll)


# -- quaternion-array helpers ------------------------------------------------


def quat_matrices(q):
    """Rotation matrices ``(..., 3, 3)`` of a ``(..., 4)`` array of unit quaternions.

    Column j of each matrix is body axis j rotated into the world frame.
    One quaternion given as a tuple of floats yields its matrix as a tuple
    of row tuples, so per-frame scalar callers pay no numpy call per entry.
    """
    scalar = isinstance(q, tuple)
    w, x, y, z = q if scalar else np.reshape(q, (-1, 4)).T  # 1-D components run fastest
    rows = (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )
    if scalar:
        return rows
    m = np.empty((len(w), 3, 3))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            m[:, i, j] = entry
    return m.reshape(q.shape[:-1] + (3, 3))


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Hamilton products a ⊗ b, renormalized, as ``UnitQuat.multiply``.

    ``a`` is (N,4); ``b`` is (N,4) or one (4,) quaternion for every row. It squares with ``*`` and
    ``_unit`` with ``pow``, so under glibc 2.36 about 0.04% of random products differ in the last bit.
    """
    w, x, y, z = _hamilton(*a.T, *b.T)
    out = np.empty((len(a), 4))
    out.T[...] = w, x, y, z  # a fill, several times cheaper than np.stack
    out /= np.sqrt(w * w + x * x + y * y + z * z)[:, None]
    return out


def rotate_vectors(q: np.ndarray, v: tuple[float, float, float]) -> np.ndarray:
    """R(q_k) v for each row of q, (N,3), as ``rotate_vector``."""
    out = np.empty((len(q), 3))
    out.T[...] = _rotate(*q.T, *v)
    return out


def quat_midpoints(q: np.ndarray) -> np.ndarray:
    """Geodesic midpoints of consecutive quaternions, ``(..., n-1, 4)`` of ``(..., n, 4)``.

    The normalized mean of two sign-aligned unit quaternions is exactly
    the slerp midpoint, which is all the synthesizer needs.
    """
    a = q[..., :-1, :]
    b = q[..., 1:, :].copy()
    flip = np.sum(a * b, axis=-1) < 0
    b[flip] *= -1.0
    mid = a + b
    mid /= np.linalg.norm(mid, axis=-1, keepdims=True)
    return mid


def quat_relative_rotvec(q: np.ndarray) -> np.ndarray:
    """Body-frame rotation vectors between consecutive poses, ``(..., n-1, 3)`` rad.

    rotvec_k = log(q_k^-1 * q_{k+1}); dividing by dt gives the exact
    body rate a gyro would have to report for the step to integrate back.
    """
    aw, ax, ay, az = np.reshape(q[..., :-1, :], (-1, 4)).T
    w, x, y, z = _hamilton(aw, -ax, -ay, -az, *np.reshape(q[..., 1:, :], (-1, 4)).T)  # conj(a) ⊗ b
    sign = np.where(w < 0, -1.0, 1.0)
    w, x, y, z = w * sign, x * sign, y * sign, z * sign
    vec_norm = np.sqrt(x * x + y * y + z * z)
    angle = 2.0 * np.arctan2(vec_norm, w)
    scale = np.where(vec_norm > 1e-12, angle / np.where(vec_norm > 1e-12, vec_norm, 1.0), 2.0)
    return np.stack([x * scale, y * scale, z * scale], axis=1).reshape(q.shape[:-2] + (q.shape[-2] - 1, 3))
