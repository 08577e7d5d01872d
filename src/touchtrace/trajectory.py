"""Array-backed pose trajectories and their CSV interchange format.

Both ground-truth files (``truth.csv``) and replayed pointer output
(``pointer.csv``) use the same schema, one row per sample:

    t_ms,x_mm,y_mm,z_mm,qw,qx,qy,qz

Also home to the vectorized quaternion-array helpers shared by the
sensor synthesizer, the lockstep filter and the evaluation metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

CSV_HEADER = "t_ms,x_mm,y_mm,z_mm,qw,qx,qy,qz"


@dataclass
class Trajectory:
    t_ms: np.ndarray  # (N,) int64
    pos_mm: np.ndarray  # (N, 3) float64
    quat: np.ndarray  # (N, 4) float64, (w, x, y, z)

    def __post_init__(self) -> None:
        self.t_ms = np.asarray(self.t_ms, dtype=np.int64)
        self.pos_mm = np.asarray(self.pos_mm, dtype=np.float64)
        self.quat = np.asarray(self.quat, dtype=np.float64)
        n = len(self.t_ms)
        if self.pos_mm.shape != (n, 3) or self.quat.shape != (n, 4):
            raise ValueError("trajectory arrays have inconsistent shapes")

    def __len__(self) -> int:
        return len(self.t_ms)

    def write_csv(self, path) -> None:
        lines = [CSV_HEADER]
        for i in range(len(self)):
            x, y, z = self.pos_mm[i]
            qw, qx, qy, qz = self.quat[i]
            lines.append(
                f"{int(self.t_ms[i])},{x:.10g},{y:.10g},{z:.10g},"
                f"{qw:.10g},{qx:.10g},{qy:.10g},{qz:.10g}"
            )
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path) -> Trajectory:
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: expected header {CSV_HEADER!r}")
    t, pos, quat = [], [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 8:
            raise ValueError(f"{path}: malformed row {ln!r}")
        t.append(int(parts[0]))
        pos.append([float(parts[1]), float(parts[2]), float(parts[3])])
        quat.append([float(p) for p in parts[4:8]])
    return Trajectory(np.array(t), np.array(pos), np.array(quat))


# -- vectorized quaternion-array helpers -----------------------------------


def quat_matrices(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (N,3,3) for an (N,4) array of unit quaternions."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    m = np.empty((len(q), 3, 3))
    m[:, 0, 0] = 1 - 2 * (y * y + z * z)
    m[:, 0, 1] = 2 * (x * y - w * z)
    m[:, 0, 2] = 2 * (x * z + w * y)
    m[:, 1, 0] = 2 * (x * y + w * z)
    m[:, 1, 1] = 1 - 2 * (x * x + z * z)
    m[:, 1, 2] = 2 * (y * z - w * x)
    m[:, 2, 0] = 2 * (x * z - w * y)
    m[:, 2, 1] = 2 * (y * z + w * x)
    m[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Hamilton products a ⊗ b, renormalized, as ``UnitQuat.multiply``.

    ``a`` is (N,4); ``b`` is (N,4) or one (4,) quaternion for every row.
    """
    w1, x1, y1, z1 = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
    w2, x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty((len(a), 4))
    w = out[:, 0] = w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2
    x = out[:, 1] = w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2
    y = out[:, 2] = w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2
    z = out[:, 3] = w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2
    out /= np.sqrt(w * w + x * x + y * y + z * z)[:, None]
    return out


def rotate_vectors(q: np.ndarray, v: tuple[float, float, float]) -> np.ndarray:
    """R(q_k) v for each row of q, (N,3), as ``geom.rotate_vector``."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    vx, vy, vz = v
    out = np.empty((len(q), 3))
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    out[:, 0] = vx + w * tx + (y * tz - z * ty)
    out[:, 1] = vy + w * ty + (z * tx - x * tz)
    out[:, 2] = vz + w * tz + (x * ty - y * tx)
    return out


def quat_forward_axes(q: np.ndarray) -> np.ndarray:
    """World-frame body-x (finger forward) axes, (N,3)."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    return np.stack(
        [1 - 2 * (y * y + z * z), 2 * (x * y + w * z), 2 * (x * z - w * y)], axis=1
    )


def quat_midpoints(q: np.ndarray) -> np.ndarray:
    """Geodesic midpoints of consecutive quaternions, (N-1,4).

    The normalized mean of two sign-aligned unit quaternions is exactly
    the slerp midpoint, which is all the synthesizer needs.
    """
    a = q[:-1]
    b = q[1:].copy()
    flip = np.sum(a * b, axis=1) < 0
    b[flip] *= -1.0
    mid = a + b
    mid /= np.linalg.norm(mid, axis=1, keepdims=True)
    return mid


def quat_relative_rotvec(q: np.ndarray) -> np.ndarray:
    """Body-frame rotation vectors between consecutive poses, (N-1,3) rad.

    rotvec_k = log(q_k^-1 * q_{k+1}); dividing by dt gives the exact
    body rate a gyro would have to report for the step to integrate back.
    """
    a, b = q[:-1], q[1:]
    # Hamilton product conj(a) * b, componentwise
    w = a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2] + a[:, 3] * b[:, 3]
    x = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0] - a[:, 2] * b[:, 3] + a[:, 3] * b[:, 2]
    y = a[:, 0] * b[:, 2] + a[:, 1] * b[:, 3] - a[:, 2] * b[:, 0] - a[:, 3] * b[:, 1]
    z = a[:, 0] * b[:, 3] - a[:, 1] * b[:, 2] + a[:, 2] * b[:, 1] - a[:, 3] * b[:, 0]
    sign = np.where(w < 0, -1.0, 1.0)
    w, x, y, z = w * sign, x * sign, y * sign, z * sign
    vec_norm = np.sqrt(x * x + y * y + z * z)
    angle = 2.0 * np.arctan2(vec_norm, w)
    scale = np.where(vec_norm > 1e-12, angle / np.where(vec_norm > 1e-12, vec_norm, 1.0), 2.0)
    return np.stack([x * scale, y * scale, z * scale], axis=1)
