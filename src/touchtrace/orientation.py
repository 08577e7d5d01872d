"""Quaternion EKF fusing gyro, accelerometer and magnetometer.

Error-state formulation with a minimal 6-state covariance:
3 attitude-error components (body frame, radians) and 3 gyro-bias
components (rad/s). The quaternion itself is kept outside the error
state and corrected multiplicatively, so it stays unit by construction.

Measurement model: both vector updates compare the body-frame
observation against the rotated world reference,

    accel ~ R(q)^T * (0, 0, -1) g        gravity direction
    mag   ~ R(q)^T * mag_reference       fixed world field

with Jacobian [h]x w.r.t. the body attitude error. The innovation
covariance is inverted in closed form (it is only 3x3) and the
covariance is re-symmetrized once per predict, which keeps it positive
semi-definite to well below test tolerances.

The formulation is the error-state filter of Solà, *Quaternion
kinematics for the error-state Kalman filter* (arXiv:1711.02508). It
exists twice, with one set of equations. ``OrientationFilter.advance``
steps one stream by one scaled sample on a float state through ``_step``
(``filter_stream`` is it over a whole stream, on the replay path;
``OrientationFilter.process`` adapts it to ``CalibratedSample`` and
``FilterState``, as ``predict``, ``update_accel`` and ``update_mag`` adapt
the stages). ``filter_streams`` runs many streams in lockstep, one
batched step per sample index over stacked states, ``q (N,4)``,
``bias (N,3)`` and ``P (N,6,6)``, for the campaign's replay. The
property tests hold the lockstep filter to the streaming one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .geom import (
    _DEG,
    GRAVITY_WORLD,
    IDENTITY_QUAT,
    MAG_FIELD_WORLD,
    UnitQuat,
    Vec3,
    _hamilton,
    _integrate,
    _rotate,
    _unit,
    quat_from_matrix,
    quat_multiply,
    rotate_vectors,
)
from .protocol import CalibratedSample, ScaleConfig

MAX_DT_S = 0.1
_UNITS = ScaleConfig().imu_units  # the one device's per-LSB scales: raw accel, gyro, mag to g, deg/s, gauss


@dataclass(frozen=True)
class FilterConfig:
    """Noise tuning: every value finite, every scalar strictly positive,
    and a ``mag_reference`` with a component across gravity.

    The defaults are calibrated for the synthetic sensor model shipped in
    :mod:`touchtrace.simulate`: measurement trust is deliberately weak so
    short traces ride the gyro, which is what gives the evaluation
    campaign its drift-with-duration error profile.
    """

    gyro_noise_density: float = 0.03  # deg/s/sqrt(Hz)
    bias_random_walk: float = 0.003  # deg/s per sqrt(s)
    accel_noise: float = 0.45  # g, per-axis measurement sigma
    mag_noise: float = 0.18  # gauss, per-axis measurement sigma
    mag_reference: Vec3 = MAG_FIELD_WORLD  # gauss, world frame
    accel_gate: float = 0.3  # g; reject when | |a| - 1g | exceeds this
    init_attitude_sigma_deg: float = 30.0
    init_bias_sigma_dps: float = 0.5

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            vector = isinstance(value, Vec3)
            if not all(map(math.isfinite, value.as_tuple() if vector else (value,))):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if not vector and value <= 0:
                raise ValueError(f"{f.name} must be > 0")
        if GRAVITY_WORLD.cross(self.mag_reference).norm() < 1e-9:
            # triad_orientation's test: such a field fixes no heading
            raise ValueError(f"mag_reference gives no heading: {self.mag_reference} is zero or along gravity")


@dataclass(frozen=True, eq=False)
class FilterState:
    q: UnitQuat
    gyro_bias_dps: Vec3
    covariance: np.ndarray  # 6x6; attitude rad^2, bias (rad/s)^2


@dataclass
class FilterDiagnostics:
    clamped_dt: int = 0
    gated_accel: int = 0


def _init_covariance(cfg: FilterConfig) -> np.ndarray:
    p = np.zeros((6, 6))
    p[:3, :3] = np.eye(3) * (cfg.init_attitude_sigma_deg * _DEG) ** 2
    p[3:, 3:] = np.eye(3) * (cfg.init_bias_sigma_dps * _DEG) ** 2
    return p


def triad_orientation(accel_g: Vec3, mag_gauss: Vec3, mag_reference: Vec3) -> UnitQuat:
    """Closed-form attitude from one accel + mag pair (TRIAD construction).

    Returns the quaternion mapping body to world such that the rotated
    body observations line up with gravity and the magnetic reference.
    Raises ValueError for degenerate (near-zero or parallel) inputs.
    """
    w1 = GRAVITY_WORLD.normalized()
    b1 = accel_g.normalized()
    w2 = GRAVITY_WORLD.cross(mag_reference)
    b2 = accel_g.cross(mag_gauss)
    if w2.norm() < 1e-9 or b2.norm() < 1e-9:
        raise ValueError("triad construction degenerate: field parallel to gravity")
    w2 = w2.normalized()
    b2 = b2.normalized()
    w = (w1.as_tuple(), w2.as_tuple(), w1.cross(w2).as_tuple())
    b = (b1.as_tuple(), b2.as_tuple(), b1.cross(b2).as_tuple())
    # R = W B^T with W, B holding the triads as columns
    rot = [[w[0][r] * b[0][c] + w[1][r] * b[1][c] + w[2][r] * b[2][c] for c in range(3)] for r in range(3)]
    return quat_from_matrix(rot)


def initial_state(
    cfg: FilterConfig,
    accel_g: Vec3 | None = None,
    mag_gauss: Vec3 | None = None,
) -> FilterState:
    """Initial state from the first accel+mag pair; identity as fallback."""
    q = IDENTITY_QUAT
    if accel_g is not None and mag_gauss is not None:
        try:
            q = triad_orientation(accel_g, mag_gauss, cfg.mag_reference)
        except ValueError:
            q = IDENTITY_QUAT
    return FilterState(q=q, gyro_bias_dps=Vec3(0.0, 0.0, 0.0), covariance=_init_covariance(cfg))


_EYE3 = np.eye(3)
_Q_CACHE: dict[tuple[float, float, float], np.ndarray] = {}


def _process_noise(cfg: FilterConfig, dt: float) -> np.ndarray:
    """Discrete process noise; cached because dt is almost always 20 ms."""
    key = (cfg.gyro_noise_density, cfg.bias_random_walk, dt)
    q = _Q_CACHE.get(key)
    if q is None:
        q = _Q_CACHE[key] = np.diag(_noise_per_second(cfg) * dt)
    return q


def _noise_per_second(cfg: FilterConfig) -> np.ndarray:
    """Diagonal of the process noise per second of dt: attitude, then bias."""
    gyro = (cfg.gyro_noise_density * _DEG) ** 2
    bias = (cfg.bias_random_walk * _DEG) ** 2
    return np.array((gyro, gyro, gyro, bias, bias, bias))


def predict(state: FilterState, cfg: FilterConfig, gyro_dps: Vec3, dt_s: float) -> FilterState:
    """Propagate by bias-corrected gyro over dt; covariance grows.

    dt above MAX_DT_S is clamped (the streaming wrapper counts those).
    """
    if dt_s <= 0.0:
        raise ValueError(f"predict requires dt > 0, got {dt_s}")
    q, bias, p = _unpacked(state)
    q, p = _predict(q, bias, p, cfg, gyro_dps.as_tuple(), dt_s)
    return _packed(q, bias, p)


def update_accel(state: FilterState, cfg: FilterConfig, accel_g: Vec3) -> tuple[FilterState, bool]:
    """Gravity-direction update. Returns (state, accepted).

    Measurements whose magnitude strays from 1 g by more than the gate
    are skipped and the state is returned unchanged.
    """
    updated = _update_accel(*_unpacked(state), cfg, accel_g.as_tuple())
    return (_packed(*updated), True) if updated else (state, False)


def update_mag(state: FilterState, cfg: FilterConfig, mag_gauss: Vec3) -> tuple[FilterState, bool]:
    """World-field update against the configured magnetic reference."""
    updated = _update_mag(*_unpacked(state), cfg, mag_gauss.as_tuple())
    return (_packed(*updated), True) if updated else (state, False)


def _unpacked(state: FilterState):
    return state.q.as_tuple(), state.gyro_bias_dps.as_tuple(), state.covariance


def _packed(q, bias, p) -> FilterState:
    return FilterState(q=UnitQuat(*q), gyro_bias_dps=Vec3(*bias), covariance=p)


class OrientationFilter:
    """Streaming wrapper: one instance per sensor stream.

    Initializes from the first sample's accel+mag pair (TRIAD), then runs
    predict + accel update + mag update per sample. Timestamps must not
    decrease; replay checks this once per stream, before the filter runs,
    so the filter does not.
    """

    def __init__(self, config: FilterConfig | None = None):
        self.config = config or FilterConfig()
        self.diagnostics = FilterDiagnostics()
        self._floats = None  # (q, bias, P) after the last sample, None before the first
        self._last_t_ms: int | None = None

    @property
    def state(self) -> FilterState | None:
        return None if self._floats is None else _packed(*self._floats)

    def advance(self, t_ms: int, accel, gyro, mag) -> tuple[float, float, float, float]:
        """Step over one sample, scaled to g, deg/s and gauss, and return the attitude (w, x, y, z).

        Raises ValueError naming ``t_ms``, and keeps the state, where an
        extreme config divides by zero, overflows or gives NaN.
        """
        try:
            if self._floats is None:
                floats = _unpacked(initial_state(self.config, Vec3(*accel), Vec3(*mag)))
            else:
                dt = (t_ms - self._last_t_ms) / 1000.0
                floats = _step(*self._floats, self.config, self.diagnostics, dt, gyro, accel, mag)
            finite = math.isfinite(sum(floats[0]))  # a unit quaternion's sum is finite unless a part is NaN or inf
        except ArithmeticError:
            finite = False
        if not finite:
            raise ValueError(f"orientation filter left the float range at {t_ms} ms; the filter config is too extreme")
        self._floats, self._last_t_ms = floats, t_ms
        return floats[0]

    def process(self, sample: CalibratedSample) -> FilterState:
        """``advance`` over a ``CalibratedSample``: the state after it."""
        self.advance(sample.timestamp_ms, *(v.as_tuple() for v in (sample.accel_g, sample.gyro_dps, sample.mag_gauss)))
        return self.state


def filter_stream(cfg: FilterConfig, t_ms: np.ndarray, imu_raw: np.ndarray) -> tuple[np.ndarray, FilterDiagnostics]:
    """``OrientationFilter.advance`` over a whole stream: its attitudes (n, 4) and counters.

    ``t_ms`` (n,) holds the timestamps and ``imu_raw`` (n, 9) the raw
    accel, gyro and mag channels of each sample, scaled by the device's
    ``_UNITS`` to g, deg/s and gauss. Raises ValueError where ``advance`` does.
    """
    filt = OrientationFilter(cfg)
    rows = zip(t_ms.tolist(), (imu_raw * _UNITS).tolist())
    return np.array([filt.advance(t, row[0:3], row[3:6], row[6:9]) for t, row in rows]), filt.diagnostics


# -- the streaming step, on floats ------------------------------------------------
#
# The state is q (w, x, y, z) and the gyro bias (deg/s) as float tuples and
# P as a (6, 6) array. Every product of matrices stays a numpy matmul, on
# the operands and in the order written here: numpy's small matmuls go
# through BLAS, whose kernels use fused multiply-adds, so a sum of float
# products written out in Python would differ from them in the last bits.


def _step(q, bias, p, cfg: FilterConfig, diagnostics: FilterDiagnostics, dt: float, gyro, accel, mag):
    """One sample after the first: predict when dt > 0 (dt above MAX_DT_S
    clamped and counted), the accel update unless gated (counted), then
    the mag update unless the field reads zero. Returns (q, bias, P)."""
    if dt > 0.0:
        if dt > MAX_DT_S:
            diagnostics.clamped_dt += 1
        q, p = _predict(q, bias, p, cfg, gyro, dt)
    updated = _update_accel(q, bias, p, cfg, accel)
    if updated:
        q, bias, p = updated
    else:
        diagnostics.gated_accel += 1
    return _update_mag(q, bias, p, cfg, mag) or (q, bias, p)


def _predict(q, bias, p, cfg: FilterConfig, gyro, dt_s: float):
    """Integrate the bias-corrected gyro over dt (clamped to MAX_DT_S); P = F P F^T + Q."""
    dt = min(dt_s, MAX_DT_S)
    (gx, gy, gz), (bx, by, bz) = gyro, bias
    ox, oy, oz = gx - bx, gy - by, gz - bz
    rx, ry, rz = ox * _DEG * dt, oy * _DEG * dt, oz * _DEG * dt
    q = _integrate(q, rx, ry, rz)

    # error transition: dtheta' = Phi dtheta - dt * dbias
    f = np.zeros((6, 6))
    f[:3, :3] = _rotvec_matrix_t(rx, ry, rz)
    f[3, 3] = f[4, 4] = f[5, 5] = 1.0
    f[0, 3] = f[1, 4] = f[2, 5] = -dt

    p = f @ p @ f.T + _process_noise(cfg, dt)
    return q, 0.5 * (p + p.T)


def _rotvec_matrix_t(rx: float, ry: float, rz: float) -> np.ndarray:
    """Transpose of the rotation matrix of the rotation vector (rx, ry, rz)."""
    angle = math.sqrt(rx * rx + ry * ry + rz * rz)
    sk = np.array((0.0, -rz, ry, rz, 0.0, -rx, -ry, rx, 0.0)).reshape(3, 3)
    if angle < 1e-3:
        # first order is exact to ~angle^2/2, far below the tuning noise
        return _EYE3 - sk
    a = math.sin(angle) / angle
    b = (1.0 - math.cos(angle)) / (angle * angle)
    return (_EYE3 + a * sk + b * (sk @ sk)).T


def _update_accel(q, bias, p, cfg: FilterConfig, accel):
    """Gravity-direction update; None when | |a| - 1 g | exceeds the gate."""
    ax, ay, az = accel
    if abs(math.sqrt(ax * ax + ay * ay + az * az) - 1.0) > cfg.accel_gate:
        return None
    return _vector_update(q, bias, p, accel, _GRAVITY, cfg.accel_noise)


def _update_mag(q, bias, p, cfg: FilterConfig, mag):
    """World-field update; None when the field reads zero."""
    mx, my, mz = mag
    if math.sqrt(mx * mx + my * my + mz * mz) < 1e-9:
        return None
    return _vector_update(q, bias, p, mag, cfg.mag_reference.as_tuple(), cfg.mag_noise)


_GRAVITY = GRAVITY_WORLD.as_tuple()


def _vector_update(q, bias, p, z, reference, sigma: float):
    w, x, y, zq = q
    hx, hy, hz = _rotate(w, -x, -y, -zq, *reference)  # predicted body-frame observation

    h_skew = np.array((0.0, -hz, hy, hz, 0.0, -hx, -hy, hx, 0.0)).reshape(3, 3)  # [h]x
    pht = p[:, :3] @ h_skew.T  # P H^T, 6x3
    s = h_skew @ pht[:3, :]  # H P H^T; add R on the diagonal below
    r = sigma * sigma
    (s00, s01, s02), (_, s11, s12), (_, _, s22) = s.tolist()
    i00, i01, i02, i11, i12, i22 = _sym3_inverse(s00 + r, s01, s02, s11 + r, s12, s22 + r)
    s_inv = np.array((i00, i01, i02, i01, i11, i12, i02, i12, i22)).reshape(3, 3)
    k = pht @ s_inv  # 6x3 Kalman gain
    zx, zy, zz = z
    delta = k @ np.array((zx - hx, zy - hy, zz - hz))

    d0, d1, d2, d3, d4, d5 = delta.tolist()
    q_new = _unit(*_hamilton(*q, *_unit(1.0, 0.5 * d0, 0.5 * d1, 0.5 * d2)))
    bx, by, bz = bias
    bias_new = (bx + d3 / _DEG, by + d4 / _DEG, bz + d5 / _DEG)

    # (I - K H) P via H P = (P H^T)^T; the residual asymmetry is float
    # noise at ~1e-18 and predict re-symmetrizes once per sample
    return q_new, bias_new, p - k @ pht.T


def _sym3_inverse(s00, s01, s02, s11, s12, s22):
    """Closed-form inverse of a symmetric 3x3 given by its upper triangle.

    Returns the inverse's upper triangle in the same order. Works on
    floats and, elementwise, on arrays of stacked matrices alike.
    """
    c00 = s11 * s22 - s12 * s12
    c01 = s02 * s12 - s01 * s22
    c02 = s01 * s12 - s02 * s11
    det = s00 * c00 + s01 * c01 + s02 * c02
    c11 = s00 * s22 - s02 * s02
    c12 = s01 * s02 - s00 * s12
    c22 = s00 * s11 - s01 * s01
    inv_det = 1.0 / det
    return c00 * inv_det, c01 * inv_det, c02 * inv_det, c11 * inv_det, c12 * inv_det, c22 * inv_det


# -- lockstep over many streams -----------------------------------------------

_DIAG3 = np.arange(3)
_DIAG6 = np.arange(6)
_CONJUGATE = np.array((1.0, -1.0, -1.0, -1.0))
_SKEW_PLUS = [7, 2, 3]  # flat slots of +x, +y, +z in [[0,-z,y],[z,0,-x],[-y,x,0]]
_SKEW_MINUS = [5, 6, 1]


def _skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices [v]x, (N,3,3)."""
    m = np.zeros((len(v), 9))
    m[:, _SKEW_PLUS] = v
    m[:, _SKEW_MINUS] = -v
    return m.reshape(-1, 3, 3)


def _transposed(m: np.ndarray) -> np.ndarray:
    """Stacked transposes, contiguous: matmul is several times slower on a view."""
    return np.ascontiguousarray(m.transpose(0, 2, 1))


def _assign(dst: np.ndarray, src: np.ndarray, rows: np.ndarray) -> None:
    """dst[i] = src[i] for the rows i where ``rows`` holds."""
    if rows.all():
        dst[...] = src
    else:
        np.copyto(dst, src, where=rows.reshape((-1,) + (1,) * (dst.ndim - 1)))


def filter_streams(
    cfg: FilterConfig, t_ms: np.ndarray, imu_raw: np.ndarray, lengths: Sequence[int]
) -> tuple[np.ndarray, list[FilterDiagnostics]]:
    """``filter_stream`` over many streams at once: their attitudes (n, 4) and counters.

    The streams lie back to back in ``t_ms`` and ``imu_raw``, ``lengths``
    samples each, in input order. They run longest first (a stable sort
    of their start offsets), so the streams still running at sample index
    k are a prefix of the batch, and one batched step advances them all
    by one sample. Each stream gets its own masks, so a stream that skips
    a stage keeps its state bit for bit. The attitudes come back at their
    input positions and the counters in input order.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    lengths = lengths[order]
    m = len(lengths)

    # rows as lists for this line only: held through the loop, they cost the campaign ~0.25 MB of peak RSS
    first = imu_raw[starts] * _UNITS
    q = np.array([initial_state(cfg, Vec3(*r[0:3]), Vec3(*r[6:9])).q.as_tuple() for r in first.tolist()])
    bias = np.zeros((m, 3))
    p = np.repeat(_init_covariance(cfg)[None], m, axis=0)
    clamped_dt = np.zeros(m, dtype=np.int64)
    gated_accel = np.zeros(m, dtype=np.int64)
    quat = np.empty((len(t_ms), 4))
    quat[starts] = q
    for k in range(1, int(lengths[0])):
        n = int(np.searchsorted(-lengths, -k, side="left"))  # streams longer than k
        rows = starts[:n] + k  # sample k of each stream still running
        imu = imu_raw[rows] * _UNITS
        dt = (t_ms[rows] - t_ms[rows - 1]) / 1000.0
        accel, gyro, mag = imu[:, 0:3], imu[:, 3:6], imu[:, 6:9]
        running = q[:n], bias[:n], p[:n]  # views: the steps below update them in place
        clamped_dt[:n] += dt > MAX_DT_S
        _batch_predict(*running, cfg, gyro, dt)
        accepted = np.abs(_norms(accel) - 1.0) <= cfg.accel_gate
        gated_accel[:n] += ~accepted
        _batch_vector_update(*running, accel, GRAVITY_WORLD, cfg.accel_noise, accepted)
        _batch_vector_update(*running, mag, cfg.mag_reference, cfg.mag_noise, _norms(mag) >= 1e-9)
        quat[rows] = q[:n]

    # each stream's batch row, in input order; stable, as the default kind pages in ~0.3 MB of SIMD sort code
    back = np.argsort(order, kind="stable")
    return quat, [FilterDiagnostics(c, g) for c, g in zip(clamped_dt[back].tolist(), gated_accel[back].tolist())]


def _batch_predict(
    q: np.ndarray, bias: np.ndarray, p: np.ndarray, cfg: FilterConfig, gyro_dps: np.ndarray, dt_s: np.ndarray
) -> None:
    """``predict`` for every row with dt > 0, in place: integrate_gyro, then P = F P F^T + Q."""
    moving = dt_s > 0.0
    dt = np.minimum(dt_s, MAX_DT_S)
    r = (gyro_dps - bias) * _DEG * dt[:, None]
    angle = _norms(r)
    tiny = angle < 1e-12
    safe = np.where(tiny, 1.0, angle)
    half = 0.5 * angle
    dq = np.empty((len(q), 4))
    dq[:, 0] = np.where(tiny, 1.0, np.cos(half))
    dq[:, 1:] = r * np.where(tiny, 0.5, np.sin(half) / safe)[:, None]
    _assign(q, quat_multiply(q, dq), moving)

    sk = _skew(r)
    a = (np.sin(safe) / safe)[:, None, None]
    b = ((1.0 - np.cos(safe)) / (safe * safe))[:, None, None]
    f = np.zeros((len(q), 6, 6))
    f[:, :3, :3] = (_EYE3 + a * sk + b * (sk @ sk)).transpose(0, 2, 1)
    small = angle < 1e-3
    if small.any():
        f[small, :3, :3] = _EYE3 - sk[small]
    f[:, _DIAG3 + 3, _DIAG3 + 3] = 1.0
    f[:, _DIAG3, _DIAG3 + 3] = -dt[:, None]
    p_new = (f @ p) @ _transposed(f)
    p_new[:, _DIAG6, _DIAG6] += _noise_per_second(cfg) * dt[:, None]
    _assign(p, 0.5 * (p_new + p_new.transpose(0, 2, 1)), moving)


def _norms(v: np.ndarray) -> np.ndarray:
    x, y, z = v[:, 0], v[:, 1], v[:, 2]
    return np.sqrt(x * x + y * y + z * z)


def _batch_vector_update(
    q: np.ndarray,
    bias: np.ndarray,
    p: np.ndarray,
    z: np.ndarray,
    reference: Vec3,
    sigma: float,
    accepted: np.ndarray,
) -> None:
    """``_vector_update`` for every row where ``accepted``, in place."""
    h = rotate_vectors(q * _CONJUGATE, reference.as_tuple())
    hx = _skew(h)
    pht = p[:, :, :3] @ _skew(-h)  # [-h]x is [h]x transposed
    s = hx @ pht[:, :3, :]
    r = sigma * sigma
    i00, i01, i02, i11, i12, i22 = _sym3_inverse(
        s[:, 0, 0] + r, s[:, 0, 1], s[:, 0, 2], s[:, 1, 1] + r, s[:, 1, 2], s[:, 2, 2] + r
    )
    s_inv = np.stack((i00, i01, i02, i01, i11, i12, i02, i12, i22), axis=1).reshape(-1, 3, 3)
    k = pht @ s_inv
    delta = np.einsum("nij,nj->ni", k, z - h)

    dq = np.empty((len(q), 4))
    dq[:, 0] = 1.0
    dq[:, 1:] = 0.5 * delta[:, :3]
    dq /= np.sqrt(dq[:, 0] ** 2 + dq[:, 1] ** 2 + dq[:, 2] ** 2 + dq[:, 3] ** 2)[:, None]
    _assign(q, quat_multiply(q, dq), accepted)
    _assign(bias, bias + delta[:, 3:] / _DEG, accepted)
    _assign(p, p - k @ _transposed(pht), accepted)
