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
exists twice, with one set of equations: ``OrientationFilter`` runs one
stream sample by sample (the streaming replay path), and ``batch_step``
advances many streams at once over stacked states, ``q (N,4)``,
``bias (N,3)`` and ``P (N,6,6)``, for the campaign's lockstep replay.
The property tests hold the batched step to the streaming filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geom import GRAVITY_WORLD, IDENTITY_QUAT, UnitQuat, Vec3, integrate_gyro, quat_from_matrix, rotate_vector
from .protocol import CalibratedSample
from .trajectory import quat_multiply, rotate_vectors

_DEG = math.pi / 180.0

MAX_DT_S = 0.1


@dataclass(frozen=True)
class FilterConfig:
    """Noise tuning, all strictly positive.

    The defaults are calibrated for the synthetic sensor model shipped in
    :mod:`touchtrace.simulate`: measurement trust is deliberately weak so
    short traces ride the gyro, which is what gives the evaluation
    campaign its drift-with-duration error profile.
    """

    gyro_noise_density: float = 0.03  # deg/s/sqrt(Hz)
    bias_random_walk: float = 0.003  # deg/s per sqrt(s)
    accel_noise: float = 0.45  # g, per-axis measurement sigma
    mag_noise: float = 0.18  # gauss, per-axis measurement sigma
    mag_reference: Vec3 = Vec3(0.2, 0.0, -0.4)  # gauss, world frame
    accel_gate: float = 0.3  # g; reject when | |a| - 1g | exceeds this
    init_attitude_sigma_deg: float = 30.0
    init_bias_sigma_dps: float = 0.5

    def __post_init__(self) -> None:
        for name in (
            "gyro_noise_density",
            "bias_random_walk",
            "accel_noise",
            "mag_noise",
            "accel_gate",
            "init_attitude_sigma_deg",
            "init_bias_sigma_dps",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True, eq=False)
class FilterState:
    q: UnitQuat
    gyro_bias_dps: Vec3
    covariance: np.ndarray  # 6x6; attitude rad^2, bias (rad/s)^2


@dataclass(frozen=True)
class OrientationEstimate:
    timestamp_ms: int
    q: UnitQuat
    gyro_bias_dps: Vec3
    covariance: np.ndarray


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
    w3 = w1.cross(w2)
    b3 = b1.cross(b2)
    # R = W B^T with W, B holding the triads as columns
    rot = [
        [
            w1.as_tuple()[r] * b1.as_tuple()[c]
            + w2.as_tuple()[r] * b2.as_tuple()[c]
            + w3.as_tuple()[r] * b3.as_tuple()[c]
            for c in range(3)
        ]
        for r in range(3)
    ]
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
    dt = min(dt_s, MAX_DT_S)
    omega = gyro_dps - state.gyro_bias_dps
    q = integrate_gyro(state.q, omega, dt)

    # error transition: dtheta' = Phi dtheta - dt * dbias
    rx, ry, rz = omega.x * _DEG * dt, omega.y * _DEG * dt, omega.z * _DEG * dt
    f = np.zeros((6, 6))
    f[:3, :3] = _rotvec_matrix_t(rx, ry, rz)
    f[3, 3] = f[4, 4] = f[5, 5] = 1.0
    f[0, 3] = f[1, 4] = f[2, 5] = -dt

    p = f @ state.covariance @ f.T + _process_noise(cfg, dt)
    p = 0.5 * (p + p.T)
    return FilterState(q=q, gyro_bias_dps=state.gyro_bias_dps, covariance=p)


def _rotvec_matrix_t(rx: float, ry: float, rz: float) -> np.ndarray:
    """Transpose of the rotation matrix of the rotation vector (rx, ry, rz)."""
    angle = math.sqrt(rx * rx + ry * ry + rz * rz)
    sk = np.array(((0.0, -rz, ry), (rz, 0.0, -rx), (-ry, rx, 0.0)))
    if angle < 1e-3:
        # first order is exact to ~angle^2/2, far below the tuning noise
        return _EYE3 - sk
    a = math.sin(angle) / angle
    b = (1.0 - math.cos(angle)) / (angle * angle)
    return (_EYE3 + a * sk + b * (sk @ sk)).T


def _vector_update(
    state: FilterState, z: Vec3, reference: Vec3, sigma: float
) -> FilterState:
    q_conj = state.q.conjugate()
    h = rotate_vector(q_conj, reference)  # predicted body-frame observation

    hx = np.array(((0.0, -h.z, h.y), (h.z, 0.0, -h.x), (-h.y, h.x, 0.0)))
    p = state.covariance
    pht = p[:, :3] @ hx.T  # P H^T, 6x3
    s = hx @ pht[:3, :]  # H P H^T; add R on the diagonal below
    r = sigma * sigma
    (s00, s01, s02), (_, s11, s12), (_, _, s22) = s.tolist()
    i00, i01, i02, i11, i12, i22 = _sym3_inverse(s00 + r, s01, s02, s11 + r, s12, s22 + r)
    s_inv = np.array(((i00, i01, i02), (i01, i11, i12), (i02, i12, i22)))
    k = pht @ s_inv  # 6x3 Kalman gain
    delta = k @ np.array((z.x - h.x, z.y - h.y, z.z - h.z))

    d0, d1, d2, d3, d4, d5 = delta.tolist()
    dq = UnitQuat(1.0, 0.5 * d0, 0.5 * d1, 0.5 * d2).normalized()
    q_new = state.q.multiply(dq)
    bias_new = state.gyro_bias_dps + Vec3(d3 / _DEG, d4 / _DEG, d5 / _DEG)

    # (I - K H) P via H P = (P H^T)^T; the residual asymmetry is float
    # noise at ~1e-18 and predict re-symmetrizes once per sample
    p_new = p - k @ pht.T
    return FilterState(q=q_new, gyro_bias_dps=bias_new, covariance=p_new)


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


def update_accel(state: FilterState, cfg: FilterConfig, accel_g: Vec3) -> tuple[FilterState, bool]:
    """Gravity-direction update. Returns (state, accepted).

    Measurements whose magnitude strays from 1 g by more than the gate
    are skipped and the state is returned unchanged.
    """
    if abs(accel_g.norm() - 1.0) > cfg.accel_gate:
        return state, False
    return _vector_update(state, accel_g, GRAVITY_WORLD, cfg.accel_noise), True


def update_mag(state: FilterState, cfg: FilterConfig, mag_gauss: Vec3) -> tuple[FilterState, bool]:
    """World-field update against the configured magnetic reference."""
    if mag_gauss.norm() < 1e-9:
        return state, False
    return _vector_update(state, mag_gauss, cfg.mag_reference, cfg.mag_noise), True


class OrientationFilter:
    """Streaming wrapper: one instance per sensor stream.

    Initializes from the first sample's accel+mag pair (TRIAD), then runs
    predict + accel update + mag update per sample, emitting an estimate
    synchronized to the frame timestamp.
    """

    def __init__(self, config: FilterConfig | None = None):
        self.config = config or FilterConfig()
        self.state: FilterState | None = None
        self.diagnostics = FilterDiagnostics()
        self._last_t_ms: int | None = None

    def process(self, sample: CalibratedSample) -> OrientationEstimate:
        t = sample.timestamp_ms
        if self._last_t_ms is not None and t < self._last_t_ms:
            raise ValueError(
                f"out-of-order timestamp: {t} ms arrived after {self._last_t_ms} ms"
            )
        if self.state is None:
            self.state = initial_state(self.config, sample.accel_g, sample.mag_gauss)
        else:
            dt = (t - self._last_t_ms) / 1000.0
            if dt > 0.0:
                if dt > MAX_DT_S:
                    self.diagnostics.clamped_dt += 1
                self.state = predict(self.state, self.config, sample.gyro_dps, dt)
            self.state, accepted = update_accel(self.state, self.config, sample.accel_g)
            if not accepted:
                self.diagnostics.gated_accel += 1
            self.state, _ = update_mag(self.state, self.config, sample.mag_gauss)
        self._last_t_ms = t
        return OrientationEstimate(
            timestamp_ms=t,
            q=self.state.q,
            gyro_bias_dps=self.state.gyro_bias_dps,
            covariance=self.state.covariance,
        )


# -- lockstep over many streams -----------------------------------------------

_DIAG3 = np.arange(3)
_DIAG6 = np.arange(6)
_CONJUGATE = np.array((1.0, -1.0, -1.0, -1.0))
_SKEW_PLUS = [7, 2, 3]  # flat slots of +x, +y, +z in [[0,-z,y],[z,0,-x],[-y,x,0]]
_SKEW_MINUS = [5, 6, 1]


@dataclass(eq=False)
class BatchState:
    """Filter states of N streams, stacked for ``batch_step``.

    Rows are streams sorted by length, longest first, so the streams
    still running at any step are a prefix ``[:n]``. The counters are
    the per-stream ``FilterDiagnostics``.
    """

    q: np.ndarray  # (N, 4), (w, x, y, z)
    gyro_bias_dps: np.ndarray  # (N, 3)
    covariance: np.ndarray  # (N, 6, 6)
    clamped_dt: np.ndarray  # (N,) int
    gated_accel: np.ndarray  # (N,) int

    def diagnostics(self, i: int) -> FilterDiagnostics:
        return FilterDiagnostics(int(self.clamped_dt[i]), int(self.gated_accel[i]))


def initial_batch(cfg: FilterConfig, accel_g: np.ndarray, mag_gauss: np.ndarray) -> BatchState:
    """Stacked ``initial_state`` of each stream's first accel+mag pair, (N,3) each."""
    n = len(accel_g)
    q = [
        initial_state(cfg, Vec3(*a), Vec3(*m)).q.as_tuple()
        for a, m in zip(accel_g.tolist(), mag_gauss.tolist())
    ]
    return BatchState(
        q=np.array(q, dtype=float).reshape(n, 4),
        gyro_bias_dps=np.zeros((n, 3)),
        covariance=np.repeat(_init_covariance(cfg)[None], n, axis=0),
        clamped_dt=np.zeros(n, dtype=np.int64),
        gated_accel=np.zeros(n, dtype=np.int64),
    )


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


def batch_step(
    state: BatchState,
    cfg: FilterConfig,
    dt_s: np.ndarray,
    gyro_dps: np.ndarray,
    accel_g: np.ndarray,
    mag_gauss: np.ndarray,
) -> None:
    """Advance the first ``len(dt_s)`` streams of ``state`` by one sample, in place.

    Per stream this is ``OrientationFilter.process`` on a sample after the
    first: predict when dt > 0 (dt above MAX_DT_S clamped and counted),
    then the accel update unless gated (counted) and the mag update unless
    the field reads zero. Each stream gets its own masks, so a stream that
    skips a stage keeps its state bit for bit.
    """
    n = len(dt_s)
    q, bias, p = state.q[:n], state.gyro_bias_dps[:n], state.covariance[:n]
    state.clamped_dt[:n] += dt_s > MAX_DT_S
    _batch_predict(q, bias, p, cfg, gyro_dps, dt_s)
    accepted = np.abs(_norms(accel_g) - 1.0) <= cfg.accel_gate
    state.gated_accel[:n] += ~accepted
    _batch_vector_update(q, bias, p, accel_g, GRAVITY_WORLD, cfg.accel_noise, accepted)
    _batch_vector_update(q, bias, p, mag_gauss, cfg.mag_reference, cfg.mag_noise, _norms(mag_gauss) >= 1e-9)


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


def save_filter_config(cfg: FilterConfig, path) -> None:
    lines = [
        f"gyro_noise_density={cfg.gyro_noise_density!r}",
        f"bias_random_walk={cfg.bias_random_walk!r}",
        f"accel_noise={cfg.accel_noise!r}",
        f"mag_noise={cfg.mag_noise!r}",
        f"mag_reference={cfg.mag_reference.x!r},{cfg.mag_reference.y!r},{cfg.mag_reference.z!r}",
        f"accel_gate={cfg.accel_gate!r}",
        f"init_attitude_sigma_deg={cfg.init_attitude_sigma_deg!r}",
        f"init_bias_sigma_dps={cfg.init_bias_sigma_dps!r}",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_filter_config(path) -> FilterConfig:
    """Flat key=value file; keys are exactly the FilterConfig field names."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "mag_reference":
            parts = [float(p) for p in value.split(",")]
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: mag_reference needs 3 components")
            values[key] = Vec3(*parts)
        else:
            values[key] = float(value)
    unknown = set(values) - set(FilterConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(f"{path}: unknown filter config keys: {sorted(unknown)}")
    return FilterConfig(**values)  # type: ignore[arg-type]
