import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import MIXED_SPECS, angle_between
from touchtrace.geom import (
    EX,
    EY,
    EZ,
    IDENTITY_QUAT,
    EulerAngles,
    UnitQuat,
    Vec3,
    axis_angle_quat,
    from_euler,
    integrate_gyro,
    quat_from_matrix,
    quat_matrices,
    quat_midpoints,
    quat_multiply,
    quat_relative_rotvec,
    rotate_vector,
    rotate_vectors,
    to_euler,
)
from touchtrace.simulate import gen_trajectories, group_by_cell

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
unit_quats = st.tuples(finite, finite, finite, finite).filter(
    lambda t: sum(c * c for c in t) > 1e-6
).map(lambda t: UnitQuat(*t).normalized())
vecs = st.builds(Vec3, finite, finite, finite)


def assert_vec_close(a: Vec3, b: Vec3, tol=1e-9):
    assert abs(a.x - b.x) <= tol and abs(a.y - b.y) <= tol and abs(a.z - b.z) <= tol


def test_rotate_identity():
    assert_vec_close(rotate_vector(IDENTITY_QUAT, Vec3(1, 2, 3)), Vec3(1, 2, 3))


def test_rotate_quarter_turn_about_z():
    q = axis_angle_quat(EZ, 90.0)
    assert_vec_close(rotate_vector(q, EX), Vec3(0, 1, 0))


def test_rotate_half_turn_about_x():
    q = axis_angle_quat(EX, 180.0)
    assert_vec_close(rotate_vector(q, EY), Vec3(0, -1, 0))


@given(unit_quats, vecs, vecs)
def test_rotation_preserves_dot_products(q, v1, v2):
    r1 = rotate_vector(q, v1)
    r2 = rotate_vector(q, v2)
    scale = max(1.0, abs(v1.dot(v2)))
    assert abs(r1.dot(r2) - v1.dot(v2)) <= 1e-9 * scale


@given(unit_quats, vecs)
def test_rotation_preserves_length(q, v):
    assert abs(rotate_vector(q, v).norm() - v.norm()) <= 1e-9 * max(1.0, v.norm())


def test_integrate_zero_rate():
    q = integrate_gyro(IDENTITY_QUAT, Vec3(0, 0, 0), 0.37)
    assert q.as_tuple() == IDENTITY_QUAT.as_tuple()


def test_integrate_constant_rate_exact():
    q = integrate_gyro(IDENTITY_QUAT, Vec3(0, 0, 90.0), 1.0)
    s = math.sqrt(0.5)
    assert q.w == pytest.approx(s, abs=1e-4)
    assert q.z == pytest.approx(s, abs=1e-4)
    assert q.x == pytest.approx(0, abs=1e-9)
    assert q.y == pytest.approx(0, abs=1e-9)


def test_integrate_two_half_steps_compose():
    q1 = integrate_gyro(IDENTITY_QUAT, Vec3(0, 0, 90.0), 1.0)
    q2 = integrate_gyro(
        integrate_gyro(IDENTITY_QUAT, Vec3(0, 0, 90.0), 0.5), Vec3(0, 0, 90.0), 0.5
    )
    for a, b in zip(q1.as_tuple(), q2.as_tuple()):
        assert a == pytest.approx(b, abs=1e-6)


def test_integrate_negative_dt_rejected():
    with pytest.raises(ValueError):
        integrate_gyro(IDENTITY_QUAT, Vec3(1, 0, 0), -0.01)


def test_norm_stays_unit_over_many_steps():
    q = IDENTITY_QUAT
    for _ in range(100_000):
        q = integrate_gyro(q, Vec3(3.0, -7.0, 11.0), 0.02)
    assert abs(q.norm() - 1.0) <= 1e-6


def test_euler_identity():
    e = to_euler(IDENTITY_QUAT)
    assert (e.yaw, e.pitch, e.roll) == pytest.approx((0, 0, 0), abs=1e-9)


def test_euler_pure_pitch():
    e = to_euler(axis_angle_quat(EY, 30.0))
    assert e.pitch == pytest.approx(30.0, abs=1e-9)
    assert e.yaw == pytest.approx(0.0, abs=1e-9)
    assert e.roll == pytest.approx(0.0, abs=1e-9)


def test_euler_round_trip():
    e = EulerAngles(yaw=10.0, pitch=20.0, roll=30.0)
    back = to_euler(from_euler(e))
    assert back.yaw == pytest.approx(10.0, abs=1e-6)
    assert back.pitch == pytest.approx(20.0, abs=1e-6)
    assert back.roll == pytest.approx(30.0, abs=1e-6)


@given(
    st.floats(min_value=-179.0, max_value=179.0),
    st.floats(min_value=-88.0, max_value=88.0),
    st.floats(min_value=-179.0, max_value=179.0),
)
def test_euler_round_trip_away_from_lock(yaw, pitch, roll):
    back = to_euler(from_euler(EulerAngles(yaw, pitch, roll)))
    assert back.yaw == pytest.approx(yaw, abs=1e-6)
    assert back.pitch == pytest.approx(pitch, abs=1e-6)
    assert back.roll == pytest.approx(roll, abs=1e-6)


def test_euler_gimbal_lock_convention():
    e = to_euler(axis_angle_quat(EY, 90.0))
    assert e.pitch == pytest.approx(90.0, abs=1e-6)
    assert e.roll == 0.0
    for pitch in (90.0, -90.0):  # either lock recovers the yaw
        e = to_euler(from_euler(EulerAngles(yaw=30.0, pitch=pitch, roll=0.0)))
        assert (e.yaw, e.pitch, e.roll) == (pytest.approx(30.0, abs=1e-6), pitch, 0.0)


def test_angle_between_basics():
    assert angle_between(Vec3(1, 0, 0), Vec3(1, 0, 0)) == pytest.approx(0.0)
    assert angle_between(Vec3(1, 0, 0), Vec3(0, 1, 0)) == pytest.approx(90.0)
    assert angle_between(Vec3(1, 0, 0), Vec3(-1, 0, 0)) == pytest.approx(180.0)


def test_angle_between_zero_vector_rejected():
    with pytest.raises(ValueError):
        angle_between(Vec3(0, 0, 0), Vec3(1, 0, 0))


@given(unit_quats)
def test_plane_basis_orthonormal(q):
    u, v, n = (Vec3(*column) for column in zip(*quat_matrices(q.as_tuple())))
    assert abs(u.dot(v)) <= 1e-9
    assert abs(u.dot(n)) <= 1e-9
    assert abs(v.dot(n)) <= 1e-9
    assert_vec_close(u.cross(v), n, tol=1e-9)
    for axis in (u, v, n):
        assert abs(axis.norm() - 1.0) <= 1e-9


@given(unit_quats)
def test_matrix_round_trip(q):
    back = quat_from_matrix(quat_matrices(q.as_tuple()))
    # q and -q encode the same rotation
    sign = 1.0 if back.w * q.w + back.x * q.x + back.y * q.y + back.z * q.z >= 0 else -1.0
    for a, b in zip(q.as_tuple(), back.as_tuple()):
        assert a == pytest.approx(sign * b, abs=1e-7)


def _random_quats(rng, n):
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def test_quat_product_is_bitwise_equal_on_floats_and_arrays():
    rng = np.random.default_rng(5)
    a, b = _random_quats(rng, 500), _random_quats(rng, 500)
    rows = quat_multiply(a, b)
    for k in range(500):
        scalar = UnitQuat(*a[k]).multiply(UnitQuat(*b[k]))
        assert scalar.as_tuple() == tuple(rows[k])
    # one right-hand quaternion for every row
    rows = quat_multiply(a, b[0])
    for k in range(500):
        assert UnitQuat(*a[k]).multiply(UnitQuat(*b[0])).as_tuple() == tuple(rows[k])


def test_vector_rotation_is_bitwise_equal_on_floats_and_arrays():
    rng = np.random.default_rng(6)
    q = _random_quats(rng, 500)
    for v in rng.normal(scale=10.0, size=(5, 3)).tolist():
        rows = rotate_vectors(q, tuple(v))
        for k in range(500):
            assert rotate_vector(UnitQuat(*q[k]), Vec3(*v)).as_tuple() == tuple(rows[k])


@given(st.lists(unit_quats, min_size=1, max_size=20))
def test_rotating_x_equals_the_first_matrix_column_bit_for_bit(quats):
    # the scorer's forward axes: building column 0 alone loses no bit, unless a product of
    # two components is subnormal, where 2 * (a * b) and a * (2 * b) round apart
    q = np.array([u.as_tuple() for u in quats])
    axes, column = rotate_vectors(q, (1.0, 0.0, 0.0)), quat_matrices(q)[:, :, 0]
    products = np.abs(q[:, :, None] * q[:, None, :])
    normal = ~((products > 0) & (products < 2 * np.finfo(float).tiny)).any(axis=(1, 2))
    assert np.array_equal(axes[normal], column[normal])
    assert np.allclose(axes, column, rtol=0.0, atol=1e-300)


@given(unit_quats, unit_quats)
def test_relative_rotation_vector_takes_the_short_way_whatever_the_signs(a, b):
    # q and -q are one rotation, so the step between two poses is at most pi rad, however each is signed
    q = np.array([a.as_tuple(), b.as_tuple()])
    for signs in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
        assert np.linalg.norm(quat_relative_rotvec(q * np.array(signs)[:, None])) <= math.pi + 1e-12


def test_quaternion_array_helpers_run_along_the_frame_axis_bit_for_bit():
    rng = np.random.default_rng(7)
    stacks = [_random_quats(rng, 4 * 30).reshape(4, 30, 4)]  # random signs: midpoints flip some
    stacks += [gen_trajectories([MIXED_SPECS[i] for i in cell]).quat for cell in group_by_cell(MIXED_SPECS)]
    for q in stacks:
        for helper in (quat_matrices, quat_midpoints, quat_relative_rotvec):
            assert np.array_equal(helper(q), np.stack([helper(row) for row in q]))
