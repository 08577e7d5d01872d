import math
import random

import numpy as np
import pytest

from conftest import angle_between
from touchtrace.geom import (
    EX,
    EY,
    EZ,
    IDENTITY_QUAT,
    UnitQuat,
    Vec3,
    axis_angle_quat,
    from_euler,
    EulerAngles,
    rotate_vector,
)
from touchtrace.interaction import (
    Box,
    MountMode,
    Scene,
    SceneObject,
    Sphere,
    StrokeAccumulator,
    derive_plane,
    end_stroke_rotation,
    pointer_track,
    raycast_select,
)
from touchtrace.protocol import ScaleConfig

SCALES = ScaleConfig()


def random_quat(rng):
    v = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
    if v.norm() < 1e-6:
        v = Vec3(1, 0, 0)
    return axis_angle_quat(v, rng.uniform(-180, 180))


def test_identity_fingerpad_plane():
    p = derive_plane(IDENTITY_QUAT, MountMode.FINGERPAD)
    assert p.u.as_tuple() == pytest.approx((1, 0, 0))
    assert p.v.as_tuple() == pytest.approx((0, 1, 0))
    assert p.n.as_tuple() == pytest.approx((0, 0, 1))


def test_pitched_fingerpad_plane_angle():
    q = axis_angle_quat(EY, 30.0)
    p = derive_plane(q, MountMode.FINGERPAD)
    assert angle_between(p.n, EZ) == pytest.approx(30.0, abs=1e-9)


def test_fingertip_compensation_pitch():
    q = axis_angle_quat(EY, -60.0)
    p = derive_plane(q, MountMode.FINGERTIP)
    assert angle_between(p.n, EZ) == pytest.approx(30.0, abs=1e-9)


def test_fingertip_equals_fingerpad_with_prerotation():
    rng = random.Random(1)
    ry90 = axis_angle_quat(EY, 90.0)
    for _ in range(200):
        q = random_quat(rng)
        a = derive_plane(q, MountMode.FINGERTIP)
        b = derive_plane(q.multiply(ry90), MountMode.FINGERPAD)
        assert a.u.as_tuple() == b.u.as_tuple()
        assert a.v.as_tuple() == b.v.as_tuple()
        assert a.n.as_tuple() == b.n.as_tuple()


def test_ring_mount_uses_raw_attitude():
    q = axis_angle_quat(EY, 25.0)
    a = derive_plane(q, MountMode.RING)
    b = derive_plane(q, MountMode.FINGERPAD)
    assert a == b


def track(q, deltas, mode=MountMode.FINGERPAD):
    """Pointer track of a constant attitude q over the given (dx, dy) deltas."""
    return pointer_track(np.tile(q.as_tuple(), (len(deltas), 1)), np.array(deltas), SCALES, mode)


def test_project_identity_plane():
    pos = track(IDENTITY_QUAT, [(10, 0)])
    assert tuple(pos[-1]) == pytest.approx((0.635, 0, 0), abs=1e-12)


def test_project_zero_delta_is_noop():
    pos = track(axis_angle_quat(EY, 40.0), [(0, 0), (7, -3), (0, 0)])
    assert pos[0].tolist() == [0.0, 0.0, 0.0]
    assert pos[2].tolist() == pos[1].tolist()


def test_project_on_30_degree_plane_vertical_component():
    # plane tilted 30 deg about the in-plane u axis so v carries the slope;
    # hand trigonometry: dy=100 counts must rise 100*0.0635*sin(30)
    q = axis_angle_quat(EX, 30.0)
    pos = track(q, [(0, 100)])[-1]
    assert pos[2] == pytest.approx(100 * 0.0635 * math.sin(math.radians(30)), abs=1e-9)
    oracle = rotate_vector(q, EY).scale(100 * SCALES.mm_per_count)
    assert tuple(pos) == pytest.approx(oracle.as_tuple(), abs=1e-12)


def test_translation_stays_on_plane():
    rng = random.Random(7)
    for _ in range(100):
        q = random_quat(rng)
        n = derive_plane(q, MountMode.FINGERPAD).n
        disp = Vec3(*track(q, [(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(20)])[-1])
        assert abs(disp.dot(n)) < 1e-9


def test_translation_is_path_additive():
    q = axis_angle_quat(Vec3(1, 1, 0), 37.0)
    deltas = [(3, -2), (10, 4), (-7, 1), (0, 5), (25, -25)]
    total_dx = sum(d[0] for d in deltas)
    total_dy = sum(d[1] for d in deltas)
    lump = track(q, [(total_dx, total_dy)])
    assert tuple(track(q, deltas)[-1]) == pytest.approx(tuple(lump[-1]), abs=1e-12)


@pytest.mark.parametrize("mode", list(MountMode))
def test_pointer_track_equals_stepwise_projection(mode):
    # the reference: one delta at a time along derive_plane's axes, from +0.0
    rng = random.Random(11)
    quats = [random_quat(rng) for _ in range(300)]
    deltas = [(rng.randint(-60, 60), rng.randint(-60, 60)) for _ in quats]
    deltas[:3] = [(0, 0), (0, 5), (-4, 0)]
    pos = pointer_track(np.array([q.as_tuple() for q in quats]), np.array(deltas), SCALES, mode)
    mm = SCALES.mm_per_count
    p = [0.0, 0.0, 0.0]
    for k, (q, (dx, dy)) in enumerate(zip(quats, deltas)):
        plane = derive_plane(q, mode)
        sx, sy = dx * mm, dy * mm
        p = [a + (u * sx + v * sy) for a, u, v in zip(p, plane.u.as_tuple(), plane.v.as_tuple())]
        assert pos[k].tolist() == p
    assert not np.signbit(pos[pos == 0.0]).any()


def drawn(d):
    """A stroke that has drawn the in-plane vector ``d``."""
    acc = StrokeAccumulator()
    acc.in_plane_vector = d
    return acc


def test_stroke_rotation_along_u():
    plane = derive_plane(IDENTITY_QUAT, MountMode.FINGERPAD)
    rot = end_stroke_rotation(drawn(Vec3(30.0, 0.0, 0.0)), plane)
    assert rot is not None
    assert rot.angle_deg == pytest.approx(30.0)
    assert abs(rot.axis.dot(Vec3(30, 0, 0))) < 1e-9
    assert abs(rot.axis.dot(plane.n)) < 1e-9
    # n x u = +v for the identity plane
    assert rot.axis.as_tuple() == pytest.approx((0, 1, 0), abs=1e-12)


def test_stroke_reversed_flips_direction_same_axis_line():
    plane = derive_plane(axis_angle_quat(EY, 20.0), MountMode.FINGERPAD)
    d = plane.u.scale(14.0) + plane.v.scale(-3.0)
    fwd = end_stroke_rotation(drawn(d), plane)
    rev = end_stroke_rotation(drawn(d.scale(-1.0)), plane)
    assert fwd is not None and rev is not None
    assert rev.axis.as_tuple() == pytest.approx(fwd.axis.scale(-1.0).as_tuple(), abs=1e-12)
    assert rev.angle_deg == pytest.approx(fwd.angle_deg)


def test_stroke_dead_zone():
    plane = derive_plane(IDENTITY_QUAT, MountMode.FINGERPAD)
    assert end_stroke_rotation(drawn(Vec3(0.5, 0, 0)), plane) is None


def test_stroke_axis_orthogonality_random():
    rng = random.Random(31)
    for _ in range(2000):
        q = random_quat(rng)
        plane = derive_plane(q, MountMode.FINGERPAD)
        acc = StrokeAccumulator()
        for _ in range(rng.randint(1, 10)):
            acc.add(rng.randint(-100, 100), rng.randint(-100, 100), plane, SCALES)
        rot = end_stroke_rotation(acc, plane)
        if rot is None:
            continue
        assert abs(rot.axis.dot(plane.n)) < 1e-9
        d = acc.in_plane_vector
        assert abs(rot.axis.dot(d)) < 1e-9 * max(1.0, d.norm())
        assert abs(acc.in_plane_vector.dot(plane.n)) < 1e-9


def test_raycast_picks_closest():
    scene = Scene(
        (
            SceneObject("far", Sphere(Vec3(10, 0, 0), 1.0)),
            SceneObject("near", Sphere(Vec3(5, 0, 0), 1.0)),
        )
    )
    assert raycast_select(Vec3(0, 0, 0), IDENTITY_QUAT, scene) == "near"


def test_raycast_empty_scene():
    assert raycast_select(Vec3(0, 0, 0), IDENTITY_QUAT, Scene(())) is None


def test_raycast_from_inside_a_sphere_hits_its_far_side():
    # the near root lies behind the origin; the far one, at t = 2, is closer than the sphere beyond
    scene = Scene(
        (
            SceneObject("beyond", Sphere(Vec3(3.5, 0, 0), 1.0)),
            SceneObject("around", Sphere(Vec3(0, 0, 0), 2.0)),
        )
    )
    assert raycast_select(Vec3(0, 0, 0), IDENTITY_QUAT, scene) == "around"


def test_raycast_miss_by_margin():
    scene = Scene((SceneObject("s", Sphere(Vec3(10, 2.0, 0), 1.0)),))
    assert raycast_select(Vec3(0, 0, 0), IDENTITY_QUAT, scene) is None


def test_raycast_box_from_inside_and_outside():
    scene = Scene((SceneObject("b", Box(Vec3(2, -1, -1), Vec3(4, 1, 1))),))
    assert raycast_select(Vec3(0, 0, 0), IDENTITY_QUAT, scene) == "b"
    assert raycast_select(Vec3(3, 0, 0), IDENTITY_QUAT, scene) == "b"  # inside: exit face
    assert raycast_select(Vec3(5, 0, 0), IDENTITY_QUAT, scene) is None  # behind
    assert raycast_select(Vec3(0, 5, 0), IDENTITY_QUAT, scene) is None  # parallel to the y slabs, outside them


def _sampling_oracle(origin, direction, scene, step=0.1, max_range=60.0):
    t = step
    while t <= max_range:
        p = origin + direction.scale(t)
        ids = [o.object_id for o in scene.objects if o.shape.contains(p)]
        if ids:
            return set(ids)
        t += step
    return None


def _random_scene(rng):
    objects = []
    for i in range(rng.randint(1, 4)):
        c = Vec3(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-20, 20))
        if rng.random() < 0.5:
            objects.append(SceneObject(f"s{i}", Sphere(c, rng.uniform(1.0, 5.0))))
        else:
            e = Vec3(rng.uniform(1, 5), rng.uniform(1, 5), rng.uniform(1, 5))
            objects.append(SceneObject(f"b{i}", Box(c - e, c + e)))
    return Scene(tuple(objects))


def _chord_length(origin, direction, shape, step=0.005, max_range=60.0):
    inside = 0
    t = step
    while t <= max_range:
        if shape.contains(origin + direction.scale(t)):
            inside += 1
        t += step
    return inside * step


def _aimed_quat(origin, target, rng, jitter_deg=8.0):
    """Attitude whose forward axis points near the target direction."""
    d = (target - origin).normalized()
    yaw = math.degrees(math.atan2(d.y, d.x)) + rng.uniform(-jitter_deg, jitter_deg)
    pitch = -math.degrees(math.asin(max(-1.0, min(1.0, d.z)))) + rng.uniform(
        -jitter_deg, jitter_deg
    )
    return from_euler(EulerAngles(yaw=yaw, pitch=pitch, roll=0.0))


def test_raycast_agrees_with_sampling_oracle():
    rng = random.Random(1234)
    checked = 0
    for _ in range(300):
        scene = _random_scene(rng)
        target = rng.choice(scene.objects)
        if isinstance(target.shape, Sphere):
            aim = target.shape.center
        else:
            aim = (target.shape.lo + target.shape.hi).scale(0.5)
        origin = Vec3(rng.uniform(-45, -35), rng.uniform(-5, 5), rng.uniform(-5, 5))
        q = _aimed_quat(origin, aim, rng, jitter_deg=4.0)
        direction = rotate_vector(q, EX)
        picked = raycast_select(origin, q, scene)
        oracle = _sampling_oracle(origin, direction, scene, max_range=150.0)
        if oracle is None:
            if picked is not None:
                # tolerate sub-step grazes the oracle cannot see
                shape = next(o.shape for o in scene.objects if o.object_id == picked)
                assert _chord_length(origin, direction, shape) <= 0.1
            continue
        assert picked in oracle
        checked += 1
    assert checked > 100
