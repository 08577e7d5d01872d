"""3D interaction techniques driven by the fused pointer state.

Body frame convention: +X is the finger's pointing direction, +Z comes
out of the fingernail. The virtual touch plane's (u, v) axes are the
body x/y axes rotated into the world, so plane attitude follows finger
attitude directly. For the fingertip mount the sensor sits rotated a
quarter turn about the body lateral axis, which is compensated by
pre-composing a fixed +90 degree pitch before deriving the plane.

Translation moves the pointer by each optical delta along the touch
plane of its frame; ``pointer_track`` does this for a whole stream and
is what both replay paths call.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geom import (
    EX,
    PlaneBasis,
    UnitQuat,
    Vec3,
    axis_angle_quat,
    quat_matrices,
    quat_multiply,
    rotate_vector,
    EY,
)
from .protocol import ScaleConfig


class MountMode(str, Enum):
    FINGERTIP = "fingertip"  # form factor 1: sensor below the fingernail
    FINGERPAD = "fingerpad"  # form factor 2: sensor on the fingerpad
    RING = "ring"  # form factor 3: worn as a ring, thumb-operated


FINGERTIP_COMPENSATION = axis_angle_quat(EY, 90.0)
_FINGERTIP = np.array(FINGERTIP_COMPENSATION.as_tuple())
STROKE_GAIN_DEG_PER_MM = 1.0  # end-of-stroke rotation per mm drawn
STROKE_DEAD_ZONE_MM = 1.0  # strokes this short or shorter rotate nothing


def derive_plane(q: UnitQuat, mode: MountMode) -> PlaneBasis:
    """Touch-plane basis for the device attitude under the given mount.

    Fingerpad and ring mounts map the body axes directly; the fingertip
    mount first applies the fixed +90 degree pitch compensation.
    """
    if mode is MountMode.FINGERTIP:
        q = q.multiply(FINGERTIP_COMPENSATION)
    u, v, n = zip(*quat_matrices(q.as_tuple()))  # the matrix's columns
    return PlaneBasis(Vec3(*u), Vec3(*v), Vec3(*n))


def pointer_track(quat: np.ndarray, dxdy: np.ndarray, scales: ScaleConfig, mode: MountMode) -> np.ndarray:
    """Pointer positions (N,3) in mm for attitudes (N,4) and optical deltas (N,2).

    Row k is the sum of the first k+1 steps, each delta taken along the
    u/v axes of its own frame's touch plane (as ``derive_plane``).
    """
    q = quat_multiply(quat, _FINGERTIP) if mode is MountMode.FINGERTIP else quat
    axes = quat_matrices(q)  # columns are the plane's u, v, n
    step = dxdy * scales.mm_per_count
    pos = np.cumsum(axes[:, :, 0] * step[:, 0:1] + axes[:, :, 1] * step[:, 1:2], axis=0)
    pos += 0.0  # a zero step along a negative axis is -0.0; the track starts from +0.0
    return pos


@dataclass(frozen=True)
class Rotation:
    axis: Vec3  # unit, lies in the stroke plane
    angle_deg: float


class StrokeAccumulator:
    """Accumulates the in-plane vector drawn between contact begin/end."""

    def __init__(self):
        self.in_plane_vector = Vec3(0.0, 0.0, 0.0)

    def add(self, dx: int, dy: int, plane: PlaneBasis, scales: ScaleConfig) -> None:
        mm = scales.mm_per_count
        v = self.in_plane_vector + plane.u.scale(dx * mm) + plane.v.scale(dy * mm)
        # keep the invariant under a drifting plane: drop any normal leak
        v = v - plane.n.scale(v.dot(plane.n))
        self.in_plane_vector = v


def end_stroke_rotation(stroke: StrokeAccumulator, plane: PlaneBasis) -> Rotation | None:
    """Rotation from a drawn stroke: angle = gain * length, axis = n x d.

    The axis lies in the plane, perpendicular to the drawn vector;
    reversing the stroke flips the rotation direction about the same
    axis line. Strokes inside the dead zone produce no rotation.
    """
    d = stroke.in_plane_vector
    length = d.norm()
    if length <= STROKE_DEAD_ZONE_MM:
        return None
    axis = plane.n.cross(d.scale(1.0 / length)).normalized()
    return Rotation(axis=axis, angle_deg=STROKE_GAIN_DEG_PER_MM * length)


# -- scene model and ray casting -------------------------------------------


@dataclass(frozen=True)
class Sphere:
    center: Vec3
    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("sphere radius must be > 0")

    def contains(self, p: Vec3) -> bool:
        return (p - self.center).norm() <= self.radius


@dataclass(frozen=True)
class Box:
    lo: Vec3
    hi: Vec3

    def __post_init__(self) -> None:
        if not (self.lo.x < self.hi.x and self.lo.y < self.hi.y and self.lo.z < self.hi.z):
            raise ValueError("box min must be componentwise below max")

    def contains(self, p: Vec3) -> bool:
        return (
            self.lo.x <= p.x <= self.hi.x
            and self.lo.y <= p.y <= self.hi.y
            and self.lo.z <= p.z <= self.hi.z
        )


@dataclass(frozen=True)
class SceneObject:
    object_id: str
    shape: Sphere | Box


@dataclass(frozen=True)
class Scene:
    objects: tuple[SceneObject, ...]


_EPS_T = 1e-9


def _ray_sphere(origin: Vec3, direction: Vec3, s: Sphere) -> float | None:
    oc = origin - s.center
    b = oc.dot(direction)
    disc = b * b - (oc.dot(oc) - s.radius * s.radius)
    if disc < 0.0:
        return None
    root = disc**0.5
    t = -b - root
    if t < _EPS_T:
        t = -b + root
    return t if t >= _EPS_T else None


def _ray_box(origin: Vec3, direction: Vec3, box: Box) -> float | None:
    t_near, t_far = -float("inf"), float("inf")
    for o, d, lo, hi in (
        (origin.x, direction.x, box.lo.x, box.hi.x),
        (origin.y, direction.y, box.lo.y, box.hi.y),
        (origin.z, direction.z, box.lo.z, box.hi.z),
    ):
        if abs(d) < 1e-15:
            if not lo <= o <= hi:
                return None
            continue
        t1, t2 = (lo - o) / d, (hi - o) / d
        if t1 > t2:
            t1, t2 = t2, t1
        t_near = max(t_near, t1)
        t_far = min(t_far, t2)
        if t_far < t_near:
            return None
    if t_far < _EPS_T:
        return None
    return t_near if t_near >= _EPS_T else t_far


def raycast_select(origin: Vec3, q: UnitQuat, scene: Scene) -> str | None:
    """Id of the closest object hit by the finger-forward ray, if any.

    Ties on the ray parameter resolve to the earliest object in scene
    order, which keeps selection deterministic.
    """
    direction = rotate_vector(q, EX)
    best_t = None
    best_id = None
    for obj in scene.objects:
        if isinstance(obj.shape, Sphere):
            t = _ray_sphere(origin, direction, obj.shape)
        else:
            t = _ray_box(origin, direction, obj.shape)
        if t is not None and (best_t is None or t < best_t):
            best_t = t
            best_id = obj.object_id
    return best_id
