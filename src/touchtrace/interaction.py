"""3D interaction techniques driven by the fused pointer state.

Body frame convention: +X is the finger's pointing direction, +Z comes
out of the fingernail. The virtual touch plane's (u, v) axes are the
body x/y axes rotated into the world, so plane attitude follows finger
attitude directly. For the fingertip mount the sensor sits rotated a
quarter turn about the body lateral axis, which is compensated by
pre-composing a fixed +90 degree pitch before deriving the plane.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .geom import (
    EX,
    PlaneBasis,
    UnitQuat,
    Vec3,
    axis_angle_quat,
    plane_from_quat,
    rotate_vector,
    to_euler,
    EY,
)
from .protocol import ScaleConfig


class MountMode(str, Enum):
    FINGERTIP = "fingertip"  # form factor 1: sensor below the fingernail
    FINGERPAD = "fingerpad"  # form factor 2: sensor on the fingerpad
    RING = "ring"  # form factor 3: worn as a ring, thumb-operated

    @staticmethod
    def from_name(name: str) -> "MountMode":
        try:
            return MountMode(name)
        except ValueError:
            raise ValueError(
                f"mount must be one of {', '.join(m.value for m in MountMode)}"
            ) from None


FINGERTIP_COMPENSATION = axis_angle_quat(EY, 90.0)


@dataclass(frozen=True)
class PointerState:
    position: Vec3  # mm, relative to session start
    plane: PlaneBasis
    forward: Vec3  # unit finger pointing direction


def derive_plane(q: UnitQuat, mode: MountMode, origin: Vec3 = Vec3(0, 0, 0)) -> PlaneBasis:
    """Touch-plane basis for the device attitude under the given mount.

    Fingerpad and ring mounts map the body axes directly; the fingertip
    mount first applies the fixed +90 degree pitch compensation.
    """
    if mode is MountMode.FINGERTIP:
        q = q.multiply(FINGERTIP_COMPENSATION)
    return plane_from_quat(q, origin)


def pointer_state(q: UnitQuat, mode: MountMode, position: Vec3 = Vec3(0, 0, 0)) -> PointerState:
    return PointerState(position=position, plane=derive_plane(q, mode), forward=rotate_vector(q, EX))


def project_delta(state: PointerState, dx: int, dy: int, scales: ScaleConfig) -> PointerState:
    """Advance the pointer by one optical delta along the current plane."""
    mm = scales.mm_per_count
    u, v = state.plane.u, state.plane.v
    step = u.scale(dx * mm) + v.scale(dy * mm)
    return PointerState(
        position=state.position + step, plane=state.plane, forward=state.forward
    )


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

    def reset(self) -> None:
        self.in_plane_vector = Vec3(0.0, 0.0, 0.0)


def end_stroke_rotation(
    stroke: StrokeAccumulator | Vec3,
    plane: PlaneBasis,
    gain_deg_per_mm: float = 1.0,
    dead_zone_mm: float = 1.0,
) -> Rotation | None:
    """Rotation from a drawn stroke: angle = gain * length, axis = n x d.

    The axis lies in the plane, perpendicular to the drawn vector;
    reversing the stroke flips the rotation direction about the same
    axis line. Strokes inside the dead zone produce no rotation.
    """
    d = stroke.in_plane_vector if isinstance(stroke, StrokeAccumulator) else stroke
    length = d.norm()
    if length <= dead_zone_mm:
        return None
    axis = plane.n.cross(d.scale(1.0 / length)).normalized()
    return Rotation(axis=axis, angle_deg=gain_deg_per_mm * length)


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

# the cast ray starts from a pre-configured point: screen-center-bottom in
# normalized display coordinates for 2D scenes, the world origin for 3D
DEFAULT_RAY_ORIGIN_2D = Vec3(0.5, 0.0, 0.0)
DEFAULT_RAY_ORIGIN_3D = Vec3(0.0, 0.0, 0.0)


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


def load_scene(path) -> Scene:
    """Scene file: JSON array of {"id", "sphere": {"c", "r"}} / {"box": {"min", "max"}}."""
    entries = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(entries, list):
        raise ValueError(f"{path}: scene file must be a JSON array")
    objects = []
    for i, entry in enumerate(entries):
        if "id" not in entry:
            raise ValueError(f"{path}: scene object {i} is missing an id")
        if "sphere" in entry:
            c = entry["sphere"]["c"]
            shape: Sphere | Box = Sphere(Vec3(*c), float(entry["sphere"]["r"]))
        elif "box" in entry:
            shape = Box(Vec3(*entry["box"]["min"]), Vec3(*entry["box"]["max"]))
        else:
            raise ValueError(f"{path}: scene object {entry['id']!r} needs a sphere or box")
        objects.append(SceneObject(str(entry["id"]), shape))
    return Scene(tuple(objects))


def save_scene(scene: Scene, path) -> None:
    entries = []
    for obj in scene.objects:
        if isinstance(obj.shape, Sphere):
            entries.append(
                {"id": obj.object_id, "sphere": {"c": list(obj.shape.center.as_tuple()), "r": obj.shape.radius}}
            )
        else:
            entries.append(
                {
                    "id": obj.object_id,
                    "box": {"min": list(obj.shape.lo.as_tuple()), "max": list(obj.shape.hi.as_tuple())},
                }
            )
    Path(path).write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")


# -- 2D pointer mapping (select-on-screen mode) -----------------------------


def map_pointer_2d(
    q: UnitQuat,
    reference: UnitQuat,
    gain_x_per_deg: float = 1.0 / 60.0,
    gain_y_per_deg: float = 1.0 / 60.0,
    bounds: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 1.0), (0.0, 1.0)),
) -> tuple[float, float]:
    """Yaw/pitch relative to the capture-time reference, mapped to the screen.

    The pointer sits at the bounds center for the reference attitude and
    moves linearly with relative yaw (x) and pitch (y), clamped to bounds.
    """
    if gain_x_per_deg <= 0 or gain_y_per_deg <= 0:
        raise ValueError("pointer gains must be > 0")
    (x0, x1), (y0, y1) = bounds
    rel = reference.conjugate().multiply(q)
    e = to_euler(rel)
    x = 0.5 * (x0 + x1) + e.yaw * gain_x_per_deg
    y = 0.5 * (y0 + y1) + e.pitch * gain_y_per_deg
    return (min(x1, max(x0, x)), min(y1, max(y0, y)))
