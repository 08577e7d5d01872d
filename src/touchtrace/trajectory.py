"""Array-backed pose trajectories and their CSV interchange format.

Both ground-truth files (``truth.csv``) and replayed pointer output
(``pointer.csv``) use the same schema, one row per sample:

    t_ms,x_mm,y_mm,z_mm,qw,qx,qy,qz
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CSV_HEADER = "t_ms,x_mm,y_mm,z_mm,qw,qx,qy,qz"
_CSV_ROW = "%d" + ",%.10g" * 7 + "\n"


@dataclass
class Trajectory:
    t_ms: np.ndarray  # (..., N) int64; leading axes stack trials, as of a grid cell
    pos_mm: np.ndarray  # (..., N, 3) float64
    quat: np.ndarray  # (..., N, 4) float64, (w, x, y, z)

    def __post_init__(self) -> None:
        self.t_ms = np.asarray(self.t_ms, dtype=np.int64)
        self.pos_mm = np.asarray(self.pos_mm, dtype=np.float64)
        self.quat = np.asarray(self.quat, dtype=np.float64)
        shape = self.t_ms.shape
        if self.pos_mm.shape != shape + (3,) or self.quat.shape != shape + (4,):
            raise ValueError("trajectory arrays have inconsistent shapes")

    def __len__(self) -> int:  # samples per trial
        return self.t_ms.shape[-1]

    @staticmethod
    def stack(trials: list["Trajectory"]) -> "Trajectory":
        """Equal-length trials stacked along a new leading axis."""
        return Trajectory(*(np.stack([getattr(t, name) for t in trials]) for name in ("t_ms", "pos_mm", "quat")))

    def trial(self, i: int) -> "Trajectory":
        """Trial ``i`` of a stack, sharing its arrays."""
        return Trajectory(self.t_ms[i], self.pos_mm[i], self.quat[i])

    def write_csv(self, path) -> None:
        rows = np.empty((len(self), 8), dtype=object)
        rows[:, 0], rows[:, 1:4], rows[:, 4:] = self.t_ms, self.pos_mm, self.quat
        body = _CSV_ROW * len(self) % tuple(rows.ravel().tolist())
        Path(path).write_text(CSV_HEADER + "\n" + body, encoding="utf-8")


def read_csv(path) -> Trajectory:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: expected header {CSV_HEADER!r}")
    rows = lines[1:]
    try:
        if any(ln.count(",") != 7 for ln in rows):
            raise ValueError
        fields = ",".join(rows).split(",") if rows else []
        t = np.array(list(map(int, fields[0::8])), dtype=np.int64)
        del fields[0::8]
        values = np.array(list(map(float, fields))).reshape(len(rows), 7)
        if not np.isfinite(values).all():
            raise ValueError
    except (ValueError, OverflowError):
        for ln in rows:  # name the first malformed row, as a row-by-row parse would
            parts = ln.split(",")
            if len(parts) != 8:
                raise ValueError(f"{path}: malformed row {ln!r}") from None
            try:
                stamp, floats = int(parts[0]), [float(p) for p in parts[1:]]
            except ValueError as exc:
                raise ValueError(f"{path}: {exc} in row {ln!r}") from None
            if not -(2**63) <= stamp < 2**63:
                raise ValueError(f"{path}: t_ms out of int64 range in row {ln!r}") from None
            if not all(map(math.isfinite, floats)):
                raise ValueError(f"{path}: non-finite value in row {ln!r}") from None
        raise
    return Trajectory(t, values[:, 0:3], values[:, 3:7])
