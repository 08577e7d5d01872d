"""Array-backed pose trajectories and their CSV interchange format.

Both ground-truth files (``truth.csv``) and replayed pointer output
(``pointer.csv``) use the same schema, one row per sample:

    t_ms,x_mm,y_mm,z_mm,qw,qx,qy,qz
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
        rows = zip(self.t_ms.tolist(), self.pos_mm.tolist(), self.quat.tolist())
        for t, (x, y, z), (qw, qx, qy, qz) in rows:
            lines.append(f"{t},{x:.10g},{y:.10g},{z:.10g},{qw:.10g},{qx:.10g},{qy:.10g},{qz:.10g}")
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
