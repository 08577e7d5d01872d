"""Contact sensing and tap / double-tap / press detection.

Everything is keyed off the optical sensor's surface-quality scalar
(SQUAL, 0..169) and the per-frame x/y count deltas:

* contact        SQUAL at or above ``contact_squal``
* tap            rise from below ``contact_squal`` to at least
                 ``tap_squal`` and back below ``contact_squal`` within
                 ``tap_window_ms``, with the net movement while in
                 contact inside +/- ``tap_move_limit_counts`` per axis
* double tap     two taps whose onsets are between the min and max
                 pairing gap and whose positions differ by at most
                 ``doubletap_offset_counts`` on both axes
* press          SQUAL held at or above ``press_squal`` for
                 ``press_hold_ms`` without the tap's rise-and-fall

A completed tap is withheld until the double-tap pairing window can no
longer be satisfied, at the head of one list that also holds every event
emitted after it, so the emitted stream stays timestamp-ordered.

The thresholds default to the mousepad profile; other textures load
their own numbers from a gesture-config file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .protocol import SQUAL_MAX

CONTACT_BEGIN = "ContactBegin"
CONTACT_END = "ContactEnd"
TAP = "Tap"
DOUBLE_TAP = "DoubleTap"
PRESS_BEGIN = "PressBegin"
PRESS_END = "PressEnd"


@dataclass(frozen=True)
class GestureConfig:
    contact_squal: int = 10
    tap_squal: int = 40
    tap_window_ms: int = 300
    tap_move_limit_counts: int = 5
    doubletap_min_gap_ms: int = 200
    doubletap_max_gap_ms: int = 500
    doubletap_offset_counts: int = 15
    press_squal: int = 40
    press_hold_ms: int = 300

    def __post_init__(self) -> None:
        if not 0 < self.contact_squal <= self.tap_squal <= SQUAL_MAX:
            raise ValueError(f"need 0 < contact_squal <= tap_squal <= {SQUAL_MAX}")
        if not self.contact_squal <= self.press_squal <= SQUAL_MAX:
            raise ValueError(f"need contact_squal <= press_squal <= {SQUAL_MAX}")
        for name in ("tap_move_limit_counts", "doubletap_offset_counts"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("tap_window_ms", "doubletap_max_gap_ms", "press_hold_ms"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if not 0 <= self.doubletap_min_gap_ms <= self.doubletap_max_gap_ms:
            raise ValueError("need 0 <= doubletap_min_gap_ms <= doubletap_max_gap_ms")


@dataclass(frozen=True)
class GestureEvent:
    kind: str
    t_ms: int
    x: int  # accumulated counts at the event
    y: int

    def to_json(self) -> str:
        return json.dumps({"t_ms": self.t_ms, "kind": self.kind, "x": self.x, "y": self.y})


class GestureDetector:
    """Deterministic per-stream state machine over sensor frames.

    Feed frames via :meth:`step`; call :meth:`finish` exactly once at end
    of stream to flush a still-withheld tap. Timestamps must not decrease;
    replay checks this once per stream, before the detector runs, so the
    detector does not.

    A withheld tap is the ``Tap`` event it will become, at the head of
    ``_held`` with every event emitted after it (``None``: none withheld).
    A lapsed window, an unpaired second tap or :meth:`finish` releases the
    whole list; a pairing tap releases its tail and appends ``DoubleTap``.
    """

    def __init__(self, config: GestureConfig | None = None):
        self.config = config or GestureConfig()
        self._cum_x = 0
        self._cum_y = 0
        # contact bookkeeping
        self._in_contact = False
        self._onset_t = 0
        self._onset_x = 0
        self._onset_y = 0
        self._net_dx = 0
        self._net_dy = 0
        self._reached_tap_squal = False
        self._tap_alive = False
        # press bookkeeping
        self._press_run_start: int | None = None
        self._in_press = False
        # double-tap pairing: the withheld tap's list and its onset time
        self._held: list[GestureEvent] | None = None
        self._held_onset = 0

    def _emit(self, out: list[GestureEvent], event: GestureEvent) -> None:
        (out if self._held is None else self._held).append(event)

    # -- main entry points -----------------------------------------------

    def step(self, frame) -> list[GestureEvent]:
        """Process one frame (anything with timestamp_ms/dx/dy/squal)."""
        return self.advance(frame.timestamp_ms, frame.dx, frame.dy, frame.squal)

    def advance(self, t: int, dx: int, dy: int, squal: int) -> list[GestureEvent]:
        """Process one frame given as its timestamp (ms), optical deltas and SQUAL."""
        cfg = self.config
        out: list[GestureEvent] = []

        # once the pairing window has lapsed the held list goes out whole,
        # unless an open contact that began inside the window may still
        # complete as the pairing tap
        if (
            self._held is not None
            and t - self._held_onset > cfg.doubletap_max_gap_ms
            and not (
                self._in_contact
                and self._tap_alive
                and cfg.doubletap_min_gap_ms <= self._onset_t - self._held_onset <= cfg.doubletap_max_gap_ms
            )
        ):
            out, self._held = self._held, None

        self._cum_x += dx
        self._cum_y += dy

        if squal >= cfg.contact_squal and not self._in_contact:
            self._in_contact = True
            self._onset_t = t
            self._onset_x = self._cum_x
            self._onset_y = self._cum_y
            # movement is judged from the frames after touchdown
            self._net_dx = 0
            self._net_dy = 0
            self._reached_tap_squal = squal >= cfg.tap_squal
            self._tap_alive = True
            self._emit(out, GestureEvent(CONTACT_BEGIN, t, self._cum_x, self._cum_y))
        elif self._in_contact and squal >= cfg.contact_squal:
            self._net_dx += dx
            self._net_dy += dy
            self._reached_tap_squal |= squal >= cfg.tap_squal

        if self._in_contact and self._tap_alive:
            moved_too_far = (
                abs(self._net_dx) > cfg.tap_move_limit_counts
                or abs(self._net_dy) > cfg.tap_move_limit_counts
            )
            if t - self._onset_t > cfg.tap_window_ms or moved_too_far:
                self._tap_alive = False

        # press: sustained squal >= press_squal for press_hold_ms
        if squal >= cfg.press_squal:
            if self._press_run_start is None:
                self._press_run_start = t
            elif not self._in_press and t - self._press_run_start >= cfg.press_hold_ms:
                self._in_press = True
                self._tap_alive = False
                self._emit(out, GestureEvent(PRESS_BEGIN, t, self._cum_x, self._cum_y))
        else:
            if self._in_press:
                self._in_press = False
                self._emit(out, GestureEvent(PRESS_END, t, self._cum_x, self._cum_y))
            self._press_run_start = None

        if self._in_contact and squal < cfg.contact_squal:
            self._in_contact = False
            self._emit(out, GestureEvent(CONTACT_END, t, self._cum_x, self._cum_y))
            if self._tap_alive and self._reached_tap_squal:
                held = self._held
                if (
                    held is not None
                    and cfg.doubletap_min_gap_ms <= self._onset_t - self._held_onset <= cfg.doubletap_max_gap_ms
                    and abs(self._onset_x - held[0].x) <= cfg.doubletap_offset_counts
                    and abs(self._onset_y - held[0].y) <= cfg.doubletap_offset_counts
                ):
                    # the held Tap becomes half of the DoubleTap: only its tail goes out
                    out += held[1:]
                    out.append(GestureEvent(DOUBLE_TAP, t, self._onset_x, self._onset_y))
                    self._held = None
                else:
                    out += held or []
                    self._held = [GestureEvent(TAP, t, self._onset_x, self._onset_y)]
                    self._held_onset = self._onset_t
            self._tap_alive = False

        return out

    def finish(self) -> list[GestureEvent]:
        """End of stream: a still-withheld tap can no longer pair."""
        out, self._held = self._held or [], None
        return out


def run_detector(frames, config: GestureConfig | None = None) -> list[GestureEvent]:
    """Convenience wrapper: run a whole frame sequence through a detector."""
    return detect_rows(((f.timestamp_ms, f.dx, f.dy, f.squal) for f in frames), config)


def detect_rows(rows, config: GestureConfig | None = None) -> list[GestureEvent]:
    """Run one stream's ``(t_ms, dx, dy, squal)`` rows through a detector."""
    det = GestureDetector(config)
    events: list[GestureEvent] = []
    for row in rows:
        events.extend(det.advance(*row))
    events.extend(det.finish())
    return events


# -- event stream serialization -------------------------------------------


def write_events_jsonl(path, events) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(event.to_json() + "\n")
