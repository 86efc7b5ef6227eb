"""Wall-clock implementation of the kernel's clock interface.

Deterministic tests need no second implementation: the simulator's
:class:`~repro.sim.engine.Simulator` is a scheduler whose time only
moves when the test steps it.
"""

from __future__ import annotations

import time

__all__ = ["WallClock"]


class WallClock:
    """Monotonic wall time, zeroed at construction.

    Satisfies :class:`repro.core.clock.ClockProtocol` structurally, so
    kernel code written against the protocol runs unchanged on wall
    time. Built on ``time.monotonic`` — immune to NTP steps and
    daylight-saving jumps, which would otherwise appear as negative or
    hour-long query latencies. Zeroing at construction keeps wall
    timestamps in the same "seconds since the run started" frame the
    virtual clock uses, so metrics and traces are directly comparable
    across drivers.
    """

    __slots__ = ("_origin",)

    def __init__(self) -> None:
        self._origin = time.monotonic()

    @property
    def now(self) -> float:
        return time.monotonic() - self._origin

    def __repr__(self) -> str:
        return f"WallClock(now={self.now:.6f})"
