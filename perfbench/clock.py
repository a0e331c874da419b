"""Op timings taken at a fixed reference speed.

On a shared machine the speed of one vCPU drifts by tens of percent within
seconds (measured on a 2-vCPU 2.0 GHz Xeon).  So timed calls are bracketed
by runs of a fixed reference loop, one after every ``CALIBRATE_EVERY_S``
of timed work, and each call's time is scaled by ``REFERENCE_S`` over the
mean time of the two runs around it: a reported time is what the call
would have taken while the reference loop takes ``REFERENCE_S``.  The
machine's drift then largely cancels, and the program's own speed is what
moves the figures.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

#: The reference loop's time at the reported speed: its typical time on
#: one vCPU of a 2.0 GHz Xeon.
REFERENCE_S = 0.0025
#: Timed work between two runs of the reference loop.
CALIBRATE_EVERY_S = 0.025


class _Record:
    __slots__ = ("id", "parent", "second")

    def __init__(self, id_: int, parent, second) -> None:
        self.id, self.parent, self.second = id_, parent, second


def reference() -> float:
    """Time a fixed pure-Python loop of the library's kind of work.

    It builds a small arena of slotted records, sweeps it through dicts,
    sorts tuples and compares fractions, and shares no code with the
    library.
    """
    start = perf_counter()
    records = [_Record(0, None, None)]
    for i in range(1, 1500):
        records.append(_Record(i, (i * 7) % i, None if i % 3 else (i * 5) % i))
    depth: dict[int, int] = {}
    for r in records:
        depth[r.id] = 0 if r.parent is None else depth[r.parent] + 1
    weight = {r.id: depth[r.id] % 7 for r in records}
    total = 0
    for r in records:
        for q in (r.parent, r.second):
            if q is not None:
                total += weight[q] * weight[r.id]
    chain = sorted(((r.id, depth[r.id]) for r in records if r.id % 5 == 0),
                   key=lambda t: (t[1], -t[0]))
    total += sum(Fraction(d + 1, i + 1) > Fraction(1, 3) for i, d in chain)
    return perf_counter() - start


class Lap:
    """One timed call: its raw seconds and the reference runs around it."""

    __slots__ = ("raw", "clock", "index")

    def __init__(self, raw: float, clock: "Clock", index: int) -> None:
        self.raw, self.clock, self.index = raw, clock, index

    @property
    def seconds(self) -> float:
        """The call's time at the reference speed (after ``Clock.close``)."""
        runs = self.clock.calibrations
        return self.raw * 2 * REFERENCE_S / (runs[self.index] + runs[self.index + 1])


class Clock:
    """Times calls and runs the reference loop after every
    ``CALIBRATE_EVERY_S`` of them, outside any timed region."""

    def __init__(self) -> None:
        self.calibrations = [reference()]
        self.since = 0.0

    def lap(self, start: float) -> Lap:
        """Close a call started at ``start`` (a ``perf_counter`` reading)."""
        raw = perf_counter() - start
        lap = Lap(raw, self, len(self.calibrations) - 1)
        self.since += raw
        if self.since >= CALIBRATE_EVERY_S:
            self.close()
        return lap

    def close(self) -> None:
        """Run the reference loop, so every lap so far has one after it."""
        self.calibrations.append(reference())
        self.since = 0.0
