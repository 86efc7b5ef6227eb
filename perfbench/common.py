"""Shared helpers of the benchmark: clocks, spans, statistics, digests,
memory.

Nothing here imports the program under test, so ``run.py`` can reject
a checkout that lacks it before any import fails halfway through.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np


#: The clock every timing metric of the benchmark's own process reads:
#: CPU seconds of this process. The measured code is single-threaded and
#: CPU-bound, so on an idle core this equals wall time; on a shared
#: virtual machine it leaves out the spells in which the hypervisor runs
#: another guest on the core (steal time), which come and go for seconds
#: to minutes and would otherwise move whole runs by half their time.
cpu_clock = time.process_time


def cpu_seconds(pid: int) -> float:
    """CPU seconds another process has run so far, over all its threads,
    on the same footing as :data:`cpu_clock` (steal time left out), to
    the nanosecond (``/proc/<pid>/task/*/schedstat``)."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            pass  # the thread ended while we listed them
    return total / 1e9


class Spans:
    """In-memory span recorder, written out once when the run ends.

    A span has a name, a start and end (``perf_counter`` seconds), the id
    of the span that caused it and an optional request id. Untraced runs
    use a disabled recorder: ``span`` then costs one attribute test and
    ``wrapping`` installs nothing, so the measured code runs unobserved.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @property
    def current(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request_id: Optional[int] = None,
    ) -> int:
        span_id = len(self.records)
        self.records.append(
            {"id": span_id, "name": name, "start": start, "end": end,
             "parent": parent, "request_id": request_id}
        )
        return span_id

    @contextmanager
    def span(self, name: str, request_id: Optional[int] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = self.record(name, time.perf_counter(), math.nan,
                              self.current, request_id)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[span_id]["end"] = time.perf_counter()

    @contextmanager
    def wrapping(self, obj: Any, names: Dict[str, str]) -> Iterator[None]:
        """Record a span named ``names[attr]`` around every call of
        ``obj.attr`` while the block runs.

        Installs instance attributes, so calls the object makes on itself
        (``self.plan`` inside ``self.execute``) are seen too; the class
        and every other instance stay untouched.
        """
        if not self.enabled:
            yield
            return

        def timed(inner: Any, name: str) -> Any:
            def call(*args: Any, **kwargs: Any) -> Any:
                with self.span(name):
                    return inner(*args, **kwargs)
            return call

        for attr, name in names.items():
            setattr(obj, attr, timed(getattr(obj, attr), name))
        try:
            yield
        finally:
            for attr in names:
                delattr(obj, attr)

    def durations(self, name: str) -> List[float]:
        return [r["end"] - r["start"] for r in self.records if r["name"] == name]

    def mean(self, name: str) -> float:
        values = self.durations(name)
        return sum(values) / len(values) if values else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for record in self.records:
                out.write(json.dumps(record) + "\n")


class Calibration:
    """How slow the host runs, from a fixed kernel that belongs to the
    benchmark and shares no code with the program.

    On a shared virtual machine a co-tenant can slow the core by up to
    about 1.9x for a minute or more, longer than a run, so no estimator
    over one run's samples removes it. The kernel is pure Python (dict
    updates and a heap, as in the simulator's event loop and the
    engine's control flow) on data that stays in cache; measured beside
    the engine and simulator phases through such spells, their times
    divided by its time moved 4x less than their raw times.

    A calibration has one item per measured step (or set-up stage,
    server boot, closed-loop segment): the kernel runs
    :data:`CALIBRATION_SAMPLES` times just before the step, each run one
    :meth:`sample`, and each item keeps its least time, as the step
    does, so that the two estimators see the same moments. ``slowdown``
    is the items' least times against :data:`NOMINAL_S`.
    """

    #: Least CPU seconds of one kernel call on a 2-core Intel Xeon
    #: virtual machine (CPython 3.11) outside any slow spell.
    NOMINAL_S = 2.15e-3

    def __init__(self, items: int) -> None:
        self.samples: List[List[float]] = [[] for _ in range(items)]

    def sample(self, item: int) -> None:
        start = cpu_clock()
        heap: List[Any] = []
        counts: Dict[int, int] = {}
        for i in range(3000):
            key = (i * 7919) % 1013
            counts[key] = counts.get(key, 0) + 1
            heapq.heappush(heap, (key * 0.5, i))
        while heap:
            heapq.heappop(heap)
        self.samples[item].append(cpu_clock() - start)

    @property
    def slowdown(self) -> float:
        least = [min(samples) for samples in self.samples if samples]
        return sum(least) / (len(least) * self.NOMINAL_S)


#: Calibration samples taken before each measured step or stage.
CALIBRATION_SAMPLES = 2


class Rotation:
    """Runs several phases in small interleaved steps.

    A phase is a fixed list of steps, run in order, round after round.
    Each step times its own work on :data:`cpu_clock` and keeps the
    sample; an item (a query, a block, a load point) then keeps its
    least time over the rounds, as ``timeit`` does. A co-tenant on a
    shared host slows the core for spells of one second to minutes;
    interleaving spreads every item's rounds over the whole run, so
    most items get a round outside the shorter spells, and the phase's
    :class:`Calibration`, sampled before each of its steps, measures
    the longer ones.

    The next step always goes to the phase with the least CPU time so
    far per unit of its share.
    """

    def __init__(self) -> None:
        self._phases: List[Dict[str, Any]] = []

    def add(self, steps: Sequence[Callable[[], None]], share: float) -> Calibration:
        """Add a phase; returns its calibration."""
        calibration = Calibration(len(steps))
        self._phases.append({"steps": list(steps), "share": share, "calibration": calibration,
                             "next": 0, "rounds": 0, "spent": 0.0})
        return calibration

    def run(self, seconds: float, min_rounds: int = 0) -> None:
        """Run steps until ``seconds`` of wall time have passed and every
        phase has completed ``min_rounds`` rounds."""
        deadline = time.perf_counter() + seconds
        while True:
            if time.perf_counter() < deadline:
                candidates = self._phases
            else:
                candidates = [p for p in self._phases if p["rounds"] < min_rounds]
                if not candidates:
                    return
            phase = min(candidates, key=lambda p: p["spent"] / p["share"])
            step = phase["next"]
            start = cpu_clock()
            for _ in range(CALIBRATION_SAMPLES):
                phase["calibration"].sample(step)
            phase["steps"][step]()
            phase["spent"] += cpu_clock() - start
            phase["next"] += 1
            if phase["next"] == len(phase["steps"]):
                phase["next"] = 0
                phase["rounds"] += 1


class Checks:
    """Operation accounting: every checked operation, and those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        """Count one operation, failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def shuffled_indices(rng: np.random.Generator, n_queries: int, count: int) -> List[int]:
    """``count`` query indices: the pool in a fresh random order, again
    and again. Every query recurs at the same rate in every run, so the
    few expensive ones weigh the same on every seed."""
    rounds = -(-count // n_queries)
    return np.concatenate([rng.permutation(n_queries) for _ in range(rounds)])[:count].tolist()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed requests) sort last."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def digest(obj: Any) -> str:
    """Short stable hash of a JSON-serializable value (floats by repr)."""
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1]) / 1024.0
    raise KeyError(f"no VmHWM for process {pid}")


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}
