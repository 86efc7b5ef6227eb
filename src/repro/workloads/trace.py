"""Workload traces: timestamped query streams, saved/loaded as JSONL.

A :class:`WorkloadTrace` pairs each query with an arrival timestamp —
the replayable unit a load test or a production capture boils down to.
Traces are generated from any (query generator, arrival process) pair
and replayed deterministically through the simulator via
:func:`repro.sim.experiment.run_trace_point`, so two policies can be
compared on the *identical* request stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Union

import numpy as np

from repro.engine.query import MatchMode, Query
from repro.errors import ConfigurationError
from repro.sim.arrivals import ArrivalProcess, arrival_times
from repro.util.validation import require_positive
from repro.workloads.queries import QueryGenerator


@dataclass(frozen=True)
class WorkloadTrace:
    """A timestamped query stream (timestamps sorted, seconds)."""

    times: np.ndarray
    queries: List[Query]

    def __post_init__(self) -> None:
        if self.times.shape[0] != len(self.queries):
            raise ConfigurationError("times and queries must align")
        if self.times.shape[0] and (
            np.any(np.diff(self.times) < 0) or self.times[0] < 0
        ):
            raise ConfigurationError("times must be sorted and non-negative")

    def __len__(self) -> int:
        return len(self.queries)

    @property
    def horizon(self) -> float:
        return float(self.times[-1]) if len(self) else 0.0

    @property
    def mean_rate(self) -> float:
        return len(self) / self.horizon if self.horizon > 0 else 0.0

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------

    @staticmethod
    def generate(
        generator: QueryGenerator,
        arrivals: ArrivalProcess,
        horizon: float,
    ) -> "WorkloadTrace":
        """Drive ``arrivals`` until ``horizon``, drawing one query each."""
        require_positive(horizon, "horizon")
        times: List[float] = []
        queries: List[Query] = []
        for time_s in arrival_times(arrivals, horizon):
            times.append(time_s)
            queries.append(generator.sample())
        return WorkloadTrace(np.asarray(times, dtype=np.float64), queries)

    # ------------------------------------------------------------------
    # Persistence (JSONL: one record per query)
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for t, query in zip(self.times, self.queries):
                handle.write(
                    json.dumps(
                        {
                            "t": float(t),
                            "terms": list(query.term_ids),
                            "k": query.k,
                            "mode": query.mode.value,
                        }
                    )
                )
                handle.write("\n")
        return path

    @staticmethod
    def load(path: Union[str, Path]) -> "WorkloadTrace":
        times: List[float] = []
        queries: List[Query] = []
        with Path(path).open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    times.append(float(record["t"]))
                    queries.append(
                        Query.of(
                            record["terms"],
                            k=int(record["k"]),
                            mode=MatchMode(record["mode"]),
                            query_id=line_number,
                        )
                    )
                except (KeyError, ValueError, TypeError) as exc:
                    raise ConfigurationError(
                        f"bad trace record at line {line_number + 1}: {exc}"
                    ) from exc
        return WorkloadTrace(np.asarray(times, dtype=np.float64), queries)

    # ------------------------------------------------------------------
    # Windowing
    # ------------------------------------------------------------------

    def window_rates(self, window: float) -> np.ndarray:
        """Arrival rate per ``window``-second bucket (for plotting load)."""
        require_positive(window, "window")
        if not len(self):
            return np.zeros(0)
        buckets = np.bincount((self.times / window).astype(int))
        return buckets / window
