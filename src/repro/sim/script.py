"""Arrival streams: one workload, replayable on any clock.

Every open-loop run consumes the same kind of stream: arrivals, each a
:class:`ScriptedArrival` (when, which query, which traffic class),
drawn lazily from a seeded arrival process.

* :func:`arrival_stream` is that stream. Gaps come from the
  ``arrivals`` child stream of the seed, query indices from the
  ``sample`` child stream (or a class-aware sampler), class labels from
  the arrival process's ``last_class``.
  :func:`~repro.sim.experiment.run_load_point` consumes it online.
* :func:`build_arrival_script` is ``list()`` over the same stream, so a
  script built from ``(seed, rate, duration)`` is exactly the workload
  ``run_load_point`` draws.

A script is replayed by the serving node on a
:class:`~repro.sim.engine.Simulator`
(:func:`~repro.runtime.parity.run_scripted_live`, on the same driver as
``run_load_point``) and by paced TCP replay over real sockets
(:mod:`repro.runtime.loadgen`). Because they all consume the identical
arrivals, any divergence in their decision sequences is attributable to
the hosting, never the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.sim.arrivals import ArrivalProcess, PoissonArrivals, arrival_times
from repro.util.rng import RngFactory
from repro.util.validation import require_int_in_range

if TYPE_CHECKING:
    from repro.sim.experiment import LoadPointConfig

__all__ = [
    "ScriptedArrival",
    "arrival_stream",
    "build_arrival_script",
]


@dataclass(frozen=True)
class ScriptedArrival:
    """One pre-drawn arrival: when, which query, which traffic class."""

    time_s: float
    query_index: int
    query_class: Optional[str] = None


def arrival_stream(
    n_queries: int,
    config: LoadPointConfig,
    arrivals: Optional[ArrivalProcess] = None,
    query_sampler: Optional[object] = None,
) -> Iterator[ScriptedArrival]:
    """The arrivals of one load point, drawn lazily.

    Interarrival gaps come from the ``arrivals`` child stream of
    ``config.seed`` (Poisson at ``config.rate`` unless an explicit
    process is given); query indices from the ``sample`` child stream,
    or from ``query_sampler`` keyed by the arrival's class label. The
    stream ends at the first arrival that would land past
    ``config.duration``.
    """
    require_int_in_range(n_queries, "n_queries", low=1)
    streams = RngFactory(config.seed)
    sample_rng = streams.stream("sample")
    if arrivals is None:
        arrivals = PoissonArrivals(config.rate, streams.stream("arrivals"))
    for time_s in arrival_times(arrivals, config.duration):
        # The class label belongs to the arrival whose gap was just
        # drawn; read it before the next draw overwrites it.
        arrival_class = getattr(arrivals, "last_class", None)
        if query_sampler is not None:
            query_index = int(query_sampler.sample(arrival_class))
        else:
            query_index = int(sample_rng.integers(n_queries))
        yield ScriptedArrival(time_s, query_index, arrival_class)


def build_arrival_script(
    n_queries: int,
    config: LoadPointConfig,
    arrivals: Optional[ArrivalProcess] = None,
    query_sampler: Optional[object] = None,
) -> List[ScriptedArrival]:
    """Materialize the arrival stream ``run_load_point`` would draw."""
    return list(arrival_stream(n_queries, config, arrivals, query_sampler))
