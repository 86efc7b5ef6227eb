"""The phases every workload runs: set-up, profiling, engine, simulator.

Each workload runs all four phases, sized so that its host time lands
in a different layer (see ``workloads.py``). Phases time the public
calls of the program from here, on ``common.cpu_clock``; profiling,
engine and simulator run in steps that ``common.Rotation`` interleaves.
In a traced run the same calls are also wrapped in spans. Nothing
inside the program is instrumented.
"""

from __future__ import annotations

import gc
import shutil
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from common import CALIBRATION_SAMPLES, Calibration, Checks, Spans, cpu_clock, digest, percentile
from repro.core.controller import AdaptiveSearchSystem, SystemConfig
from repro.corpus.generator import generate_corpus
from repro.engine import Engine
from repro.harness.experiments import e19_overload, e20_regimes
from repro.harness.live import engine_search_for
from repro.index.builder import build_index
from repro.index.inverted import InvertedIndex
from repro.index.io import load_index, save_index
from repro.policies.online import OnlineControllerConfig, OnlineDegreeController
from repro.profiles.measurement import MeasurementConfig, QueryCostTable, measure_cost_table
from repro.sim.anomaly import AnomalyGuard, AnomalyGuardConfig
from repro.sim.arrivals import PoissonArrivals
from repro.sim.cluster import ClusterConfig, run_cluster_point
from repro.sim.traffic import (
    FLASH_CROWD,
    QUERY_OF_DEATH,
    SLOW_QUERY_FLOOD,
    Burst,
    ClassAwareQuerySampler,
    DiurnalProfile,
    RegimeTraffic,
    TrafficConfig,
)
from repro.util.rng import RngFactory
from repro.workloads.queries import QueryGenerator
from repro.workloads.workbench import Workbench, WorkbenchConfig

#: Workbench preset and profiled query count per scale, as the
#: experiment harness sizes them (``harness/context.py``).
SCALES = {
    "reference": (WorkbenchConfig.reference, 1_200),
    "small": (WorkbenchConfig.small, 300),
}


# ---------------------------------------------------------------------
# Set-up: corpus -> index -> v2 shard -> mmap load
# ---------------------------------------------------------------------


#: The stages of a set-up, in order.
STAGES = ("corpus.generate", "index.build", "index.save", "index.load_mmap")


def build_stack(
    scale: str, workdir: Path, spans: Spans, stage_s: Dict[str, List[float]],
    calibration: Calibration,
) -> Tuple[Workbench, InvertedIndex]:
    """Generate the corpus, build the index, save it as a v2 shard and
    mmap-load it, adding each stage's CPU seconds to ``stage_s`` and
    samples of ``calibration`` (one item per stage) before each stage.
    Returns the workbench (over the built index, as ``build_workbench``
    assembles it) and the mapped shard."""

    @contextmanager
    def stage(name: str) -> Iterator[None]:
        for _ in range(CALIBRATION_SAMPLES):
            calibration.sample(STAGES.index(name))
        start = cpu_clock()
        with spans.span(name):
            yield
        stage_s.setdefault(name, []).append(cpu_clock() - start)

    config = SCALES[scale][0](0)
    factory = RngFactory(config.seed)
    with stage("corpus.generate"):
        corpus = generate_corpus(config.corpus, factory.stream("corpus"))
    with stage("index.build"):
        index = build_index(corpus, config.index)
    shutil.rmtree(workdir, ignore_errors=True)
    with stage("index.save"):
        path = save_index(index, workdir / "shard")
    with stage("index.load_mmap"):
        mapped = load_index(path)
    workbench = Workbench(config, corpus, index, Engine(index, config.engine), factory)
    return workbench, mapped


def setup(
    scale: str, workdir: Path, repeats: int, spans: Spans
) -> Tuple[Workbench, InvertedIndex, Dict[str, float], Calibration]:
    """Build the stack ``repeats`` times; returns the last one, each
    stage's least CPU seconds over the repeats and the calibration
    sampled beside them."""
    stage_s: Dict[str, List[float]] = {}
    calibration = Calibration(len(STAGES))
    stack = None
    for _ in range(repeats):
        stack = None  # free the previous stack before building the next
        gc.collect()
        stack = build_stack(scale, workdir, spans, stage_s, calibration)
    assert stack is not None
    return (stack[0], stack[1], {name: min(values) for name, values in stage_s.items()},
            calibration)


# ---------------------------------------------------------------------
# Profiling: measure_cost_table + system assembly
# ---------------------------------------------------------------------


#: Queries per timed ``measure_cost_table`` call of the profiling phase.
PROFILE_CHUNK = 25


class ProfilePhase:
    """Measure the cost table and assemble the system, as
    :meth:`AdaptiveSearchSystem.from_workbench` does, in steps for a
    :class:`~common.Rotation`: one ``measure_cost_table`` call per chunk
    of :data:`PROFILE_CHUNK` queries, then the assembly on the chunks'
    rows joined into one table. ``run_round`` runs one round directly,
    for the system the other phases need."""

    def __init__(self, workbench: Workbench, queries: Sequence, spans: Spans) -> None:
        self.workbench = workbench
        self.spans = spans
        self.config = SystemConfig(n_queries=len(queries), seed=0)
        self.measurement = MeasurementConfig(degrees=self.config.degrees,
                                             n_queries=len(queries))
        self.chunks = [queries[i:i + PROFILE_CHUNK]
                       for i in range(0, len(queries), PROFILE_CHUNK)]
        self.chunk_s: List[List[float]] = [[] for _ in self.chunks]
        self.assembly_s: List[float] = []
        self.digests: List[str] = []
        self.system: Optional[AdaptiveSearchSystem] = None
        self._tables: List[QueryCostTable] = []

    def steps(self) -> List[Callable[[], None]]:
        return [partial(self._measure, k) for k in range(len(self.chunks))] + [self._assemble]

    def run_round(self) -> AdaptiveSearchSystem:
        for step in self.steps():
            step()
        assert self.system is not None
        return self.system

    def _measure(self, k: int) -> None:
        engine = self.workbench.engine
        with self.spans.wrapping(engine, {"trace": "engine.trace",
                                          "execute_trace": "engine.execute_trace"}):
            start = cpu_clock()
            with self.spans.span("profiles.measure"):
                table = measure_cost_table(engine, self.chunks[k], self.measurement)
            self.chunk_s[k].append(cpu_clock() - start)
        self._tables.append(table)

    def _assemble(self) -> None:
        parts, self._tables = self._tables, []
        table = QueryCostTable(
            [q for part in parts for q in part.queries], self.config.degrees,
            *(np.concatenate([getattr(part, name) for part in parts])
              for name in ("latency", "cpu", "chunks")),
            chunks_skipped=np.concatenate([part.chunks_skipped for part in parts]),
        )
        start = cpu_clock()
        with self.spans.span("core.system_init"):
            system = AdaptiveSearchSystem(self.workbench, table, self.config)
        self.assembly_s.append(cpu_clock() - start)
        self.system = self.system or system
        self.digests.append(digest(
            [table.latency.tolist(), table.cpu.tolist(), table.chunks.tolist(),
             table.chunks_skipped.tolist()]
        ))

    @property
    def measure_s(self) -> float:
        """Least CPU seconds of a whole measurement, chunk by chunk."""
        return sum(min(samples) for samples in self.chunk_s)

    @property
    def seconds(self) -> float:
        """Least CPU seconds of measurement plus assembly."""
        return self.measure_s + min(self.assembly_s)

    def check(self, checks: Checks) -> None:
        checks.check(len(set(self.digests)) == 1, "cost tables of the rounds differ")


def boot_queries(workbench: Workbench, n: int) -> List:
    """The profiling sample the program draws at boot
    (``AdaptiveSearchSystem.from_workbench``)."""
    return workbench.query_generator("profile-queries").sample_many(n)


# ---------------------------------------------------------------------
# Engine: per-query, batched and serving-hook passes
# ---------------------------------------------------------------------


def _signature(result) -> Tuple:
    """The fields the engine's bit-identity contract covers."""
    return (
        tuple(result.doc_ids), tuple(result.scores), result.latency,
        result.cpu_time, result.chunks_evaluated, result.chunks_skipped,
        result.postings_scanned, result.termination_rule,
        result.terminated_early,
    )


@dataclass
class EngineFigures:
    query_qps: float
    batch_qps: float
    hook_rps: float
    query_p50_ms: float
    query_p99_ms: float
    n_queries: int
    rounds: int
    seconds: float
    #: Traced runs only: BatchStats of the first batch and the chunks the
    #: first round of per-query executions evaluated.
    batch_waves: int = 0
    batch_speculative_ratio: float = 0.0
    chunks_evaluated: int = 0


#: Queries per ``execute_batch`` call, and per step of the engine phase.
BLOCK = 100


class EnginePhase:
    """Run a stream of ``n`` queries through ``Engine.execute`` one query
    at a time, through ``Engine.execute_batch`` in blocks of
    :data:`BLOCK`, and ``n`` requests through the serving hook
    (``engine_search_for``) at the profiled degrees, in steps for a
    :class:`~common.Rotation`: one step per block, the three passes in
    turn on it.

    The queries and requests are a fixed set (so that their costs add up
    the same on every seed); the seed orders them, and so decides which
    queries share a batch. Each query, batch and hook request keeps its
    least CPU time over the rounds; rates divide by the sum of those
    least times."""

    def __init__(self, system: AdaptiveSearchSystem, n: int, seed: int,
                 spans: Spans) -> None:
        self.system = system
        self.spans = spans
        rng = np.random.default_rng([seed, 4])
        pool = QueryGenerator(system.workbench.config.workload,
                              RngFactory(0).stream("stream")).sample_many(n)
        self.stream = [pool[i] for i in rng.permutation(n)]
        self.blocks = [list(range(i, min(i + BLOCK, n))) for i in range(0, n, BLOCK)]
        degrees = system.config.degrees
        self.requests = [(k % system.oracle.n_queries, degrees[k % len(degrees)])
                         for k in rng.permutation(n).tolist()]
        self.search = engine_search_for(system)
        self.single_s: List[List[float]] = [[] for _ in range(n)]
        self.hook_s: List[List[float]] = [[] for _ in range(n)]
        self.batch_s: List[List[float]] = [[] for _ in self.blocks]
        self.single_results: List = [None] * n
        self.batch_results: List = [None] * n

    def steps(self) -> List[Callable[[], None]]:
        return [partial(self._block, b) for b in range(len(self.blocks))]

    def _block(self, b: int) -> None:
        engine, spans, stream, block = (self.system.workbench.engine, self.spans,
                                        self.stream, self.blocks[b])
        with spans.wrapping(engine, {"plan": "engine.plan"}):
            for i in block:
                start = cpu_clock()
                with spans.span("engine.execute"):
                    result = engine.execute(stream[i])
                self.single_s[i].append(cpu_clock() - start)
                self.single_results[i] = self.single_results[i] or result
            start = cpu_clock()
            with spans.span("engine.execute_batch"):
                results = engine.execute_batch([stream[i] for i in block])
            self.batch_s[b].append(cpu_clock() - start)
            for i, result in zip(block, results):
                self.batch_results[i] = self.batch_results[i] or result
            for i in block:
                start = cpu_clock()
                with spans.span("engine.hook"):
                    self.search(*self.requests[i])
                self.hook_s[i].append(cpu_clock() - start)

    @property
    def seconds(self) -> float:
        """Least CPU seconds of one round."""
        return sum(min(samples) for samples in self.single_s + self.batch_s + self.hook_s)

    def figures(self, mapped_index: InvertedIndex, checks: Checks) -> EngineFigures:
        """The rates and latencies. Checks batched against per-query
        results, and the mapped shard against the built index."""
        engine, stream, n = self.system.workbench.engine, self.stream, len(self.stream)
        for single, batched in zip(self.single_results, self.batch_results):
            checks.check(_signature(single) == _signature(batched),
                         f"batched != per-query for query {single.query.query_id}")
        mapped_results = Engine(mapped_index, engine.config).execute_batch(stream)
        for mapped, built in zip(mapped_results, self.batch_results):
            checks.check(_signature(mapped) == _signature(built),
                         f"mmap != in-RAM for query {mapped.query.query_id}")

        latencies = [min(samples) for samples in self.single_s]
        traced: Dict[str, Any] = {}
        if self.spans.enabled:
            # Engine.execute_batch is batch_executor().execute(): rerun the
            # first block that way to read its BatchStats.
            executor = engine.batch_executor()
            executor.execute([stream[i] for i in self.blocks[0]])
            stats = executor.last_stats
            traced = {
                "batch_waves": stats.waves,
                "batch_speculative_ratio": stats.chunks_speculative / max(1, stats.chunks_evaluated),
                "chunks_evaluated": sum(r.chunks_evaluated for r in self.single_results),
            }
        return EngineFigures(
            query_qps=n / sum(latencies),
            batch_qps=n / sum(min(samples) for samples in self.batch_s),
            hook_rps=n / sum(min(samples) for samples in self.hook_s),
            query_p50_ms=percentile(latencies, 50) * 1e3,
            query_p99_ms=percentile(latencies, 99) * 1e3,
            n_queries=n,
            rounds=min(len(samples) for samples in self.hook_s),
            seconds=self.seconds,
            **traced,
        )


# ---------------------------------------------------------------------
# Simulator: the load-point sweep
# ---------------------------------------------------------------------


class CountingArrivals:
    """Arrival process wrapper that counts inter-arrival draws.

    Passed through the ``arrivals`` argument the load-point runners
    document; it forwards every attribute (``last_class``) to the
    wrapped process, so the run is the one the default would make.
    """

    def __init__(self, inner: Any) -> None:
        self._inner = inner
        self.draws = 0

    def next_interarrival(self) -> float:
        self.draws += 1
        return self._inner.next_interarrival()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class EventProbe:
    """No-op controller keeping the ``Simulator`` handle of each run, so
    its ``processed_events`` can be read after the run (traced runs
    only)."""

    def __init__(self) -> None:
        self.simulators: List[Any] = []

    def attach(self, simulator: Any, server: Any, collector: Any, horizon_s: float) -> None:
        self.simulators.append(simulator)

    def take(self) -> int:
        """Events of the runs since the last call; drops their handles."""
        events = sum(sim.processed_events for sim in self.simulators)
        self.simulators.clear()
        return events


@dataclass
class SweepFigures:
    #: Simulated arrivals of one round.
    arrivals: int
    #: Those arrivals per CPU second, from each load point's least time
    #: over the rounds.
    arrivals_per_s: float
    rounds: int
    #: Least CPU seconds of one round.
    seconds: float
    digest: str
    #: Queries shed in one round, and simulator events of the node
    #: points of one round (traced runs only).
    shed: int
    events: int
    #: Least CPU seconds of one round, by group of load points.
    group_seconds: Dict[str, float]


def _poisson(rate: float, seed: int) -> CountingArrivals:
    # The stream run_load_point / run_cluster_point draw by default.
    return CountingArrivals(PoissonArrivals(rate, RngFactory(seed).stream("arrivals")))


class SimPhase:
    """Five load points, each ``horizon_s`` model seconds long, on seeds
    drawn from ``seed``: adaptive at utilization 0.3 and 0.7, the E19
    overload point, an E20 flash crowd under online control, and a
    4-shard cluster with hedging. One step per load point for a
    :class:`~common.Rotation`; every round repeats the same points, and
    must give the same summaries. ``probe_events`` passes an
    :class:`EventProbe` through the ``controllers`` hook."""

    def __init__(self, system: AdaptiveSearchSystem, horizon_s: float, seed: int,
                 spans: Spans, probe_events: bool) -> None:
        self.system = system
        self.horizon_s = horizon_s
        self.base_seed = 1_000 * seed
        self.spans = spans
        self.probe = EventProbe()
        self.probes: Tuple[Any, ...] = (self.probe,) if probe_events else ()
        self.points = [
            ("adaptive@0.3", "stationary", partial(self._stationary, 0, 0.3)),
            ("adaptive@0.7", "stationary", partial(self._stationary, 1, 0.7)),
            ("overload@1.2", "overload", self._overload),
            ("flash-crowd", "regime", self._regime),
            ("cluster-4-hedged", "cluster", self._cluster),
        ]
        self.point_s: List[List[float]] = [[] for _ in self.points]
        self.digests: List[set] = [set() for _ in self.points]
        self.summaries: List[Any] = [None] * len(self.points)
        self.draws = [0] * len(self.points)
        self.events = [0] * len(self.points)

    def steps(self) -> List[Callable[[], None]]:
        return [partial(self._point, k) for k in range(len(self.points))]

    def _point(self, k: int) -> None:
        _, group, run = self.points[k]
        start = cpu_clock()
        with self.spans.span(f"sim.{group}"):
            summary, arrivals = run()
        self.point_s[k].append(cpu_clock() - start)
        self.draws[k] = arrivals.draws - 1  # the last draw falls past the horizon
        self.events[k] = self.probe.take()
        self.summaries[k] = summary
        self.digests[k].add(digest(asdict(summary)))

    # The load points, as E05/E06, E19 and E20 set them up.

    @property
    def _slo_s(self) -> float:
        system = self.system
        return e19_overload.SLO_MULTIPLE * float(system.service_distribution.percentile(99))

    def _stationary(self, i: int, utilization: float):
        system, seed = self.system, self.base_seed + i
        rate = system.rate_for_utilization(utilization)
        arrivals = _poisson(rate, seed)
        return system.run_point(
            "adaptive", rate, duration=self.horizon_s, warmup=self.horizon_s / 4.0,
            seed=seed, arrivals=arrivals, controllers=self.probes,
        ), arrivals

    def _overload(self):
        system, seed = self.system, self.base_seed + 2
        rate = system.rate_for_utilization(e19_overload.OVER_SATURATION)
        arrivals = _poisson(rate, seed)
        return system.run_point(
            "adaptive", rate, duration=self.horizon_s, warmup=self.horizon_s / 4.0,
            seed=seed, arrivals=arrivals, deadline=self._slo_s,
            max_queue_length=e19_overload.QUEUE_CAP_PER_CORE * system.n_cores,
            controllers=self.probes,
        ), arrivals

    def _regime(self):
        system, seed, horizon_s, slo_s = (self.system, self.base_seed + 3,
                                          self.horizon_s, self._slo_s)
        saturation = system.saturation_rate
        background = e20_regimes.BACKGROUND_UTILIZATION * saturation
        scenario = TrafficConfig(
            background=DiurnalProfile(base_rate=background, amplitude=0.15,
                                      period_s=horizon_s),
            bursts=(Burst(kind=FLASH_CROWD, start_s=0.30 * horizon_s,
                          duration_s=0.25 * horizon_s,
                          peak_rate=e20_regimes.FLASH_UTILIZATION * saturation),),
        )
        window_s = horizon_s / 40.0
        streams = RngFactory(seed)
        arrivals = CountingArrivals(RegimeTraffic(scenario, streams, horizon_s=horizon_s))
        t1 = system.cost_table.sequential_latencies()
        sampler = ClassAwareQuerySampler(
            t1, streams, predicted_latencies=system.oracle.predicted
        )
        policy = system.policy("online")
        controller = OnlineDegreeController(policy, OnlineControllerConfig(
            target_p99_s=slo_s, window_s=window_s, step=0.3, deadband=0.1,
            min_scale=0.25, max_scale=1.0, shed_rate_high=0.02, min_samples=5,
        ))
        guard = AnomalyGuard(AnomalyGuardConfig(
            slo_s=slo_s, window_s=window_s, sla_epsilon=0.05,
            degraded_degree_cap=max(2, system.threshold_table.max_degree // 4),
            shedding_queue_cap=4 * system.n_cores,
            shed_classes=(SLOW_QUERY_FLOOD, QUERY_OF_DEATH), recovery_windows=2,
        ), policy=policy)
        return system.run_point(
            policy, background, duration=horizon_s, warmup=horizon_s / 10.0,
            seed=seed, arrivals=arrivals, deadline=slo_s,
            max_queue_length=e19_overload.QUEUE_CAP_PER_CORE * system.n_cores,
            slo=slo_s, controllers=(controller, guard) + self.probes,
            query_sampler=sampler,
        ), arrivals

    def _cluster(self):
        system, seed = self.system, self.base_seed + 4
        rate = system.rate_for_utilization(e19_overload.CLUSTER_UTILIZATION)
        arrivals = _poisson(rate, seed)
        config = ClusterConfig(
            n_shards=e19_overload.N_SHARDS, n_cores_per_shard=system.n_cores,
            rate=rate, duration=self.horizon_s, warmup=self.horizon_s / 4.0, seed=seed,
            hedge_delay=2.0 * float(system.service_distribution.percentile(95)),
        )
        return run_cluster_point(
            system.oracle, lambda: system.policy("adaptive"), config,
            arrivals=arrivals,
        ), arrivals

    @property
    def seconds(self) -> float:
        """Least CPU seconds of one round."""
        return sum(min(samples) for samples in self.point_s)

    def figures(self, checks: Checks) -> SweepFigures:
        """The rate and digests; checks every point."""
        for (name, _, _), summary, digests in zip(self.points, self.summaries, self.digests):
            checks.check(len(digests) == 1, f"sim point {name} differs between rounds")
            checks.check(summary.observed > 0 and np.isfinite(summary.p99_latency),
                         f"sim point {name} observed nothing")
            if name.startswith("cluster"):
                checks.check(summary.unfinished == 0 and summary.n_failed == 0,
                             f"cluster point {name} left queries unanswered")
        least = [min(samples) for samples in self.point_s]
        group_seconds: Dict[str, float] = {}
        for (_, group, _), seconds in zip(self.points, least):
            group_seconds[group] = group_seconds.get(group, 0.0) + seconds
        return SweepFigures(
            arrivals=sum(self.draws),
            arrivals_per_s=sum(self.draws) / sum(least),
            rounds=min(len(samples) for samples in self.point_s),
            seconds=sum(least),
            digest=digest({name: asdict(s) for (name, _, _), s
                           in zip(self.points, self.summaries)}),
            shed=sum(s.n_shed for s in self.summaries),
            events=sum(self.events),
            group_seconds=group_seconds,
        )
