"""The three workloads and the metrics each run reports.

Every workload runs the same phases (set-up, profiling, engine, the
simulator sweep) and ``serve`` adds the live server; the sizes differ,
so that each puts most of its host time in one layer:

* ``profile`` — reference-scale shard: set-up, ``measure_cost_table``
  and the engine passes dominate; the simulator runs one short probe.
* ``sweep`` — small-scale system: the discrete-event loop dominates;
  the engine runs one short probe.
* ``serve`` — small-scale system behind ``python -m repro serve``: the
  asyncio front door, the serving kernel and one ``engine.execute`` per
  request dominate, in the server process.

Where an end-to-end metric names a layer a workload only probes, the
probe gives it (see ``END_TO_END``), so every run reports every metric.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (CALIBRATION_SAMPLES, Calibration, Checks, Rotation, Spans, digest,
                    median, metric, peak_rss_mb, percentile)
import pipeline
import serve

#: End-to-end metrics (untraced runs): name -> (unit, what it measures).
#: Times are CPU seconds (``common.cpu_clock``) divided by the host
#: slowdown measured beside them (``common.Calibration``), and rates are
#: per CPU second, multiplied by it; the serve latencies (wall time from
#: due to reply) are as measured.
END_TO_END = {
    "setup_s": ("s", "corpus, index, v2 save, mmap load, each stage at its "
                "least over 2 (reference) or 3 (small) set-ups; serve: least "
                "of 3 server boots, CPU of the server from spawn to the "
                "'serving' line"),
    "peak_rss_mb": ("MB", "VmHWM of the benchmark; serve: of the server, read "
                    "just before shutdown"),
    "profile_s": ("s", "measure_cost_table + AdaptiveSearchSystem assembly, "
                  "each chunk of 25 queries and the assembly at its least "
                  "time over rounds"),
    "batch_qps": ("1/s", "queries per CPU second through Engine.execute_batch, "
                  "blocks of 100 queries, each block's least time over rounds"),
    "query_qps": ("1/s", "queries per CPU second through Engine.execute, one by "
                  "one, each query's least time over rounds"),
    "sim_queries_per_s": ("1/s", "simulated arrivals per CPU second, each load "
                          "point's least time over the sweep's rounds"),
    "p50_ms": ("ms", "serve: open-loop due-to-reply latency, least over "
               "windows of 1000 requests; others: least CPU time over rounds "
               "of one Engine.execute"),
    "p99_ms": ("ms", "as p50_ms; a failed request counts as +inf"),
    "capacity_rps": ("1/s", "requests per CPU second through the serving hook "
                     "(engine_search_for, the engine call each served request "
                     "makes); serve's closed loop gives the live server's cost "
                     "per reply as runtime.server_cpu_ms_per_req"),
}

#: Per-layer metrics (traced runs): name -> (unit, the end-to-end metric
#: it should move and on which workloads). Layers a workload bypasses
#: report 0 there.
PER_LAYER = {
    "corpus.generate_s": ("s", "setup_s: all"),
    "index.build_s": ("s", "setup_s: all"),
    "index.save_s": ("s", "setup_s, peak_rss_mb: profile"),
    "index.load_mmap_ms": ("ms", "setup_s, peak_rss_mb: profile"),
    "index.postings": ("count", "setup_s, peak_rss_mb: profile"),
    "engine.trace_us": ("us", "profile_s: profile; setup_s: sweep, serve"),
    "engine.execute_trace_us": ("us", "profile_s: profile; setup_s: sweep, serve"),
    "profiles.measure_s": ("s", "profile_s: profile; setup_s: sweep, serve"),
    "core.system_init_s": ("s", "profile_s: profile; setup_s: sweep, serve"),
    "engine.batch_us": ("us", "batch_qps: profile"),
    "engine.batch_waves": ("count", "batch_qps: profile"),
    "engine.batch_speculative_ratio": ("ratio", "batch_qps: profile"),
    "engine.plan_us": ("us", "query_qps: profile; p50_ms, capacity_rps: serve"),
    "engine.single_us": ("us", "query_qps: profile; p50_ms, capacity_rps: serve"),
    "engine.chunks_evaluated": ("count", "query_qps: profile; p50_ms, capacity_rps: serve"),
    "sim.events": ("count", "sim_queries_per_s: sweep"),
    "sim.us_per_event": ("us", "sim_queries_per_s: sweep"),
    "sim.stationary_s": ("s", "sim_queries_per_s: sweep; serve stays flat"),
    "sim.overload_s": ("s", "sim_queries_per_s: sweep; serve stays flat"),
    "sim.regime_s": ("s", "sim_queries_per_s: sweep; serve stays flat"),
    "sim.cluster_s": ("s", "sim_queries_per_s: sweep; serve stays flat"),
    "sim.shed": ("count", "sim_queries_per_s: sweep; serve stays flat"),
    "obs.trace_overhead": ("ratio", "none: what tracing costs, per workload"),
    "obs.host_slowdown": ("ratio", "none: the host's speed beside the engine "
                          "phase; such figures divide every end-to-end CPU time"),
    "runtime.overhead_ms.p50": ("ms", "p50_ms, p99_ms: serve"),
    "runtime.overhead_ms.p99": ("ms", "p50_ms, p99_ms: serve"),
    "runtime.server_cpu_ms_per_req": ("ms", "none end to end: the live server's CPU "
                                      "per reply; capacity_rps: serve counts "
                                      "its engine part"),
    "runtime.engine_us_per_req": ("us", "capacity_rps: serve"),
    "runtime.model_latency_ms": ("ms", "none: model time, flat under host-only changes"),
    "runtime.generator_late_ms": ("ms", "none: shows the client is not what serve measures"),
    "runtime.failed": ("count", "failed operations of serve"),
}

#: Set-ups per scale; the reference one takes seconds on its own.
SETUP_REPEATS = {"reference": 2, "small": 3}
#: Least rounds of every phase of a rotation (common.Rotation), on top
#: of the profiling round each workload runs at boot.
MIN_ROUNDS = 2
#: Share of the rotation's CPU time per phase, per workload.
SHARES = {
    "profile": {"profile": 0.5, "engine": 0.45, "sim": 0.05},
    "sweep": {"profile": 0.15, "engine": 0.15, "sim": 0.7},
    "serve": {"profile": 1 / 3, "engine": 1 / 3, "sim": 1 / 3},
}
#: Simulated arrivals per round of the sweep, and per round of the short
#: simulator probe the other workloads run.
SWEEP_ROUND_ARRIVALS = 25_000
PROBE_ROUND_ARRIVALS = 5_000
#: Engine query stream length per scale.
STREAM_QUERIES = {"reference": 100, "small": 200}
#: serve: open-loop rate (below the 650-900 req/s the closed loop
#: measured on a 2-core host), requests per open-loop window (so each
#: window's p99 has ten samples above it), closed-loop window per
#: connection, the closed loop's and the in-process probes' shares of
#: --seconds, and seconds per cycle. The run cycles through probe
#: slice, open-loop window and closed-loop segment, so a slow spell on
#: the host moves some windows and segments, not a whole phase;
#: latency percentiles are those of the calmest window.
OPEN_RATE = 300.0
WINDOW = 1_000
CLOSED_WINDOW = 32
CLOSED_SHARE = 0.25
PROBE_SHARE = 0.5
CYCLE_S = 3.0
#: Server boots.
BOOTS = 3


class Run:
    """State one benchmark run shares across its phases."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.spans = Spans(trace)
        self.checks = Checks()
        self.workdir = root / "perfbench" / "out" / f"{workload}-{seed}"
        self.figures: Dict[str, float] = {}
        self.measured: Dict[str, float] = {}
        self.layers: Dict[str, float] = {name: 0.0 for name in PER_LAYER}

    def record(self, name: str, value: float, calibration: Optional[Calibration] = None,
               per: int = 0) -> None:
        """Keep an end-to-end figure as measured, and as reported:
        times by ``per=-1`` and rates per CPU second by ``per=1``
        follow the host slowdown ``calibration`` measured beside them."""
        self.measured[name] = value
        self.figures[name] = value * (calibration.slowdown ** per if calibration else 1.0)

    def log(self, message: str) -> None:
        print(f"[{self.workload} seed={self.seed}] {message}", flush=True)


def _sim_horizon(system, arrivals: float) -> float:
    # Host work per model second, in arrivals: utilization 0.3 + 0.7 +
    # 1.2 + ~1.0 (flash crowd) at one node, and 0.3 at each of 4 shards.
    return arrivals / (3.2 * system.saturation_rate + 0.3 * 4 * system.saturation_rate)


def _stack_layers(run: Run, phases: "Phases") -> None:
    if not run.spans.enabled:
        return
    spans, layers, stage_s = run.spans, run.layers, phases.stage_s
    layers["corpus.generate_s"] = stage_s["corpus.generate"]
    layers["index.build_s"] = stage_s["index.build"]
    layers["index.save_s"] = stage_s["index.save"]
    layers["index.load_mmap_ms"] = stage_s["index.load_mmap"] * 1e3
    layers["index.postings"] = phases.workbench.index.n_postings
    layers["engine.trace_us"] = spans.mean("engine.trace") * 1e6
    layers["engine.execute_trace_us"] = spans.mean("engine.execute_trace") * 1e6
    layers["profiles.measure_s"] = phases.profile.measure_s
    layers["core.system_init_s"] = min(phases.profile.assembly_s)


def _engine_layers(run: Run, engine: pipeline.EngineFigures) -> None:
    if not run.spans.enabled:
        return
    spans, layers = run.spans, run.layers
    layers["engine.batch_us"] = 1e6 / engine.batch_qps
    layers["engine.batch_waves"] = engine.batch_waves
    layers["engine.batch_speculative_ratio"] = engine.batch_speculative_ratio
    layers["engine.plan_us"] = spans.mean("engine.plan") * 1e6
    layers["engine.single_us"] = 1e6 / engine.query_qps
    layers["engine.chunks_evaluated"] = engine.chunks_evaluated
    layers["runtime.engine_us_per_req"] = 1e6 / engine.hook_rps


def _sim_layers(run: Run, sweep: pipeline.SweepFigures) -> None:
    if not run.spans.enabled:
        return
    layers = run.layers
    for group, seconds in sweep.group_seconds.items():
        layers[f"sim.{group}_s"] = seconds
    layers["sim.events"] = sweep.events
    node_s = sweep.seconds - sweep.group_seconds["cluster"]
    layers["sim.us_per_event"] = node_s / max(1, sweep.events) * 1e6
    layers["sim.shed"] = sweep.shed


class Phases:
    """Profiling, engine and simulator phases of one workload, run in a
    :class:`~common.Rotation`.

    Set-up and the first profiling round run at once, for the system
    the other phases need. In a traced run the workload's main phase
    (engine on ``profile``, simulator on ``sweep``) is added twice, once
    untraced: the ratio of their least round times is
    ``obs.trace_overhead``, and the sweep's digest must not change
    (observation must not perturb the result)."""

    def __init__(self, run: Run, scale: str, round_arrivals: float):
        self.run = run
        self.workbench, self.mapped_index, self.stage_s, setup_calibration = pipeline.setup(
            scale, run.workdir, SETUP_REPEATS[scale], run.spans
        )
        run.record("setup_s", sum(self.stage_s.values()), setup_calibration, -1)
        queries = pipeline.boot_queries(self.workbench, pipeline.SCALES[scale][1])
        self.profile = pipeline.ProfilePhase(self.workbench, queries, run.spans)
        self.system = system = self.profile.run_round()

        horizon_s = _sim_horizon(system, round_arrivals)
        twice = run.spans.enabled
        self.engines = [pipeline.EnginePhase(system, STREAM_QUERIES[scale], run.seed, spans)
                        for spans in self._spans(twice and run.workload == "profile")]
        self.sims = [pipeline.SimPhase(system, horizon_s, run.seed, spans,
                                       probe_events=spans.enabled)
                     for spans in self._spans(twice and run.workload == "sweep")]
        shares = SHARES[run.workload]
        self.rotation = Rotation()
        self.calibrations = {"profile": self.rotation.add(self.profile.steps(),
                                                          shares["profile"])}
        for phase in self.engines:
            self.calibrations["engine"] = self.rotation.add(
                phase.steps(), shares["engine"] / len(self.engines))
        for phase in self.sims:
            self.calibrations["sim"] = self.rotation.add(
                phase.steps(), shares["sim"] / len(self.sims))

    def _spans(self, twice: bool) -> List[Spans]:
        return [Spans(False), self.run.spans] if twice else [self.run.spans]

    def report(self) -> None:
        """Finish the rounds, then check and record every figure."""
        run = self.run
        self.rotation.run(0.0, MIN_ROUNDS)
        self.profile.check(run.checks)
        calibrations = self.calibrations
        run.record("profile_s", self.profile.seconds, calibrations["profile"], -1)
        run.log(f"digest cost_table={self.profile.digests[0]} "
                f"({len(self.profile.assembly_s)} profiling rounds)")
        _stack_layers(run, self)

        engine = self.engines[-1].figures(self.mapped_index, run.checks)
        for name, value, per in (
            ("batch_qps", engine.batch_qps, 1), ("query_qps", engine.query_qps, 1),
            ("p50_ms", engine.query_p50_ms, -1), ("p99_ms", engine.query_p99_ms, -1),
            ("capacity_rps", engine.hook_rps, 1),
        ):
            if run.workload != "serve" or name not in ("p50_ms", "p99_ms"):
                run.record(name, value, calibrations["engine"], per)
        run.log(f"engine CPU time per query p50 {engine.query_p50_ms:.3f} ms, p99 "
                f"{engine.query_p99_ms:.3f} ms over {engine.n_queries} queries, "
                f"{engine.rounds}+ rounds")
        _engine_layers(run, engine)

        sweep = self.sims[-1].figures(run.checks)
        run.record("sim_queries_per_s", sweep.arrivals_per_s, calibrations["sim"], 1)
        run.log(f"digest sim={sweep.digest} ({sweep.rounds}+ rounds of "
                f"{sweep.arrivals} arrivals, {sweep.seconds:.3f} CPU s each)")
        _sim_layers(run, sweep)

        run.layers["obs.host_slowdown"] = calibrations["engine"].slowdown
        run.log("host slowdown beside " + ", ".join(
            f"{name} {c.slowdown:.3f}" for name, c in calibrations.items()))
        if run.spans.enabled:
            main = self.engines if run.workload == "profile" else self.sims
            if len(main) == 2:
                run.layers["obs.trace_overhead"] = main[1].seconds / main[0].seconds
            if len(self.sims) == 2:
                run.checks.check(self.sims[0].figures(Checks()).digest == sweep.digest,
                                 "traced sweep digest differs from untraced")


def _sim_horizon(system, arrivals: float) -> float:
    # Host work per model second, in arrivals: utilization 0.3 + 0.7 +
    # 1.2 + ~1.0 (flash crowd) at one node, and 0.3 at each of 4 shards.
    return arrivals / (3.2 * system.saturation_rate + 0.3 * 4 * system.saturation_rate)


# ---------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------


def profile(run: Run) -> None:
    phases = Phases(run, "reference", round_arrivals=PROBE_ROUND_ARRIVALS)
    phases.rotation.run(run.seconds, MIN_ROUNDS)
    phases.report()
    run.record("peak_rss_mb", peak_rss_mb())


def sweep(run: Run) -> None:
    phases = Phases(run, "small", round_arrivals=SWEEP_ROUND_ARRIVALS)
    phases.rotation.run(run.seconds, MIN_ROUNDS)
    phases.report()
    run.record("peak_rss_mb", peak_rss_mb())


def serve_(run: Run) -> None:
    # The in-process system the replies are checked against: the same
    # small-scale boot sample the server profiles. Its phases run on one
    # core while the server idles, and the server boots and serves the
    # closed loop on that core; the load generator then runs on the
    # other. The open loop measures wall time: there both processes may
    # run on any core, as a user's would.
    cores = set(os.sched_getaffinity(0))
    server_core, client_core = {max(cores)}, {min(cores)}
    os.sched_setaffinity(0, server_core)
    phases = Phases(run, "small", round_arrivals=PROBE_ROUND_ARRIVALS)
    client_setup_s = run.figures["setup_s"]
    cycles = max(2, round(run.seconds / CYCLE_S))
    slice_s = PROBE_SHARE * run.seconds / (cycles + 2)
    boots: List[float] = []
    boot_calibration = Calibration(BOOTS)
    for boot in range(BOOTS):
        for _ in range(CALIBRATION_SAMPLES):
            boot_calibration.sample(boot)
        server = serve.Server(run.root)
        boots.append(server.boot_s)
        if boot < BOOTS - 1:
            server.stop()
            phases.rotation.run(slice_s)
    with server:
        run.record("setup_s", min(boots), boot_calibration, -1)
        run.log(f"server boots {', '.join(f'{b:.3f}' for b in boots)} CPU s "
                f"(in-process stack {client_setup_s:.3f} s)")
        loops = asyncio.run(_drive(run, server, phases, cycles, slice_s,
                                   (server_core, client_core, cores)))
        run.checks.check(loops.unmatched == 0, f"{loops.unmatched} replies matched no request")
        run.record("peak_rss_mb", peak_rss_mb(server.pid))
    phases.report()
    requests = loops.requests
    _check_replies(run, phases.system, requests)

    windows = [[r.latency_s * 1e3 for r in window] for window in loops.windows]
    latencies = [latency for window in windows for latency in window]
    failed = sum(1 for r in requests if not r.ok)
    p50 = min(percentile(w, 50) for w in windows)
    p99 = min(percentile(w, 99) for w in windows)
    capacity = median(loops.cpu_rates)
    run.record("p50_ms", p50)
    run.record("p99_ms", p99)
    size = min(len(w) for w in windows)
    run.log(f"open loop {OPEN_RATE:.0f} req/s, {len(latencies)} requests in "
            f"{len(windows)} windows of {size} (each window's p50 has "
            f"{size - math.ceil(0.5 * size)} and p99 {size - math.ceil(0.99 * size)} "
            f"samples above it): least p50 "
            f"{p50:.3f} ms, least p99 {p99:.3f} ms; over all requests p50 "
            f"{percentile(latencies, 50):.3f} ms, p99 {percentile(latencies, 99):.3f} ms; "
            f"windows' p50 {', '.join(f'{percentile(w, 50):.2f}' for w in windows)}, "
            f"p99 {', '.join(f'{percentile(w, 99):.2f}' for w in windows)} ms")
    run.log(f"closed loop {serve.N_CONNECTIONS} x {CLOSED_WINDOW}: {loops.wall_rate:.1f} "
            f"req per wall s; capacity {capacity:.1f} req per server CPU s "
            f"(median of {len(loops.cpu_rates)} bins of {serve.CAPACITY_BIN_S} s), "
            f"{1 / loops.cpu_s:.1f} over all bins; {failed} of {len(requests)} "
            f"requests failed; bins "
            f"{', '.join(f'{rate:.0f}' for rate in loops.cpu_rates)}")

    open_requests = [r for window in loops.windows for r in window]
    ok = [r for r in open_requests if r.ok]
    overhead = [(r.received - r.sent - r.reply["latency_s"]) * 1e3 for r in ok]
    late = [(r.sent - r.due) * 1e3 for r in open_requests]
    model = [r.reply["latency_s"] * 1e3 for r in ok]
    layers = run.layers
    layers["runtime.overhead_ms.p50"] = percentile(overhead, 50)
    layers["runtime.overhead_ms.p99"] = percentile(overhead, 99)
    layers["runtime.server_cpu_ms_per_req"] = loops.cpu_s * 1e3
    layers["runtime.model_latency_ms"] = percentile(model, 50)
    layers["runtime.generator_late_ms"] = percentile(late, 99)
    layers["runtime.failed"] = failed
    run.log(f"model latency of the ok open-loop replies p50 {percentile(model, 50):.3f} "
            f"ms, p99 {percentile(model, 99):.3f} ms")
    run.log(f"generator lateness p50 {percentile(late, 50):.3f} ms, "
            f"p99 {percentile(late, 99):.3f} ms")


@dataclass
class Loops:
    """What the serve workload's load phases measured."""

    requests: List[serve.Request]
    #: The open-loop requests, one list per window.
    windows: List[List[serve.Request]]
    #: Closed loop: median replies per wall second, replies per server
    #: CPU second in each bin, server CPU seconds per ok reply.
    wall_rate: float
    cpu_rates: List[float]
    cpu_s: float
    unmatched: int


async def _drive(run: Run, server: serve.Server, phases: Phases, cycles: int,
                 slice_s: float, placement: Tuple[set, set, set]) -> Loops:
    """``cycles`` times: a slice of the in-process rotation on the
    server's core while the server idles, an open-loop window on any
    core, and a closed-loop segment with the server on its core and the
    client on the other. A traced run adds one traced closed-loop segment at the
    end; its rate against the untraced segments' is
    ``obs.trace_overhead``."""
    server_core, client_core, cores = placement
    spans, plain = run.spans, Spans(False)
    client = serve.Client(server.port, spans)
    await client.connect()
    closed_s = CLOSED_SHARE * run.seconds / cycles
    windows: List[List[serve.Request]] = []
    wall_rates: List[float] = []
    cpu_rates: List[float] = []
    cpu_used, replies = 0.0, 0
    # The load generator's own collector pauses would read as server
    # latency; the client allocates little enough to run without it.
    try:
        for cycle in range(cycles):
            os.sched_setaffinity(0, server_core)
            phases.rotation.run(slice_s)
            os.sched_setaffinity(0, cores)
            server.pin(cores)
            gc.collect()
            gc.disable()
            client.spans = spans
            with spans.span("runtime.open_loop"):
                windows.append(await serve.open_loop(
                    client, OPEN_RATE, WINDOW, phases.system.oracle.n_queries,
                    [run.seed, 1, cycle]))
            client.spans = plain
            server.pin(server_core)
            os.sched_setaffinity(0, client_core)
            cpu_before = server.cpu_seconds()
            closed, rate, rates = await serve.closed_loop(
                client, CLOSED_WINDOW, closed_s, phases.system.oracle.n_queries,
                [run.seed, 2, cycle], server.cpu_seconds,
            )
            cpu_used += server.cpu_seconds() - cpu_before
            replies += sum(r.ok for r in closed)
            gc.enable()
            wall_rates.append(rate)
            cpu_rates.extend(rates)
        if spans.enabled:
            gc.disable()
            client.spans = spans
            with spans.span("runtime.closed_loop"):
                _, traced_rate, _ = await serve.closed_loop(
                    client, CLOSED_WINDOW, closed_s, phases.system.oracle.n_queries,
                    [run.seed, 3], server.cpu_seconds,
                )
            run.layers["obs.trace_overhead"] = median(wall_rates) / traced_rate
    finally:
        gc.enable()
        os.sched_setaffinity(0, server_core)
        await client.close()
    return Loops(client.requests, windows, median(wall_rates), cpu_rates,
                 cpu_used / max(1, replies), client.unmatched)


def _check_replies(run: Run, system, requests) -> None:
    """Each request got one ok ``completed`` reply whose top-10 equals
    ``engine_search_for(system)`` run in process on the same query index
    and granted degree."""
    search = pipeline.engine_search_for(system)
    expected: Dict[Tuple[int, int], Any] = {}
    for request in requests:
        if not request.ok:
            run.checks.check(False, f"request {request.id} not answered ok")
            continue
        key = (request.query_index, request.reply["degree"])
        if key not in expected:
            expected[key] = [list(pair) for pair in search(*key)]
        run.checks.check(request.reply["results"] == expected[key],
                         f"request {request.id}: top-10 differs from in-process engine")
    run.log(f"replies checked: {len(requests)} requests, "
            f"{len(expected)} distinct (query, degree) pairs, digest "
            f"{digest(sorted((k, v) for k, v in expected.items()))}")


WORKLOADS = {"profile": profile, "sweep": sweep, "serve": serve_}


def result(run: Run) -> Dict[str, Any]:
    """The final JSON line of a run."""
    run.log("as measured: " + ", ".join(
        f"{name} {value:.6g}" for name, value in run.measured.items()))
    if run.spans.enabled:
        metrics = {name: metric(run.layers[name], unit)
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {name: metric(run.figures[name], unit)
                   for name, (unit, _) in END_TO_END.items()}
    return {
        "correct": run.checks.failed == 0,
        "attempted": run.checks.attempted,
        "failed": run.checks.failed,
        "metrics": metrics,
    }
