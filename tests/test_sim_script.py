"""Tests for scripted arrival streams (sim/script.py).

The script is the foundation of sim-vs-live parity: it must reproduce
run_load_point's online RNG draws exactly, and replaying it (through
the serving node on a Simulator) must give the same summary as the
online run.
"""

import json

import numpy as np
import pytest

from repro.engine.query import Query
from repro.policies.adaptive import ThresholdTable
from repro.policies.fixed import FixedPolicy, SequentialPolicy
from repro.policies.online import (
    OnlineAdaptivePolicy,
    OnlineControllerConfig,
    OnlineDegreeController,
)
from repro.profiles.measurement import QueryCostTable
from repro.runtime.parity import run_scripted_live
from repro.sim.arrivals import PoissonArrivals
from repro.sim.anomaly import AnomalyGuard, AnomalyGuardConfig, DegradationLevel
from repro.sim.experiment import LoadPointConfig, run_load_point
from repro.sim.oracle import ServiceOracle
from repro.sim.script import ScriptedArrival, build_arrival_script
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
from repro.util.serde import to_jsonable


def _constant_table(n_queries=10, t1=1.0, degrees=(1, 2, 4), speedup=None):
    speedup = speedup or {1: 1.0, 2: 1.8, 4: 3.0}
    latency = np.stack(
        [np.full(n_queries, t1 / speedup[p]) for p in degrees], axis=1
    )
    cpu = latency * np.asarray(degrees)[None, :]
    chunks = np.ones((n_queries, len(degrees)), dtype=np.int64)
    queries = [Query.of([0], query_id=i) for i in range(n_queries)]
    return QueryCostTable(queries, degrees, latency, cpu, chunks)


def _summary_json(summary):
    # LoadPointSummary carries NaN fields (goodput without an SLO), and
    # NaN != NaN breaks dataclass equality; canonical JSON compares the
    # whole summary including NaNs.
    return json.dumps(to_jsonable(summary), sort_keys=True)


class TestBuildArrivalScript:
    def test_within_horizon_sorted_and_in_range(self):
        config = LoadPointConfig(rate=8.0, duration=5.0, warmup=1.0,
                                 n_cores=4, seed=3)
        script = build_arrival_script(10, config)
        assert len(script) > 10
        times = [a.time_s for a in script]
        assert times == sorted(times)
        assert all(0 < t <= config.duration for t in times)
        assert all(0 <= a.query_index < 10 for a in script)

    def test_seed_determinism(self):
        config = LoadPointConfig(rate=8.0, duration=5.0, warmup=1.0,
                                 n_cores=4, seed=3)
        assert build_arrival_script(10, config) == build_arrival_script(10, config)
        other = build_arrival_script(
            10, LoadPointConfig(rate=8.0, duration=5.0, warmup=1.0,
                                n_cores=4, seed=4)
        )
        assert other != build_arrival_script(10, config)

    def test_class_labels_read_from_arrival_process(self):
        class LabelledArrivals:
            """Constant-gap arrivals tagging alternate classes."""

            def __init__(self):
                self.n = 0
                self.last_class = None

            def next_interarrival(self):
                self.n += 1
                self.last_class = "head" if self.n % 2 else "tail"
                return 0.5

        config = LoadPointConfig(rate=2.0, duration=3.0, warmup=0.0,
                                 n_cores=2, seed=0)
        script = build_arrival_script(5, config, arrivals=LabelledArrivals())
        assert [a.query_class for a in script[:4]] == [
            "head", "tail", "head", "tail"
        ]

    def test_rejects_bad_n_queries(self):
        config = LoadPointConfig(rate=2.0, duration=1.0, warmup=0.0,
                                 n_cores=2)
        with pytest.raises(Exception):
            build_arrival_script(0, config)


class _CountingArrivals:
    """Forwards to an arrival process, counting its gap draws."""

    def __init__(self, inner):
        self._inner = inner
        self.draws = 0

    def next_interarrival(self):
        self.draws += 1
        return self._inner.next_interarrival()

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _poisson_recipe(config, table):
    """The default workload, spelled out: Poisson arrivals on the
    seed's ``arrivals`` stream, uniform query draws, fixed degree 2."""
    arrivals = PoissonArrivals(
        config.rate, RngFactory(config.seed).stream("arrivals")
    )
    return arrivals, None, FixedPolicy(2), ()


def _regime_recipe(config, table):
    """The E20 recipe on a small table: regime-shifting traffic with
    labelled classes, class-aware query sampling, and the online
    controller plus anomaly guard."""
    streams = RngFactory(config.seed)
    scenario = TrafficConfig(
        background=DiurnalProfile(base_rate=10.0, amplitude=0.15,
                                  period_s=config.duration),
        bursts=(
            Burst(kind=FLASH_CROWD, start_s=1.5, duration_s=1.0,
                  peak_rate=20.0),
            Burst(kind=SLOW_QUERY_FLOOD, start_s=3.0, duration_s=2.0,
                  peak_rate=30.0),
        ),
    )
    arrivals = RegimeTraffic(scenario, streams, horizon_s=config.duration)
    sampler = ClassAwareQuerySampler(
        table.sequential_latencies(), streams, heavy_fraction=0.3
    )
    policy = OnlineAdaptivePolicy(
        ThresholdTable.from_pairs([(2, 4), (5, 2), (12, 1)])
    )
    controller = OnlineDegreeController(
        policy, OnlineControllerConfig(target_p99_s=0.4, window_s=0.25)
    )
    guard = AnomalyGuard(
        AnomalyGuardConfig(slo_s=0.4, window_s=0.25,
                           shed_classes=(SLOW_QUERY_FLOOD, QUERY_OF_DEATH)),
        policy=policy,
    )
    return arrivals, sampler, policy, (controller, guard)


class TestScriptedVsOnline:
    @pytest.mark.parametrize("deadline,max_queue,recipe", [
        (None, None, _poisson_recipe),
        (1.5, 6, _poisson_recipe),
        (0.6, 16, _regime_recipe),
    ], ids=["None-None", "1.5-6", "regime"])
    def test_scripted_replay_matches_online_run(self, deadline, max_queue, recipe):
        """Replaying the built script must equal the online
        run_load_point draw for draw — the whole parity tier rests on
        this equivalence. The regime case covers the class-label path
        (class-aware sampling, online control, class shedding). Every
        recipe is built fresh for each run."""
        table = _constant_table()
        if recipe is _regime_recipe:
            # Spread sequential latencies (20-200 ms) so the flood has
            # a heavy tail to target.
            scale = np.linspace(0.02, 0.2, table.n_queries)[:, None]
            table = QueryCostTable(
                table.queries, table.degrees, table.latency * scale,
                table.cpu * scale, table.chunks,
            )
        oracle = ServiceOracle(table)
        config = LoadPointConfig(
            rate=6.0, duration=6.0, warmup=1.0, n_cores=4, seed=7,
            deadline=deadline, max_queue_length=max_queue,
        )
        arrivals, sampler, policy, online_controllers = recipe(config, table)
        counting = _CountingArrivals(arrivals)
        online = run_load_point(
            oracle, policy, config, arrivals=counting,
            controllers=online_controllers, query_sampler=sampler,
        )
        arrivals, sampler, _, _ = recipe(config, table)
        script = build_arrival_script(
            oracle.n_queries, config, arrivals=arrivals, query_sampler=sampler
        )
        # One gap is drawn past the last arrival, and no more.
        assert counting.draws == len(script) + 1
        _, _, policy, controllers = recipe(config, table)
        scripted, node = run_scripted_live(
            oracle, policy, config, script, controllers=controllers
        )
        assert _summary_json(online) == _summary_json(scripted)
        # The server counts every shed; the summary only the
        # measurement window.
        assert node.server.n_shed >= online.n_shed
        if recipe is _regime_recipe:
            assert {a.query_class for a in script} >= {
                "background", FLASH_CROWD, SLOW_QUERY_FLOOD
            }
            # The flood drives the guard to class shedding.
            assert DegradationLevel.SHEDDING in [
                level for _, level in online_controllers[1].transitions
            ]

    def test_scripted_point_deterministic_across_runs(self):
        oracle = ServiceOracle(_constant_table())
        config = LoadPointConfig(rate=10.0, duration=4.0, warmup=0.5,
                                 n_cores=4, seed=2, deadline=2.0,
                                 max_queue_length=8)
        script = build_arrival_script(oracle.n_queries, config)
        outputs = {
            _summary_json(
                run_scripted_live(oracle, SequentialPolicy(), config, script)[0]
            )
            for _ in range(3)
        }
        assert len(outputs) == 1

    def test_explicit_script_replay(self):
        # Hand-written scripts (not built from a seed) replay as given.
        oracle = ServiceOracle(_constant_table())
        config = LoadPointConfig(rate=1.0, duration=10.0, warmup=0.0,
                                 n_cores=2)
        script = [
            ScriptedArrival(1.0, 0),
            ScriptedArrival(2.0, 1),
            ScriptedArrival(2.0, 2),
        ]
        summary, node = run_scripted_live(
            oracle, SequentialPolicy(), config, script
        )
        assert summary.observed == 3
        assert node.server.n_shed == 0
