"""The cyclic collector is paused while a cluster is built and driven.

Two things make that sound, and both are pinned here. The *assumption*:
the event path makes no garbage cycles, so a collector pass inside
``run_until`` has nothing to free — checked with the collector off and
``DEBUG_SAVEALL`` on, around ``run_until`` only (a cluster dropped
*between* drives is legitimately cyclic; nodes, timers and bound methods
refer to one another). The *side effect*: the switch is process-wide, so
:func:`~repro.sim.scheduler.collector_paused` must hand the collector
back exactly as it found it, from every entry point that uses it.
"""

import gc
import inspect
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.check.runner import run_scenario
from repro.check.scenarios import GeneratorParams, generate_scenario
from repro.config import SwimConfig
from repro.harness import IntervalParams, run_interval
from repro.sim.runtime import SimCluster
from repro.sim.scheduler import EventScheduler, collector_paused
from repro.zones.cluster import ZonedCluster
from repro.zones.sharded import run_zoned


@contextmanager
def unreachable_after_each(monkeypatch, cls):
    """Run every ``cls.run_until`` of the block with the collector off
    and everything it would have freed kept; yields the list that gets
    one ``(unreachable objects, their types)`` entry per call."""
    found = []
    run_until = cls.run_until

    def watched(self, deadline):
        if not found:
            gc.collect()  # whatever set-up and the test runner dropped
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            executed = run_until(self, deadline)
            unreachable = gc.collect()
            found.append(
                (unreachable, Counter(type(o).__name__ for o in gc.garbage))
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        return executed

    with monkeypatch.context() as patch:
        patch.setattr(cls, "run_until", watched)
        yield found


def assert_no_cycles(found, at_least_calls=1):
    assert len(found) >= at_least_calls
    offenders = sum((types for _count, types in found), Counter())
    assert [count for count, _types in found] == [0] * len(found), (
        f"the drive loop made garbage cycles: {offenders.most_common(8)}"
    )


class TestTheEventPathMakesNoCycles:
    def test_churn_heavy_interval_run(self, monkeypatch):
        # A quarter of the members blocked for 16 s out of every 16.4:
        # suspicions, deaths, refutations and rejoins all the way through.
        params = IntervalParams(
            "Lifeguard", n_members=32, concurrent=8, duration=16.384,
            interval=0.064, quiesce=5.0, min_test_time=40.0, seed=3,
        )
        with unreachable_after_each(monkeypatch, EventScheduler) as found:
            result = run_interval(params)
        assert result.false_positives.anomalous_subject_events > 500  # churn
        assert_no_cycles(found, at_least_calls=2)

    def test_three_zone_run(self, monkeypatch):
        cluster = ZonedCluster(48, SwimConfig.lifeguard(), seed=5, zone_count=3)
        cluster.start()
        with unreachable_after_each(monkeypatch, ZonedCluster) as found:
            assert cluster.run_until(20.0) > 0
        assert cluster.barriers > 0 and cluster.cross_zone_delivered > 0
        cluster.stop()
        assert_no_cycles(found)

    @pytest.mark.parametrize(
        "seed, params, driver",
        [
            # cpu_stress x3, partition, flap
            (11, GeneratorParams(), EventScheduler),
            # block x2, leave, zone_partition, flap
            (39, GeneratorParams(zone_counts=(3,)), ZonedCluster),
        ],
    )
    def test_generated_scenarios_under_every_oracle(
        self, monkeypatch, seed, params, driver
    ):
        spec = generate_scenario(seed, params)
        with unreachable_after_each(monkeypatch, driver) as found:
            result = run_scenario(spec)
        assert result.ok and result.checks_run > 0
        assert_no_cycles(found, at_least_calls=2)


class TestThePauseRestoresWhatItFound:
    @pytest.fixture(autouse=True)
    def collector_on(self):
        assert gc.isenabled()
        yield
        gc.enable()

    def test_enabled_stays_enabled(self):
        assert collector_paused(gc.isenabled)() is False
        assert gc.isenabled()

    def test_disabled_stays_disabled(self):
        gc.disable()
        assert collector_paused(gc.isenabled)() is False
        assert not gc.isenabled()

    def test_restored_when_the_body_raises(self):
        with pytest.raises(KeyError):
            collector_paused({}.__getitem__)("missing")
        assert gc.isenabled()

    def test_nested_pauses_resume_only_at_the_outermost_exit(self):
        seen = []

        @collector_paused
        def outer():
            collector_paused(lambda: seen.append(gc.isenabled()))()
            seen.append(gc.isenabled())

        outer()
        assert seen == [False, False] and gc.isenabled()

    def test_arguments_result_and_signature_pass_through(self):
        @collector_paused
        def scale(value, by=2):
            """Docstring."""
            return value * by

        assert scale(3, by=5) == 15
        assert (scale.__name__, scale.__doc__) == ("scale", "Docstring.")
        assert list(inspect.signature(SimCluster.__init__).parameters)[:3] == [
            "self", "n_members", "config",
        ]

    def test_nothing_is_collected_or_retuned(self):
        thresholds, frozen = gc.get_threshold(), gc.get_freeze_count()
        collections = [stats["collections"] for stats in gc.get_stats()]

        @collector_paused
        def allocate():
            [[] for _ in range(10 * thresholds[0])]
            return [stats["collections"] for stats in gc.get_stats()]

        assert allocate() == collections
        assert (gc.get_threshold(), gc.get_freeze_count()) == (thresholds, frozen)

    def test_a_raising_event_hands_the_collector_back(self):
        scheduler = EventScheduler()
        scheduler.call_at(1.0, lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            scheduler.run_until(2.0)
        assert gc.isenabled()

    def test_events_run_with_the_collector_off(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.call_at(1.0, lambda: seen.append(gc.isenabled()))
        scheduler.run_until(2.0)
        assert seen == [False] and gc.isenabled()

    def test_cluster_entry_points_return_with_the_collector_on(self):
        cluster = SimCluster(n_members=8, config=SwimConfig.lifeguard(), seed=1)
        assert gc.isenabled()
        cluster.start()
        assert gc.isenabled()
        assert cluster.run_for(2.0) > 0
        assert gc.isenabled()
        cluster.stop()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_run_zoned_returns_with_the_collector_on(self, shards):
        result = run_zoned(24, seed=2, zone_count=2, duration=2.0, shards=shards)
        assert result.shards == shards and result.executed > 0
        assert gc.isenabled()
