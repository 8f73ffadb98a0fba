"""Tests for the virtual clock and event scheduler."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.clock import VirtualClock
from repro.sim.scheduler import EventScheduler


class TestVirtualClock:
    def test_starts_at_given_time(self):
        assert VirtualClock(5.0)() == 5.0

    def test_advance(self):
        clock = VirtualClock()
        clock.advance_to(3.5)
        assert clock.now == 3.5

    def test_never_goes_backward(self):
        clock = VirtualClock(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(9.9)

    def test_callable_protocol(self):
        clock = VirtualClock(2.0)
        assert clock() == clock.now == 2.0


class TestScheduling:
    def test_runs_in_time_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.call_at(3.0, lambda: order.append("c"))
        scheduler.call_at(1.0, lambda: order.append("a"))
        scheduler.call_at(2.0, lambda: order.append("b"))
        scheduler.run_until(10.0)
        assert order == ["a", "b", "c"]

    def test_fifo_for_equal_times(self):
        scheduler = EventScheduler()
        order = []
        for label in "abc":
            scheduler.call_at(1.0, lambda label=label: order.append(label))
        scheduler.run_until(2.0)
        assert order == ["a", "b", "c"]

    def test_heap_orders_events_as_when_seq_lists(self):
        """An event is its own heap entry and compares as the list
        ``[when, seq]`` — in C, with no ``__lt__`` of its own. ``seq``
        is unique, so the order is strict, no two events are equal, and
        a handle still hashes (by identity)."""
        scheduler = EventScheduler()
        late = scheduler.call_at(2.0, lambda: None)
        first = scheduler.call_at(1.0, lambda: None)
        second = scheduler.call_at(1.0, lambda: None)
        assert "__lt__" not in vars(type(first))
        assert sorted(scheduler._heap) == [first, second, late]
        assert [list(event) for event in (first, second, late)] == [
            [1.0, 2], [1.0, 3], [2.0, 1],
        ]
        assert first != second and len({first, second, late}) == 3

    def test_clock_advances_to_event_time(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.call_at(4.5, lambda: seen.append(scheduler.clock.now))
        scheduler.run_until(10.0)
        assert seen == [4.5]

    def test_run_until_is_inclusive_and_lands_on_deadline(self):
        scheduler = EventScheduler()
        hits = []
        scheduler.call_at(5.0, lambda: hits.append("exact"))
        scheduler.run_until(5.0)
        assert hits == ["exact"]
        assert scheduler.clock.now == 5.0

    def test_future_events_not_run(self):
        scheduler = EventScheduler()
        hits = []
        scheduler.call_at(5.1, lambda: hits.append("later"))
        scheduler.run_until(5.0)
        assert hits == []
        scheduler.run_until(6.0)
        assert hits == ["later"]

    def test_past_scheduling_clamped_to_now(self):
        scheduler = EventScheduler()
        scheduler.run_until(10.0)
        hits = []
        scheduler.call_at(2.0, lambda: hits.append(scheduler.clock.now))
        scheduler.run_until(10.0)
        assert hits == [10.0]

    def test_call_later(self):
        scheduler = EventScheduler()
        scheduler.run_until(3.0)
        hits = []
        scheduler.call_later(2.0, lambda: hits.append(scheduler.clock.now))
        scheduler.run_until(10.0)
        assert hits == [5.0]

    def test_events_scheduled_during_execution_run(self):
        scheduler = EventScheduler()
        order = []

        def first():
            order.append("first")
            scheduler.call_later(1.0, lambda: order.append("chained"))

        scheduler.call_at(1.0, first)
        scheduler.run_until(5.0)
        assert order == ["first", "chained"]

    def test_executed_counter(self):
        scheduler = EventScheduler()
        for i in range(5):
            scheduler.call_at(float(i), lambda: None)
        scheduler.run_until(10.0)
        assert scheduler.executed == 5


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        scheduler = EventScheduler()
        hits = []
        handle = scheduler.call_at(1.0, lambda: hits.append("x"))
        handle.cancel()
        scheduler.run_until(5.0)
        assert hits == []

    def test_cancel_is_idempotent(self):
        scheduler = EventScheduler()
        handle = scheduler.call_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        scheduler.run_until(5.0)

    def test_cancel_after_run_is_noop(self):
        scheduler = EventScheduler()
        hits = []
        handle = scheduler.call_at(1.0, lambda: hits.append("x"))
        scheduler.run_until(5.0)
        handle.cancel()
        assert hits == ["x"]

    def test_len_excludes_cancelled(self):
        scheduler = EventScheduler()
        handle = scheduler.call_at(1.0, lambda: None)
        scheduler.call_at(2.0, lambda: None)
        assert len(scheduler) == 2
        handle.cancel()
        assert len(scheduler) == 1

    def test_next_event_time_skips_cancelled(self):
        scheduler = EventScheduler()
        first = scheduler.call_at(1.0, lambda: None)
        scheduler.call_at(2.0, lambda: None)
        first.cancel()
        assert scheduler.next_event_time() == 2.0

    def test_len_is_constant_time(self):
        # len() must come from the maintained counter, not a heap scan.
        scheduler = EventScheduler()
        handles = [scheduler.call_at(float(i), lambda: None) for i in range(100)]
        for handle in handles[:40]:
            handle.cancel()
        assert len(scheduler) == 60
        scheduler._heap.clear()  # a scan would now report 0
        scheduler._cancelled = 0
        assert len(scheduler) == 0

    def test_cancel_after_run_does_not_skew_len(self):
        scheduler = EventScheduler()
        executed = scheduler.call_at(1.0, lambda: None)
        scheduler.run_until(2.0)
        scheduler.call_at(5.0, lambda: None)
        executed.cancel()  # already left the heap; must not count
        assert len(scheduler) == 1

    def test_compaction_drops_cancelled_entries(self):
        scheduler = EventScheduler()
        live = [scheduler.call_at(1000.0 + i, lambda: None) for i in range(10)]
        doomed = [scheduler.call_at(float(i), lambda: None) for i in range(2000)]
        for handle in doomed:
            handle.cancel()
        assert scheduler.compactions >= 1
        assert len(scheduler._heap) < 2010
        assert len(scheduler) == len(live) == 10
        assert set(scheduler._heap) >= set(live)

    def test_order_preserved_across_compaction(self):
        scheduler = EventScheduler()
        seen = []
        for i in range(50):
            scheduler.call_at(float(i), lambda i=i: seen.append(i))
        doomed = [scheduler.call_at(60.0 + i, lambda: None) for i in range(2000)]
        for handle in doomed:
            handle.cancel()
        scheduler.run_until(100.0)
        assert seen == list(range(50))

    def test_cancel_during_run_compacts_safely(self):
        # A callback that triggers compaction mid-run_until must not
        # derail the loop (run_until holds an alias to the heap list).
        scheduler = EventScheduler()
        doomed = [scheduler.call_at(50.0 + i, lambda: None) for i in range(1500)]
        seen = []

        def cancel_all():
            for handle in doomed:
                handle.cancel()

        scheduler.call_at(1.0, cancel_all)
        scheduler.call_at(2.0, lambda: seen.append("after"))
        scheduler.run_until(3.0)
        assert scheduler.compactions >= 1
        assert seen == ["after"]
        assert len(scheduler) == 0


class TestDriveLoop:
    """``step`` and ``run_until`` are one loop: the same skipping of
    cancelled heads, the same book-keeping around each callback."""

    @pytest.mark.parametrize("drive", ["run_until", "step"])
    def test_cancelled_heads_are_skipped(self, drive):
        scheduler = EventScheduler()
        hits = []
        doomed = [
            scheduler.call_at(0.1 * i, lambda: hits.append("x")) for i in range(5)
        ]
        scheduler.call_at(1.0, lambda: hits.append("live"))
        doomed.append(scheduler.call_at(2.0, lambda: hits.append("x")))
        scheduler.call_at(9.0, lambda: hits.append("later"))
        for handle in doomed:
            handle.cancel()
        assert len(scheduler) == 2
        if drive == "run_until":
            assert scheduler.run_until(5.0) == 1
            assert scheduler.clock.now == 5.0
            # The cancelled 2.0 s entry was due and is gone with the rest.
            assert len(scheduler._heap) == 1
        else:
            assert scheduler.step()
            assert scheduler.clock.now == 1.0
        assert hits == ["live"]
        assert scheduler.executed == 1
        assert len(scheduler) == 1

    def test_step_over_only_cancelled_entries_drains(self):
        scheduler = EventScheduler()
        for handle in [scheduler.call_at(float(i), lambda: None) for i in range(3)]:
            handle.cancel()
        assert not scheduler.step()
        assert scheduler._heap == [] and len(scheduler) == 0
        assert scheduler.executed == 0 and scheduler.clock.now == 0.0

    def test_cancelled_head_past_the_deadline_is_dropped_not_run(self):
        scheduler = EventScheduler()
        scheduler.call_at(1.0, lambda: None)
        late = scheduler.call_at(8.0, lambda: None)
        scheduler.call_at(9.0, lambda: None)
        late.cancel()
        assert scheduler.run_until(5.0) == 1
        assert scheduler.clock.now == 5.0
        assert len(scheduler._heap) == 1 and scheduler._cancelled == 0
        assert len(scheduler) == 1

    @pytest.mark.parametrize("drive", ["run_until", "step"])
    def test_cancel_after_the_event_ran_is_not_counted(self, drive):
        scheduler = EventScheduler()
        ran = scheduler.call_at(1.0, lambda: None)
        scheduler.call_at(5.0, lambda: None)
        if drive == "run_until":
            scheduler.run_until(2.0)
        else:
            scheduler.step()
        ran.cancel()
        ran.cancel()
        assert len(scheduler) == 1
        assert scheduler.run_until(10.0) == 1
        assert len(scheduler) == 0 and scheduler._cancelled == 0

    @pytest.mark.parametrize("drive", ["run_until", "step"])
    def test_raising_callback_leaves_the_books_right(self, drive):
        scheduler = EventScheduler()
        hits = []

        def boom():
            raise RuntimeError("boom")

        scheduler.call_at(1.0, lambda: hits.append(1))
        scheduler.call_at(2.0, boom)
        scheduler.call_at(3.0, lambda: hits.append(3))
        with pytest.raises(RuntimeError, match="boom"):
            if drive == "run_until":
                scheduler.run_until(10.0)
            else:
                while scheduler.step():
                    pass
        # The event that raised did run: counted, off the heap, and the
        # clock stands at its time.
        assert hits == [1]
        assert scheduler.executed == 2
        assert len(scheduler) == 1
        assert scheduler.clock.now == 2.0
        assert scheduler.run_until(10.0) == 1
        assert hits == [1, 3] and scheduler.executed == 3

    @pytest.mark.parametrize("drive", ["run_until", "step"])
    def test_on_event_sees_each_event_time(self, drive):
        scheduler = EventScheduler()
        seen = []
        scheduler.on_event = seen.append
        for when in (1.0, 2.5):
            scheduler.call_at(when, lambda: None)
        if drive == "run_until":
            scheduler.run_until(3.0)
        else:
            scheduler.drain()
        assert seen == [1.0, 2.5]


class TestStepAndDrain:
    def test_step_runs_one(self):
        scheduler = EventScheduler()
        hits = []
        scheduler.call_at(1.0, lambda: hits.append(1))
        scheduler.call_at(2.0, lambda: hits.append(2))
        assert scheduler.step()
        assert hits == [1]

    def test_step_on_empty_returns_false(self):
        assert not EventScheduler().step()

    def test_drain_runs_everything(self):
        scheduler = EventScheduler()
        hits = []
        for i in range(10):
            scheduler.call_at(float(i), lambda i=i: hits.append(i))
        assert scheduler.drain() == 10
        assert hits == list(range(10))

    def test_drain_guards_runaway(self):
        scheduler = EventScheduler()

        def reschedule():
            scheduler.call_later(0.1, reschedule)

        scheduler.call_at(0.0, reschedule)
        with pytest.raises(RuntimeError):
            scheduler.drain(max_events=100)

    @given(st.lists(st.floats(min_value=0, max_value=1000), max_size=50))
    def test_execution_order_is_sorted(self, times):
        scheduler = EventScheduler()
        seen = []
        for t in times:
            scheduler.call_at(t, lambda t=t: seen.append(t))
        scheduler.run_until(2000.0)
        assert seen == sorted(seen)
        assert len(seen) == len(times)
