"""The shared epoch arithmetic: one generator, three consumers.

``barrier_schedule`` exists so the master, the workers and the
in-process ``ZonedCluster.run_until`` cannot disagree about how many
barrier exchanges a run performs — a disagreement deadlocks the
multi-process driver (one side waits at a barrier the other never
reaches). These tests pin the two ways the generator is consumed to
each other over awkward float durations:

* one pass — ``barrier_schedule(duration, epoch)`` as the workers and
  the master (which only counts its barrier steps) use it;
* chunked resume — repeated calls with ``now``/``next_barrier`` carried
  across arbitrary intermediate deadlines, as ``ZonedCluster.run_until``
  replays it.

The barrier steps (times and count) must be identical bit-for-bit,
accumulated ``barrier += epoch`` float error and all.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.zones.cluster import barrier_schedule

_epochs = st.one_of(
    st.sampled_from([0.1, 0.3, 1.0, 2.5, 1 / 3]),
    st.floats(min_value=0.01, max_value=16.0, allow_nan=False),
)
_durations = st.one_of(
    st.sampled_from([0.0, 0.3, 1.0, 7.0, 29.999999999999996]),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)


def _one_pass(duration, epoch):
    return list(barrier_schedule(duration, epoch))


def _chunked(duration, epoch, fractions):
    """Replay the schedule the way ``ZonedCluster.run_until`` does:
    multiple calls with carried ``now``/``next_barrier`` state, cut at
    arbitrary intermediate deadlines."""
    deadlines = sorted(set(duration * f for f in fractions)) + [duration]
    steps = []
    now = 0.0
    next_barrier = epoch  # mirrors ZonedCluster.__init__
    for deadline in deadlines:
        for target, is_barrier in barrier_schedule(
            deadline, epoch, now, next_barrier
        ):
            steps.append((target, is_barrier))
            now = target
            if is_barrier:
                next_barrier += epoch  # mirrors ZonedCluster.run_until
    return steps


@given(
    duration=_durations,
    epoch=_epochs,
    fractions=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), max_size=6
    ),
)
@settings(max_examples=300, deadline=None)
def test_chunked_resume_matches_one_pass_barriers(duration, epoch, fractions):
    one = _one_pass(duration, epoch)
    chunked = _chunked(duration, epoch, fractions)
    # Chunked replay may add plain (non-barrier) steps at the cut points,
    # but the barrier steps — the points where shards rendezvous — must
    # be bit-identical in time and count.
    assert [t for t, b in one if b] == [t for t, b in chunked if b]
    # And both end exactly at the deadline.
    if duration > 0:
        assert one[-1][0] == duration == chunked[-1][0]


@given(duration=_durations, epoch=_epochs)
@settings(max_examples=300, deadline=None)
def test_schedule_invariants(duration, epoch):
    steps = _one_pass(duration, epoch)
    targets = [t for t, _ in steps]
    # Strictly increasing, never past the deadline, ends at the deadline.
    assert all(a < b for a, b in zip(targets, targets[1:]))
    assert all(t <= duration for t in targets)
    assert (duration <= 0) == (not steps)
    # Barrier times are the accumulated epoch ladder — replaying the
    # legacy drive loop arithmetic exactly (no multiplication shortcut).
    ladder = []
    barrier = epoch
    while barrier <= duration:
        ladder.append(barrier)
        barrier += epoch
    assert [t for t, b in steps if b] == ladder


@given(duration=_durations, epoch=_epochs)
@settings(max_examples=200, deadline=None)
def test_count_exchanges_matches_schedule(duration, epoch):
    # The master's exchange count is the schedule's barrier steps:
    # within one of the closed-form count (float error aside).
    count = sum(is_barrier for _, is_barrier in _one_pass(duration, epoch))
    if duration > 0:
        assert abs(count - math.floor(duration / epoch)) <= 1
    else:
        assert count == 0
