"""Property-based tests of the simulation kernel's core invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment


@given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_clock_is_sum_of_delays(delays):
    env = Environment()
    pending = list(delays)

    def next_call():
        if pending:
            env.call_later(pending.pop(0), next_call)

    next_call()
    env.run()
    assert abs(env.now - sum(delays)) < 1e-6 * max(1.0, sum(delays))


@given(
    schedule=st.lists(
        st.tuples(st.floats(0.0, 50.0), st.integers(0, 1000)),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_events_fire_in_nondecreasing_time_order(schedule):
    env = Environment()
    fired = []

    def record(tag):
        fired.append((env.now, tag))

    for delay, tag in schedule:
        env.call_later(delay, record, tag)
    env.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert len(fired) == len(schedule)


@given(
    delays=st.lists(st.floats(0.0, 20.0), min_size=2, max_size=20),
    horizon=st.floats(0.1, 30.0),
)
@settings(max_examples=60, deadline=None)
def test_run_until_time_is_a_clean_cut(delays, horizon):
    """Events at or before the horizon fire; later ones stay queued."""
    env = Environment()
    fired = []

    def record():
        fired.append(env.now)

    for delay in delays:
        env.call_later(delay, record)
    env.run(until=horizon)
    assert all(t <= horizon for t in fired)
    expected = sum(1 for d in delays if d <= horizon)
    assert len(fired) == expected
    env.run()
    assert len(fired) == len(delays)


@given(seed_count=st.integers(1, 25))
@settings(max_examples=30, deadline=None)
def test_fifo_tiebreak_preserves_schedule_order(seed_count):
    """Simultaneous events fire in the order they were scheduled."""
    env = Environment()
    fired = []
    for tag in range(seed_count):
        env.call_later(1.0, fired.append, tag)
    env.run()
    assert fired == list(range(seed_count))
