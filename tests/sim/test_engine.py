"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.core.protocols import Protocol
from repro.protocols.messages import Message, MessageKind
from repro.protocols.receiver import SignalingReceiver
from repro.sim.engine import Environment, RestartableTimer, SimulationError
from repro.sim.randomness import RandomStreams, Timer, TimerDiscipline


def run_chain(delays):
    """Run calls that each schedule the next after its delay; return the clock."""
    env = Environment()
    pending = list(delays)

    def next_call():
        if pending:
            env.call_later(pending.pop(0), next_call)

    next_call()
    env.run()
    return env.now


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_call_advances_clock(self):
        result = run_chain([2.5])
        assert result == 2.5

    def test_chained_calls_accumulate(self):
        result = run_chain([1.0, 2.0, 3.0])
        assert result == 6.0

    def test_zero_delay_call_allowed(self):
        result = run_chain([0.0])
        assert result == 0.0

    def test_run_until_time_sets_clock(self):
        env = Environment()
        env.run(until=100.0)
        assert env.now == 100.0

    def test_run_backwards_rejected(self):
        env = Environment()
        env.run(until=10.0)
        with pytest.raises(SimulationError):
            env.run(until=5.0)

    def test_run_before_the_initial_time_rejected(self):
        env = Environment(initial_time=5.0)
        with pytest.raises(SimulationError, match="backwards"):
            env.run(until=4.0)
        assert env.now == 5.0

    def test_calls_count_from_the_initial_time(self):
        env = Environment(initial_time=5.0)
        seen = []
        env.call_later(2.0, lambda: seen.append(env.now))
        env.run()
        assert seen == [7.0]

    def test_calls_after_a_run_until_count_from_the_horizon(self):
        env = Environment()
        env.run(until=10.0)
        seen = []
        env.call_later(1.5, lambda: seen.append(env.now))
        env.run()
        assert seen == [11.5]

    def test_run_until_now_fires_the_calls_due_now(self):
        env = Environment()
        env.run(until=3.0)
        fired = []
        env.call_later(0.0, fired.append, "now")
        env.call_later(1.0, fired.append, "later")
        env.run(until=3.0)
        assert fired == ["now"]
        assert env.now == 3.0


class TestEventOrdering:
    def test_same_time_events_fire_in_schedule_order(self):
        env = Environment()
        order = []
        for tag in ("a", "b", "c"):
            env.call_later(1.0, order.append, tag)
        env.run()
        assert order == ["a", "b", "c"]

    def test_earlier_events_fire_first(self):
        env = Environment()
        order = []
        env.call_later(3.0, order.append, "late")
        env.call_later(1.0, order.append, "early")
        env.call_later(2.0, order.append, "middle")
        env.run()
        assert order == ["early", "middle", "late"]

    def test_step_on_empty_queue_raises(self):
        with pytest.raises(SimulationError):
            Environment().step()

    def test_step_fires_one_call_of_an_instant_at_a_time(self):
        env = Environment()
        ran = []
        for tag in ("a", "b"):
            env.call_later(1.0, ran.append, tag)
        env.step()
        assert ran == ["a"]
        env.step()
        assert ran == ["a", "b"]

    def test_step_over_a_cancelled_call_moves_the_clock_and_runs_nothing(self):
        env = Environment()
        ran = []
        env.call_later(2.0, ran.append, "cancelled").cancel()
        env.call_later(3.0, ran.append, "kept")
        env.step()
        assert (env.now, ran) == (2.0, [])
        env.step()
        assert (env.now, ran) == (3.0, ["kept"])

    def test_fifo_tiebreak_holds_across_separate_runs(self):
        env = Environment()
        order = []
        env.call_later(5.0, order.append, "first")
        env.run(until=2.0)
        # Also due at t=5, but scheduled later: it fires second.
        env.call_later(3.0, order.append, "second")
        env.run()
        assert order == ["first", "second"]


class TestRunUntil:
    def test_run_without_until_drains_queue(self):
        env = Environment()
        log = []
        env.call_later(7.0, lambda: log.append(env.now))
        env.run()
        assert log == [7.0]
        with pytest.raises(SimulationError, match="empty"):
            env.step()

    def test_run_until_time_fires_what_is_due_at_the_horizon(self):
        env = Environment()
        fired = []
        env.call_later(5.0, fired.append, "at")
        env.call_later(5.0 + 1e-9, fired.append, "after")
        env.run(until=5.0)
        assert fired == ["at"]
        assert env.now == 5.0

    def test_an_exception_from_a_call_leaves_the_run_at_its_time(self):
        class Boom(Exception):
            pass

        def explode():
            raise Boom("bang")

        env = Environment()
        ran = []
        env.call_later(2.0, explode)
        env.call_later(3.0, ran.append, "after")
        with pytest.raises(Boom):
            env.run(until=10.0)
        assert env.now == 2.0
        # The run stopped at the failing call; later calls stay queued.
        assert ran == []
        env.run()
        assert ran == ["after"]

    def test_a_failing_call_does_not_run_again_when_the_run_resumes(self):
        env = Environment()
        attempts = []

        def fail():
            attempts.append(env.now)
            raise RuntimeError("once")

        env.call_later(1.0, fail)
        with pytest.raises(RuntimeError):
            env.run()
        env.run()
        assert attempts == [1.0]

    def test_an_exception_from_step_leaves_the_clock_at_the_call(self):
        env = Environment()
        env.call_later(4.0, divmod, 1, 0)
        with pytest.raises(ZeroDivisionError):
            env.step()
        assert env.now == 4.0

    def test_kernel_misuse_inside_a_call_escapes_the_run(self):
        env = Environment()
        env.call_later(1.0, env.call_later, -1.0, print)
        with pytest.raises(SimulationError, match="past"):
            env.run()
        assert env.now == 1.0

    def test_calls_scheduled_during_the_run_fire_if_due_by_the_horizon(self):
        env = Environment()
        fired = []

        def spawn():
            fired.append(env.now)
            env.call_later(2.0, fired.append, 3.0)
            env.call_later(6.0, fired.append, 7.0)

        env.call_later(1.0, spawn)
        env.run(until=5.0)
        assert fired == [1.0, 3.0]
        assert env.now == 5.0
        env.run()
        assert fired == [1.0, 3.0, 7.0]

    def test_run_without_until_on_an_empty_queue_keeps_the_clock(self):
        env = Environment(initial_time=4.0)
        env.run()
        assert env.now == 4.0


class TestScheduledCalls:
    def test_calls_and_chained_calls_fire_in_scheduling_order(self):
        env = Environment()
        order = []

        def chain(tag):
            order.append(tag)
            env.call_later(1.0, order.append, f"{tag} again")

        env.call_later(0.0, order.append, "call 1")
        env.call_later(0.0, chain, "chain 1")
        env.call_later(0.0, order.append, "call 2")
        env.call_later(0.0, chain, "chain 2")
        env.call_later(0.0, order.append, "call 3")
        env.call_later(1.0, order.append, "call 4")
        env.run()
        assert order == [
            "call 1",
            "chain 1",
            "call 2",
            "chain 2",
            "call 3",
            # Scheduled at t=0, before either chain's next call.
            "call 4",
            "chain 1 again",
            "chain 2 again",
        ]

    def test_call_receives_its_arguments_at_its_time(self):
        env = Environment()
        seen = []
        env.call_later(2.5, lambda a, b: seen.append((env.now, a, b)), "x", 7)
        env.run()
        assert seen == [(2.5, "x", 7)]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Environment().call_later(-1.0, print)

    def test_call_cancelled_before_its_time_never_runs(self):
        env = Environment()
        ran = []
        call = env.call_later(2.0, ran.append, "late")
        env.call_later(1.0, call.cancel)
        env.run()
        assert ran == []
        # The cancelled call stays queued and is skipped when popped.
        assert env.now == 2.0

    def test_callback_may_cancel_itself_and_schedule_another(self):
        env = Environment()
        log = []

        def first():
            log.append(("first", env.now))
            handle.cancel()
            env.call_later(0.5, lambda: log.append(("second", env.now)))

        handle = env.call_later(1.0, first)
        env.run()
        assert log == [("first", 1.0), ("second", 1.5)]

    def test_run_until_time_leaves_later_calls_queued(self):
        env = Environment()
        ran = []
        env.call_later(10.0, ran.append, 10.0)
        env.run(until=5.0)
        assert ran == []
        env.run(until=15.0)
        assert ran == [10.0]

    def test_cancel_after_the_call_ran_is_a_no_op(self):
        env = Environment()
        ran = []
        call = env.call_later(1.0, ran.append, "once")
        env.run()
        call.cancel()
        env.run()
        assert ran == ["once"]

    def test_cancelling_one_call_leaves_its_neighbours(self):
        env = Environment()
        ran = []
        calls = [env.call_later(1.0, ran.append, i) for i in range(5)]
        calls[2].cancel()
        env.run()
        assert ran == [0, 1, 3, 4]

    def test_zero_delay_call_from_a_callback_runs_after_queued_same_instant_work(self):
        env = Environment()
        order = []

        def first():
            order.append("first")
            env.call_later(0.0, order.append, "scheduled by first")

        env.call_later(1.0, first)
        env.call_later(1.0, order.append, "second")
        env.run()
        assert order == ["first", "second", "scheduled by first"]

    def test_cancelling_twice_is_harmless(self):
        env = Environment()
        ran = []
        call = env.call_later(1.0, ran.append, "x")
        call.cancel()
        call.cancel()
        env.run()
        assert ran == []

    def test_one_callable_scheduled_twice_runs_twice(self):
        env = Environment()
        seen = []

        def record(tag):
            seen.append((env.now, tag))

        env.call_later(1.0, record, "a")
        env.call_later(2.0, record, "b")
        env.run()
        assert seen == [(1.0, "a"), (2.0, "b")]

    def test_a_call_may_cancel_a_later_call_of_its_own_instant(self):
        env = Environment()
        ran = []
        env.call_later(1.0, lambda: later.cancel())
        later = env.call_later(1.0, ran.append, "later")
        env.run()
        assert ran == []
        assert env.now == 1.0

    def test_a_call_that_schedules_its_next_step_is_a_loop(self):
        env = Environment()
        ticks = []

        def tick():
            ticks.append(env.now)
            env.call_later(2.0, tick)

        env.call_later(0.0, tick)
        env.run(until=7.0)
        assert ticks == [0.0, 2.0, 4.0, 6.0]
        # The loop's next step stays queued past the horizon.
        env.step()
        assert ticks[-1] == env.now == 8.0


class CountingInterval:
    """Returns the given intervals in turn and counts the draws."""

    def __init__(self, *intervals):
        self.intervals = list(intervals)
        self.draws = 0

    def __call__(self):
        self.draws += 1
        return self.intervals.pop(0)


class TestRestartableTimer:
    def test_loop_fires_and_rearms_until_the_condition_fails(self):
        env = Environment()
        interval = CountingInterval(1.0, 2.0, 4.0, 8.0)
        fired = []
        timer = RestartableTimer(
            env, interval, lambda: len(fired) < 3, lambda: fired.append(env.now)
        )
        timer.restart()
        env.run()
        assert fired == [1.0, 3.0, 7.0]
        # No wait is drawn once the condition fails after the last fire.
        assert interval.draws == 3

    def test_an_always_true_loop_fires_once_per_interval_until_the_horizon(self):
        env = Environment()
        interval = CountingInterval(*[1.0] * 10)
        fired = []
        RestartableTimer(env, interval, lambda: True, lambda: fired.append(env.now)).restart()
        env.run(until=5.5)
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]
        # The arm's draw, then one draw after each fire.
        assert interval.draws == 6

    def test_each_expiry_fires_before_it_draws_the_next_wait(self):
        env = Environment()
        log = []

        def interval():
            log.append("draw")
            return 1.0

        RestartableTimer(env, interval, lambda: True, lambda: log.append("fire")).restart()
        env.run(until=2.0)
        assert log == ["draw", "fire", "draw", "fire", "draw"]

    def test_a_raising_fire_leaves_the_run_and_fires_no_more(self):
        env = Environment()
        fired = []

        def fire():
            fired.append(env.now)
            if len(fired) == 2:
                raise RuntimeError("fire")

        RestartableTimer(env, lambda: 1.0, lambda: True, fire).restart()
        with pytest.raises(RuntimeError, match="fire"):
            env.run(until=10.0)
        assert env.now == 2.0
        env.run(until=10.0)
        assert fired == [1.0, 2.0]

    def test_a_raising_interval_leaves_the_run_at_the_arm(self):
        def interval():
            raise ValueError("draw")

        env = Environment()
        env.run(until=3.0)
        RestartableTimer(env, interval, lambda: True, lambda: None).restart()
        with pytest.raises(ValueError, match="draw"):
            env.run()
        assert env.now == 3.0

    def test_a_cancel_queued_before_the_arm_for_the_expiry_instant_wins(self):
        env = Environment()
        fired = []
        timer = RestartableTimer(env, lambda: 2.0, lambda: True, lambda: fired.append(env.now))
        # Queued before the timer's expiry call exists, so it runs first at t=2.
        env.call_later(2.0, timer.cancel)
        timer.restart()
        env.run(until=10.0)
        assert fired == []

    def test_condition_is_checked_again_at_expiry(self):
        env = Environment()
        live = [True]
        fired = []
        timer = RestartableTimer(env, lambda: 5.0, lambda: live[0], lambda: fired.append(1))
        timer.restart()
        env.call_later(1.0, live.__setitem__, 0, False)
        env.run()
        assert fired == []

    def test_restarts_before_the_arm_draw_once(self):
        env = Environment()
        interval = CountingInterval(3.0, 99.0)
        fired = []
        timer = RestartableTimer(
            env, interval, lambda: not fired, lambda: fired.append(env.now)
        )
        timer.restart()
        timer.restart()
        timer.restart()
        env.run()
        assert fired == [3.0]
        assert interval.draws == 1

    def test_cancel_before_the_arm_draws_nothing(self):
        env = Environment()
        interval = CountingInterval(3.0)
        timer = RestartableTimer(env, interval, lambda: True, lambda: None)
        timer.restart()
        timer.cancel()
        env.run()
        assert interval.draws == 0

    def test_restart_discards_the_pending_wait(self):
        env = Environment()
        fired = []
        timer = RestartableTimer(
            env, CountingInterval(5.0, 5.0), lambda: not fired, lambda: fired.append(env.now)
        )
        timer.restart()
        env.call_later(3.0, timer.restart)
        env.run()
        assert fired == [8.0]

    def test_fire_that_cancels_its_own_timer_ends_the_run(self):
        env = Environment()
        interval = CountingInterval(1.0, 1.0)
        fired = []

        def fire():
            fired.append(env.now)
            timer.cancel()

        timer = RestartableTimer(env, interval, lambda: True, fire)
        timer.restart()
        env.run()
        assert fired == [1.0]
        assert interval.draws == 1

    def test_fire_that_restarts_its_own_timer_arms_once(self):
        env = Environment()
        interval = CountingInterval(1.0, 2.0, 99.0)
        fired = []

        def fire():
            fired.append(env.now)
            if len(fired) == 1:
                timer.restart()

        timer = RestartableTimer(env, interval, lambda: len(fired) < 2, fire)
        timer.restart()
        env.run()
        assert fired == [1.0, 3.0]
        assert interval.draws == 2

    def test_cancel_while_waiting_skips_the_expiry(self):
        env = Environment()
        interval = CountingInterval(5.0)
        fired = []
        timer = RestartableTimer(env, interval, lambda: True, lambda: fired.append(env.now))
        timer.restart()
        env.call_later(2.0, timer.cancel)
        env.run()
        assert fired == []
        assert interval.draws == 1
        # The skipped expiry still pops at its time.
        assert env.now == 5.0

    def test_restart_after_cancel_starts_a_fresh_run(self):
        env = Environment()
        interval = CountingInterval(5.0, 4.0)
        fired = []
        timer = RestartableTimer(
            env, interval, lambda: not fired, lambda: fired.append(env.now)
        )
        timer.restart()
        env.call_later(1.0, timer.cancel)
        env.call_later(3.0, timer.restart)
        env.run()
        assert fired == [7.0]
        assert interval.draws == 2

    def test_condition_false_at_the_arm_draws_nothing(self):
        env = Environment()
        interval = CountingInterval(1.0)
        timer = RestartableTimer(env, interval, lambda: False, lambda: None)
        timer.restart()
        env.run()
        assert interval.draws == 0

    def test_cancel_before_any_restart_is_harmless(self):
        env = Environment()
        timer = RestartableTimer(env, CountingInterval(), lambda: True, lambda: None)
        timer.cancel()
        timer.cancel()
        with pytest.raises(SimulationError, match="empty"):
            env.step()

    def test_arm_draws_after_the_calls_already_queued_for_the_instant(self):
        env = Environment()
        log = []

        def interval():
            log.append("draw")
            return 1.0

        timer = RestartableTimer(
            env, interval, lambda: "fire" not in log, lambda: log.append("fire")
        )
        env.call_later(0.0, log.append, "queued before")
        timer.restart()
        assert log == []  # the restart itself draws nothing
        env.call_later(0.0, log.append, "queued after")
        env.run()
        assert log == ["queued before", "draw", "queued after", "fire"]

    def test_timers_restarted_at_one_instant_draw_in_restart_order(self):
        env = Environment()
        draws = []

        def drawing(tag, wait):
            def draw():
                draws.append(tag)
                return wait

            return draw

        late = RestartableTimer(env, drawing("late", 2.0), lambda: True, lambda: late.cancel())
        soon = RestartableTimer(env, drawing("soon", 1.0), lambda: True, lambda: soon.cancel())
        late.restart()
        soon.restart()
        env.run()
        assert draws == ["late", "soon"]
        assert env.now == 2.0

    def test_run_ended_by_its_condition_restarts_cleanly(self):
        env = Environment()
        live = [True]
        fired = []
        interval = CountingInterval(2.0, 2.0, 99.0)
        timer = RestartableTimer(env, interval, lambda: live[0], lambda: fired.append(env.now))
        timer.restart()
        env.call_later(1.0, live.__setitem__, 0, False)
        env.call_later(3.0, live.__setitem__, 0, True)
        env.call_later(3.0, timer.restart)
        env.run(until=10.0)
        # The first wait expires at t=2 while the condition is false and
        # draws no next wait; the restart at t=3 fires at t=5.
        assert fired == [5.0]
        assert interval.draws == 3

    def test_two_installs_at_one_instant_draw_the_receiver_timeout_once(self):
        # Two state messages delivered at one instant restart the state
        # timeout twice before its arm runs: one draw, from the second.
        env = Environment()
        mean = 15.0
        timer = Timer(mean, TimerDiscipline.EXPONENTIAL, RandomStreams(11).stream("timeout-timer"))
        reference = Timer(
            mean, TimerDiscipline.EXPONENTIAL, RandomStreams(11).stream("timeout-timer")
        )
        first_draw, second_draw = reference.draw(), reference.draw()
        receiver = SignalingReceiver(env, Protocol.SS, timer, transmit=lambda _msg: None)
        receiver.on_message(Message(MessageKind.TRIGGER, 1, 1))
        receiver.on_message(Message(MessageKind.TRIGGER, 2, 2))
        env.run()
        assert receiver.timeout_removals == 1
        assert env.now == first_draw
        assert timer.draw() == second_draw
