"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.core.protocols import Protocol
from repro.protocols.messages import Message, MessageKind
from repro.protocols.receiver import SignalingReceiver
from repro.sim.engine import Environment, RestartableTimer, SimulationError
from repro.sim.randomness import RandomStreams, Timer, TimerDiscipline


def run_collecting(generator_factory):
    """Run a single process to completion; return (env, result)."""
    env = Environment()
    proc = env.process(generator_factory(env))
    result = env.run(until=proc)
    return env, result


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_timeout_advances_clock(self):
        def proc(env):
            yield env.timeout(2.5)
            return env.now

        _, result = run_collecting(proc)
        assert result == 2.5

    def test_sequential_timeouts_accumulate(self):
        def proc(env):
            yield env.timeout(1.0)
            yield env.timeout(2.0)
            yield env.timeout(3.0)
            return env.now

        _, result = run_collecting(proc)
        assert result == 6.0

    def test_zero_delay_timeout_allowed(self):
        def proc(env):
            yield env.timeout(0.0)
            return env.now

        _, result = run_collecting(proc)
        assert result == 0.0

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_run_until_time_sets_clock(self):
        env = Environment()
        env.run(until=100.0)
        assert env.now == 100.0

    def test_run_backwards_rejected(self):
        env = Environment()
        env.run(until=10.0)
        with pytest.raises(SimulationError):
            env.run(until=5.0)


class TestEventOrdering:
    def test_same_time_events_fire_in_schedule_order(self):
        env = Environment()
        order = []

        def proc(env, tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(env, tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_earlier_events_fire_first(self):
        env = Environment()
        order = []

        def proc(env, delay, tag):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc(env, 3.0, "late"))
        env.process(proc(env, 1.0, "early"))
        env.process(proc(env, 2.0, "middle"))
        env.run()
        assert order == ["early", "middle", "late"]

    def test_peek_reports_next_event_time(self):
        env = Environment()
        env.timeout(4.0)
        env.timeout(2.0)
        assert env.peek() == 2.0

    def test_peek_empty_queue_is_inf(self):
        env = Environment()
        # Drain the queue first (nothing scheduled).
        assert env.peek() == float("inf")

    def test_step_on_empty_queue_raises(self):
        with pytest.raises(SimulationError):
            Environment().step()


class TestEvents:
    def test_event_value_before_trigger_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_succeed_carries_value(self):
        def proc(env):
            event = env.event()
            event.succeed("payload", delay=1.0)
            got = yield event
            return got

        _, result = run_collecting(proc)
        assert result == "payload"

    def test_double_trigger_rejected(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_failed_event_raises_in_waiter(self):
        class Boom(Exception):
            pass

        def proc(env):
            event = env.event()
            event.fail(Boom("bang"), delay=1.0)
            with pytest.raises(Boom):
                yield event
            return "survived"

        _, result = run_collecting(proc)
        assert result == "survived"

    def test_waiting_on_processed_event_returns_value_immediately(self):
        env = Environment()
        early = env.event()
        early.succeed(41)
        collected = []

        def late(env):
            yield env.timeout(5.0)
            value = yield early
            collected.append((env.now, value))

        env.process(late(env))
        env.run()
        assert collected == [(5.0, 41)]

    def test_ok_reflects_outcome(self):
        env = Environment()
        good = env.event()
        good.succeed()
        bad = env.event()
        bad.fail(ValueError("x"))
        assert good.ok
        assert not bad.ok

    def test_phases_pending_triggered_processed(self):
        env = Environment()
        event = env.event()
        assert (event.triggered, event.processed) == (False, False)
        event.succeed(delay=1.0)
        assert (event.triggered, event.processed) == (True, False)
        env.run()
        assert (event.triggered, event.processed) == (True, True)

    def test_timeout_carries_its_value(self):
        def proc(env):
            got = yield env.timeout(1.5, value="tick")
            return got, env.now

        _, result = run_collecting(proc)
        assert result == ("tick", 1.5)

    def test_fail_with_delay_raises_at_that_time(self):
        env = Environment()
        event = env.event()
        event.fail(ValueError("late"), delay=3.0)
        seen = []

        def proc(env):
            try:
                yield event
            except ValueError:
                seen.append(env.now)

        env.process(proc(env))
        env.run()
        assert seen == [3.0]

    def test_callbacks_run_once_in_registration_order(self):
        env = Environment()
        event = env.event()
        calls = []
        event.callbacks.append(lambda evt: calls.append(("first", evt.value)))
        event.callbacks.append(lambda evt: calls.append(("second", evt.value)))
        event.succeed(9)
        env.run()
        assert calls == [("first", 9), ("second", 9)]
        assert event.callbacks is None

    def test_negative_trigger_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().succeed(delay=-1.0)


class TestProcesses:
    def test_process_requires_generator(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_return_value_becomes_event_value(self):
        def child(env):
            yield env.timeout(1.0)
            return 42

        def parent(env):
            result = yield env.process(child(env))
            return result

        _, result = run_collecting(parent)
        assert result == 42

    def test_yielding_non_event_raises(self):
        def proc(env):
            yield 7  # type: ignore[misc]

        env = Environment()
        env.process(proc(env))
        with pytest.raises(SimulationError):
            env.run()

    def test_exception_in_process_propagates_to_waiter(self):
        class Boom(Exception):
            pass

        def child(env):
            yield env.timeout(1.0)
            raise Boom("child exploded")

        def parent(env):
            with pytest.raises(Boom):
                yield env.process(child(env))
            return "handled"

        _, result = run_collecting(parent)
        assert result == "handled"

    def test_unwaited_process_failure_raises_at_run_until_event(self):
        class Boom(Exception):
            pass

        def child(env):
            yield env.timeout(1.0)
            raise Boom()

        env = Environment()
        proc = env.process(child(env))
        with pytest.raises(Boom):
            env.run(until=proc)

    def test_two_processes_interleave(self):
        env = Environment()
        log = []

        def ticker(env, period, tag, count):
            for _ in range(count):
                yield env.timeout(period)
                log.append((env.now, tag))

        env.process(ticker(env, 2.0, "a", 3))
        env.process(ticker(env, 3.0, "b", 2))
        env.run()
        # At t=6 both fire; "b" scheduled its timeout earlier (t=3 vs
        # t=4), so the FIFO tie-break runs it first.
        assert log == [(2.0, "a"), (3.0, "b"), (4.0, "a"), (6.0, "b"), (6.0, "a")]

    def test_completion_is_visible_through_the_process_event(self):
        def proc(env):
            yield env.timeout(1.0)
            return "done"

        env = Environment()
        p = env.process(proc(env))
        env.run(until=0.5)
        assert not p.triggered
        env.run()
        assert p.processed and p.ok
        assert p.value == "done"

    def test_process_name_defaults_to_the_generator_name(self):
        def beacon(env):
            yield env.timeout(1.0)

        env = Environment()
        assert env.process(beacon(env)).name == "beacon"
        assert env.process(beacon(env), name="custom").name == "custom"

    def test_processed_events_resume_the_process_within_one_step(self):
        env = Environment()
        first, second = env.event(), env.event()
        first.succeed("a")
        second.succeed("b")
        env.run()
        seen = []

        def proc(env):
            seen.append((yield first))
            seen.append((yield second))
            return "through"

        p = env.process(proc(env))
        env.step()  # the bootstrap; both outcomes feed straight back in
        assert seen == ["a", "b"]
        assert p.triggered and p.value == "through"
        assert env.now == 0.0

    def test_processed_failed_event_throws_at_once(self):
        env = Environment()
        failed = env.event()
        failed.fail(KeyError("gone"))
        env.run()  # nobody waits, so nothing is raised yet
        caught = []

        def proc(env):
            try:
                yield failed
            except KeyError as exc:
                caught.append((env.now, exc.args[0]))

        env.process(proc(env))
        env.run()
        assert caught == [(0.0, "gone")]

    def test_joining_a_finished_child_returns_its_value(self):
        def child(env):
            yield env.timeout(1.0)
            return "early"

        def parent(env, kid):
            yield env.timeout(5.0)
            return (yield kid)

        env = Environment()
        kid = env.process(child(env))
        env.run()
        assert env.run(until=env.process(parent(env, kid))) == "early"
        # The child ended at t=1; the parent joins it at t=6 with no wait.
        assert env.now == 6.0

    def test_joining_a_finished_failed_child_raises_in_the_parent(self):
        class Boom(Exception):
            pass

        def child(env):
            yield env.timeout(1.0)
            raise Boom()

        def parent(env, kid):
            yield env.timeout(5.0)
            try:
                yield kid
            except Boom:
                return "caught"
            return "missed"

        env = Environment()
        kid = env.process(child(env))
        env.run()
        assert env.run(until=env.process(parent(env, kid))) == "caught"

    def test_waiters_on_one_event_resume_in_the_order_they_waited(self):
        env = Environment()
        gate = env.event()
        order = []

        def waiter(env, tag):
            value = yield gate
            order.append((tag, value, env.now))

        for tag in ("x", "y", "z"):
            env.process(waiter(env, tag))
        gate.succeed("open", delay=2.0)
        env.run()
        assert order == [("x", "open", 2.0), ("y", "open", 2.0), ("z", "open", 2.0)]

    def test_kernel_misuse_inside_a_process_escapes_the_run(self):
        # A SimulationError is a bug in the caller, not a model outcome:
        # it is raised out of the run instead of failing the process.
        def proc(env):
            yield env.timeout(1.0)
            env.timeout(-1.0)

        env = Environment()
        p = env.process(proc(env))
        with pytest.raises(SimulationError):
            env.run()
        assert not p.triggered


class TestRunUntil:
    def test_run_until_event_returns_its_value(self):
        env = Environment()
        event = env.event()
        event.succeed("done", delay=4.0)
        assert env.run(until=event) == "done"
        assert env.now == 4.0

    def test_run_until_unreachable_event_raises(self):
        env = Environment()
        never = env.event()
        env.timeout(1.0)
        with pytest.raises(SimulationError):
            env.run(until=never)

    def test_run_without_until_drains_queue(self):
        env = Environment()
        log = []

        def proc(env):
            yield env.timeout(7.0)
            log.append(env.now)

        env.process(proc(env))
        env.run()
        assert log == [7.0]
        assert env.peek() == float("inf")

    def test_run_until_time_leaves_future_events_queued(self):
        env = Environment()
        log = []

        def proc(env):
            yield env.timeout(10.0)
            log.append(env.now)

        env.process(proc(env))
        env.run(until=5.0)
        assert log == []
        env.run(until=15.0)
        assert log == [10.0]

    def test_run_until_time_fires_what_is_due_at_the_horizon(self):
        env = Environment()
        fired = []
        env.call_later(5.0, fired.append, "at")
        env.call_later(5.0 + 1e-9, fired.append, "after")
        env.run(until=5.0)
        assert fired == ["at"]
        assert env.now == 5.0

    def test_run_until_failed_event_raises_its_exception(self):
        env = Environment()
        event = env.event()
        event.fail(KeyError("k"), delay=2.0)
        with pytest.raises(KeyError):
            env.run(until=event)
        assert env.now == 2.0

    def test_run_until_processed_event_returns_without_stepping(self):
        env = Environment()
        event = env.event()
        event.succeed("v")
        env.run()
        env.timeout(10.0)
        assert env.run(until=event) == "v"
        assert env.now == 0.0
        assert env.peek() == 10.0


class TestScheduledCalls:
    def test_calls_timeouts_and_bootstraps_fire_in_scheduling_order(self):
        env = Environment()
        order = []

        def proc(tag):
            order.append(tag)
            yield env.timeout(1.0)
            order.append(f"{tag} woke")

        env.call_later(0.0, order.append, "call 1")
        env.process(proc("process 1"))
        env.timeout(0.0).callbacks.append(lambda _evt: order.append("timeout"))
        env.process(proc("process 2"))
        env.call_later(0.0, order.append, "call 2")
        env.call_later(1.0, order.append, "call 3")
        env.run()
        assert order == [
            "call 1",
            "process 1",
            "timeout",
            "process 2",
            "call 2",
            # Scheduled at t=0, before either process's timeout.
            "call 3",
            "process 1 woke",
            "process 2 woke",
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

    def test_a_call_can_trigger_the_event_a_process_waits_on(self):
        env = Environment()
        gate = env.event()
        woke = []

        def proc(env):
            value = yield gate
            woke.append((env.now, value))

        env.process(proc(env))
        env.call_later(2.0, gate.succeed, "go")
        env.run()
        assert woke == [(2.0, "go")]


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
        assert env.peek() == float("inf")

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
