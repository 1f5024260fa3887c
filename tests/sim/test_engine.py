"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.core.protocols import Protocol
from repro.protocols.messages import Message, MessageKind
from repro.protocols.receiver import SignalingReceiver
from repro.sim.engine import Environment, Interrupt, RestartableTimer, SimulationError
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

    def test_is_alive_lifecycle(self):
        def proc(env):
            yield env.timeout(1.0)

        env = Environment()
        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

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

    def test_active_process_visible_during_execution(self):
        env = Environment()
        seen = []

        def proc(env):
            seen.append(env.active_process)
            yield env.timeout(1.0)

        p = env.process(proc(env))
        env.run()
        assert seen == [p]
        assert env.active_process is None


class TestInterrupts:
    def test_interrupt_wakes_sleeping_process(self):
        env = Environment()
        log = []

        def sleeper(env):
            try:
                yield env.timeout(100.0)
                log.append("overslept")
            except Interrupt as interrupt:
                log.append((env.now, interrupt.cause))

        def waker(env, target):
            yield env.timeout(3.0)
            target.interrupt("alarm")

        target = env.process(sleeper(env))
        env.process(waker(env, target))
        env.run()
        assert log == [(3.0, "alarm")]

    def test_interrupt_dead_process_rejected(self):
        def quick(env):
            yield env.timeout(1.0)

        env = Environment()
        p = env.process(quick(env))
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_interrupted_process_can_continue(self):
        env = Environment()
        log = []

        def resilient(env):
            try:
                yield env.timeout(50.0)
            except Interrupt:
                pass
            yield env.timeout(1.0)
            log.append(env.now)

        def waker(env, target):
            yield env.timeout(2.0)
            target.interrupt()

        target = env.process(resilient(env))
        env.process(waker(env, target))
        env.run()
        assert log == [3.0]

    def test_original_timeout_does_not_fire_after_interrupt(self):
        env = Environment()
        wakeups = []

        def sleeper(env):
            try:
                yield env.timeout(10.0)
                wakeups.append("timeout")
            except Interrupt:
                wakeups.append("interrupt")
            # Sleep past the original timeout to catch double-resume.
            yield env.timeout(20.0)

        def waker(env, target):
            yield env.timeout(1.0)
            target.interrupt()

        target = env.process(sleeper(env))
        env.process(waker(env, target))
        env.run()
        assert wakeups == ["interrupt"]


class TestInterruptEdgeCases:
    def test_stale_timeout_fire_does_not_resume_waiting_process(self):
        """The pending Timeout of an interrupted wait fires later; the
        process (by then waiting on a new event) must not be resumed by
        the stale firing — it resumes exactly once, from the new wait."""
        env = Environment()
        resumes = []

        def sleeper(env):
            try:
                yield env.timeout(10.0)
                resumes.append(("timeout", env.now))
            except Interrupt:
                resumes.append(("interrupt", env.now))
            # A wait that straddles t=10, when the stale Timeout fires.
            yield env.timeout(100.0)
            resumes.append(("woke", env.now))

        def waker(env, target):
            yield env.timeout(5.0)
            target.interrupt()

        target = env.process(sleeper(env))
        env.process(waker(env, target))
        env.run()
        assert resumes == [("interrupt", 5.0), ("woke", 105.0)]

    def test_rewaiting_on_the_interrupted_timeout_still_works(self):
        """After an interrupt, a process may deliberately re-yield the
        Timeout it was waiting on; the pending event resumes it at the
        originally scheduled time."""
        env = Environment()
        log = []

        def sleeper(env):
            wait = env.timeout(10.0)
            try:
                yield wait
                log.append(("slept", env.now))
            except Interrupt:
                log.append(("interrupt", env.now))
                yield wait
                log.append(("slept-late", env.now))

        def waker(env, target):
            yield env.timeout(4.0)
            target.interrupt()

        target = env.process(sleeper(env))
        env.process(waker(env, target))
        env.run()
        assert log == [("interrupt", 4.0), ("slept-late", 10.0)]

    def test_queued_interrupts_delivered_in_order(self):
        env = Environment()
        causes = []

        def sleeper(env):
            for _ in range(2):
                try:
                    yield env.timeout(100.0)
                except Interrupt as interrupt:
                    causes.append((interrupt.cause, env.now))
            yield env.timeout(1.0)
            causes.append(("done", env.now))

        def waker(env, target):
            yield env.timeout(2.0)
            target.interrupt("first")
            target.interrupt("second")

        target = env.process(sleeper(env))
        env.process(waker(env, target))
        env.run()
        assert causes == [("first", 2.0), ("second", 2.0), ("done", 3.0)]

    def test_pending_interrupt_dropped_when_generator_returns(self):
        """A process that finishes while a second interrupt is queued
        completes normally; the leftover interrupt is discarded."""
        env = Environment()

        def sleeper(env):
            try:
                yield env.timeout(100.0)
            except Interrupt:
                return "stopped"
            return "slept"

        def waker(env, target):
            yield env.timeout(1.0)
            target.interrupt("a")
            target.interrupt("b")

        target = env.process(sleeper(env))
        env.process(waker(env, target))
        env.run()
        assert target.value == "stopped"


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
