"""Unit tests of the DES engine: events, timeouts, processes, conditions."""

import hashlib
import json

import pytest

from repro.sim import (Chain, Environment, Interrupt, Resource,
                       SimulationError)


class TestClock:
    def test_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_run_empty_calendar(self, env):
        env.run()
        assert env.now == 0.0

    def test_run_until_advances_clock_without_events(self, env):
        env.run(until=3.0)
        assert env.now == 3.0

    def test_run_until_in_past_rejected(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(ValueError):
            env.run(until=5.0)

    def test_peek_empty(self, env):
        assert env.peek() == float("inf")

    def test_peek_returns_next_time(self, env):
        env.timeout(2.5)
        assert env.peek() == 2.5


class TestTimeout:
    def test_advances_clock(self, env):
        def proc(env):
            yield env.timeout(1.5)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 1.5

    def test_zero_delay_allowed(self, env):
        def proc(env):
            yield env.timeout(0.0)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 0.0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_timeout_value_passed_through(self, env):
        def proc(env):
            got = yield env.timeout(1.0, value="hello")
            return got

        p = env.process(proc(env))
        env.run()
        assert p.value == "hello"

    def test_sequential_timeouts_accumulate(self, env):
        def proc(env):
            yield env.timeout(1.0)
            yield env.timeout(2.0)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 3.0

    def test_held_timeout_keeps_value(self, env):
        held = []

        def proc(env):
            t = env.timeout(1.0, value="precious")
            held.append(t)
            yield t
            yield env.timeout(1.0)
            yield env.timeout(1.0)

        env.process(proc(env))
        env.run()
        # a timeout held across later waits keeps its value
        assert held[0].value == "precious"


class TestEvent:
    def test_pending_value_undefined(self, env):
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_succeed_delivers_value(self, env):
        ev = env.event()

        def proc(env):
            return (yield ev)

        p = env.process(proc(env))
        ev.succeed(123)
        env.run()
        assert p.value == 123

    def test_double_succeed_rejected(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_raises_in_waiter(self, env):
        ev = env.event()

        def proc(env):
            try:
                yield ev
            except RuntimeError as exc:
                return f"caught {exc}"

        p = env.process(proc(env))
        ev.fail(RuntimeError("boom"))
        env.run()
        assert p.value == "caught boom"

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_unhandled_failure_propagates_to_run(self, env):
        ev = env.event()
        ev.fail(ValueError("unwatched"))
        with pytest.raises(ValueError, match="unwatched"):
            env.run()

    def test_yield_already_processed_event(self, env):
        ev = env.event()
        ev.succeed("early")
        env.run()
        assert ev.processed

        def proc(env):
            return (yield ev)

        p = env.process(proc(env))
        env.run()
        assert p.value == "early"

    def test_trigger_from_success(self, env):
        a, b = env.event(), env.event()
        a.succeed(7)
        env.run()
        b.trigger_from(a)
        env.run()
        assert b.value == 7

    def test_callbacks_run_on_trigger(self, env):
        ev = env.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed(9)
        env.run()
        assert seen == [9]


class TestProcess:
    def test_requires_generator(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_return_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return 42

        p = env.process(proc(env))
        env.run()
        assert p.value == 42

    def test_is_alive_lifecycle(self, env):
        def proc(env):
            yield env.timeout(1)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_yield_non_event_is_error(self, env):
        def proc(env):
            yield 42

        env.process(proc(env))
        with pytest.raises(SimulationError, match="yield from"):
            env.run()

    def test_exception_fails_process_event(self, env):
        def bad(env):
            yield env.timeout(1)
            raise KeyError("inside")

        def watcher(env, p):
            try:
                yield p
            except KeyError:
                return "saw it"

        p = env.process(bad(env))
        w = env.process(watcher(env, p))
        env.run()
        assert w.value == "saw it"

    def test_subcoroutine_composition(self, env):
        def inner(env):
            yield env.timeout(2)
            return "inner-done"

        def outer(env):
            result = yield from inner(env)
            return result + "!"

        p = env.process(outer(env))
        env.run()
        assert p.value == "inner-done!"

    def test_waiting_on_another_process(self, env):
        def a(env):
            yield env.timeout(3)
            return "A"

        def b(env, pa):
            got = yield pa
            return got + "B"

        pa = env.process(a(env))
        pb = env.process(b(env, pa))
        env.run()
        assert pb.value == "AB"
        assert env.now == 3.0

    def test_interrupt_wakes_process(self, env):
        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupt as i:
                return ("interrupted", i.cause, env.now)

        p = env.process(sleeper(env))

        def killer(env):
            yield env.timeout(5)
            p.interrupt("stop")

        env.process(killer(env))
        env.run()
        assert p.value == ("interrupted", "stop", 5.0)

    def test_interrupt_dead_process_rejected(self, env):
        def proc(env):
            yield env.timeout(1)

        p = env.process(proc(env))
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()


class TestConditions:
    def test_all_of_collects_values(self, env):
        def proc(env):
            t1 = env.timeout(1, "a")
            t2 = env.timeout(2, "b")
            values = yield env.all_of([t1, t2])
            return values, env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == (["a", "b"], 2.0)

    def test_all_of_empty_fires_immediately(self, env):
        def proc(env):
            return (yield env.all_of([]))

        p = env.process(proc(env))
        env.run()
        assert p.value == []

    def test_any_of_returns_first(self, env):
        def proc(env):
            slow = env.timeout(10, "slow")
            fast = env.timeout(1, "fast")
            event, value = yield env.any_of([slow, fast])
            return value, env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == ("fast", 1.0)

    def test_all_of_propagates_failure(self, env):
        bad = env.event()
        good = env.timeout(1)

        def proc(env):
            try:
                yield env.all_of([good, bad])
            except ValueError:
                return "failed"

        p = env.process(proc(env))
        bad.fail(ValueError("x"))
        env.run()
        assert p.value == "failed"

    def test_all_of_with_already_processed_children(self, env):
        t = env.timeout(1, "early")
        env.run()

        def proc(env):
            return (yield env.all_of([t]))

        p = env.process(proc(env))
        env.run()
        assert p.value == ["early"]

    def test_mixed_environment_rejected(self, env):
        other = Environment()
        with pytest.raises(SimulationError):
            env.all_of([other.timeout(1)])

    def test_all_of_mixed_processed_and_pending(self, env):
        """Regression: a processed first child must not fire the AllOf
        while later children are still pending."""
        done = env.timeout(1, "early")
        env.run()  # 'done' is processed now
        late = env.timeout(5, "late")

        def proc(env):
            values = yield env.all_of([done, late])
            return values, env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == (["early", "late"], 6.0)

    def test_all_of_all_processed_children(self, env):
        ts = [env.timeout(i, i) for i in range(3)]
        env.run()

        def proc(env):
            return (yield env.all_of(ts))

        p = env.process(proc(env))
        env.run()
        assert p.value == [0, 1, 2]


class TestDeterminism:
    def test_same_timestamp_fifo_order(self, env):
        order = []

        def proc(env, name):
            yield env.timeout(1.0)
            order.append(name)

        for name in "abcde":
            env.process(proc(env, name))
        env.run()
        assert order == list("abcde")

    def test_two_identical_runs_identical_traces(self):
        def build():
            env = Environment()
            log = []

            def worker(env, i):
                yield env.timeout(0.5 * (i % 3))
                log.append((env.now, i))
                yield env.timeout(1.0)
                log.append((env.now, i))

            for i in range(10):
                env.process(worker(env, i))
            env.run()
            return log

        assert build() == build()


class TestLateChildFailures:
    """A child failing after its AllOf/AnyOf already fired must be
    defused, or the stray failure escapes Environment.run()."""

    def test_all_of_defuses_failure_after_condition_failed(self, env):
        first = env.event()
        second = env.event()
        cond = env.all_of([first, second])
        caught = []

        def proc(env):
            try:
                yield cond
            except RuntimeError as exc:
                caught.append(exc)

        env.process(proc(env))
        first.fail(RuntimeError("early"))   # condition fails now
        second.fail(RuntimeError("late"))   # fires after the condition
        env.run()  # must not raise the late failure
        assert len(caught) == 1
        assert str(caught[0]) == "early"

    def test_any_of_defuses_failure_after_win(self, env):
        winner = env.event()
        loser = env.event()
        cond = env.any_of([winner, loser])
        got = []

        def proc(env):
            got.append((yield cond))

        env.process(proc(env))
        winner.succeed("ok")
        loser.fail(RuntimeError("late failure"))
        env.run()  # must not raise
        assert got[0][1] == "ok"

    def test_late_success_is_harmless(self, env):
        winner = env.event()
        slow = env.event()
        cond = env.any_of([winner, slow])

        def proc(env):
            yield cond

        env.process(proc(env))
        winner.succeed(1)
        slow.succeed(2)
        env.run()
        assert cond.ok and slow.processed


class TestInterruptAfterFire:
    def test_interrupt_while_target_already_triggered(self, env):
        """Interrupting a process whose wait target has fired but not yet
        been processed must not deliver both the value and the
        Interrupt."""
        seen = []

        def proc(env):
            try:
                yield env.timeout(5.0)
                seen.append("timeout")
            except Interrupt as i:
                seen.append(("interrupt", i.cause))
            yield env.timeout(1.0)
            seen.append("after")

        p = env.process(proc(env))
        env.run(until=1.0)
        p.interrupt(cause="now")
        env.run()
        assert seen == [("interrupt", "now"), "after"]

    def test_interrupt_after_processed_target(self, env):
        """The waited-on event's callbacks list is always a list (never
        None) after it has been processed; interrupt must cope."""
        gate = env.event()
        seen = []

        def proc(env):
            try:
                yield gate
                yield env.timeout(10.0)
            except Interrupt:
                seen.append("interrupted")

        p = env.process(proc(env))
        gate.succeed()
        env.run(until=1.0)
        assert gate.processed and gate.callbacks == []
        p.interrupt()
        env.run()
        assert seen == ["interrupted"]

    def test_interrupt_while_resuming_on_processed_failure(self, env):
        """A process that yields an already-failed, processed event waits
        on a kick carrying that failure; interrupting it before the kick
        fires delivers the Interrupt, and the stale failure (already
        handled by another waiter) is not raised out of run()."""
        bad = env.event()
        seen = []

        def catcher(env):
            try:
                yield bad
            except ValueError:
                seen.append("caught")

        def late(env):
            yield env.timeout(1.0)
            try:
                yield bad
            except Interrupt as i:
                seen.append(("interrupt", i.cause))
            except ValueError:
                seen.append("old failure")

        env.process(catcher(env))
        p = env.process(late(env))
        bad.fail(ValueError("old failure"))
        env.run(until=0.5)
        env.step()          # the timeout: `late` now waits on the kick
        assert bad.processed and env.now == 1.0
        p.interrupt("stop")
        env.run()
        assert seen == ["caught", ("interrupt", "stop")]
        assert not p.is_alive and p.ok


def _fire(env):
    """Fire the calendar entry by entry; return ``(time, priority, seq,
    tie label)`` of every fired entry."""
    entries = []
    while env._heap:
        when, prio, seq, event = env._heap[0]
        entries.append((repr(when), prio, seq, Environment._tie_label(event)))
        env.step()
    return entries


class _Relay(Chain):
    """Waits on a timeout, then on an event that has fired by then."""

    __slots__ = ("gate", "log")

    def first(self, _event):
        return self.env.timeout(1.0), _Relay.second

    def second(self, _event):
        return self.gate, _Relay.third

    def third(self, event):
        self.log.append((self.name, self.env.now, event.value))


def _heap_workload(env):
    """Every kind of calendar entry the engine pushes, apart from
    interrupts: process bootstraps, live and processed waits (a success
    and a failure), held and unheld timeouts, a process waiting on a
    process, AllOf/AnyOf over processed and pending children, resource
    grants, handoffs (an event succeeded for a waiter, and one succeeded
    before its waiter yields it) and chains waiting on processed events."""
    log = []
    gate = env.event()
    broken = env.event()
    lock = Resource(env, capacity=1, name="lock")
    handoff = env.event()

    def opener(env):
        yield env.timeout(0.5)
        gate.succeed("open")
        broken.fail(RuntimeError("broken"))
        handoff.succeed("first")
        env.timeout(0.75)  # nobody waits on this one
        return "opened"

    def early(env):
        opened = yield gate
        log.append(("early", env.now, opened))
        try:
            yield broken
        except RuntimeError as exc:
            log.append(("early", env.now, str(exc)))

    def late(env, opener_proc):
        yield env.timeout(1.0)
        opened = yield gate
        log.append(("late", env.now, opened))
        try:
            yield broken
        except RuntimeError as exc:
            log.append(("late", env.now, str(exc)))
        result = yield opener_proc
        log.append(("late", env.now, result))

    def holder(env):
        held = env.timeout(0.25, value="kept")
        yield held
        yield env.timeout(0.0)
        yield env.timeout(0.5)
        log.append(("holder", env.now, held.value))

    def conditions(env):
        done = env.timeout(0.0, value="now")
        yield env.timeout(0.25)
        both = yield env.all_of([done, gate])
        first = yield env.any_of([env.timeout(0.5, value="a"),
                                  env.timeout(0.25, value="b")])
        log.append(("cond", env.now, both, first[1]))
        try:
            yield env.all_of([env.timeout(0.1), broken])
        except RuntimeError as exc:
            log.append(("cond", env.now, str(exc)))

    def user(env, i):
        grant = yield from lock.acquire()
        yield env.timeout(0.25)
        lock.release(grant)
        log.append((f"user{i}", env.now))

    def taker(env):
        first = yield handoff
        second = yield env.event().succeed("second")
        log.append(("taker", env.now, first, second))

    opener_proc = env.process(opener(env), name="opener")
    env.process(early(env), name="early")
    env.process(late(env, opener_proc), name="late")
    env.process(holder(env), name="holder")
    env.process(conditions(env), name="conditions")
    for i in range(3):
        env.process(user(env, i), name=f"user{i}")
    env.process(taker(env), name="taker")
    relay = _Relay(env, "relay")
    relay.gate, relay.log = gate, log
    relay._boot(_Relay.first)
    # a chain parked from outside a step on an event that has fired
    parked = _Relay(env, "parked")
    parked.gate, parked.log = gate, log
    env.timeout(2.0).callbacks.append(
        lambda _e: parked._wait(gate, _Relay.third))
    return log


class TestHeapOrder:
    """Pins every fired calendar entry of a mixed sim-layer workload:
    ``(time, priority, seq, tie label)``.  Ties at one timestamp resolve
    by ``(priority, sequence)`` and the schedule-space verifier
    enumerates them by label, so a change to how the engine allocates,
    wakes or resumes must leave these entries exactly as they were."""

    #: recorded on the engine with pooled kicks and the opt-in timeout
    #: freelist, before both were deleted
    PINNED = ("818d85c5a85ad65b90aba13fe5d8fe9ccd2228f43a2b280c035767873b3c7db8",
              41)

    def test_fired_entries_are_pinned(self):
        env = Environment()
        log = _heap_workload(env)
        entries = _fire(env)
        digest = hashlib.sha256(
            json.dumps([entries, log]).encode()).hexdigest()
        assert (digest, len(entries)) == self.PINNED

    def test_workload_covers_the_paths_it_claims(self):
        env = Environment()
        log = _heap_workload(env)
        labels = {e[3] for e in _fire(env)}
        assert {"opener", "early", "late", "holder", "conditions",
                "taker", "relay", "parked", "Timeout"} <= labels
        assert ("early", 0.5, "open") in log
        assert ("late", 1.0, "open") in log
        assert ("late", 1.0, "broken") in log
        assert ("late", 1.0, "opened") in log
        assert ("holder", 0.75, "kept") in log
        assert ("relay", 1.0, "open") in log
        assert ("parked", 2.0, "open") in log

    def test_run_fires_what_step_fires(self):
        stepped, ran = Environment(), Environment()
        stepped_log = _heap_workload(stepped)
        _fire(stepped)
        ran_log = _heap_workload(ran)
        ran.run()
        assert ran_log == stepped_log
        assert (ran.now, ran._seq) == (stepped.now, stepped._seq)


class TestChain:
    """A Chain pushes exactly the calendar entries a Process running the
    same waits would: same times, priorities, sequence numbers and tie
    labels."""

    @staticmethod
    def _setup(env):
        done = env.event().succeed("early")     # processed before the wait
        late = env.event()
        env.timeout(2).callbacks.append(
            lambda _e: late.fail(RuntimeError("late")))
        return done, late

    def test_same_entries_as_a_process(self):

        def as_process(env, log):
            done, late = self._setup(env)

            def body():
                yield env.timeout(1)
                log.append((yield done))
                try:
                    yield late
                except RuntimeError as exc:
                    log.append(str(exc))

            env.process(body(), name="worker")

        class Worker(Chain):
            __slots__ = ("log", "done", "late")

            def first(self, _event):
                return self.env.timeout(1), Worker.second

            def second(self, _event):
                return self.done, Worker.third

            def third(self, event):
                self.log.append(event.value)
                return self.late, Worker.last

            def last(self, event):
                assert not event.ok
                self.log.append(str(event.value))

        def as_chain(env, log):
            done, late = self._setup(env)
            chain = Worker(env, "worker")
            chain.log, chain.done, chain.late = log, done, late
            chain._boot(Worker.first)

        runs = []
        for start in (as_process, as_chain):
            env, log = Environment(), []
            start(env, log)
            runs.append((_fire(env), log, env.now))
        assert runs[0] == runs[1]
        assert runs[1][1] == ["early", "late"]

    def test_raising_step_fails_through_the_calendar(self, env):

        class Boom(Chain):
            __slots__ = ()

            def first(self, _event):
                return self.env.timeout(1), Boom.second

            def second(self, _event):
                raise ValueError("boom")

        chain = Boom(env, "boom")
        chain._boot(Boom.first)
        with pytest.raises(ValueError, match="boom"):
            env.run()
        assert env.now == 1 and chain.triggered and not chain.ok

    def test_finished_chain_completes_in_place(self, env):

        class Once(Chain):
            __slots__ = ()

            def first(self, _event):
                return None

        chain = Once(env, "once")
        chain._boot(Once.first)
        env.run()
        assert chain.processed and chain.ok and not env._heap
