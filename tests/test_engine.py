"""Unit tests for the discrete-event engine."""

from fractions import Fraction

import pytest

from repro.core.timeline import IntTimeline
from repro.exceptions import SimulationError
from repro.sim.engine import ArrayEngine, Engine, _COMPACT_FLOOR

F = Fraction

ENGINE_KINDS = ("fraction", "array")


def make_engine(kind):
    if kind == "fraction":
        return Engine()
    return ArrayEngine(IntTimeline(6))


class TestScheduling:
    def test_time_order(self):
        engine = Engine()
        out = []
        engine.schedule_at(F(2), lambda: out.append("b"))
        engine.schedule_at(F(1), lambda: out.append("a"))
        engine.run_all()
        assert out == ["a", "b"]
        assert engine.now == 2

    def test_fifo_at_equal_times(self):
        engine = Engine()
        out = []
        for tag in "abc":
            engine.schedule_at(F(1), lambda t=tag: out.append(t))
        engine.run_all()
        assert out == ["a", "b", "c"]

    def test_exact_fraction_times(self):
        engine = Engine()
        out = []
        engine.schedule_at(F(1, 3), lambda: out.append(engine.now))
        engine.schedule_at(F(2, 6), lambda: out.append(engine.now))  # same instant
        engine.run_all()
        assert out == [F(1, 3), F(1, 3)]

    def test_schedule_in(self):
        engine = Engine()
        times = []
        engine.schedule_in(F(1, 2), lambda: times.append(engine.now))
        engine.run_all()
        assert times == [F(1, 2)]

    def test_schedule_in_past_rejected(self):
        engine = Engine()
        engine.schedule_at(F(5), lambda: None)
        engine.run_all()
        with pytest.raises(SimulationError):
            engine.schedule_at(F(1), lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule_in(F(-1), lambda: None)

    def test_events_scheduling_events(self):
        engine = Engine()
        out = []

        def first():
            out.append(engine.now)
            engine.schedule_in(F(1), lambda: out.append(engine.now))

        engine.schedule_at(F(1), first)
        engine.run_all()
        assert out == [F(1), F(2)]


class TestRunControl:
    def test_run_until(self):
        engine = Engine()
        out = []
        engine.schedule_at(F(1), lambda: out.append(1))
        engine.schedule_at(F(3), lambda: out.append(3))
        engine.run_until(F(2))
        assert out == [1]
        assert engine.now == 2
        assert engine.pending == 1

    def test_run_until_backwards_rejected(self):
        engine = Engine()
        engine.run_until(F(5))
        with pytest.raises(SimulationError):
            engine.run_until(F(1))

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_processed_counter(self):
        engine = Engine()
        for i in range(3):
            engine.schedule_at(F(i), lambda: None)
        engine.run_all()
        assert engine.processed == 3

    def test_max_events_guard(self):
        engine = Engine()

        def forever():
            engine.schedule_in(F(1), forever)

        engine.schedule_at(F(0), forever)
        with pytest.raises(SimulationError):
            engine.run_all(max_events=100)


class TestTimers:
    """Cancellable timer handles (used by retries and heartbeat monitors)."""

    def test_cancelled_timer_never_fires(self):
        engine = Engine()
        out = []
        timer = engine.schedule_at(F(1), lambda: out.append("x"))
        timer.cancel()
        engine.run_all()
        assert out == []
        assert engine.now == 0  # a cancelled head does not advance the clock

    def test_cancel_is_idempotent(self):
        engine = Engine()
        timer = engine.schedule_at(F(1), lambda: None)
        timer.cancel()
        timer.cancel()
        engine.run_all()

    def test_cancelling_one_of_many(self):
        engine = Engine()
        out = []
        engine.schedule_at(F(1), lambda: out.append("a"))
        doomed = engine.schedule_at(F(2), lambda: out.append("b"))
        engine.schedule_at(F(3), lambda: out.append("c"))
        doomed.cancel()
        engine.run_all()
        assert out == ["a", "c"]
        assert engine.now == 3

    def test_active_flag(self):
        engine = Engine()
        timer = engine.schedule_at(F(1), lambda: None)
        assert timer.active
        engine.run_all()
        assert not timer.active  # fired
        other = engine.schedule_at(F(2), lambda: None)
        other.cancel()
        assert not other.active  # cancelled

    def test_cancelled_events_do_not_count_as_processed(self):
        engine = Engine()
        engine.schedule_at(F(1), lambda: None).cancel()
        engine.schedule_at(F(2), lambda: None)
        engine.run_all()
        assert engine.processed == 1

    def test_run_until_skips_cancelled_beyond_horizon(self):
        engine = Engine()
        out = []
        engine.schedule_at(F(1), lambda: out.append("a")).cancel()
        engine.schedule_at(F(5), lambda: out.append("late"))
        engine.run_until(F(2))
        assert out == []  # nothing before the horizon survived
        engine.run_all()
        assert out == ["late"]

    def test_cancel_from_within_an_event(self):
        engine = Engine()
        out = []
        later = engine.schedule_at(F(2), lambda: out.append("b"))
        engine.schedule_at(F(1), lambda: later.cancel())
        engine.run_all()
        assert out == []


# ----------------------------------------------------------------------
# the same contract on every engine implementation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ENGINE_KINDS)
class TestEngineContract:
    def test_order_and_fifo(self, kind):
        engine = make_engine(kind)
        out = []
        engine.schedule_at(F(2), lambda: out.append("c"))
        engine.schedule_at(F(1), lambda: out.append("a"))
        engine.schedule_at(F(1), lambda: out.append("b"))
        engine.run_all()
        assert out == ["a", "b", "c"]
        assert engine.now == 2
        assert engine.processed == 3

    def test_events_scheduling_same_instant(self, kind):
        """An event scheduling another at the *current* time runs it before
        any later event — identically across engines."""
        engine = make_engine(kind)
        out = []

        def first():
            out.append("first")
            engine.schedule_at(engine.now, lambda: out.append("chained"))

        engine.schedule_at(F(1), first)
        engine.schedule_at(F(2), lambda: out.append("later"))
        engine.run_all()
        assert out == ["first", "chained", "later"]

    def test_cancel_semantics(self, kind):
        engine = make_engine(kind)
        out = []
        engine.schedule_at(F(1), lambda: out.append("a"))
        doomed = engine.schedule_at(F(2), lambda: out.append("b"))
        engine.schedule_at(F(3), lambda: out.append("c"))
        doomed.cancel()
        doomed.cancel()  # idempotent
        engine.run_all()
        assert out == ["a", "c"]
        assert engine.processed == 2

    def test_cancelled_head_does_not_advance_clock(self, kind):
        engine = make_engine(kind)
        engine.schedule_at(F(1), lambda: None).cancel()
        engine.run_all()
        assert engine.now == 0

    def test_run_until_and_pending(self, kind):
        engine = make_engine(kind)
        out = []
        engine.schedule_at(F(1), lambda: out.append(1))
        engine.schedule_at(F(3), lambda: out.append(3))
        engine.run_until(F(2))
        assert out == [1]
        assert engine.now == 2
        assert engine.pending == 1
        engine.run_all()
        assert out == [1, 3]

    def test_run_until_skips_cancelled_beyond_horizon(self, kind):
        engine = make_engine(kind)
        out = []
        engine.schedule_at(F(1), lambda: out.append("a")).cancel()
        engine.schedule_at(F(5), lambda: out.append("late"))
        engine.run_until(F(2))
        assert out == []
        engine.run_all()
        assert out == ["late"]

    def test_past_schedule_rejected(self, kind):
        engine = make_engine(kind)
        engine.schedule_at(F(5), lambda: None)
        engine.run_all()
        with pytest.raises(SimulationError):
            engine.schedule_at(F(1), lambda: None)

    def test_max_events_guard(self, kind):
        engine = make_engine(kind)

        def forever():
            engine.schedule_at(engine.now + 1, forever)

        engine.schedule_at(F(0), forever)
        with pytest.raises(SimulationError):
            engine.run_all(max_events=100)

    def test_mass_cancel_keeps_queue_compact(self, kind):
        """Regression: lazy deletion must not grow the queue unboundedly
        when timers are scheduled and cancelled en masse (heartbeat
        monitors re-arm on every beat)."""
        engine = make_engine(kind)
        for i in range(10_000):
            engine.schedule_at(F(i + 1), lambda: None).cancel()
        survivor = []
        engine.schedule_at(F(20_000), lambda: survivor.append(engine.now))
        if kind == "array":
            backlog = engine.pending
        else:
            backlog = len(engine._heap)
        # without compaction the backlog would be ~10_001
        assert backlog <= 4 * _COMPACT_FLOOR
        engine.run_all()
        assert survivor == [F(20_000)]
        assert engine.processed == 1


class TestArrayEngineSpecifics:
    def test_defer_interleaves_with_push_in_fifo_order(self):
        engine = ArrayEngine(IntTimeline(1))
        out = []
        engine.defer(2, out.append, "a")
        engine.schedule_at(F(2), lambda: out.append("b"))
        engine.defer(2, out.append, "c")
        engine.run_all()
        assert out == ["a", "b", "c"]
        assert engine.processed == 3

    def test_defer_to_past_rejected(self):
        engine = ArrayEngine(IntTimeline(1))
        engine.defer(3, lambda _: None)
        engine.run_all()
        with pytest.raises(SimulationError):
            engine.defer(1, lambda _: None)

    def test_midrun_rescale_preserves_times(self):
        """An incommensurate time arriving mid-run grows the timeline; the
        bucketed queue must rescale in place and keep exact times."""
        engine = ArrayEngine(IntTimeline(1))
        out = []

        def first():
            out.append(engine.now)
            engine.schedule_at(F(3, 2), lambda: out.append(engine.now))

        engine.schedule_at(F(1), first)
        engine.schedule_at(F(2), lambda: out.append(engine.now))
        engine.run_all()
        assert out == [F(1), F(3, 2), F(2)]
        assert engine.timeline.scale == 2

    def test_exception_reparks_remaining_events(self):
        """If an event raises, the rest of its tick batch stays queued (the
        engine is resumable, matching the heap engines)."""
        engine = ArrayEngine(IntTimeline(1))
        out = []
        engine.defer(1, out.append, "a")

        def boom(_arg):
            raise RuntimeError("boom")

        engine.defer(1, boom)
        engine.defer(1, out.append, "b")
        with pytest.raises(RuntimeError):
            engine.run_all()
        assert out == ["a"]
        assert engine.pending == 1
        engine.run_all()
        assert out == ["a", "b"]
