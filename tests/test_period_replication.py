"""Periods the kernel does not step.

``Simulation.run()`` compares its exact state at every global-period
boundary ``k·T``; once two consecutive boundaries agree it writes the whole
periods left as shifted copies of the last one and steps only the rest.
:class:`~repro.sim.reference.ReferenceSimulation` steps every event and is
the oracle: every case here is ``==`` to it — trace streams, counters,
``engine.processed`` and the per-node arrival counts — across 25 seeded
trees × four horizons × three pacings × three recording modes, a supply
that runs out mid-period, a rescale before detection, Timers that bound
replication, and the runs that must replicate nothing.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.analysis.periodicity import periodic_from
from repro.schedule.periods import global_period
from repro.sim import ReferenceSimulation
from repro.sim.base import BufferedStartController, Controller
from repro.sim.engine import ArrayEngine
from repro.sim.simulator import Simulation
from repro.telemetry import Registry

from .test_timeline import random_tree, solved

F = Fraction

#: the first 25 ``random_tree`` seeds whose global period is at most 120:
#: the oracle steps every event, and the few seeds with periods in the
#: hundreds and thousands would cost it seconds each (the replicated side is
#: checked on those by E31 and the end-to-end ``coldscale`` workload)
SEEDS = [s for s in range(60)
         if global_period(solved(random_tree(s))[1]) <= 120][:25]

HORIZONS = (F(5, 2), F(6), F(9), F(6) + F(1, 3))
PACINGS = ("even", "marks", "burst")
RECORDINGS = {
    "full": dict(),
    "no-segments": dict(record_segments=False),
    "counts-only": dict(record_segments=False, record_buffers=False,
                        record_events=False),
}
#: the streams each recording mode keeps
STREAMS = {
    "full": ("segments", "completions", "arrivals", "buffer_deltas",
             "releases"),
    "no-segments": ("completions", "arrivals", "buffer_deltas", "releases"),
    "counts-only": (),
}


def plan(seed):
    tree = random_tree(seed)
    _, periods, schedules = solved(tree)
    return tree, periods, schedules, F(global_period(periods))


def run(cls, tree, periods, schedules, horizon, story=None, **options):
    sim = cls(tree, dict(schedules), dict(periods), horizon=horizon,
              **options)
    if story is not None:
        story(sim)
    return sim, sim.run()


def arrivals_of(sim):
    if isinstance(sim, Simulation):
        return dict(zip(sim._names, sim._arrivals))
    return {name: node.arrivals for name, node in sim.nodes.items()}


def assert_same(got, oracle, recording="full"):
    """*got* (array kernel) against *oracle* (reference, full recording)."""
    (sim, result), (ref_sim, ref) = got, oracle
    for stream in STREAMS[recording]:
        assert getattr(result.trace, stream) == getattr(ref.trace, stream), \
            stream
    assert result.trace.completed == ref.trace.completed
    assert result.end_time == ref.end_time
    assert result.released == ref.released
    assert result.stop_time == ref.stop_time
    assert result.tasks_lost == ref.tasks_lost
    assert result.failed_at == ref.failed_at
    assert sim.engine.processed == ref_sim.engine.processed
    assert arrivals_of(sim) == arrivals_of(ref_sim)


class TestEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_replicated_run_equals_the_stepped_oracle(self, seed):
        tree, periods, schedules, t = plan(seed)
        for horizon in HORIZONS:
            for pacing in PACINGS:
                oracle = run(ReferenceSimulation, tree, periods, schedules,
                             horizon * t, root_pacing=pacing)
                for recording, options in RECORDINGS.items():
                    got = run(Simulation, tree, periods, schedules,
                              horizon * t, root_pacing=pacing, **options)
                    assert_same(got, oracle, recording)
                    sim, result = got
                    if horizon < 3:  # too short: no boundary is compared
                        assert result.periodic_from is None
                        assert sim.engine.replicated == 0
                    elif horizon == 9:  # every one of these trees settles
                        assert sim.engine.replicated > 0
                        assert (result.periodic_from / t).denominator == 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_kernel_boundary_is_never_before_the_segments_say(self, seed):
        """Equal state at a boundary implies equal windows from there on,
        never the reverse: the kernel's ``periodic_from`` is at or after
        the first window the segment analysis finds repeating."""
        tree, periods, schedules, t = plan(seed)
        for pacing in PACINGS:
            _, result = run(Simulation, tree, periods, schedules, 9 * t,
                            root_pacing=pacing)
            found = periodic_from(result.trace, t, stop_time=9 * t,
                                  min_repeats=1)
            assert found is not None and result.periodic_from is not None
            assert result.periodic_from >= found


class TestWhatBoundsReplication:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_supply_running_out_mid_period(self, seed):
        tree, periods, schedules, t = plan(seed)
        _, free = run(Simulation, tree, periods, schedules, 9 * t)
        supply = free.released * 11 // 18  # about five and a half periods
        got = run(Simulation, tree, periods, schedules, 9 * t, supply=supply)
        oracle = run(ReferenceSimulation, tree, periods, schedules, 9 * t,
                     supply=supply)
        assert_same(got, oracle)
        assert got[1].released == supply and got[1].stop_time < 9 * t
        assert got[0].engine.replicated > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rescale_before_detection(self, seed):
        """Control jobs with foreign denominators grow the tick scale in
        the first period; the boundaries after it still agree."""
        tree, periods, schedules, t = plan(seed)
        node = next(iter(schedules))

        def story(sim):
            sim.engine.schedule_at(
                t / 3, lambda: sim.inject_control(node, F(1, 7)))
            sim.engine.schedule_at(
                t * F(2, 3), lambda: sim.inject_control(node, F(1, 11)))

        got = run(Simulation, tree, periods, schedules, 9 * t, story)
        assert_same(got, run(ReferenceSimulation, tree, periods, schedules,
                             9 * t, story))
        assert got[0].engine.replicated > 0
        assert got[0]._timeline.scale % 77 == 0

    @pytest.mark.parametrize("timer", ["crash", "reconfigure", "link-factor"])
    def test_replication_stops_before_a_pending_timer(self, timer,
                                                      monkeypatch):
        """A Timer at 5.5 T: whole periods are written up to it (and after
        it, once two later boundaries agree), never across it, and the
        trace is the stepped one."""
        jumps = []
        skip = ArrayEngine.skip

        def spy(engine, delta, events, before):
            start = engine.now
            skip(engine, delta, events, before)
            jumps.append((start, engine.now))

        monkeypatch.setattr(ArrayEngine, "skip", spy)
        replicated = 0
        for seed in SEEDS:
            tree, periods, schedules, t = plan(seed)
            at = t * F(11, 2)
            victim = tree.leaves()[-1]

            def story(sim):
                if timer == "crash":
                    sim.schedule_failure(victim, at)
                elif timer == "reconfigure":
                    sim.engine.schedule_at(
                        at, lambda: sim.reconfigure(schedules, periods))
                else:
                    sim.engine.schedule_at(at, lambda: sim.set_link_time_factor(
                        lambda parent, child, now: F(3, 2)))

            del jumps[:]
            got = run(Simulation, tree, periods, schedules, 9 * t, story)
            assert_same(got, run(ReferenceSimulation, tree, periods,
                                 schedules, 9 * t, story))
            assert not any(start < at <= end for start, end in jumps)
            replicated += got[0].engine.replicated
        assert replicated > 0


class TestWhatReplicatesNothing:
    """Runs whose events something outside the compiled kernel watches or
    steers are stepped in full — and read exactly as before."""

    @pytest.mark.parametrize("seed", SEEDS[::3])
    def test_buffered_start_controller(self, seed):
        tree, periods, schedules, t = plan(seed)
        thresholds = {n: periods[n].chi_in for n in schedules}
        got, oracle = (
            run(cls, tree, periods, schedules, 9 * t,
                controller=BufferedStartController(schedules, thresholds,
                                                   tree.root))
            for cls in (Simulation, ReferenceSimulation))
        assert_same(got, oracle)
        assert got[0].engine.replicated == 0
        assert got[1].periodic_from is None

    @pytest.mark.parametrize("seed", SEEDS[::3])
    def test_enabled_registry(self, seed):
        tree, periods, schedules, t = plan(seed)
        registries = {}
        runs = {}
        for cls in (Simulation, ReferenceSimulation):
            registries[cls] = Registry()
            runs[cls] = run(cls, tree, periods, schedules, 9 * t,
                            telemetry=registries[cls])
        assert_same(runs[Simulation], runs[ReferenceSimulation])
        assert runs[Simulation][0].engine.replicated == 0

        def counters(registry):
            return {(c.name, c.labels): c.value for c in registry.counters()}

        assert counters(registries[Simulation]) == counters(
            registries[ReferenceSimulation])
        assert registries[Simulation].value("sim.events_processed") == \
            runs[ReferenceSimulation][0].engine.processed

    @pytest.mark.parametrize("seed", SEEDS[::3])
    def test_custom_controller_link_factor_and_control_stream(self, seed):
        tree, periods, schedules, t = plan(seed)
        node = next(iter(schedules))

        class Routing(Controller):
            def destination(self, node, arrival_index):
                return super().destination(node, arrival_index)

        def link_factor(sim):  # even a factor of 1 is watched per transfer
            sim.set_link_time_factor(lambda parent, child, now: F(1))

        def control_stream(sim):
            def again():  # one job after another, to the horizon
                if sim.engine.now < 9 * t:
                    sim.inject_control(node, F(1, 2), again)
            sim.inject_control(node, F(1, 2), again)

        cases = {
            "custom controller":
                (None, lambda: dict(controller=Routing(schedules))),
            "link factor": (link_factor, dict),
            "control jobs": (control_stream, dict),
        }
        for case, (story, options) in cases.items():
            got = run(Simulation, tree, periods, schedules, 9 * t, story,
                      **options())
            assert_same(got, run(ReferenceSimulation, tree, periods,
                                 schedules, 9 * t, story, **options()))
            assert got[0].engine.replicated == 0, case
            assert got[1].periodic_from is None, case
