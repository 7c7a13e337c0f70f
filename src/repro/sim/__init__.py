"""Discrete-event simulation of the single-port full-overlap model.

* :mod:`~repro.sim.engine` — deterministic event loops: ``Fraction`` heap
  and integer-tick buckets;
* :mod:`~repro.sim.tracing` — busy segments, completions, buffer deltas;
* :mod:`~repro.sim.simulator` — execution of event-driven schedules with
  start-up, steady-state and wind-down phases (the production kernel);
* :mod:`~repro.sim.reference` — the independent ``Fraction`` oracle the
  production kernel is tested against;
* :mod:`~repro.sim.base` — what the two share: controllers, the result
  record, fault / reconfiguration entry points;
* :mod:`~repro.sim.farm` — the demand-driven task farm the baselines and
  the result-return executor are policies on.
"""

from .engine import Engine
from .reference import ReferenceSimulation
from .simulator import (
    KERNELS,
    BufferedStartController,
    Controller,
    Simulation,
    SimulationResult,
    simulate,
)
from .tracing import COMPUTE, RECV, SEND, Segment, Trace

__all__ = [
    "Engine",
    "Controller",
    "BufferedStartController",
    "KERNELS",
    "ReferenceSimulation",
    "Simulation",
    "SimulationResult",
    "simulate",
    "Trace",
    "Segment",
    "COMPUTE",
    "SEND",
    "RECV",
]
