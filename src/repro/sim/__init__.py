"""Discrete-event simulation substrate.

This package provides the simulation kernel on which the whole HADES
reproduction runs: a deterministic event loop with a nanosecond clock
(:mod:`repro.sim.engine`), composable events (:mod:`repro.sim.events`),
deterministic random-variate generators including the YCSB zipfian
generator (:mod:`repro.sim.random`), and statistics collectors
(:mod:`repro.sim.stats`).

The process model is generator-based (in the style of SimPy): a process
is a Python generator that ``yield``\\ s the things it waits for — a delay
in nanoseconds, an :class:`~repro.sim.events.Event`, another process, or
an :class:`~repro.sim.events.AllOf` combinator.  Processes can be
interrupted (used to model transaction squashes).
"""

from repro.sim.engine import Engine, Process
from repro.sim.events import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.sim.random import DeterministicRandom, ZipfianGenerator
from repro.sim.stats import (
    Counter,
    LatencyRecorder,
    PhaseBreakdown,
    RunMetrics,
    ThroughputMeter,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Counter",
    "DeterministicRandom",
    "Engine",
    "Event",
    "Interrupt",
    "LatencyRecorder",
    "PhaseBreakdown",
    "Process",
    "RunMetrics",
    "ThroughputMeter",
    "Timeout",
    "ZipfianGenerator",
]
