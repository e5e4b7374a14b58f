"""Discrete-event simulation engine.

A small, fast, generator-based DES kernel in the style of SimPy: processes
are Python generators that ``yield`` events; the environment advances a
virtual clock through a calendar queue — one FIFO bucket per distinct
scheduled time, over a binary heap of those times. Everything higher in
the stack (network stack, disk queues, thread scheduling, load
generation) is built from these primitives.
"""

from repro.sim.engine import Environment, Event, Process, Timeout
from repro.sim.resources import Resource, Store

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Resource",
    "Store",
]
