"""Simulated distributed platform: clock, cost models, stragglers, backend.

This subpackage stands in for the paper's physical XSEDE Comet cluster.
Its one executor, :class:`~repro.cluster.simbackend.SimBackend`, is a
deterministic discrete-event simulation driven by a virtual clock. Task
compute times come from an analytic cost model, network transfers from a
latency/bandwidth model, and stragglers from pluggable delay models.
Real concurrency lives a level up, in the sweep fabric's worker
processes (:mod:`repro.fabric`).
"""

from repro.cluster.backend import BackendTask, TaskMetrics, WorkerEnv
from repro.cluster.clock import VirtualClock
from repro.cluster.cost import AnalyticCostModel, MeasuredCostModel, TaskCostModel
from repro.cluster.events import Event, EventQueue
from repro.cluster.network import NetworkModel
from repro.cluster.simbackend import SimBackend
from repro.cluster.stragglers import (
    ControlledDelay,
    DelayModel,
    NoDelay,
    ProductionCluster,
)

__all__ = [
    "BackendTask",
    "TaskMetrics",
    "WorkerEnv",
    "VirtualClock",
    "TaskCostModel",
    "AnalyticCostModel",
    "MeasuredCostModel",
    "Event",
    "EventQueue",
    "NetworkModel",
    "SimBackend",
    "DelayModel",
    "NoDelay",
    "ControlledDelay",
    "ProductionCluster",
]
