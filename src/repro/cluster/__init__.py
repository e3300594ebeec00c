"""Simulated distributed platform: cost models, stragglers, backend.

This subpackage stands in for the paper's physical XSEDE Comet cluster.
Its one executor, :class:`~repro.cluster.simbackend.SimBackend`, is a
deterministic discrete-event simulation whose virtual time is one float
that its event loop advances. Task compute times come from an analytic
cost model, network transfers from a latency/bandwidth model, and
stragglers from pluggable delay models; a run depends only on its spec,
never on the host's wall clock.
Real concurrency lives a level up, in the sweep fabric's worker
processes (:mod:`repro.fabric`).
"""

from repro.cluster.backend import BackendTask, TaskMetrics, WorkerEnv
from repro.cluster.cost import AnalyticCostModel
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
    "AnalyticCostModel",
    "Event",
    "EventQueue",
    "NetworkModel",
    "SimBackend",
    "DelayModel",
    "NoDelay",
    "ControlledDelay",
    "ProductionCluster",
]
