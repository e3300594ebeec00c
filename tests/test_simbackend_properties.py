"""Property-based tests of the simulation's timing invariants.

Random workloads (task counts, worker assignments, cost volumes, delay
factors) must always produce physically consistent timelines: causality
per task, mutual exclusion per worker, straggler factors applied
exactly. These invariants are what make every figure's virtual-time
measurements trustworthy.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster.backend import BackendTask
from repro.cluster.cost import AnalyticCostModel
from repro.cluster.network import NetworkModel
from repro.cluster.simbackend import SimBackend
from repro.cluster.stragglers import ControlledDelay, NoDelay

workloads = st.lists(
    st.tuples(
        st.integers(0, 3),                 # worker
        st.floats(0.0, 50.0),              # cost units
    ),
    min_size=1,
    max_size=40,
)


def run_workload(tasks, delay_model=None):
    backend = SimBackend(
        4,
        cost_model=AnalyticCostModel(overhead_ms=1.0, ms_per_unit=0.1),
        network=NetworkModel(latency_ms=0.5,
                             bandwidth_bytes_per_ms=1e6),
        delay_model=delay_model or NoDelay(),
    )
    done = []
    backend.set_completion_callback(
        lambda task, w, v, m, e: done.append((w, m, e))
    )
    for i, (worker, units) in enumerate(tasks):
        backend.submit(
            BackendTask(task_id=i, fn=lambda env: None, cost_units=units),
            worker,
        )
    backend.drain()
    return done


@settings(max_examples=50, deadline=None)
@given(tasks=workloads)
def test_per_task_causality(tasks):
    done = run_workload(tasks)
    assert len(done) == len(tasks)
    for _, m, e in done:
        assert e is None
        assert m.submitted_ms <= m.started_ms
        assert m.started_ms <= m.finished_ms
        assert m.finished_ms <= m.delivered_ms
        assert m.compute_ms >= 0


@settings(max_examples=50, deadline=None)
@given(tasks=workloads)
def test_worker_mutual_exclusion(tasks):
    """A worker never computes two tasks at once; its compute intervals
    are disjoint and FIFO."""
    done = run_workload(tasks)
    by_worker: dict[int, list] = {}
    for w, m, _ in done:
        by_worker.setdefault(w, []).append(m)
    for ms in by_worker.values():
        ms.sort(key=lambda m: m.started_ms)
        for a, b in zip(ms, ms[1:]):
            assert b.started_ms >= a.finished_ms - 1e-9


@settings(max_examples=50, deadline=None)
@given(tasks=workloads)
def test_conservation_of_work(tasks):
    """Total virtual compute equals the cost model applied to each task."""
    done = run_workload(tasks)
    for (_, m, _), (_, units) in zip(
        sorted(done, key=lambda d: d[1].task_id), tasks
    ):
        assert abs(m.compute_ms - (1.0 + 0.1 * units)) < 1e-9


@settings(max_examples=30, deadline=None)
@given(tasks=workloads, intensity=st.floats(0.1, 4.0))
def test_straggler_scales_exactly(tasks, intensity):
    base = run_workload(tasks)
    slowed = run_workload(
        tasks, ControlledDelay(intensity, workers=(0,))
    )
    for (w_a, m_a, _), (w_b, m_b, _) in zip(
        sorted(base, key=lambda d: d[1].task_id),
        sorted(slowed, key=lambda d: d[1].task_id),
    ):
        assert w_a == w_b
        if w_a == 0:
            assert abs(m_b.compute_ms - m_a.compute_ms * (1 + intensity)) \
                < 1e-6 * max(1.0, m_a.compute_ms)
        else:
            assert abs(m_b.compute_ms - m_a.compute_ms) < 1e-9


@settings(max_examples=30, deadline=None)
@given(tasks=workloads)
def test_timeline_reproducible(tasks):
    a = [(w, m.delivered_ms) for w, m, _ in run_workload(tasks)]
    b = [(w, m.delivered_ms) for w, m, _ in run_workload(tasks)]
    assert a == b
