"""Virtual time: one float on ``SimBackend`` that only ``step`` advances."""

import pytest

from repro.cluster.simbackend import SimBackend
from repro.errors import ClockError


def step_at(backend, t):
    """Queue a no-op event at ``t`` and process it."""
    backend.queue.push(t, lambda: None)
    assert backend.step()


def test_virtual_starts_at_zero():
    assert SimBackend(1).now() == 0.0


def test_virtual_advances_forward():
    b = SimBackend(1)
    step_at(b, 5.0)
    assert b.now() == 5.0
    step_at(b, 5.0)  # an event at the current time leaves it there
    assert b.now() == 5.0


def test_virtual_rejects_backwards():
    b = SimBackend(1)
    step_at(b, 10.0)
    b.queue.push(9.0, lambda: None)
    with pytest.raises(ClockError, match="backwards"):
        b.step()
    assert b.now() == 10.0


def test_virtual_tolerates_fp_jitter():
    b = SimBackend(1)
    step_at(b, 1.0)
    step_at(b, 1.0 - 1e-12)  # within tolerance: time does not move back
    assert b.now() == 1.0
