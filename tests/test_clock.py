"""Clock semantics: monotone virtual time."""

import pytest

from repro.cluster.clock import VirtualClock
from repro.errors import ClockError


def test_virtual_starts_at_zero():
    assert VirtualClock().now() == 0.0


def test_virtual_advances_forward():
    c = VirtualClock()
    c.advance_to(5.0)
    assert c.now() == 5.0
    c.advance_to(5.0)  # idempotent
    assert c.now() == 5.0


def test_virtual_rejects_backwards():
    c = VirtualClock()
    c.advance_to(10.0)
    with pytest.raises(ClockError):
        c.advance_to(9.0)


def test_virtual_tolerates_fp_jitter():
    c = VirtualClock()
    c.advance_to(1.0)
    c.advance_to(1.0 - 1e-12)  # within tolerance
    assert c.now() == 1.0

