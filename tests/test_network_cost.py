"""Network and task-cost models."""

import pytest

from repro.cluster.cost import AnalyticCostModel
from repro.cluster.network import NetworkModel


# -- network -----------------------------------------------------------------

def test_transfer_is_latency_plus_bandwidth():
    net = NetworkModel(latency_ms=1.0, bandwidth_bytes_per_ms=1000.0)
    assert net.transfer_ms(0) == 1.0
    assert net.transfer_ms(2000) == pytest.approx(3.0)


def test_transfer_monotone_in_bytes():
    net = NetworkModel()
    assert net.transfer_ms(10_000) > net.transfer_ms(10)


def test_transfer_rejects_negative():
    with pytest.raises(ValueError):
        NetworkModel().transfer_ms(-1)


def test_network_validates_params():
    with pytest.raises(ValueError):
        NetworkModel(latency_ms=-1)
    with pytest.raises(ValueError):
        NetworkModel(bandwidth_bytes_per_ms=0)


# -- cost models --------------------------------------------------------------

def test_analytic_affine():
    m = AnalyticCostModel(overhead_ms=2.0, ms_per_unit=0.5)
    assert m.compute_ms(0) == 2.0
    assert m.compute_ms(10) == pytest.approx(7.0)


def test_analytic_validates():
    with pytest.raises(ValueError):
        AnalyticCostModel(overhead_ms=-1)
    with pytest.raises(ValueError):
        AnalyticCostModel(ms_per_unit=-0.5)

