"""Network cost model for the simulated cluster.

Transfers are charged ``latency + bytes / bandwidth``, deterministically.
The same model prices driver->worker task payloads (including broadcast
values), worker->driver result submissions, and on-demand
historical-parameter fetches by the ASYNCbroadcaster.

Defaults approximate a 10 GbE cluster interconnect: 0.25 ms latency,
~1.25 GB/s, which is the regime the paper's XSEDE Comet cluster runs in.
Stragglers in the paper slow *computation* only ("the delay intensity only
affects the computation time of a worker and does not change the
communication cost"), so delay factors never touch this model.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NetworkModel"]


@dataclass
class NetworkModel:
    """Latency/bandwidth transfer-time model.

    Parameters
    ----------
    latency_ms:
        One-way message latency.
    bandwidth_bytes_per_ms:
        Sustained throughput. 1.25e6 bytes/ms == 10 Gbit/s.
    """

    latency_ms: float = 0.25
    bandwidth_bytes_per_ms: float = 1.25e6

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise ValueError("latency_ms must be >= 0")
        if self.bandwidth_bytes_per_ms <= 0:
            raise ValueError("bandwidth_bytes_per_ms must be > 0")

    def transfer_ms(self, nbytes: int) -> float:
        """Time to move ``nbytes`` across the interconnect."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return self.latency_ms + nbytes / self.bandwidth_bytes_per_ms
