"""Per-run communication ledger: raw vs. wire bytes by direction.

One :class:`CommLedger` rides each run and lands in
``RunResult.extras["comm"]`` — broadcast (server -> worker model
traffic) and collect (worker -> server update payloads) are accounted
separately, each as raw bytes (what the
payload measures uncompressed), wire bytes (what actually crossed the
modeled link), and an event count. Thread-safe: Thread-backend workers
and fabric connections record concurrently.
"""

from __future__ import annotations

import threading

__all__ = ["CommLedger", "DIRECTIONS"]

DIRECTIONS = ("broadcast", "collect")


class CommLedger:
    """Raw/wire byte counters split by transfer direction."""

    def __init__(self, compressor: str = "none") -> None:
        self.compressor = compressor
        self._lock = threading.Lock()
        self._rows = {
            direction: {"raw_bytes": 0, "wire_bytes": 0, "count": 0}
            for direction in DIRECTIONS
        }
        #: Payloads re-sent after a duplicate/stolen-lease retry (fabric).
        self.retransmits = 0
        self.retransmit_wire_bytes = 0

    def record(self, direction: str, raw_bytes: int, wire_bytes: int) -> None:
        if direction not in self._rows:
            raise ValueError(f"unknown comm direction {direction!r}")
        with self._lock:
            row = self._rows[direction]
            row["raw_bytes"] += int(raw_bytes)
            row["wire_bytes"] += int(wire_bytes)
            row["count"] += 1

    def record_retransmit(self, wire_bytes: int) -> None:
        with self._lock:
            self.retransmits += 1
            self.retransmit_wire_bytes += int(wire_bytes)

    # -- views -----------------------------------------------------------------
    def totals(self) -> tuple[int, int]:
        with self._lock:
            raw = sum(r["raw_bytes"] for r in self._rows.values())
            wire = sum(r["wire_bytes"] for r in self._rows.values())
        return raw, wire

    @staticmethod
    def _ratio(raw: int, wire: int) -> float:
        return round(raw / wire, 4) if wire else 1.0

    def as_dict(self) -> dict:
        """Nested ledger for ``extras["comm"]``."""
        with self._lock:
            rows = {d: dict(r) for d, r in self._rows.items()}
            retransmits = self.retransmits
            retransmit_wire = self.retransmit_wire_bytes
        raw = sum(r["raw_bytes"] for r in rows.values())
        wire = sum(r["wire_bytes"] for r in rows.values())
        for row in rows.values():
            row["ratio"] = self._ratio(row["raw_bytes"], row["wire_bytes"])
        return {
            "compressor": self.compressor,
            "raw_bytes": raw,
            "wire_bytes": wire,
            "ratio": self._ratio(raw, wire),
            "retransmits": retransmits,
            "retransmit_wire_bytes": retransmit_wire,
            **rows,
        }

    def scalars(self) -> dict:
        """Flat scalar mirror that survives summary/checkpoint filters."""
        data = self.as_dict()
        out = {
            "comm_compressor": data["compressor"],
            "comm_raw_bytes": data["raw_bytes"],
            "comm_wire_bytes": data["wire_bytes"],
            "comm_ratio": data["ratio"],
            "comm_retransmits": data["retransmits"],
        }
        for direction in DIRECTIONS:
            row = data[direction]
            out[f"comm_{direction}_raw_bytes"] = row["raw_bytes"]
            out[f"comm_{direction}_wire_bytes"] = row["wire_bytes"]
        return out
