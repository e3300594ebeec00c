"""Per-run communication ledger: raw vs. wire bytes by direction.

One :class:`CommLedger` rides each run and lands in
``RunResult.extras["comm"]`` — broadcast (server -> worker model
traffic) and collect (worker -> server update payloads) are accounted
separately, each as raw bytes (what the
payload measures uncompressed), wire bytes (what actually crossed the
modeled link), and an event count. A run's own thread is the only one
that records into its ledger. Fabric retransmits are not a run's
traffic: the sweep coordinator counts them (``comm_stats``).
"""

from __future__ import annotations

__all__ = ["CommLedger", "DIRECTIONS"]

DIRECTIONS = ("broadcast", "collect")


class CommLedger:
    """Raw/wire byte counters split by transfer direction."""

    def __init__(self, compressor: str = "none") -> None:
        self.compressor = compressor
        self._rows = {
            direction: {"raw_bytes": 0, "wire_bytes": 0, "count": 0}
            for direction in DIRECTIONS
        }

    def record(self, direction: str, raw_bytes: int, wire_bytes: int) -> None:
        if direction not in self._rows:
            raise ValueError(f"unknown comm direction {direction!r}")
        row = self._rows[direction]
        row["raw_bytes"] += int(raw_bytes)
        row["wire_bytes"] += int(wire_bytes)
        row["count"] += 1

    # -- views -----------------------------------------------------------------
    def totals(self) -> tuple[int, int]:
        raw = sum(r["raw_bytes"] for r in self._rows.values())
        wire = sum(r["wire_bytes"] for r in self._rows.values())
        return raw, wire

    @staticmethod
    def _ratio(raw: int, wire: int) -> float:
        return round(raw / wire, 4) if wire else 1.0

    def as_dict(self) -> dict:
        """Nested ledger for ``extras["comm"]``."""
        rows = {d: dict(r) for d, r in self._rows.items()}
        raw, wire = self.totals()
        for row in rows.values():
            row["ratio"] = self._ratio(row["raw_bytes"], row["wire_bytes"])
        return {
            "compressor": self.compressor,
            "raw_bytes": raw,
            "wire_bytes": wire,
            "ratio": self._ratio(raw, wire),
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
        }
        for direction in DIRECTIONS:
            row = data[direction]
            out[f"comm_{direction}_raw_bytes"] = row["raw_bytes"]
            out[f"comm_{direction}_wire_bytes"] = row["wire_bytes"]
        return out
