"""Shared low-level utilities: RNG management, size accounting, tables, plots."""

from repro.utils.ascii_plot import ascii_lineplot
from repro.utils.rng import RngFactory, spawn_generator
from repro.utils.sizeof import sizeof_bytes
from repro.utils.tables import format_table

__all__ = [
    "RngFactory",
    "spawn_generator",
    "sizeof_bytes",
    "format_table",
    "ascii_lineplot",
]
