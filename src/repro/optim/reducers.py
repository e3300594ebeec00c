"""Shared tuple reducers for worker-local combines.

Every gradient-style optimizer ships tuples like ``(grad_sum, count)`` or
``(grad_new, grad_old, count)`` back to the server and combines them
element-wise. These helpers replace the per-module ``_add_pairs`` /
``_add_triples`` copies; they are ordinary module-level functions so task
closures stay small and picklable.
"""

from __future__ import annotations

__all__ = ["add_pairs", "add_triples", "add_vr_pairs"]


def add_pairs(a: tuple, b: tuple) -> tuple:
    """Element-wise sum of two 2-tuples, e.g. ``(grad_sum, count)``."""
    return (a[0] + b[0], a[1] + b[1])


def add_triples(a: tuple, b: tuple) -> tuple:
    """Element-wise sum of two 3-tuples, e.g. ``(g_new, g_old, count)``."""
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def add_vr_pairs(a: tuple, b: tuple) -> tuple:
    """Sum variance-reduction partials ``((grad_w, grad_tilde), count)``."""
    return (add_pairs(a[0], b[0]), a[1] + b[1])
