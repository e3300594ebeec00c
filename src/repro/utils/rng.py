"""Deterministic random number management.

All randomness in the library flows through :class:`RngFactory` so that a
single integer seed makes an entire distributed experiment reproducible:
dataset generation, mini-batch sampling on every worker, straggler delays
and network jitter all draw from independent, collision-free streams.

Streams are derived with ``numpy``'s ``SeedSequence.spawn_key`` mechanism
keyed by small structured tuples (e.g. ``("worker", worker_id, task_seq)``),
which guarantees independence without any shared mutable state — important
because the thread backend samples from several streams concurrently.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Iterable

import numpy as np

__all__ = [
    "LazyRng", "RngFactory", "spawn_generator", "stable_hash",
    "stable_hash_append",
]


def stable_hash(parts: Iterable[object]) -> int:
    """Hash a tuple of printable parts into a stable 63-bit integer.

    ``hash()`` is salted per-process for strings, so we hash the repr with
    blake2b instead. Used to key RNG streams by structured names.
    """
    return int.from_bytes(_hash_state(parts).digest(), "little") & (2**63 - 1)


def _hash_state(parts: Iterable[object]) -> "hashlib.blake2b":
    """The blake2b state after absorbing each part's ``repr`` + NUL."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode("utf8"))
        h.update(b"\x00")
    return h


@functools.lru_cache(maxsize=256, typed=True)
def _prefix_state(*prefix: object) -> "hashlib.blake2b":
    """The blake2b state :func:`stable_hash` reaches after ``prefix``
    (shared: copy it before updating)."""
    return _hash_state(prefix)


def stable_hash_append(prefix: tuple, part: object) -> int:
    """``stable_hash((*prefix, part))`` with the prefix hashed only once.

    For keys whose leading parts are constant over a run (a round seed's
    ``(seed, name)``): the prefix's hash state is memoised (``typed``,
    because ``1`` and ``np.int64(1)`` are equal but ``repr`` apart) and
    each call copies it and absorbs ``part`` alone.
    """
    try:
        h = _prefix_state(*prefix).copy()
    except TypeError:  # an unhashable prefix part cannot be memoised
        return stable_hash((*prefix, part))
    h.update(repr(part).encode("utf8") + b"\x00")
    return int.from_bytes(h.digest(), "little") & (2**63 - 1)


@functools.lru_cache(maxsize=1024, typed=True)
def _key_hash(*key: object) -> int:
    """Memoised :func:`stable_hash` of a stream key.

    Hot keys are static — ``("mbatch", split)`` is hashed once per
    partition per task while only the seed changes — so the blake2b +
    ``repr`` pass is paid once per key. ``typed`` keeps ``1``, ``1.0``
    and ``True`` (equal, but with different reprs) on separate entries.
    """
    return stable_hash(key)


def spawn_generator(seed: int, *key: object) -> np.random.Generator:
    """Return an independent Generator for ``(seed, *key)``.

    The same ``(seed, key)`` always yields the same stream; distinct keys
    yield streams that are independent for all practical purposes.
    """
    try:
        hashed = _key_hash(*key)
    except TypeError:  # an unhashable key part cannot be memoised
        hashed = stable_hash(key)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(hashed,))
    return np.random.Generator(np.random.PCG64(ss))


class LazyRng:
    """Deferred :func:`spawn_generator`: the stream is only materialized on
    first use.

    Seeding a ``Generator`` costs tens of microseconds — far more than the
    draw itself — and most backend streams (network jitter, cost noise) go
    entirely unused under the deterministic default models. A ``LazyRng``
    stands in for the Generator at zero construction cost; any attribute
    access (``rng.normal``, ``rng.choice``, ...) builds the real stream,
    which is bit-identical to calling :func:`spawn_generator` eagerly.
    """

    __slots__ = ("_seed", "_key", "_rng")

    def __init__(self, seed: int, key: tuple) -> None:
        self._seed = seed
        self._key = key
        self._rng = None

    def materialize(self) -> np.random.Generator:
        rng = self._rng
        if rng is None:
            rng = self._rng = spawn_generator(self._seed, *self._key)
        return rng

    def __getattr__(self, name: str):
        return getattr(self.materialize(), name)


class RngFactory:
    """Factory of named, independent random streams under one root seed.

    Example
    -------
    >>> rngs = RngFactory(7)
    >>> a = rngs.get("worker", 0)
    >>> b = rngs.get("worker", 1)
    >>> a is not b
    True
    >>> float(a.random()) != float(b.random())
    True
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = int(seed)

    def get(self, *key: object) -> np.random.Generator:
        """Return a fresh Generator for the given structured key."""
        return spawn_generator(self.seed, *key)

    def lazy(self, *key: object) -> LazyRng:
        """Like :meth:`get`, but the stream is only seeded if it is drawn
        from — same values when used, free when not."""
        return LazyRng(self.seed, key)

    def child(self, *key: object) -> "RngFactory":
        """Derive a sub-factory whose streams are independent of this one."""
        return RngFactory(stable_hash((self.seed, *key)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(seed={self.seed})"
