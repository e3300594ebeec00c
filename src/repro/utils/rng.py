"""Deterministic random number management.

All randomness in the library flows through this module so that a single
integer seed makes an entire distributed experiment reproducible:
dataset generation, mini-batch sampling on every worker and straggler
delays all draw from independent, collision-free streams
keyed by small structured tuples (e.g. ``("mbatch", split)``), with no
shared mutable state, so a stream's draws never depend on the order in
which tasks run.

Streams come from one of two derivations:

* :func:`spawn_generator` (and :class:`RngFactory`, :class:`LazyRng` on
  top of it) mixes the seed and the key's hash through numpy's
  ``SeedSequence`` into a full ``Generator``. Datasets, stragglers and
  the reference optimizers draw this way. These streams are built once
  per run or per worker, or per task only under the PCS straggler model
  (its per-task draws), so their ``SeedSequence`` set-up stays off the
  default round path. The simulation backend draws nothing itself.
* :func:`batch_indices` draws the per-task mini-batch, the one stream
  built for every task of every round. It seeds a bare ``PCG64``
  directly with four words of a blake2b digest of ``(*key, seed)``
  (numpy's ``ISeedSequence`` interface), skipping ``SeedSequence``'s
  mixing, and keeps the ``b`` smallest of ``rows`` uniform 64-bit keys:
  a uniform batch without replacement for ≈ 7 µs instead of ≈ 27 µs
  (128 rows, a batch of 32, Python 3.11 on a 2-core x86_64 host).

Both are pure functions of ``(seed, key)``, so a recomputed task redraws
exactly what its lost attempt drew. :data:`TRAJECTORY_EPOCH` names the
generation of seeded trajectories these derivations (and the engine
around them) produce.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Iterable

import numpy as np

__all__ = [
    "TRAJECTORY_EPOCH", "LazyRng", "RngFactory", "batch_indices",
    "spawn_generator", "stable_hash", "stable_hash_append",
]

#: The generation of seeded trajectories. Bumped by every change that
#: moves what a given spec and seed compute. Epoch 2: the hash-seeded
#: mini-batch draw of :func:`batch_indices`. Epoch 3: a dense mini-batch
#: is streamed through the gradient a chunk of rows at a time
#: (:data:`repro.data.blocks.STREAM_CHUNK_BYTES`), so a batch longer than
#: one chunk adds its chunk partials in row order; a batch within one
#: chunk kept its bits. Epoch 4: a fault plan's kill or revive fires at
#: its exact virtual time, not at the next round boundary; runs without
#: a plan kept their bits. Epoch 5: a worker revived before the loss
#: notices of its killed tasks arrive rejoins scheduling once they do,
#: instead of staying retired; only runs whose revive lands inside that
#: window moved. Epoch 6: a restored SAGA or ASAGA run reruns SAGA's
#: setup pass at the restored iterate instead of resuming its running
#: average against a table reset to ``w_0``; only restored SAGA/ASAGA
#: continuations moved. Epoch 7: a run snapshot carries no HIST, so a
#: restored SVRG or ASVRG run begins a fresh epoch at the restored
#: iterate and a restored async L-BFGS run starts without curvature
#: pairs; only restored svrg/asvrg/async_lbfgs continuations moved.
#: Epoch 8: SAGA's table of stored versions is one server-side array, not
#: a per-worker copy a kill clears, so a SAGA or ASAGA worker's death
#: keeps its rows' versions instead of resetting them to version 0; only
#: saga/asaga runs that lose a worker moved.
#: Sweep checkpoint keys and run snapshots carry it, so results of
#: another epoch are re-run rather than resumed.
TRAJECTORY_EPOCH = 8


def stable_hash(parts: Iterable[object]) -> int:
    """Hash a tuple of printable parts into a stable 63-bit integer.

    ``hash()`` is salted per-process for strings, so we hash the repr with
    blake2b instead. Used to key RNG streams by structured names.
    """
    return int.from_bytes(_hash_state(parts).digest(), "little") & (2**63 - 1)


def _hash_state(
    parts: Iterable[object], digest_size: int = 8
) -> "hashlib.blake2b":
    """The blake2b state after absorbing each part's ``repr`` + NUL."""
    h = hashlib.blake2b(digest_size=digest_size)
    for part in parts:
        h.update(repr(part).encode("utf8"))
        h.update(b"\x00")
    return h


@functools.lru_cache(maxsize=1024, typed=True)
def _prefix_state(digest_size: int, *prefix: object) -> "hashlib.blake2b":
    """The blake2b state :func:`_hash_state` reaches after ``prefix``
    (shared: copy it before updating)."""
    return _hash_state(prefix, digest_size)


def stable_hash_append(prefix: tuple, part: object) -> int:
    """``stable_hash((*prefix, part))`` with the prefix hashed only once.

    For keys whose leading parts are constant over a run (a round seed's
    ``(seed, name)``): the prefix's hash state is memoised (``typed``,
    because ``1`` and ``np.int64(1)`` are equal but ``repr`` apart) and
    each call copies it and absorbs ``part`` alone.
    """
    try:
        h = _prefix_state(8, *prefix).copy()
    except TypeError:  # an unhashable prefix part cannot be memoised
        return stable_hash((*prefix, part))
    h.update(repr(part).encode("utf8") + b"\x00")
    return int.from_bytes(h.digest(), "little") & (2**63 - 1)


def spawn_generator(seed: int, *key: object) -> np.random.Generator:
    """Return an independent Generator for ``(seed, *key)``.

    The same ``(seed, key)`` always yields the same stream; distinct keys
    yield streams that are independent for all practical purposes.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stable_hash(key),))
    return np.random.Generator(np.random.PCG64(ss))


@functools.cache
def _digest_seed_type() -> type:
    """An ``ISeedSequence`` handing a bit generator a digest's bytes as
    its seed words, unmixed. It is the digest itself (a ``bytes``
    subclass), so building one runs no Python ``__init__``. Built on the
    first draw: numpy loads ``numpy.random`` lazily, and ``import
    repro`` leaves it unloaded."""

    class DigestSeed(bytes, np.random.bit_generator.ISeedSequence):
        __slots__ = ()

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return np.frombuffer(self, dtype)[:n_words]

    return DigestSeed


def batch_indices(
    rows: int, fraction: float, seed: int, *key: object
) -> np.ndarray:
    """The sorted mini-batch that ``(seed, *key)`` selects from ``rows``.

    ``max(1, round(fraction * rows))`` distinct indices in
    ``range(rows)``, uniform over subsets of that size: the ``b``
    smallest of ``rows`` uniform 64-bit keys from a ``PCG64`` seeded
    with a blake2b digest of ``(*key, int(seed))``. The key's part of
    the digest is memoised (hot keys like ``("mbatch", split)`` are
    static over a run), so each call hashes only the seed. ``int(seed)``
    makes ``1`` and ``np.int64(1)`` the same batch; key parts must be
    hashable.
    """
    size = int(round(fraction * rows)) or 1  # max(1, ...): round >= 0 here
    if size >= rows:
        return np.arange(rows, dtype=np.intp)
    h = _prefix_state(32, *key).copy()
    h.update(b"%d" % seed)  # the digits of int(seed), whatever its int type
    seed_words = _digest_seed_type()(h.digest())
    keys = np.random.PCG64(seed_words).random_raw(rows)
    idx = keys.argpartition(size - 1)[:size]
    idx.sort()
    return idx


class LazyRng:
    """Deferred :func:`spawn_generator`: the stream is only materialized on
    first use.

    Seeding a ``Generator`` costs tens of microseconds — far more than the
    draw itself — so a stream that may go unused can be deferred. A
    ``LazyRng`` stands in for the Generator at zero construction cost; any
    attribute access (``rng.normal``, ``rng.choice``, ...) builds the real
    stream, which is bit-identical to calling :func:`spawn_generator`
    eagerly. No engine code defers a stream today; asyncbench's tracer
    times :meth:`materialize` by name.
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(seed={self.seed})"
