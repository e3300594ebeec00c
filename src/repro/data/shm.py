"""Zero-copy shared-memory datasets for same-host sweep workers.

A sweep over one dataset group used to materialize that dataset once per
*process*: every same-host sweep worker re-ran
the generator or re-read the file, so a 32-job sweep held 32 copies of
the data in RAM. This module publishes the materialized arrays into
POSIX shared memory once per host and hands workers a JSON *manifest*
instead, so they map the published segments read-only — one physical
copy of each dataset group per host, shared by every attached process.

Publication (the sweep driver, once per distinct dataset group)::

    pub = publish_dataset(spec.dataset, spec.seed)   # None if shm is
    ...ship pub.manifest to workers...               # unavailable
    pub.unlink()                                     # after the sweep

Attachment (inside a worker, via :func:`repro.api.parallel.prepare_shared`)::

    manifest = active_manifest_for(dataset_shm_key(spec.dataset, seed))
    X, y, dspec = attach_dataset(manifest)           # zero-copy views

Manifests reach the fabric's forked local workers as an argument, once
at start-up (:func:`set_active_manifests`). Dense datasets
publish ``X``/``y``; CSR datasets publish the ``data``/``indices``/
``indptr`` triplet plus ``y``, and attachment rebuilds the matrix around
the mapped buffers without copying. Attached arrays are marked read-only
— the dataset is immutable shared state.

Lifecycle: the publisher *closes* its own mapping as soon as the copy-in
finishes (POSIX segments persist until unlinked, so its RSS holds at
most one transient dataset during publication) and *unlinks* by name
when the sweep ends. Attachments are cached per process and refcounted;
a worker that dies (even SIGKILLed) just drops its mapping — cleanup
needs nothing from it, and Python's resource tracker unlinks the
segments if the publisher itself dies before its own cleanup runs.
Every reader is a ``multiprocessing`` child of the publisher and so
shares the publisher's resource tracker, under every start method: an
attach re-registers a name the tracker already holds and a reader's
exit unlinks nothing.
Unlinking while workers still hold mappings is safe: their pages stay
valid until they exit. A segment name is never reused — names embed the
publisher pid and a counter — so a stale cached attachment can only
alias a segment with identical content (dataset keys are canonical and
datasets deterministic).
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import asdict
from multiprocessing import shared_memory
from typing import Any, Mapping

import numpy as np
from scipy import sparse

from repro.errors import DataError

__all__ = [
    "dataset_shm_key",
    "publish_dataset",
    "DatasetPublication",
    "attach_dataset",
    "release_dataset",
    "detach_all",
    "set_active_manifests",
    "active_manifest_for",
]

_segment_counter = itertools.count()


def dataset_shm_key(dataset_spec: Any, seed: int) -> str:
    """Canonical host-wide identity of one materialized dataset group.

    The same ``(component_key(dataset), seed)`` pair that keys
    :func:`repro.api.parallel.prepare_shared`'s cache, flattened to a
    string so it survives JSON manifests and environment variables.
    """
    from repro.api.runner import component_key

    return json.dumps(
        [component_key(dataset_spec), int(seed)], separators=(",", ":")
    )


class DatasetPublication:
    """Owner handle for one published dataset: its manifest + cleanup."""

    def __init__(
        self,
        manifest: dict,
        segments: list[shared_memory.SharedMemory],
    ) -> None:
        self.manifest = manifest
        self._segments = segments
        self._unlinked = False

    @property
    def key(self) -> str:
        return self.manifest["key"]

    def unlink(self) -> None:
        """Remove the segments by name (idempotent).

        Already-attached workers keep their mappings; new attachments
        fail, which :func:`repro.api.parallel.prepare_shared` treats as
        "materialize locally instead".
        """
        if self._unlinked:
            return
        self._unlinked = True
        for seg in self._segments:
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def _publish_array(tag: str, arr: np.ndarray) -> tuple[
    shared_memory.SharedMemory, dict
]:
    name = f"repro_{os.getpid()}_{next(_segment_counter)}"
    seg = shared_memory.SharedMemory(
        name=name, create=True, size=max(int(arr.nbytes), 1)
    )
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
    view[...] = arr
    del view
    # The publisher's own mapping is no longer needed: the segment
    # persists until unlink, so close now and keep only the name.
    seg.close()
    return seg, {
        "segment": name,
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
    }


def publish_arrays(key: str, X, y, dspec) -> DatasetPublication | None:
    """Publish already-materialized ``(X, y, dspec)`` under ``key``.

    Returns ``None`` when shared memory is unavailable on this host
    (callers then simply skip sharing — every worker materializes its
    own copy, exactly the pre-shm behavior).
    """
    if sparse.issparse(X):
        X = X.tocsr()
        kind = "csr"
        parts = {
            "data": np.asarray(X.data),
            "indices": np.asarray(X.indices),
            "indptr": np.asarray(X.indptr),
            "y": np.asarray(y),
        }
    else:
        kind = "dense"
        parts = {"X": np.ascontiguousarray(X), "y": np.asarray(y)}
    segments: list[shared_memory.SharedMemory] = []
    arrays: dict[str, dict] = {}
    try:
        for tag, arr in parts.items():
            seg, desc = _publish_array(tag, arr)
            segments.append(seg)
            arrays[tag] = desc
    except (OSError, ValueError):
        for seg in segments:
            try:
                seg.unlink()
            except OSError:  # pragma: no cover - best-effort rollback
                pass
        return None
    manifest = {
        "key": key,
        "kind": kind,
        "shape": [int(X.shape[0]), int(X.shape[1])],
        "dspec": asdict(dspec),
        "arrays": arrays,
    }
    return DatasetPublication(manifest, segments)


def publish_dataset(
    dataset_spec: Any, seed: int
) -> DatasetPublication | None:
    """Materialize a dataset group once and publish it for this host."""
    from repro.data.registry import get_dataset

    X, y, dspec = get_dataset(dataset_spec, seed=seed)
    return publish_arrays(dataset_shm_key(dataset_spec, seed), X, y, dspec)


# -- attachment (worker side) --------------------------------------------------

#: key -> [refcount, segments, (X, y, dspec)]
_ATTACHED: dict[str, list] = {}
#: Manifests installed for this process's cells (a forked fabric worker
#: gets them once, at start-up).
_ACTIVE: dict[str, dict] = {}


def set_active_manifests(manifests: list[Mapping[str, Any]] | None) -> None:
    """Install the manifests visible to subsequent ``prepare_shared`` calls."""
    _ACTIVE.clear()
    for manifest in manifests or []:
        _ACTIVE[manifest["key"]] = dict(manifest)


def active_manifest_for(key: str) -> dict | None:
    """The manifest published for ``key``, if any is visible here."""
    return _ACTIVE.get(key)


def attach_dataset(manifest: Mapping[str, Any]):
    """Map a published dataset; returns ``(X, y, dspec)`` zero-copy views.

    Attachments are cached per process (attaching a key twice bumps a
    refcount and returns the same arrays). Raises :class:`DataError`
    when the segments are gone — callers fall back to materializing.
    """
    from repro.data.registry import DatasetSpec

    key = manifest["key"]
    entry = _ATTACHED.get(key)
    if entry is not None:
        entry[0] += 1
        return entry[2]
    segments: list[shared_memory.SharedMemory] = []
    views: dict[str, np.ndarray] = {}
    try:
        for tag, desc in manifest["arrays"].items():
            seg = shared_memory.SharedMemory(name=desc["segment"])
            segments.append(seg)
            arr = np.ndarray(
                tuple(desc["shape"]),
                dtype=np.dtype(desc["dtype"]),
                buffer=seg.buf,
            )
            arr.flags.writeable = False
            views[tag] = arr
    except (OSError, ValueError) as exc:
        for seg in segments:
            try:
                seg.close()
            except (OSError, BufferError):  # pragma: no cover - rollback
                pass
        raise DataError(
            f"cannot attach shared-memory dataset {key!r}: {exc}"
        ) from exc
    shape = tuple(manifest["shape"])
    if manifest["kind"] == "csr":
        X: Any = sparse.csr_matrix(
            (views["data"], views["indices"], views["indptr"]),
            shape=shape,
            copy=False,
        )
    else:
        X = views["X"]
    dspec = DatasetSpec(**manifest["dspec"])
    value = (X, views["y"], dspec)
    _ATTACHED[key] = [1, segments, value]
    return value


def release_dataset(key: str) -> None:
    """Drop one reference; the mapping closes when the count hits zero."""
    entry = _ATTACHED.get(key)
    if entry is None:
        return
    entry[0] -= 1
    if entry[0] > 0:
        return
    del _ATTACHED[key]
    # Break the array -> buffer references before closing the mappings;
    # a still-exported buffer (caller kept the arrays) makes close()
    # raise BufferError, in which case the mapping simply lives until
    # process exit — shared pages, not a leak.
    entry[2] = None
    for seg in entry[1]:
        try:
            seg.close()
        except BufferError:  # pragma: no cover - caller kept views
            pass


def detach_all() -> None:
    """Release every attachment this process holds (test/shutdown hook)."""
    for key in list(_ATTACHED):
        _ATTACHED[key][0] = 1
        release_dataset(key)
