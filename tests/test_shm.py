"""Zero-copy shared-memory datasets: round trips, refcounts, crash cleanup.

The lifecycle contract under test: the sweep driver publishes each
dataset group once, attachers map (never copy) the segments read-only,
and only the publisher unlinks — which must succeed even after an
attacher is SIGKILLed mid-map, and must leave nothing named behind.
Attachers are multiprocessing children of the publisher (pool workers,
the fabric's local workers): no other process is handed a manifest.
"""

import json
import multiprocessing
import os
import signal
import time
from multiprocessing import shared_memory

import numpy as np
import pytest
from scipy import sparse

from repro.api.parallel import _load_dataset, run_cells
from repro.api.spec import ExperimentSpec
from repro.data import shm
from repro.data.registry import get_dataset
from repro.errors import DataError


@pytest.fixture(autouse=True)
def _clean_attachments():
    yield
    shm.detach_all()
    shm.set_active_manifests(None)


def _publish(dataset, seed=0):
    pub = shm.publish_dataset(dataset, seed)
    if pub is None:
        pytest.skip("shared memory unavailable on this host")
    return pub


def test_dense_round_trip_is_bit_identical_and_read_only():
    pub = _publish("tiny_dense")
    try:
        X, y, dspec = shm.attach_dataset(pub.manifest)
        X0, y0, dspec0 = get_dataset("tiny_dense", seed=0)
        assert np.array_equal(X, X0)
        assert np.array_equal(y, y0)
        assert dspec == dspec0
        assert not X.flags.writeable
        assert not y.flags.writeable
    finally:
        pub.unlink()


def test_csr_round_trip_maps_buffers_without_copying():
    pub = _publish("tiny_sparse")
    try:
        X, y, dspec = shm.attach_dataset(pub.manifest)
        X0, y0, dspec0 = get_dataset("tiny_sparse", seed=0)
        assert sparse.issparse(X)
        assert (X != X0).nnz == 0
        assert np.array_equal(y, y0)
        assert dspec == dspec0
        # the CSR is assembled over the mapped (read-only) buffers
        assert not X.data.flags.writeable
        assert not X.indices.flags.writeable
        assert not X.indptr.flags.writeable
    finally:
        pub.unlink()


def test_attach_is_refcounted_per_key():
    pub = _publish("tiny_dense")
    try:
        a = shm.attach_dataset(pub.manifest)
        b = shm.attach_dataset(pub.manifest)
        assert a[0] is b[0]  # cache hit: same mapped array, refcount 2
        shm.release_dataset(pub.manifest["key"])
        c = shm.attach_dataset(pub.manifest)  # still mapped (refcount 1)
        assert c[0] is a[0]
        shm.release_dataset(pub.manifest["key"])
        shm.release_dataset(pub.manifest["key"])
    finally:
        pub.unlink()


def test_attach_after_unlink_raises_data_error():
    pub = _publish("tiny_dense")
    pub.unlink()
    with pytest.raises(DataError):
        shm.attach_dataset(pub.manifest)


def test_unlink_is_idempotent():
    pub = _publish("tiny_dense")
    pub.unlink()
    pub.unlink()


def test_load_dataset_falls_back_when_segments_are_gone():
    pub = _publish("tiny_dense")
    pub.unlink()
    shm.set_active_manifests([pub.manifest])
    spec = ExperimentSpec.coerce(
        {"algorithm": "asgd", "dataset": "tiny_dense", "max_updates": 4,
         "seed": 0}
    )
    X, y, dspec = _load_dataset(spec)
    X0, y0, dspec0 = get_dataset("tiny_dense", seed=0)
    assert np.array_equal(X, X0)
    assert np.array_equal(y, y0)
    assert dspec == dspec0


def test_run_cells_share_data_parity(monkeypatch):
    """Cells on forked workers, attached to the one copy the sweep
    driver published, summarize bit-identically to cells run in-process
    on a dataset materialized there."""
    specs = [
        {"algorithm": "asgd", "dataset": "tiny_dense", "num_workers": w,
         "num_partitions": 8, "max_updates": 10, "eval_every": 5, "seed": 0}
        for w in (2, 3, 4, 5)
    ]
    published = []
    real_publish = shm.publish_dataset

    def spying_publish(dataset, seed):
        published.append((dataset, seed))
        return real_publish(dataset, seed)

    monkeypatch.setattr(shm, "publish_dataset", spying_publish)
    shared = run_cells(specs, jobs=2)
    assert published == [("tiny_dense", 0)]  # once per group, not per cell
    private = run_cells(specs, jobs=1)
    assert published == [("tiny_dense", 0)]  # in-process publishes nothing
    assert json.dumps(shared, sort_keys=True) == json.dumps(
        private, sort_keys=True
    )


def _attach_and_report(manifest, conn, linger):
    """Child body: attach, say whether the resource tracker was already
    the publisher's, then exit cleanly (or wait to be SIGKILLed)."""
    from multiprocessing import resource_tracker

    inherited = resource_tracker._resource_tracker._fd is not None
    X, _, _ = shm.attach_dataset(manifest)
    conn.send((inherited, float(X.sum())))
    if linger:
        time.sleep(60)
    shm.detach_all()


def _attacher(method, manifest, *, linger=False):
    ctx = multiprocessing.get_context(method)
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_attach_and_report, args=(manifest, send, linger)
    )
    proc.start()
    send.close()
    return proc, recv


def test_attacher_normal_exit_leaves_no_tracker_noise():
    """Every reader the library hands a manifest to is a multiprocessing
    child of the publisher. Under each start method such a child shares
    the publisher's resource tracker, so its attach registers nothing
    new and its clean exit must not unlink the publisher's segments."""
    pub = _publish("tiny_dense")
    try:
        X0, _, _ = get_dataset("tiny_dense", seed=0)
        for method in multiprocessing.get_all_start_methods():
            proc, recv = _attacher(method, pub.manifest)
            assert recv.poll(60), method
            inherited, total = recv.recv()
            proc.join(60)
            assert proc.exitcode == 0, method
            assert inherited, f"{method} child started its own tracker"
            assert total == float(X0.sum())
        # segments still alive for the publisher and later attachers
        X, _, _ = shm.attach_dataset(pub.manifest)
        assert X.size
    finally:
        pub.unlink()


def test_sigkilled_attacher_cleanup():
    """SIGKILL an attacher mid-map: the publisher's unlink must still
    succeed, and the segment names must be gone from the host."""
    pub = _publish("tiny_dense")
    proc, recv = _attacher(None, pub.manifest, linger=True)
    try:
        assert recv.poll(60)
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(60)
        assert proc.exitcode == -signal.SIGKILL
    finally:
        if proc.is_alive():
            proc.kill()
            proc.join(60)
    pub.unlink()
    for part in pub.manifest["arrays"].values():
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=part["segment"])
