"""Broadcast variables: caching, byte accounting, immutability."""

import numpy as np
import pytest


def test_driver_read_free(ctx):
    bc = ctx.broadcast(np.arange(10.0))
    assert np.array_equal(bc.value(), np.arange(10.0))


def test_worker_first_read_records_fetch(ctx):
    bc = ctx.broadcast(np.zeros(1000))
    env = ctx.backend.worker_env(0)
    bc.value(env)
    assert env.pending_fetch_bytes >= 8000
    # Second read: cache hit, no fetch.
    fetched = env.pending_fetch_bytes
    bc.value(env)
    assert env.pending_fetch_bytes == fetched


def test_each_worker_fetches_once(ctx):
    bc = ctx.broadcast(np.zeros(100))
    for w in range(ctx.num_workers):
        env = ctx.backend.worker_env(w)
        bc.value(env)
        assert env.pending_fetch_bytes > 0


def test_broadcast_value_readonly_ndarray(ctx):
    bc = ctx.broadcast(np.zeros(4))
    v = bc.value(ctx.backend.worker_env(0))
    with pytest.raises(ValueError):
        v[0] = 1.0


def test_caller_array_unaffected_by_freeze(ctx):
    arr = np.zeros(4)
    ctx.broadcast(arr)
    arr[0] = 5.0  # the caller's own array stays writable
    assert arr[0] == 5.0


def test_broadcast_in_task_charges_network_time(ctx):
    """A task reading a large broadcast takes longer than one that doesn't."""
    big = ctx.broadcast(np.zeros(500_000))  # 4 MB -> ~3.2ms at 10GbE

    rdd = ctx.parallelize([1], 1)
    from repro.engine.taskcontext import current_env

    t0 = ctx.now()
    ctx.run_job(rdd, lambda i, d: None)
    t_plain = ctx.now() - t0

    t0 = ctx.now()
    ctx.run_job(rdd, lambda i, d: big.value(current_env()).shape)
    t_bc = ctx.now() - t0
    assert t_bc > t_plain + 2.0


def test_non_array_values_pass_through(ctx):
    bc = ctx.broadcast({"a": 1})
    assert bc.value(ctx.backend.worker_env(0)) == {"a": 1}
