"""ClusterContext plumbing: locality, lifecycle, configuration."""

from repro.cluster.simbackend import SimBackend
from repro.engine.context import ClusterContext


def test_owner_round_robin(ctx):
    assert [ctx.owner_of(p) for p in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_partitions_of_inverse_of_owner(ctx):
    """A partition-granular round ships each partition to the worker
    ``owner_of`` names, every partition exactly once."""
    from repro.core import ASYNCContext

    ac = ASYNCContext(ctx)
    ac.async_reduce(ctx.range(16, 16), lambda a, b: a + b, "partition")
    ac.wait_all()
    records = ac.drain()
    assert sorted(r.partition for r in records) == list(range(16))
    for r in records:
        assert ctx.owner_of(r.partition) == r.worker_id


def test_default_parallelism_follows_workers():
    with ClusterContext(num_workers=6) as ctx:
        assert ctx.parallelize(range(12)).num_partitions == 6


def test_explicit_default_parallelism():
    with ClusterContext(num_workers=2, default_parallelism=10) as ctx:
        assert ctx.range(20).num_partitions == 10


def test_stop_idempotent(ctx):
    ctx.stop()
    ctx.stop()


def test_now_tracks_backend_clock(ctx):
    t0 = ctx.now()
    ctx.parallelize(range(8), 4).sum()
    assert ctx.now() > t0


def test_rdds_registered_weakly(ctx):
    import gc

    rdd = ctx.range(4, 2)
    rid = rdd.rdd_id
    assert rid in ctx._rdds
    del rdd
    gc.collect()
    assert rid not in ctx._rdds


def test_backend_param_overrides_worker_count():
    backend = SimBackend(3)
    with ClusterContext(num_workers=99, backend=backend) as ctx:
        assert ctx.num_workers == 3


def test_refresh_workers_rejoins_revived(ctx):
    from repro.core import ASYNCContext

    ac = ASYNCContext(ctx)
    rdd = ctx.parallelize(range(8), 4)
    rdd.async_reduce(lambda a, b: a + b, ac)
    ctx.backend.kill_worker(2)
    ac.wait_all()
    ac.drain()
    assert not ac.stat[2].alive

    ctx.backend.revive_worker(2)
    rejoined = ac.refresh_workers()
    assert rejoined == [2]
    assert ac.stat[2].alive and ac.stat[2].available

    # The revived worker participates in the next round.
    rdd.async_reduce(lambda a, b: a + b, ac)
    ac.wait_all()
    assert 2 in {r.worker_id for r in ac.drain()}


def test_refresh_workers_marks_dead_too(ctx):
    from repro.core import ASYNCContext

    ac = ASYNCContext(ctx)
    ctx.backend.kill_worker(1)  # killed while idle: coordinator never saw it
    assert ac.stat[1].alive  # stale view
    ac.refresh_workers()
    assert not ac.stat[1].alive
