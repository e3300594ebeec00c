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
    ctx.parallelize(range(16), 16).async_reduce(
        lambda a, b: a + b, ac, "partition"
    )
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
        assert ctx.parallelize(range(20)).num_partitions == 10


def test_stop_idempotent(ctx):
    ctx.stop()
    ctx.stop()


def test_now_tracks_backend_clock(ctx):
    t0 = ctx.now()
    ctx.parallelize(range(8), 4).collect()
    assert ctx.now() > t0


def test_rdds_registered_weakly(ctx):
    import gc

    rdd = ctx.parallelize(range(4), 2)
    rid = rdd.rdd_id
    assert rid in ctx._rdds
    del rdd
    gc.collect()
    assert rid not in ctx._rdds


def test_backend_param_overrides_worker_count():
    backend = SimBackend(3)
    with ClusterContext(num_workers=99, backend=backend) as ctx:
        assert ctx.num_workers == 3


def test_a_backend_kill_leaves_stat_at_once(ctx):
    """STAT reads liveness from the backend: a worker killed through
    ``ctx.backend`` leaves it at once, idle or busy, without waiting for
    a loss notice or for anyone to re-sync the table."""
    from repro.core import BSP, ASYNCContext, LambdaPolicy

    ac = ASYNCContext(ctx)
    ctx.backend.kill_worker(1)  # idle: no loss notice will ever come
    assert ac.stat.num_alive == 3
    assert ac.stat.available_workers() == [0, 2, 3]
    assert not ac.stat[1].alive and not ac.stat[1].available

    # Worker 3 gets the only task; then it dies holding it.
    only_3 = LambdaPolicy(lambda stat: True, eligible_fn=lambda stat: [3])
    rdd = ctx.parallelize(range(8), 4)
    assert rdd.async_barrier(only_3, ac.stat).async_reduce(
        lambda a, b: a + b, ac
    ) == [3]
    ctx.backend.kill_worker(3)
    assert ac.in_flight == 1  # its loss notice has not landed yet...
    assert ac.stat.num_alive == 2
    assert BSP().ready(ac.stat)  # ...and BSP does not wait on it
    ac.wait_all()
    assert ac.lost_tasks == 1 and not ac.drain()


def test_a_backend_revive_rejoins_the_next_round(ctx):
    """A worker revived through ``ctx.backend`` after its loss notice
    landed gets a task in the very next ``async_reduce`` round."""
    from repro.core import ASYNCContext

    ac = ASYNCContext(ctx)
    rdd = ctx.parallelize(range(8), 4)
    rdd.async_reduce(lambda a, b: a + b, ac)
    ctx.backend.kill_worker(2)
    ac.wait_all()
    assert {r.worker_id for r in ac.drain()} == {0, 1, 3}
    assert ac.lost_tasks == 1 and not ac.stat[2].alive

    ctx.backend.revive_worker(2)
    assert ac.stat[2].alive and ac.stat[2].available
    assert rdd.async_reduce(lambda a, b: a + b, ac) == [0, 1, 2, 3]
    ac.wait_all()
    assert 2 in {r.worker_id for r in ac.drain()}
