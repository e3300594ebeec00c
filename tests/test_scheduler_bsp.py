"""The engine's partition job (``run_job``): locality, barriers, retry
on worker loss."""

import pytest

from repro.errors import SchedulerError, TaskError


def test_results_in_partition_order(ctx):
    rdd = ctx.parallelize(range(40), 8)
    out = ctx.run_job(rdd, lambda split, data: (split, sum(data)))
    assert [s for s, _ in out] == list(range(8))


def test_locality_placement(ctx):
    """Partition i runs on worker i mod P."""
    rdd = ctx.parallelize(range(8), 8)
    out = ctx.run_job(rdd, lambda s, d: None)
    assert out == [None] * 8
    by_worker = {}
    for m in ctx.dispatcher.metrics_log:
        by_worker.setdefault(m.worker_id, 0)
        by_worker[m.worker_id] += 1
    # 8 partitions over 4 workers -> 2 tasks each.
    assert by_worker == {0: 2, 1: 2, 2: 2, 3: 2}


def test_job_is_synchronous_barrier(ctx):
    """run_job returns only after every partition delivered; virtual time
    covers the slowest worker."""
    rdd = ctx.parallelize(range(16), 8)
    t0 = ctx.now()
    ctx.run_job(rdd, lambda s, d: None)
    # 8 tasks over 4 workers, 2 serial tasks per worker at >=1ms each.
    assert ctx.now() - t0 >= 2.0


def test_task_error_propagates_with_context(ctx):
    rdd = ctx.parallelize(range(4), 2)

    def bad(split, data):
        if split == 1:
            raise ValueError("boom")
        return split

    with pytest.raises(TaskError) as ei:
        ctx.run_job(rdd, bad)
    assert isinstance(ei.value.cause, ValueError)


def test_retry_after_worker_loss(ctx):
    """Killing a worker mid-job: its partitions recompute elsewhere."""
    rdd = ctx.parallelize(range(100), 8).map(lambda x: x * 2).cache()
    rdd.collect()  # warm the caches

    ctx.backend.kill_worker(0)
    out = ctx.run_job(rdd, lambda s, d: sum(d))
    assert sum(out) == 2 * sum(range(100))


def test_all_workers_dead_raises(ctx):
    for w in range(ctx.num_workers):
        ctx.backend.kill_worker(w)
    rdd = ctx.parallelize(range(4), 2)
    with pytest.raises(SchedulerError):
        ctx.run_job(rdd, lambda s, d: None)


def test_jobs_run_counter(ctx):
    """Each run_job is one job: its tasks share one fresh job id."""
    rdd = ctx.parallelize(range(4), 2)
    before = len(ctx.dispatcher.metrics_log)
    ctx.run_job(rdd, lambda s, d: None)
    ctx.run_job(rdd, lambda s, d: None)
    job_ids = [m.job_id for m in ctx.dispatcher.metrics_log[before:]]
    assert len(job_ids) == 4
    assert job_ids[0] == job_ids[1] < job_ids[2] == job_ids[3]
