"""A ratchet on the interpreter work of one update.

Under ASP every applied update is one task's round trip (publish,
dispatch, arrival, task body, delivery, collect, apply), so the engine's
per-task plumbing is the method's per-update overhead. This counts the
Python calls made per applied update by four runs:

- ``SPEC``: a small ASGD run, one partition per task;
- ``COMPRESSED_SPEC``: a small ASAGA run whose results cross the wire
  top-k compressed (the COMM encode/decode path);
- ``WORKER_SPEC``: an ASGD run at worker grain with four partitions per
  task, so the task body's walk over a worker's local partitions (block
  read, batch draw, cost report, kernel) is most of each update;
- ``SYNC_SPEC``: a synchronous SGD run, where one update is a
  bulk-synchronous round of sixteen partition tasks, so per-result work
  in the loop counts sixteen times per update.

Only code under ``src/repro`` counts (no builtin or NumPy frames), and
not list, dict and set comprehensions (Python 3.12 runs them inline,
3.11 as calls), so the count is the same on every supported Python and
NumPy.
"""

import cProfile
import types
from pathlib import Path

import repro
from repro.api.runner import prepare_experiment

SPEC = {
    "algorithm": "asgd", "dataset": "synth_logistic", "problem": "logistic",
    "num_workers": 8, "num_partitions": 8, "policy": "asp",
    "max_updates": 300, "eval_every": 300, "seed": 0,
}

#: Calls into ``src/repro`` per applied update. It may only go down: a
#: change that needs more is a measured regression on the per-update
#: path, not a new ceiling. (A reused gather buffer once cost 20 more;
#: 73.66 before the partition walk lost its wrapper frames, 66.47 before
#: the loop submitted the round plan without a rule hook in between.)
CEILING = 65.47

#: ASAGA over HIST with top-k collects and delta fetches: the COMM
#: encode/decode path on every update (185.67 before packets were
#: priced once and the codec walked exact types, 166.8 before the
#: partition walk lost its wrapper frames, 153.42 before the SAGA kernel
#: read its env once and stopped building a sub-block, the codec walked
#: a tuple's leaves in its own frame and HIST eviction lost its scan;
#: 117.50 before SAGA's average and prune floors left HIST and COMM and
#: each run got its own COMM manager, where this second run used to
#: inherit the first one's delta mirrors; 104.95 before the loop
#: submitted the round plan without a rule hook in between; 104.67
#: before SAGA's row versions left the worker env for one server-side
#: table, so a task no longer builds the key of its block's copy).
COMPRESSED_SPEC = {
    "algorithm": "asaga", "params": {"mode": "history"},
    "dataset": "rcv1_like", "policy": "ssp:4", "granularity": "partition",
    "num_workers": 4, "num_partitions": 8, "delay": "cds:0.6",
    "compressor": {"name": "topk", "fraction": 0.1, "delta": True},
    "max_updates": 300, "eval_every": 300, "seed": 3,
}
COMPRESSED_CEILING = 103.64

#: ASGD at worker grain, 8 workers over 32 partitions: every task walks
#: four local partitions (127.52 before the block store's reads, the
#: broadcast read, the cost report and the draw's sizing and seed lost
#: their wrapper frames, 101.83 before the loop submitted the round plan
#: without a rule hook in between).
WORKER_SPEC = {
    "algorithm": "asgd", "dataset": "mnist8m_like",
    "problem": "least_squares", "num_workers": 8, "num_partitions": 32,
    "policy": "asp", "delay": "cds:0.6",
    "max_updates": 300, "eval_every": 300, "seed": 0,
}
WORKER_CEILING = 100.82

#: Synchronous SGD, 8 workers over 16 partitions: every update collects
#: and holds sixteen results, and the loop evaluates no per-result step
#: for them (862.60 before the loop submitted the round plan without a
#: rule hook in between).
SYNC_SPEC = {
    "algorithm": "sgd", "dataset": "synth_logistic", "problem": "logistic",
    "num_workers": 8, "num_partitions": 16,
    "max_updates": 60, "eval_every": 60, "seed": 0,
}
SYNC_CEILING = 860.57

PACKAGE = str(Path(repro.__file__).resolve().parent)
INLINED = {"<listcomp>", "<dictcomp>", "<setcomp>"}


def repro_calls_per_update(spec: dict) -> float:
    prep = prepare_experiment(spec)
    with prep.make_context() as ctx:
        prep.run_in(ctx)  # warm one-time caches (batch-key hash states)
    with prep.make_context() as ctx:
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = prep.run_in(ctx)
        finally:
            profiler.disable()
    calls = sum(
        entry.callcount for entry in profiler.getstats()
        if isinstance(entry.code, types.CodeType)
        and entry.code.co_name not in INLINED
        and str(Path(entry.code.co_filename).resolve()).startswith(PACKAGE)
    )
    assert result.updates == spec["max_updates"]
    return calls / result.updates


def test_calls_per_update_stay_under_the_ceiling():
    per_update = repro_calls_per_update(SPEC)
    assert per_update <= CEILING, (
        f"{per_update:.2f} calls into src/repro per update > {CEILING}"
    )


def test_compressed_calls_per_update_stay_under_the_ceiling():
    per_update = repro_calls_per_update(COMPRESSED_SPEC)
    assert per_update <= COMPRESSED_CEILING, (
        f"{per_update:.2f} calls into src/repro per update > "
        f"{COMPRESSED_CEILING}"
    )


def test_worker_grain_calls_per_update_stay_under_the_ceiling():
    per_update = repro_calls_per_update(WORKER_SPEC)
    assert per_update <= WORKER_CEILING, (
        f"{per_update:.2f} calls into src/repro per update > "
        f"{WORKER_CEILING}"
    )


def test_sync_calls_per_update_stay_under_the_ceiling():
    per_update = repro_calls_per_update(SYNC_SPEC)
    assert per_update <= SYNC_CEILING, (
        f"{per_update:.2f} calls into src/repro per update > {SYNC_CEILING}"
    )
