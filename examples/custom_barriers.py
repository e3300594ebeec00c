"""Barrier control strategies (Section 5.3, Listing 2) — including a
user-defined one, driven through the declarative experiment API.

Implements the paper's three classic barriers (ASP, BSP, SSP), the
beta-fraction rule from Algorithm 2, a completion-time barrier in the
spirit of [69], and a fully custom predicate written exactly the way the
paper's API intends (a function of the STAT table). The custom policy is
*registered* under a name, after which the whole comparison is one
GridSpec sweep over the spec's ``policy`` field — barriers are data, not
wiring. All run ASGD under a
100%-delay straggler; the table shows the asynchrony/staleness trade-off.

Run:  python examples/custom_barriers.py
"""

from repro import GridSpec
from repro.api import register_policy, run_grid
from repro.core.policies import LambdaPolicy
from repro.utils.tables import format_table


# A custom barrier as a plain predicate over STAT (the paper's raw form):
# dispatch only while nobody's in-flight work is more than 4 updates
# stale AND at least two workers are free. Registering it makes it
# addressable from specs (and from `python -m repro run` JSON files).
@register_policy("staleness4_free2")
def _custom_barrier():
    return LambdaPolicy(
        lambda stat: stat.max_staleness <= 4 and stat.num_available >= 2,
        name="custom(staleness<=4 & free>=2)",
    )


SWEEP = GridSpec.coerce({
    "base": {
        "algorithm": "asgd",
        "dataset": "mnist8m_like",
        "num_workers": 8,
        "num_partitions": 32,
        "delay": "cds:1.0",
        "alpha0": 0.5,
        "batch_fraction": 0.1,
        "max_updates": 320,
        "eval_every": 32,
        "seed": 0,
    },
    "grid": {
        "policy": [
            "asp",
            "ssp:8",
            "frac:0.5",
            "ct:1.5",
            "staleness4_free2",
            "bsp",
        ],
    },
})


def main():
    rows = []
    for summary in run_grid(SWEEP):
        rows.append([
            summary["spec"]["policy"],
            summary["elapsed_ms"],
            summary["final_error"],
            summary["extras"]["max_staleness_seen"],
            summary["avg_wait_ms"],
        ])
    print(format_table(
        ["barrier", "time (ms)", "final err", "max staleness", "wait (ms)"],
        rows,
        title="ASGD under a 100%-delay straggler, 320 updates, 8 workers",
    ))
    print("\nLooser barriers finish sooner but tolerate staler gradients;"
          "\nBSP is fully synchronous and pays the straggler every round.")


if __name__ == "__main__":
    main()
