"""Diff two ``BENCH_engine.json`` records and gate on e2e regressions.

CI downloads the previous run's record and compares it against the one
the current run just measured::

    python benchmarks/compare_bench.py previous/BENCH_engine.json BENCH_engine.json

Exit status 1 means the current end-to-end rate regressed more than the
allowed fraction (default 10%) against the baseline record — the
baseline-ratchet policy: a PR may be perf-neutral within noise, but may
not quietly give back the engine's throughput. Every other section is
reported for context only; micro-rates are noisy on shared runners and
the e2e run is the number the engine work is accountable to.
"""

import argparse
import json
import sys

#: (json path, label, higher-is-better) rows reported for context.
_CONTEXT_ROWS = [
    (("events", "events_per_s"), "event queue (events/s)"),
    (("async_round", "tasks_per_s"), "async round (tasks/s)"),
    (("stat", "passes_per_s_after"), "STAT aggregates (passes/s)"),
    (("apply", "updates_per_s_after"), "update apply (updates/s)"),
]

#: Where a record keeps its e2e rate, newest shape first: the median of
#: the warm repeats, or (records written while ``e2e`` was a single-shot
#: fuse-off-vs-on pair) the shipping-path rate.
_E2E_PATHS = [
    ("e2e", "updates_per_s_median"),
    ("e2e", "updates_per_s_after"),
]


def _lookup(record: dict, path: tuple) -> float | None:
    node = record
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node)


def _e2e_rate(record: dict) -> float | None:
    for path in _E2E_PATHS:
        rate = _lookup(record, path)
        if rate is not None:
            return rate
    return None


def compare(baseline: dict, current: dict, max_regression: float) -> int:
    """Print the diff; return the process exit code."""
    for path, label in _CONTEXT_ROWS:
        old, new = _lookup(baseline, path), _lookup(current, path)
        if old is None or new is None or old == 0:
            continue
        print(f"{label:30s} {old:12,.0f} -> {new:12,.0f}  "
              f"(x {new / old:.3f})")
    old, new = _e2e_rate(baseline), _e2e_rate(current)
    if old is None:
        print("baseline record has no e2e section; nothing to gate on")
        return 0
    if new is None:
        print("FAIL: current record has no e2e section")
        return 1
    ratio = new / old if old else float("inf")
    print(f"{'e2e (updates/s)':30s} {old:12,.0f} -> {new:12,.0f}  "
          f"(x {ratio:.3f})")
    if ratio < 1.0 - max_regression:
        print(
            f"FAIL: e2e rate regressed {1.0 - ratio:.1%} "
            f"(> allowed {max_regression:.0%}) vs the baseline record"
        )
        return 1
    print(f"OK: e2e within {max_regression:.0%} of the baseline")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="previous BENCH_engine.json")
    parser.add_argument("current", help="freshly measured BENCH_engine.json")
    parser.add_argument(
        "--max-regression", type=float, default=0.10,
        help="allowed fractional e2e slowdown before failing (default 0.10)",
    )
    args = parser.parse_args(argv)
    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.current) as f:
        current = json.load(f)
    return compare(baseline, current, args.max_regression)


if __name__ == "__main__":
    sys.exit(main())
