"""Regenerate the paper's figures and tables and export them for plotting.

Runs the claims behind Figures 2-8 and Tables 2-3 at the paper's budgets
(``repro.bench.claims``) and writes:

- ``results/<claim>.csv`` — each claim's measured table,
- ``results/fig3_series_*.csv`` — raw error-vs-time series per CDS cell
  (ready for matplotlib/gnuplot),
- ``results/summary.json`` — every table and verdict, machine-readable.

Run:  python examples/export_results.py [outdir]
"""

import sys
from pathlib import Path

from repro.bench.claims import CDS_DATASETS, CDS_DELAYS, run_claims
from repro.metrics import error_series_to_csv, figure_to_csv, to_json

FIGURES = (
    "fig2_mllib", "fig3_cds_sgd", "fig4_wait_sgd", "fig5_cds_saga",
    "fig6_wait_saga", "fig7_pcs_sgd", "fig8_pcs_saga", "table2_datasets",
    "table3_wait_pcs",
)


def main(outdir: str = "results"):
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    verdicts = {v.claim.name: v for v in run_claims(FIGURES)}

    for name, verdict in verdicts.items():
        columns = list(dict.fromkeys(
            c for row in verdict.table.values() for c in row))
        figure_to_csv({
            "headers": ["row", *columns],
            "rows": [[label, *(row.get(c, "") for c in columns)]
                     for label, row in verdict.table.items()],
        }, out / f"{name}.csv")

    # Raw error-vs-time curves for the CDS SGD figure (one file per
    # dataset, one series per delay x variant — the actual plot lines).
    results = verdicts["fig3_cds_sgd"].results
    for ds in CDS_DATASETS:
        series = {}
        for delay in CDS_DELAYS:
            for algo, kind in (("sgd", "sync"), ("asgd", "async")):
                cell = results[f"{ds} {delay:.0%} {algo}"]
                series[f"{kind}-{delay:.0%}"] = cell.error_series
        error_series_to_csv(series, out / f"fig3_series_{ds}.csv")

    to_json({
        name: {"claim": v.claim.sentence, "passed": v.passed, "table": v.table}
        for name, v in verdicts.items()
    }, out / "summary.json")

    written = sorted(p.name for p in out.iterdir())
    print(f"wrote {len(written)} files to {out}/:")
    for name in written:
        print(f"  {name}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "results")
