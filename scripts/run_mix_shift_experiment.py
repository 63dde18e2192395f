#!/usr/bin/env python3
"""Two-mode comparison on the mix-shift synthetic family.

For each seed, generates a dataset whose bedroom mix alternates month to
month, computes the index with and without bedroom factoring, and prints a
per-seed metrics table plus the win counts.  Optionally writes the tidy
long-format CSV and an SVG chart for the last seed.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from geohpi import IndexConfig, compute_index, series_metrics
from geohpi.ingestion import write_csv
from geohpi.plotting import render_line_chart
from geohpi.synthgen import generate, mix_shift_config


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--months", type=int, default=16)
    parser.add_argument("--records-per-month", type=int, default=140)
    parser.add_argument("--output-dir", help="write long CSV + SVG for the last seed")
    args = parser.parse_args()

    msm_wins = sdd_wins = 0
    last = None
    print(f"{'seed':>4} {'msm plain':>12} {'msm factored':>13} "
          f"{'sdd plain':>10} {'sdd factored':>13}")
    for seed in range(args.seeds):
        records, _ = generate(
            mix_shift_config(seed, months=args.months,
                             records_per_month=args.records_per_month)
        )
        plain = compute_index(records, IndexConfig(min_ratios_for_chain=1)).series
        factored = compute_index(
            records, IndexConfig(min_ratios_for_chain=1, factor_bedrooms=True)
        ).series
        mp = series_metrics(plain.values)
        mf = series_metrics(factored.values)
        msm_wins += mf.msm < mp.msm
        sdd_wins += mf.std_dev_diffs < mp.std_dev_diffs
        print(f"{seed:>4} {mp.msm:>12.3f} {mf.msm:>13.3f} "
              f"{mp.std_dev_diffs:>10.3f} {mf.std_dev_diffs:>13.3f}")
        last = (plain, factored)
    print(f"\nfactored msm lower in {msm_wins}/{args.seeds} seeds, "
          f"sd-of-diffs lower in {sdd_wins}/{args.seeds}")

    if args.output_dir and last is not None:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        plain, factored = last
        months = list(plain.months)
        write_csv(out / "mix_shift_long.csv", ["series_name", "month", "value"],
                  ([name, month, repr(value)]
                   for name, series in (("plain", plain), ("factored", factored))
                   for month, value in zip(series.months, series.values)))
        chart = render_line_chart(
            months,
            [("plain", list(plain.values)), ("factored", list(factored.values))],
            title="mix-shift family: plain vs bedroom-factored",
        )
        (out / "mix_shift.svg").write_text(chart, encoding="utf-8")
        print(f"wrote {out / 'mix_shift_long.csv'} and {out / 'mix_shift.svg'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
