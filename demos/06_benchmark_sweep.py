#!/usr/bin/env python3
"""A reduced beamformer comparison sweep: how channel aging across the
slot separates the methods as mobility grows.

The full-scale defaults (500 realizations per point) run in the
acceptance suite; this demo uses 80 to stay interactive.

Run: python demos/06_benchmark_sweep.py
"""

import tempfile
from pathlib import Path

from sparsebeam import SweepConfig, export_report, run_sweep

config = SweepConfig(
    snr_db_list=(-10.0, 0.0, 10.0, 20.0),
    velocity_ranges=((0.0, 10.0), (30.0, 40.0)),
    realizations=80,
    seed=42,
)

print("protocol: estimate at the first slot symbol, score against the true")
print("channel at the last symbol; higher velocity -> staler combiner")
print("each entry: mean over realizations of the 2-user sum rate, bps/Hz\n")

result = run_sweep(config, timestamp="demo")

for velocity_range in config.velocity_ranges:
    print(f"velocity {velocity_range} m/s")
    print("  snr_db     zf      mmse     opt")
    for snr in config.snr_db_list:
        row = {p.method: p for p in result.points
               if p.snr_db == snr and p.v_min == velocity_range[0]}
        print(f"  {snr:>6} {row['zf'].mean_sum_rate:8.3f} {row['mmse'].mean_sum_rate:8.3f} "
              f"{row['opt'].mean_sum_rate:8.3f}   (+- {row['zf'].stderr:.3f})")
    print()

print("reading the table: at low mobility the three methods are close; at")
print("30-40 m/s the stale ZF/MMSE combiners lose about 8 bps/Hz of sum rate at 20 dB.")
print("opt optimizes against the true target channel: it is a genie-aided")
print("reference, capped by MMSE on the true channel, not a stand-in for a")
print("trained beamformer, which sees only the stale estimate.")

with tempfile.TemporaryDirectory() as tmp:
    csv_path = Path(tmp) / "sweep.csv"
    export_report(result, "csv", csv_path)
    lines = csv_path.read_text().splitlines()
    print(f"\nCSV export ({len(lines) - 1} rows): {lines[0]}")
    print("  " + "\n  ".join(lines[1:4]))
