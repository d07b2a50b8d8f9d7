#!/usr/bin/env python3
"""Residue-class partition, the gcd bridging condition, and measured hop
diameters of the multi-head attention graph.

Run: python demos/02_connectivity.py
"""

from sparsebeam import (
    GridSpec,
    SparseMaskSet,
    build_doppler_masks,
    connectivity_report,
    equivalence_classes,
    hop_diameter,
    verify_partition,
)

print("=== 1. The global head partitions tokens into residue classes ===")
grid = GridSpec(symbols=14, subcarriers=48, heads=2, time_bias=2.0)
masks = build_doppler_masks(grid)
check = verify_partition(masks)
classes = equivalence_classes(grid.tokens, 26)
sizes = [c.size for c in classes]
print(f"partition check passed: {check.passed}, components: {len(classes)}")
print(f"class sizes: {sizes.count(26)} classes of 26 tokens, {sizes.count(25)} of 25")

print()
print("=== 2. Without the lattice heads, classes are isolated islands ===")
# a subset of heads is itself a mask set
head0 = SparseMaskSet(GridSpec(14, 48, heads=1, time_bias=2.0), "doppler_aware", [masks.head(0)])
head0_only = hop_diameter(head0, "directed")
print(f"head-0-only diameter: {head0_only.diameter} "
      f"(unreachable witnesses, first 3: {head0_only.unreachable_pairs[:3]})")

print()
print("=== 3. The bridging condition and what it buys ===")
report = connectivity_report(grid)
for hb in report.heads:
    print(f"head {hb.head}: strides (time {hb.stride_time}, freq {hb.stride_freq}), "
          f"effective flattened step {hb.effective_step}, "
          f"gcd(step, {report.global_stride}) == 1: {hb.bridging_ok}")
print(f"union graph fully connected: {report.fully_connected}")
print(f"measured diameters: directed {report.directed.diameter}, undirected {report.undirected.diameter}")
print(f"hop bound <= head count ({grid.heads}): {report.hop_bound_satisfied}  "
      "(reported, not asserted: per-query offsets stretch concrete paths)")

print()
print("=== 4. A grid where the sufficient condition fails ===")
square = GridSpec(symbols=4, subcarriers=4, heads=2, time_bias=2.0)
sq_report = connectivity_report(square)
hb = sq_report.heads[0]
print(f"4x4 grid: strides ({hb.stride_time}, {hb.stride_freq}), effective step {hb.effective_step}, "
      f"bridging {hb.bridging_ok}")
print(f"still connected anyway (the condition is sufficient, not necessary): "
      f"{sq_report.fully_connected}, undirected diameter {sq_report.undirected.diameter}")

print()
print("=== 5. Some bridged grids disconnect in the *directed* sense ===")
thin = GridSpec(symbols=1, subcarriers=9, heads=2, time_bias=2.0)
thin_report = connectivity_report(thin)
print(f"1x9 grid: bridging heads {thin_report.bridging_heads}, "
      f"directed diameter {thin_report.directed.diameter} "
      f"(witnesses {thin_report.directed.unreachable_pairs[:2]}), "
      f"undirected diameter {thin_report.undirected.diameter}")
print("the connectivity guarantee concerns paths over the symmetrized edge set; both views are reported")
