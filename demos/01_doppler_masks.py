#!/usr/bin/env python3
"""Walk through the Doppler-aware mask construction on a small grid and
on the canonical 14x48 slot.

Run: python demos/01_doppler_masks.py
"""

from sparsebeam import (
    GridSpec,
    build_doppler_masks,
    build_fixed_strided_masks,
    global_stride,
    head_strides,
    row_count_closedform,
)


def ascii_row(grid, masks, head, query):
    """Draw one query's attended keys on the 2D grid."""
    canvas = [["." for _ in range(grid.subcarriers)] for _ in range(grid.symbols)]
    for j in masks.row(head, query):
        t, f = divmod(int(j), grid.subcarriers)
        canvas[t][f] = "#"
    tq, fq = divmod(query, grid.subcarriers)
    canvas[tq][fq] = "Q" if canvas[tq][fq] == "." else "@"
    return "\n".join(" ".join(row) for row in canvas)


print("=== 1. Stride arithmetic ===")
for tokens, heads in [(672, 2), (672, 1), (24, 2)]:
    print(f"  {tokens} tokens, {heads} heads -> global stride {global_stride(tokens, heads)}")

print()
print("=== 2. A small grid you can read: 6 symbols x 8 subcarriers ===")
grid = GridSpec(symbols=6, subcarriers=8, heads=2, time_bias=2.0)
masks = build_doppler_masks(grid)
s = global_stride(grid.tokens, grid.heads)
stride_time, stride_freq = head_strides(s, grid.time_bias, 1)
print(f"tokens {grid.tokens}, stride {s}, head-1 strides (time {stride_time}, freq {stride_freq})")
query = grid.flat_index(2, 5)
print(f"\nglobal head, query (2,5) -> attends its residue class mod {s}:")
print(ascii_row(grid, masks, 0, query))
print("\nhead 1, same query -> a 2D lattice ('@' marks the query on a key):")
print(ascii_row(grid, masks, 1, query))

print()
print("=== 3. The canonical slot: 14 x 48, query (7, 32) ===")
slot = GridSpec(symbols=14, subcarriers=48, heads=2, time_bias=2.0)
slot_masks = build_doppler_masks(slot)
i = slot.flat_index(7, 32)
row0 = slot_masks.row(0, i)
row1 = slot_masks.row(1, i)
print(f"query index {i}")
print(f"global head: {row0.size} keys, residue {i % 26} mod 26: {row0[:5].tolist()} ... {row0[-1]}")
print(f"head 1:      {row1.size} keys (7 x 4 lattice): {row1[:6].tolist()} ...")
print(f"closed-form counts: {row_count_closedform(slot, 0, i)}, {row_count_closedform(slot, 1, i)}")

print()
print("=== 4. Legal empty head rows on tiny grids ===")
tiny = GridSpec(symbols=2, subcarriers=3, heads=2, time_bias=2.0)
tiny_masks = build_doppler_masks(tiny)
print(f"grid 2x3: validation report {tiny_masks.validation_report()}")
print(f"query 0: head0 row {tiny_masks.row(0, 0).tolist()}, head1 row {tiny_masks.row(1, 0).tolist()} (empty, union still covers)")

print()
print("=== 5. Fixed-strided baseline for comparison ===")
fixed = build_fixed_strided_masks(grid)
print("local head, query (2,5):")
print(ascii_row(grid, fixed, 0, query))
print("\nstrided head, query (2,5):")
print(ascii_row(grid, fixed, 1, query))

density = sum(masks.row_lengths(h).sum() for h in range(2)) / (2 * grid.tokens**2)
print(f"\nDoppler-aware mask density on the 6x8 grid: {density:.1%} of dense attention")
