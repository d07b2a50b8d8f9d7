#!/usr/bin/env python3
"""The masked attention kernel: sparse path vs dense oracle, gradient
verification, row classes, and the attended-keys histogram.

Run: python demos/03_sparse_attention.py
"""

import numpy as np

from sparsebeam import (
    EmbeddingBlock,
    GridSpec,
    attended_keys_histogram,
    build_doppler_masks,
    dense_masked_oracle,
    gradient_check,
    sparse_attention_forward,
)

print("=== 1. Sparse forward equals the dense -inf-masked oracle ===")
grid = GridSpec(symbols=4, subcarriers=6, heads=2, time_bias=2.0)
masks = build_doppler_masks(grid)
worst = 0.0
for seed in range(25):
    block = EmbeddingBlock.random(grid.tokens, 8, grid.heads, seed=seed)
    sparse = sparse_attention_forward(block, masks)
    dense = dense_masked_oracle(block, masks)
    worst = max(worst, float(np.abs(sparse.output - dense.output).max()))
print(f"max |sparse - dense| over 25 seeded blocks: {worst:.2e}")

print()
print("=== 2. Softmax weights sum to 1 over each attended row ===")
block = EmbeddingBlock.random(grid.tokens, 8, grid.heads, seed=0)
# with every value row equal to c, each output row is its weight sum times c
c = 3.0
constant = EmbeddingBlock(block.queries, block.keys, np.full(block.values.shape, c))
out = sparse_attention_forward(constant, masks).output
d = block.head_dim
dev = max(np.abs(out[masks.row_lengths(h) > 0, h * d : (h + 1) * d] - c).max() for h in range(grid.heads))
print(f"values all {c}: max |output - {c}| over non-empty rows {dev:.2e}")

print()
print("=== 3. Empty head rows yield zero output plus a warning record ===")
tiny = GridSpec(symbols=2, subcarriers=3, heads=2, time_bias=2.0)
tiny_masks = build_doppler_masks(tiny)
tiny_block = EmbeddingBlock.random(tiny.tokens, 4, 2, seed=1)
tiny_result = sparse_attention_forward(tiny_block, tiny_masks)
print(f"empty (head, query) pairs: {tiny_result.empty_rows}")
head, query = tiny_result.empty_rows[0]
segment = tiny_result.output[query, head * 2 : (head + 1) * 2]
print(f"that head's output slice for query {query}: {segment} (zeros; the head union still covers it)")

print()
print("=== 4. Hand-written backprop vs central finite differences ===")
err = gradient_check(block, masks)
print(f"max relative gradient error (step 1e-5): {err:.2e}")

print()
print("=== 5. Row classes: the kernel attends each distinct row once ===")
for symbols, subcarriers in ((14, 48), (64, 64)):
    grid_rc = GridSpec(symbols=symbols, subcarriers=subcarriers, heads=2, time_bias=2.0)
    classes = build_doppler_masks(grid_rc).validation_report()["row_classes_per_head"]
    print(f"{symbols}x{subcarriers} ({grid_rc.tokens} queries): distinct rows per head {classes}")
print("head 0 rows depend on i mod s, lattice rows on (i mod st, i mod sf); each class is attended as dense blocks")

print()
print("=== 6. Attended-keys histogram on the canonical slot ===")
slot = GridSpec(symbols=14, subcarriers=48, heads=2, time_bias=2.0)
print(f"queries per head: {slot.tokens}")
for h, counter in enumerate(attended_keys_histogram(build_doppler_masks(slot))):
    print(f"head {h}: {{row length: query count}} = {counter}")
print("each head concentrates on a narrow band of row lengths: the sparsity is structural, not incidental")
