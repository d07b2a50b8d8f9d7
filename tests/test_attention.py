"""Sparse kernel vs dense oracle, gradient checks, histogram accounting."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebeam import (
    EmbeddingBlock,
    GridSpec,
    SparseMaskSet,
    attended_keys_histogram,
    build_doppler_masks,
    build_fixed_strided_masks,
    dense_masked_oracle,
    gradient_check,
    row_count_closedform,
    sparse_attention_backward,
    sparse_attention_forward,
)
from sparsebeam import attention

from reference import softmax_rows_reference

KERNEL_GRIDS = [
    (4, 6, 2, 2.0),
    (2, 12, 2, 1.0),
    (3, 8, 4, 2.0),
    (8, 8, 1, 1.0),
    (2, 3, 2, 2.0),  # contains legal empty head rows
]


def make_case(spec, model_dim=8, seed=0):
    grid = GridSpec(*spec)
    masks = build_doppler_masks(grid)
    heads = grid.heads
    dim = model_dim if model_dim % heads == 0 else heads * max(1, model_dim // heads)
    block = EmbeddingBlock.random(grid.tokens, dim, heads, seed=seed)
    return grid, masks, block


def draw_row_masks(data):
    """Random `from_rows` masks and embeddings.  Rows come from a small
    pool, so row classes repeat; the pool holds empty rows and rows of
    unequal lengths, so blocks carry padded keys and classes are skewed."""
    symbols = data.draw(st.integers(1, 5))
    subcarriers = data.draw(st.integers(1, 40 // symbols))
    heads = data.draw(st.integers(1, 3))
    grid = GridSpec(symbols, subcarriers, heads)
    key_sets = st.sets(st.integers(0, grid.tokens - 1), max_size=grid.tokens).map(sorted)
    rows_per_head = []
    for _ in range(heads):
        pool = data.draw(st.lists(key_sets, min_size=1, max_size=4))
        rows_per_head.append(data.draw(st.lists(st.sampled_from(pool), min_size=grid.tokens, max_size=grid.tokens)))
    masks = SparseMaskSet.from_rows(grid, "doppler_aware", rows_per_head)
    block = EmbeddingBlock.random(grid.tokens, 2 * heads, heads, seed=data.draw(st.integers(0, 2**16)))
    return masks, block


class TestForward:
    def test_singleton_row_returns_value_vector(self):
        grid = GridSpec(1, 4, heads=1)
        rows = [[[i] for i in range(4)]]
        masks = SparseMaskSet.from_rows(grid, "doppler_aware", rows)
        block = EmbeddingBlock.random(4, 6, 1, seed=3)
        out = sparse_attention_forward(block, masks).output
        np.testing.assert_allclose(out, block.values[0], atol=1e-15)

    @pytest.mark.parametrize("spec", KERNEL_GRIDS)
    def test_matches_dense_oracle(self, spec):
        for seed in range(5):
            _, masks, block = make_case(spec, seed=seed)
            sparse = sparse_attention_forward(block, masks)
            dense = dense_masked_oracle(block, masks)
            assert np.abs(sparse.output - dense.output).max() <= 1e-12
            assert sorted(sparse.empty_rows) == sorted(dense.empty_rows)

    def test_empty_row_zero_output_and_warning(self):
        grid, masks, block = make_case((2, 3, 2, 2.0), model_dim=4, seed=1)
        result = sparse_attention_forward(block, masks)
        assert result.empty_row_count > 0
        head_dim = block.head_dim
        for head, query in result.empty_rows:
            segment = result.output[query, head * head_dim : (head + 1) * head_dim]
            assert np.all(segment == 0.0)

    def test_weights_sum_to_one(self):
        # with every value row equal to c, a row's output is its weight sum times c
        _, masks, block = make_case((4, 6, 2, 2.0), seed=2)
        c = np.arange(1.0, block.heads * block.head_dim + 1).reshape(block.heads, 1, block.head_dim)
        values = np.broadcast_to(c, block.values.shape)
        result = sparse_attention_forward(EmbeddingBlock(block.queries, block.keys, values), masks)
        d = block.head_dim
        for h in range(block.heads):
            nonempty = masks.row_lengths(h) > 0
            np.testing.assert_allclose(result.output[nonempty, h * d : (h + 1) * d] - c[h], 0.0, atol=1e-12)

    def test_weights_match_loop_softmax(self):
        # identity values make each head's output its (tokens, tokens) weight matrix
        grid, masks, block = make_case((3, 4, 2, 2.0), model_dim=24, seed=5)
        values = np.broadcast_to(np.eye(grid.tokens), block.values.shape)
        result = sparse_attention_forward(EmbeddingBlock(block.queries, block.keys, values), masks)
        for h in range(grid.heads):
            allowed = np.zeros((grid.tokens, grid.tokens), dtype=bool)
            for i in range(grid.tokens):
                allowed[i, masks.row(h, i)] = True
            scores = block.queries[h] @ block.keys[h].T / np.sqrt(block.head_dim)
            expected = softmax_rows_reference(scores, allowed)
            weights = result.output[:, h * grid.tokens : (h + 1) * grid.tokens]
            np.testing.assert_allclose(weights, expected, atol=1e-12)

    def test_permutation_of_row_values_is_equivariant(self):
        grid, masks, block = make_case((4, 6, 2, 2.0), seed=8)
        i = 11
        base = sparse_attention_forward(block, masks).output[i]
        rng = np.random.default_rng(0)
        for h in range(grid.heads):
            row = masks.row(h, i)
            perm = rng.permutation(row)
            keys = block.keys.copy()
            values = block.values.copy()
            keys[h][perm] = block.keys[h][row]
            values[h][perm] = block.values[h][row]
            # permuting (key, value) pairs within the attended set must
            # leave that query's output unchanged in every head that
            # attends exactly this set; restrict to head h by keeping
            # the other head untouched only when rows coincide
            if np.array_equal(np.sort(perm), row):
                shuffled = EmbeddingBlock(block.queries, keys, values)
                out = sparse_attention_forward(shuffled, masks).output[i]
                head_dim = block.head_dim
                np.testing.assert_allclose(
                    out[h * head_dim : (h + 1) * head_dim],
                    base[h * head_dim : (h + 1) * head_dim],
                    atol=1e-12,
                )

    def test_dimension_mismatch_rejected(self):
        _, masks, _ = make_case((4, 6, 2, 2.0))
        wrong = EmbeddingBlock.random(10, 8, 2, seed=0)
        with pytest.raises(ValueError):
            sparse_attention_forward(wrong, masks)

    def test_empty_head_dim_rejected(self):
        with pytest.raises(ValueError, match="head_dim must be >= 1"):
            EmbeddingBlock.random(6, 0, 2)

    def test_nonfinite_input_rejected(self):
        data = np.zeros((2, 6, 4))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            EmbeddingBlock(data, np.zeros_like(data), np.zeros_like(data))


class TestRowClassKernel:
    @pytest.mark.parametrize(
        "build",
        [
            build_doppler_masks,
            build_fixed_strided_masks,
            lambda grid: build_fixed_strided_masks(grid, causal=True),
        ],
        ids=["doppler", "fixed", "fixed-causal"],
    )
    def test_canonical_grid_matches_oracle(self, canonical_grid, build):
        masks = build(canonical_grid)
        block = EmbeddingBlock.random(canonical_grid.tokens, 16, 2, seed=3)
        sparse = sparse_attention_forward(block, masks)
        dense = dense_masked_oracle(block, masks)
        assert np.abs(sparse.output - dense.output).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_masks_match_oracle(self, data):
        masks, block = draw_row_masks(data)
        sparse = sparse_attention_forward(block, masks)
        dense = dense_masked_oracle(block, masks)
        assert np.abs(sparse.output - dense.output).max() <= 1e-12
        assert sparse.empty_rows == dense.empty_rows

    @pytest.mark.parametrize("singletons", [0, 1, 5, 23])
    def test_skewed_classes_bound_padding(self, singletons):
        # one class holds all but `singletons` queries, each of which is
        # a class of its own
        grid = GridSpec(4, 6, heads=1)
        shared = [0, 5, 9]
        rows = [[i] if i < singletons else shared for i in range(grid.tokens)]
        masks = SparseMaskSet.from_rows(grid, "doppler_aware", [rows])
        assert masks.validation_report()["row_classes_per_head"] == [singletons + (singletons < grid.tokens)]
        assert masks.row_blocks(0).queries.size <= 3 * grid.tokens
        block = EmbeddingBlock.random(grid.tokens, 4, 1, seed=singletons)
        sparse = sparse_attention_forward(block, masks).output
        assert np.abs(sparse - dense_masked_oracle(block, masks).output).max() <= 1e-12


def tiled_pass(block, masks, budget):
    """Forward result and backward gradients with the kernel's tile
    budget set to `budget` entries, and each head's tile count."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(attention, "_TILE_ENTRIES", budget)
        tiles = [len(attention._tiles(masks.row_blocks(h), block.head_dim)) for h in range(block.heads)]
        result = sparse_attention_forward(block, masks)
        d_out = np.random.default_rng(7).standard_normal(result.output.shape)
        grads = sparse_attention_backward(block, masks, d_out)
    return result, grads, tiles


# Tile budgets from one row block per tile to one tile per head; the
# ones between leave a partial last tile on most heads.
TILE_BUDGETS = (1, 100, 1000, 10**4, 10**12)


def assert_tiling_is_exact(block, masks):
    """Every tile budget gives the bytes of one tile per head, and one
    block per tile matches the dense oracle."""
    blocks = [masks.row_blocks(h).queries.shape[0] for h in range(block.heads)]
    passes = [tiled_pass(block, masks, budget) for budget in TILE_BUDGETS]
    assert passes[0][2] == [max(1, b) for b in blocks]
    whole, whole_grads, whole_tiles = passes[-1]
    assert whole_tiles == [1] * block.heads
    for result, grads, _ in passes[:-1]:
        assert result.output.tobytes() == whole.output.tobytes()
        assert result.empty_rows == whole.empty_rows
        for a, b in zip(grads, whole_grads):
            assert a.tobytes() == b.tobytes()
    dense = dense_masked_oracle(block, masks)
    assert np.abs(passes[0][0].output - dense.output).max() <= 1e-12
    assert passes[0][0].empty_rows == dense.empty_rows


def working_peak_mib(call):
    """tracemalloc peak of `call()`, less the bytes of the arrays it
    returns, in MiB."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = result if isinstance(result, tuple) else (result.output,)
    return (peak - sum(a.nbytes for a in arrays)) / 2**20


class TestTiles:
    # Most Tier-1 heads fit in one tile, so the tile boundaries are
    # forced here: a budget of 1 entry makes each row block a tile.
    @pytest.mark.parametrize(
        "build,heads",
        [
            (build_doppler_masks, 2),
            (build_doppler_masks, 3),
            (build_fixed_strided_masks, 2),
            (lambda grid: build_fixed_strided_masks(grid, causal=True), 2),
        ],
        ids=["doppler-p2", "doppler-p3", "fixed", "fixed-causal"],
    )
    def test_tile_boundaries_are_exact(self, build, heads):
        grid = GridSpec(14, 48, heads, 2.0)
        masks = build(grid)
        block = EmbeddingBlock.random(grid.tokens, 16 * heads, heads, seed=heads)
        assert_tiling_is_exact(block, masks)
        # non-contiguous activations: each head is made contiguous once
        # and gives the same bytes
        view = EmbeddingBlock(*(np.asfortranarray(a) for a in (block.queries, block.keys, block.values)))
        assert not view.queries[0].flags.c_contiguous
        assert tiled_pass(view, masks, 1)[0].output.tobytes() == tiled_pass(block, masks, 1)[0].output.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_masks_tile_boundaries_are_exact(self, data):
        masks, block = draw_row_masks(data)
        assert_tiling_is_exact(block, masks)

    # tracemalloc peak above the returned arrays, model_dim 64:
    #   fixed-strided 64x64 forward: 260 MiB (262 with its 2 MiB
    #     output) with whole-head temporaries, 0.9 MiB (2.9) tiled;
    #   Doppler 64x64 backward: 15.0 MiB (21 with its three 2 MiB
    #     gradients) with whole-head temporaries, 1.0 MiB (7.0) tiled.
    # Each bound is below a quarter of the whole-head figure.
    @pytest.mark.parametrize(
        "build,backward,bound_mib",
        [(build_fixed_strided_masks, False, 8.0), (build_doppler_masks, True, 3.5)],
        ids=["fixed-forward", "doppler-backward"],
    )
    def test_working_memory_stays_tile_sized(self, build, backward, bound_mib):
        grid = GridSpec(64, 64, 2, 2.0)
        masks = build(grid)
        for h in range(grid.heads):
            masks.row_blocks(h)  # packed outside the measurement
        block = EmbeddingBlock.random(grid.tokens, 64, grid.heads, seed=1)
        if backward:
            d_out = np.random.default_rng(0).standard_normal((grid.tokens, 64))
            peak = working_peak_mib(lambda: sparse_attention_backward(block, masks, d_out))
        else:
            peak = working_peak_mib(lambda: sparse_attention_forward(block, masks))
        assert peak <= bound_mib


class TestDenseOracle:
    def test_full_mask_is_plain_attention(self):
        grid = GridSpec(2, 5, heads=1)
        masks = build_doppler_masks(grid)  # single head, stride 1: dense
        block = EmbeddingBlock.random(10, 4, 1, seed=4)
        out = dense_masked_oracle(block, masks).output
        scores = block.queries[0] @ block.keys[0].T / 2.0
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(out, weights @ block.values[0], atol=1e-12)


class TestGradientCheck:
    def test_zero_values_zero_gradient(self):
        grid, masks, block = make_case((4, 6, 2, 2.0), seed=0)
        block.values[:] = 0.0
        from sparsebeam.attention import _loss_and_gradients

        loss, d_q, d_k, d_v = _loss_and_gradients(block, masks)
        assert loss == 0.0
        assert np.all(d_q == 0.0) and np.all(d_k == 0.0)

    def test_singleton_rows_kill_key_gradient(self):
        grid = GridSpec(1, 5, heads=1)
        rows = [[[i] for i in range(5)]]
        masks = SparseMaskSet.from_rows(grid, "doppler_aware", rows)
        block = EmbeddingBlock.random(5, 4, 1, seed=6)
        from sparsebeam.attention import _loss_and_gradients

        _, d_q, d_k, _ = _loss_and_gradients(block, masks)
        assert np.abs(d_k).max() == 0.0
        assert np.abs(d_q).max() == 0.0

    @pytest.mark.parametrize("spec,seed", [((4, 6, 2, 2.0), 11), ((2, 12, 2, 1.0), 11), ((3, 8, 4, 2.0), 4)])
    def test_fd_agreement(self, spec, seed):
        # seeds fixed to instances whose smallest gradient entries stay
        # above the finite-difference noise floor of the pinned 1e-5 step
        _, masks, block = make_case(spec, seed=seed)
        assert gradient_check(block, masks) <= 1e-5


    def test_backward_matches_central_differences(self):
        # arbitrary upstream gradient: d/dx sum(out * d_out) by central
        # differences on every Q/K/V entry
        grid, masks, block = make_case((4, 6, 2, 2.0), seed=2)
        d_out = np.random.default_rng(17).standard_normal((grid.tokens, block.model_dim))
        analytic = sparse_attention_backward(block, masks, d_out)
        arrays = [block.queries.copy(), block.keys.copy(), block.values.copy()]
        step = 1e-5
        worst = 0.0
        for which, grad in enumerate(analytic):
            flat = arrays[which].reshape(-1)
            for pos in range(flat.size):
                orig = flat[pos]
                sides = []
                for value in (orig + step, orig - step):
                    flat[pos] = value
                    out = sparse_attention_forward(EmbeddingBlock(*arrays), masks).output
                    sides.append(float((out * d_out).sum()))
                flat[pos] = orig
                numeric = (sides[0] - sides[1]) / (2.0 * step)
                worst = max(worst, abs(grad.reshape(-1)[pos] - numeric))
        assert worst <= 1e-8

    def test_backward_rejects_wrong_shape(self):
        grid, masks, block = make_case((4, 6, 2, 2.0))
        with pytest.raises(ValueError):
            sparse_attention_backward(block, masks, np.zeros((grid.tokens, block.model_dim + 1)))

    def test_non_contiguous_block(self):
        # a transposed view: perturbing its ravel() (a copy) would never
        # reach the forward
        _, masks, block = make_case((4, 6, 2, 2.0), seed=11)
        view = np.ascontiguousarray(block.queries.transpose(2, 1, 0)).transpose(2, 1, 0)
        strided = EmbeddingBlock(view, block.keys, block.values)
        assert not strided.queries.flags.c_contiguous
        before = [a.copy() for a in (strided.queries, strided.keys, strided.values)]
        assert gradient_check(strided, masks) <= 1e-5
        for was, now in zip(before, (strided.queries, strided.keys, strided.values)):
            assert np.array_equal(was, now)


class TestHistogram:
    def test_canonical_distribution(self, canonical_masks):
        per_head = attended_keys_histogram(canonical_masks)
        assert per_head[0] == {26: 572, 25: 100}
        assert sum(per_head[0].values()) == 672
        assert sum(per_head[1].values()) == 672
        assert len(per_head[1]) <= 3  # sharp peak

    def test_full_mask_single_bin(self):
        masks = build_doppler_masks(GridSpec(3, 4, heads=1))
        assert attended_keys_histogram(masks) == [{12: 12}]

    def test_matches_closed_form_aggregation(self, canonical_grid, canonical_masks):
        per_head = attended_keys_histogram(canonical_masks)
        for h in range(2):
            expected = {}
            for i in range(672):
                n = row_count_closedform(canonical_grid, h, i)
                expected[n] = expected.get(n, 0) + 1
            assert per_head[h] == expected

    def test_lengths_sorted(self, canonical_masks):
        for counts in attended_keys_histogram(canonical_masks):
            assert list(counts) == sorted(counts)
