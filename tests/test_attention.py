"""Sparse kernel vs dense oracle, gradient checks, histogram accounting."""

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
            assert np.abs(sparse.output - dense.output).max() <= 1e-6
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
        # rows come from a small pool, so row classes repeat; the pool
        # holds empty rows and rows of unequal lengths
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
