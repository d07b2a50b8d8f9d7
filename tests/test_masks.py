"""Mask construction: frozen examples, oracle cross-checks, invariants."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebeam import (
    DEFAULT_TOKEN_CAP,
    GridSpec,
    ResourceLimitError,
    SparseMaskSet,
    build_doppler_masks,
    build_fixed_strided_masks,
    global_stride,
    head_geometry,
    head_offsets,
    head_strides,
    row_count_closedform,
)

from conftest import BATTERY_GRIDS
from reference import doppler_masks_reference, fixed_masks_reference, stride_reference


class TestGlobalStride:
    def test_frozen_examples(self):
        assert global_stride(672, 2) == 26
        assert global_stride(672, 1) == 1
        assert global_stride(24, 2) == 5

    def test_matches_integer_oracle_everywhere(self):
        for tokens in list(range(1, 300)) + [671, 672, 673, 4096, 65536, 10**6]:
            for heads in (1, 2, 3, 4, 5):
                assert global_stride(tokens, heads) == stride_reference(tokens, heads), (tokens, heads)

    def test_never_below_float_ceiling(self):
        # the exact value must equal ceil(T**(1-1/p)) wherever the float
        # expression is itself trustworthy
        for tokens in (10, 100, 672, 5000):
            for heads in (2, 3, 4):
                float_guess = int(np.ceil(tokens ** (1 - 1 / heads) - 1e-9))
                assert global_stride(tokens, heads) == float_guess

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            global_stride(0, 2)
        with pytest.raises(ValueError):
            global_stride(10, 0)


class TestHeadStrides:
    def test_frozen_examples(self):
        assert head_strides(26, 2.0, 1) == (2, 13)
        assert head_strides(26, 26.0, 1) == (26, 1)
        assert head_strides(5, 1.0, 1) == (1, 5)

    def test_global_head_rejected(self):
        with pytest.raises(ValueError):
            head_strides(26, 2.0, 0)

    def test_collapse_when_bias_power_exceeds_stride(self):
        # lambda**h > s pushes the frequency stride to 1 and the time
        # stride up to s; followed verbatim, reported, not repaired
        assert head_strides(5, 10.0, 2) == (5, 1)

    def test_bias_power_overflow_collapses_frequency_stride(self):
        # 2.0**1100 overflows a float; the scale counts as infinite
        assert head_strides(26, 2.0, 1100) == (26, 1)


class TestHeadOffsets:
    def test_frozen_examples(self):
        assert head_offsets(368, 1, 2, 13) == (0, 7)
        assert head_offsets(0, 1, 2, 13) == (0, 3)
        assert head_offsets(123, 5, 1, 1) == (0, 0)

    def test_offsets_below_strides(self):
        for i in range(50):
            for h in (1, 2, 3):
                dt, df = head_offsets(i, h, 3, 4)
                assert 0 <= dt < 3 and 0 <= df < 4

    def test_array_queries_match_scalar(self):
        queries = np.arange(100, dtype=np.int64)
        for h, st, sf in ((1, 2, 13), (2, 3, 4), (3, 1, 7)):
            off_t, off_f = head_offsets(queries, h, st, sf)
            assert [(int(a), int(b)) for a, b in zip(off_t, off_f)] == [head_offsets(i, h, st, sf) for i in range(100)]


class TestDopplerMasks:
    def test_canonical_query_368(self, canonical_masks):
        # query (7, 32) on the 14x48 grid: global head hits its whole
        # residue class, head 1 a 7x4 lattice
        head0 = canonical_masks.row(0, 368)
        assert np.array_equal(head0, np.arange(4, 672, 26))
        assert head0.size == 26
        head1 = canonical_masks.row(1, 368)
        expected = np.sort(
            np.array([t * 48 + f for t in range(0, 14, 2) for f in range(7, 48, 13)])
        )
        assert np.array_equal(head1, expected)
        assert head1.size == 28

    def test_legal_empty_head_row(self):
        masks = build_doppler_masks(GridSpec(2, 3, 2, 2.0))
        assert np.array_equal(masks.row(0, 0), [0, 3])
        assert masks.row(1, 0).size == 0
        report = masks.validation_report()
        assert report["empty_rows_per_head"][1] > 0
        assert report["queries_without_keys"] == 0  # head 0 always covers

    def test_single_head_degenerates_to_dense(self):
        grid = GridSpec(3, 5, heads=1, time_bias=1.0)
        masks = build_doppler_masks(grid)
        for i in range(grid.tokens):
            assert np.array_equal(masks.row(0, i), np.arange(grid.tokens))

    @pytest.mark.parametrize("spec", BATTERY_GRIDS)
    def test_matches_dense_reference(self, spec):
        symbols, subcarriers, heads, bias = spec
        grid = GridSpec(symbols, subcarriers, heads, bias)
        masks = build_doppler_masks(grid)
        dense, s = doppler_masks_reference(symbols, subcarriers, heads, bias)
        assert s == global_stride(grid.tokens, heads)
        for h in range(heads):
            for i in range(grid.tokens):
                assert np.array_equal(masks.row(h, i), np.flatnonzero(dense[h, i])), (spec, h, i)

    @pytest.mark.parametrize("spec", BATTERY_GRIDS)
    def test_row_invariants(self, spec):
        grid = GridSpec(*spec)
        masks = build_doppler_masks(grid)
        s = global_stride(grid.tokens, grid.heads)
        for h in range(grid.heads):
            for i in range(grid.tokens):
                row = masks.row(h, i)
                if row.size:
                    assert (np.diff(row) > 0).all()
                    assert 0 <= row[0] and row[-1] < grid.tokens
        # head-0 rows are exactly residue classes, hence self-inclusive
        # and symmetric
        for i in range(grid.tokens):
            row = masks.row(0, i)
            assert np.array_equal(row, np.arange(i % s, grid.tokens, s))
            assert i in row

    def test_head0_symmetry(self, canonical_masks):
        rng = np.random.default_rng(7)
        for i in rng.integers(0, 672, size=40):
            for j in canonical_masks.row(0, i)[:5]:
                assert i in canonical_masks.row(0, j)

    def test_rebuild_is_bit_identical(self):
        grid = GridSpec(6, 7, 3, 2.0)
        assert build_doppler_masks(grid).equals(build_doppler_masks(grid))

    def test_token_cap(self):
        with pytest.raises(ResourceLimitError):
            build_doppler_masks(GridSpec(300, 300, 2, 2.0))
        assert build_doppler_masks(GridSpec(300, 300, 2, 2.0), max_tokens=90000) is not None

    def test_default_cap_value(self):
        assert DEFAULT_TOKEN_CAP == 65536


@settings(max_examples=60, deadline=None)
@given(
    symbols=st.integers(1, 32),
    subcarriers=st.integers(1, 32),
    heads=st.integers(1, 4),
    bias=st.sampled_from([1.0, 2.0, 4.0]),
)
def test_row_lengths_match_closed_form(symbols, subcarriers, heads, bias):
    grid = GridSpec(symbols, subcarriers, heads, bias)
    masks = build_doppler_masks(grid)
    for h in range(heads):
        lengths = masks.row_lengths(h)
        for i in range(grid.tokens):
            assert lengths[i] == row_count_closedform(grid, h, i)


class TestRowCountClosedForm:
    def test_frozen_examples(self, canonical_grid):
        assert row_count_closedform(canonical_grid, 0, 368) == 26
        assert row_count_closedform(canonical_grid, 1, 368) == 28
        assert row_count_closedform(GridSpec(2, 3, 2, 2.0), 1, 0) == 0

    def test_bad_indices(self, canonical_grid):
        with pytest.raises(ValueError):
            row_count_closedform(canonical_grid, 2, 0)
        with pytest.raises(ValueError):
            row_count_closedform(canonical_grid, 0, 672)


class TestFixedStridedMasks:
    def test_strided_head_is_residue_class(self):
        grid = GridSpec(14, 48, 2, 2.0)
        masks = build_fixed_strided_masks(grid)
        assert np.array_equal(masks.row(1, 368), np.arange(4, 672, 26))

    def test_causal_frozen_examples(self):
        grid = GridSpec(2, 3, 2, 2.0)  # tokens=6, stride=3
        masks = build_fixed_strided_masks(grid, causal=True)
        assert np.array_equal(masks.row(0, 0), [0])
        assert np.array_equal(masks.row(1, 0), [0])
        assert np.array_equal(masks.row(0, 5), [3, 4, 5])
        assert np.array_equal(masks.row(1, 5), [2, 5])

    @pytest.mark.parametrize("causal", [False, True])
    def test_matches_dense_reference(self, causal):
        for shape in [(1, 1), (1, 9), (9, 1), (4, 5), (7, 11), (14, 48)]:
            grid = GridSpec(*shape, 2, 2.0)
            masks = build_fixed_strided_masks(grid, causal=causal)
            local, strided = fixed_masks_reference(grid.tokens, global_stride(grid.tokens, 2), causal)
            for i in range(grid.tokens):
                assert np.array_equal(masks.row(0, i), np.flatnonzero(local[i])), (shape, i)
                assert np.array_equal(masks.row(1, i), np.flatnonzero(strided[i])), (shape, i)

    def test_requires_two_heads(self):
        with pytest.raises(ValueError):
            build_fixed_strided_masks(GridSpec(4, 5, 3, 2.0))


class TestGridSpec:
    def test_flattening_roundtrip(self, canonical_grid):
        assert canonical_grid.flat_index(7, 32) == 368
        assert canonical_grid.grid_position(368) == (7, 32)

    def test_invalid_grids(self):
        for bad in [dict(symbols=0, subcarriers=4), dict(symbols=4, subcarriers=0),
                    dict(symbols=2, subcarriers=2, heads=0),
                    dict(symbols=2, subcarriers=2, time_bias=0.5)]:
            with pytest.raises(ValueError):
                GridSpec(**bad)

    def test_geometry_constraints(self, canonical_grid):
        geom = head_geometry(canonical_grid, 0)
        assert geom.is_global and geom.global_stride == 26
        geom1 = head_geometry(canonical_grid, 1)
        assert (geom1.stride_time, geom1.stride_freq) == (2, 13)


class TestMaskJson:
    def test_round_trip(self):
        grid = GridSpec(3, 4, 2, 2.0)
        masks = build_doppler_masks(grid)
        payload = json.loads(json.dumps(masks.to_json_dict()))
        assert payload["grid"] == {"L": 3, "K": 4, "p": 2, "lambda": 2.0, "pattern": "doppler_aware"}
        restored = SparseMaskSet.from_json_dict(payload)
        assert restored.equals(masks)

    def test_fixed_pattern_round_trip(self):
        grid = GridSpec(2, 3, 2, 2.0)
        masks = build_fixed_strided_masks(grid, causal=True)
        restored = SparseMaskSet.from_json_dict(masks.to_json_dict())
        assert restored.equals(masks)

    @pytest.mark.parametrize("heads", [[0, 0], [0, 7], [1]])
    def test_head_indices_must_be_exactly_0_to_p_minus_1(self, heads):
        payload = build_doppler_masks(GridSpec(3, 4, 2, 2.0)).to_json_dict()
        rows = payload["heads"][0]["rows"]
        payload["heads"] = [{"head": h, "rows": rows} for h in heads]
        with pytest.raises(ValueError, match="head indices"):
            SparseMaskSet.from_json_dict(payload)


    @pytest.mark.parametrize(
        "key, value",
        [("L", 2.9), ("L", "2"), ("L", True), ("K", 4.0), ("p", None), ("lambda", "2.0"), ("lambda", False),
         ("lambda", float("inf")), ("lambda", float("nan"))],
    )
    def test_grid_values_not_coerced(self, key, value):
        payload = build_doppler_masks(GridSpec(2, 4, 2, 2.0)).to_json_dict()
        payload["grid"][key] = value
        with pytest.raises(ValueError, match=f"grid {key}"):
            SparseMaskSet.from_json_dict(payload)


class TestRowValidation:
    GRID = GridSpec(2, 2, 1, 1.0)

    @pytest.mark.parametrize(
        "row, message",
        [([-1, 2], "out of range"), ([0, 4], "out of range"), ([2, 1], "ascending"), ([1, 1], "ascending"),
         ([0.0, 1.7], "integer")],
    )
    def test_malformed_row_rejected(self, row, message):
        rows = [[0], row, [], [0, 1, 2, 3]]
        with pytest.raises(ValueError, match=message):
            SparseMaskSet.from_rows(self.GRID, "doppler_aware", [rows])

    def test_descent_across_row_boundary_allowed(self):
        rows = [[3], [0, 1], [], [2]]
        masks = SparseMaskSet.from_rows(self.GRID, "doppler_aware", [rows])
        assert [masks.row(0, i).tolist() for i in range(4)] == rows

    def test_decreasing_row_pointers_rejected(self):
        indptr = np.array([0, 2, 1, 3, 3])
        with pytest.raises(ValueError, match="row pointers"):
            SparseMaskSet(self.GRID, "doppler_aware", [(indptr, np.array([0, 1, 2]))])
