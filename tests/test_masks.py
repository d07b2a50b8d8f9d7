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
    head_offsets,
    head_strides,
    row_count_closedform,
)

from conftest import BATTERY_GRIDS
from reference import doppler_masks_reference, fixed_masks_reference, row_classes_reference, stride_reference


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
        assert build_doppler_masks(grid).to_json_dict() == build_doppler_masks(grid).to_json_dict()

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


def _row_class_cases():
    for spec in BATTERY_GRIDS:
        yield f"doppler-{spec}", lambda spec=spec: build_doppler_masks(GridSpec(*spec))
        for causal in (False, True):
            yield f"fixed-{spec[:2]}-causal{causal}", (
                lambda spec=spec, causal=causal: build_fixed_strided_masks(GridSpec(*spec[:2], 2), causal=causal)
            )
    yield "doppler-64x64", lambda: build_doppler_masks(GridSpec(64, 64))


ROW_CLASS_CASES = dict(_row_class_cases())


class TestRowClasses:
    @pytest.mark.parametrize("case", ROW_CLASS_CASES)
    def test_matches_reference(self, case):
        masks = ROW_CLASS_CASES[case]()
        for h in range(masks.head_count):
            want_classes, want_reps = row_classes_reference(masks, h)
            assert np.array_equal(masks.head(h)[0], want_classes)
            assert masks.validation_report()["row_classes_per_head"][h] == want_reps.size

    def test_lazy_and_memoized(self):
        masks = build_doppler_masks(GridSpec(8, 8, 3, 2.0))
        assert masks._row_blocks == [None] * 3
        assert masks.row_blocks(2) is masks.row_blocks(2)

    def test_validation_report_counts(self, canonical_masks):
        assert build_doppler_masks(GridSpec(64, 64)).validation_report()["row_classes_per_head"] == [64, 32]
        # head 0: the 26 residues mod s; head 1: (i mod 2, i mod 13) pairs
        assert canonical_masks.validation_report()["row_classes_per_head"] == [26, 26]

    # the canonical slot with 3 and 4 heads, and 64x64 with 3: (row
    # classes, empty rows) per head; all empty rows of a head are one
    # class.  On 64x64 head 1's frequency stride (128) exceeds K (64),
    # so the 2048 queries whose frequency offset is 64 or more get an
    # empty row.
    P_HEADS_REPORTS = {
        (14, 48, 3, 1.0): ([77, 49, 49], [0, 243, 246]),
        (14, 48, 3, 2.0): ([77, 38, 76], [0, 0, 0]),
        (14, 48, 3, 4.0): ([77, 76, 57], [0, 0, 175]),
        (14, 48, 4, 1.0): ([132, 49, 49, 49], [0, 420, 420, 420]),
        (14, 48, 4, 2.0): ([132, 49, 132, 16], [0, 180, 0, 0]),
        (14, 48, 4, 4.0): ([132, 132, 15, 15], [0, 0, 84, 524]),
        (64, 64, 3, 2.0): ([256, 65, 64], [0, 2048, 0]),
    }

    @pytest.mark.parametrize("spec", P_HEADS_REPORTS)
    def test_validation_report_locked_with_more_heads(self, spec):
        classes, empty = self.P_HEADS_REPORTS[spec]
        report = build_doppler_masks(GridSpec(*spec)).validation_report()
        assert report == {"empty_rows_per_head": empty, "row_classes_per_head": classes, "queries_without_keys": 0}

    @pytest.mark.parametrize("case", ROW_CLASS_CASES)
    def test_row_blocks_pack_each_class(self, case):
        masks = ROW_CLASS_CASES[case]()
        for h in range(masks.head_count):
            packed = masks.row_blocks(h)
            real = packed.queries >= 0
            # every query with a non-empty row fills exactly one slot
            nonempty = np.flatnonzero(masks.row_lengths(h) > 0)
            assert np.array_equal(np.sort(packed.queries[real]), nonempty)
            # padded slots hold -1, and only after a block's real slots
            assert np.all(packed.queries[~real] == -1)
            assert not (real[:, 1:] & ~real[:, :-1]).any()
            assert packed.queries.size <= 3 * masks.tokens
            for b, query in zip(np.nonzero(real)[0], packed.queries[real]):
                assert np.array_equal(packed.keys[b][packed.key_valid[b]], masks.row(h, query))


class TestGridSpec:
    def test_flattening_roundtrip(self, canonical_grid):
        assert canonical_grid.flat_index(7, 32) == 368
        assert divmod(368, canonical_grid.subcarriers) == (7, 32)

    def test_invalid_grids(self):
        for bad in [dict(symbols=0, subcarriers=4), dict(symbols=4, subcarriers=0),
                    dict(symbols=2, subcarriers=2, heads=0),
                    dict(symbols=2, subcarriers=2, time_bias=0.5)]:
            with pytest.raises(ValueError):
                GridSpec(**bad)
        # counts must be integers, not floats or bools, and the error names the field
        for bad, field in [(dict(symbols=14.0, subcarriers=48), "symbols"),
                           (dict(symbols=14, subcarriers=48, heads=2.5), "heads"),
                           (dict(symbols=True, subcarriers=48), "symbols"),
                           (dict(symbols=14, subcarriers=np.float64(48)), "subcarriers")]:
            with pytest.raises(ValueError, match=field):
                GridSpec(**bad)

    @pytest.mark.parametrize("time_bias", [True, "2", None], ids=["bool", "str", "none"])
    def test_time_bias_must_be_a_number(self, time_bias):
        # True used to build masks whose JSON `from_json_dict` refuses
        with pytest.raises(ValueError, match="time_bias"):
            GridSpec(4, 6, 2, time_bias)

    def test_numpy_integer_counts_accepted(self):
        assert GridSpec(np.int64(14), 48, heads=np.int32(2)).tokens == 672

    def test_geometry_constraints(self, canonical_grid):
        s = global_stride(canonical_grid.tokens, canonical_grid.heads)
        assert s == 26
        assert head_strides(s, canonical_grid.time_bias, 1) == (2, 13)


class TestMaskJson:
    def test_round_trip(self):
        grid = GridSpec(3, 4, 2, 2.0)
        masks = build_doppler_masks(grid)
        payload = json.loads(json.dumps(masks.to_json_dict()))
        assert payload["grid"] == {"L": 3, "K": 4, "p": 2, "lambda": 2.0, "pattern": "doppler_aware"}
        restored = SparseMaskSet.from_json_dict(payload)
        assert restored.to_json_dict() == masks.to_json_dict()

    def test_fixed_pattern_round_trip(self):
        grid = GridSpec(2, 3, 2, 2.0)
        masks = build_fixed_strided_masks(grid, causal=True)
        restored = SparseMaskSet.from_json_dict(masks.to_json_dict())
        assert restored.to_json_dict() == masks.to_json_dict()

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_causal_must_be_json_bool(self, value):
        payload = build_fixed_strided_masks(GridSpec(2, 3, 2, 2.0)).to_json_dict()
        payload["causal"] = value
        with pytest.raises(ValueError, match="causal"):
            SparseMaskSet.from_json_dict(payload)

    @pytest.mark.parametrize("value", ["no", 0, 1, None, np.True_])
    def test_constructor_causal_must_be_bool(self, value):
        grid = GridSpec(2, 3, 2, 2.0)
        rows = [[[i] for i in range(grid.tokens)]] * 2
        with pytest.raises(ValueError, match="causal"):
            SparseMaskSet.from_rows(grid, "fixed_strided", rows, causal=value)

    def test_doppler_masks_cannot_be_causal(self):
        payload = build_doppler_masks(GridSpec(3, 4, 2, 2.0)).to_json_dict()
        payload["causal"] = True
        with pytest.raises(ValueError, match="causal"):
            SparseMaskSet.from_json_dict(payload)

    @pytest.mark.parametrize("heads", [[0, 0], [0, 7], [1]])
    def test_head_indices_must_be_exactly_0_to_p_minus_1(self, heads):
        payload = build_doppler_masks(GridSpec(3, 4, 2, 2.0)).to_json_dict()
        rows = payload["heads"][0]["rows"]
        payload["heads"] = [{"head": h, "rows": rows} for h in heads]
        with pytest.raises(ValueError, match="head indices"):
            SparseMaskSet.from_json_dict(payload)

    # JSON path to a value, the value put there (None deletes the key) and
    # the key the error must name; booleans are never read as 0 or 1
    @pytest.mark.parametrize(
        "path, value, key",
        [
            (["heads", 1, "head"], True, "head"),
            (["heads", 0, "rows", 1, 0], True, "rows"),
            (["grid"], None, "grid"),
            (["heads"], None, "heads"),
            (["heads", 1, "head"], None, "head"),
            (["heads", 0, "rows"], None, "rows"),
            (["grid", "pattern"], None, "pattern"),
            (["grid", "lambda"], None, "lambda"),
        ],
        ids=["head-true", "key-true", "no-grid", "no-heads", "no-head", "no-rows", "no-pattern", "no-lambda"],
    )
    def test_json_keys_required_and_not_coerced(self, path, value, key):
        payload = build_doppler_masks(GridSpec(3, 4, 2, 2.0)).to_json_dict()
        # "key-true" turns row [1, 5, ...] into [true, 5, ...]: read as 1,
        # it would be the same, valid row
        assert payload["heads"][0]["rows"][1][:2] == [1, 5]
        *parents, last = path
        target = payload
        for step in parents:
            target = target[step]
        if value is None:
            del target[last]
        else:
            target[last] = value
        with pytest.raises(ValueError, match=f"'{key}'"):
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


class TestClassForm:
    """A head given as class rows is stored as the class rows of its
    distinct per-query rows, numbered by smallest query."""

    GRID = GridSpec(2, 3, 1, 1.0)
    ROWS = [[1, 4], [0], [1, 4], [], [0], [2, 3, 5]]

    def test_class_rows_are_canonicalized(self):
        # duplicated ([1, 4], empty), unused ([0..5], a second empty row)
        # and out of order
        class_rows = [[], [0, 1, 2, 3, 4, 5], [0], [1, 4], [2, 3, 5], [1, 4], []]
        classes = np.array([3, 2, 5, 0, 2, 4])
        indptr = np.r_[0, np.cumsum([len(r) for r in class_rows])]
        indices = np.array([k for r in class_rows for k in r])
        masks = SparseMaskSet(self.GRID, "doppler_aware", [(classes, indptr, indices)])
        reference = SparseMaskSet.from_rows(self.GRID, "doppler_aware", [self.ROWS])
        for got, want in zip(masks.head(0), reference.head(0)):
            assert np.array_equal(got, want)
        assert masks.to_json_dict() == reference.to_json_dict()
        assert masks.head(0)[0].tolist() == [0, 1, 0, 2, 1, 3]
        assert [masks.row(0, i).tolist() for i in range(6)] == self.ROWS

    @given(
        pool=st.lists(st.lists(st.integers(0, 5), max_size=3, unique=True).map(sorted), min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), min_size=6, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_class_rows_merge_exactly_the_equal_rows(self, pool, picks):
        # small pools often hold twin rows, several empty rows and rows
        # that share their first key and length but differ elsewhere
        classes = np.array([p % len(pool) for p in picks])
        indptr = np.r_[0, np.cumsum([len(r) for r in pool])]
        indices = np.array([k for r in pool for k in r], dtype=np.int64)
        masks = SparseMaskSet(self.GRID, "doppler_aware", [(classes, indptr, indices)])
        rows = [tuple(pool[c]) for c in classes]
        first_seen = {}
        for row in rows:
            first_seen.setdefault(row, len(first_seen))
        assert masks.head(0)[0].tolist() == [first_seen[row] for row in rows]
        assert masks.head(0)[1].size == len(first_seen) + 1
        assert [tuple(masks.row(0, i).tolist()) for i in range(6)] == rows

    @pytest.mark.parametrize(
        "classes",
        [np.zeros(5, dtype=np.int64), np.zeros((6, 1), dtype=np.int64), np.array([0, 1, 0, -1, 1, 2]),
         np.array([0, 1, 0, 4, 1, 2]), np.array([0.0, 1.0, 0.0, 3.0, 1.0, 2.0]),
         np.array([True, False, True, False, False, True])],
        ids=["short", "2d", "negative", "past-last-row", "float", "bool"],
    )
    def test_bad_class_maps_rejected(self, classes):
        # four class rows: [1, 4], [0], [], [2, 3, 5]
        indptr, indices = np.array([0, 2, 3, 3, 6]), np.array([1, 4, 0, 2, 3, 5])
        with pytest.raises(ValueError, match="class map"):
            SparseMaskSet(self.GRID, "doppler_aware", [(classes, indptr, indices)])

    def test_doppler_masks_store_class_rows_only(self):
        # at the token cap, 33.5 M attended keys are held as 98,304 stored
        # key indices: 256 residue rows of 256 keys and 32 lattice rows
        masks = build_doppler_masks(GridSpec(256, 256))
        attended = sum(int(masks.row_lengths(h).sum()) for h in range(masks.head_count))
        stored = sum(masks.head(h)[2].size for h in range(masks.head_count))
        assert attended == 33_554_432 and stored < attended // 100


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
            SparseMaskSet(self.GRID, "doppler_aware", [(np.arange(4), indptr, np.array([0, 1, 2]))])


_BIASES = [1.0, 1.5, 2.0, 3.0, 4.0, 7.5]
_SYMBOLS = st.integers(1, 8)
_SUBCARRIERS = st.integers(1, 12)


def assert_csr_invariants(masks):
    """Each head is a class map over a well-formed CSR of class rows:
    int64 arrays, one class per query, pointers from 0 to nnz that
    never fall, keys in range and strictly ascending per row, and no key
    after its query on a causal mask."""
    tokens = masks.tokens
    for h in range(masks.head_count):
        classes, indptr, indices = masks.head(h)
        assert classes.dtype == indptr.dtype == indices.dtype == np.int64
        assert classes.shape == (tokens,) and indptr[0] == 0 and indptr[-1] == indices.size
        assert (np.diff(indptr) >= 0).all() and np.array_equal(np.diff(indptr)[classes], masks.row_lengths(h))
        for i in range(tokens):
            row = indices[indptr[classes[i]] : indptr[classes[i] + 1]]
            assert (np.diff(row) > 0).all() and ((row >= 0) & (row < tokens)).all()
            if masks.causal:
                assert (row <= i).all()


def assert_json_round_trip(masks):
    restored = SparseMaskSet.from_json_dict(json.loads(json.dumps(masks.to_json_dict())))
    assert restored.to_json_dict() == masks.to_json_dict()


class TestRandomGrids:
    """Both builders on random grids against their dense loop oracles,
    with the CSR invariants and a JSON round trip on every mask set."""

    @settings(max_examples=150, deadline=None)
    @given(symbols=_SYMBOLS, subcarriers=_SUBCARRIERS, heads=st.integers(1, 4), bias=st.sampled_from(_BIASES))
    def test_doppler_masks(self, symbols, subcarriers, heads, bias):
        masks = build_doppler_masks(GridSpec(symbols, subcarriers, heads, bias))
        dense, _ = doppler_masks_reference(symbols, subcarriers, heads, bias)
        for h in range(heads):
            for i in range(masks.tokens):
                assert np.array_equal(masks.row(h, i), np.flatnonzero(dense[h, i]))
        assert_csr_invariants(masks)
        assert_json_round_trip(masks)

    @settings(max_examples=100, deadline=None)
    @given(symbols=_SYMBOLS, subcarriers=_SUBCARRIERS, bias=st.sampled_from(_BIASES), causal=st.booleans())
    def test_fixed_strided_masks(self, symbols, subcarriers, bias, causal):
        masks = build_fixed_strided_masks(GridSpec(symbols, subcarriers, 2, bias), causal=causal)
        local, strided = fixed_masks_reference(masks.tokens, global_stride(masks.tokens, 2), causal)
        for i in range(masks.tokens):
            assert np.array_equal(masks.row(0, i), np.flatnonzero(local[i]))
            assert np.array_equal(masks.row(1, i), np.flatnonzero(strided[i]))
        assert_csr_invariants(masks)
        assert_json_round_trip(masks)
