"""Partition, bridging and hop-diameter checks against brute-force oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebeam import (
    GridSpec,
    ResourceLimitError,
    SparseMaskSet,
    bridging_condition,
    build_doppler_masks,
    build_fixed_strided_masks,
    connectivity_report,
    effective_step,
    equivalence_classes,
    global_stride,
    graph,
    hop_diameter,
    union_adjacency,
    verify_partition,
)

from conftest import BATTERY_GRIDS, head_subset
from reference import diameter_by_powering, hop_diameter_reference, partition_reference


def dense_union(maskset, undirected=False):
    indptr, indices = union_adjacency(maskset, undirected=undirected)
    tokens = maskset.tokens
    dense = np.zeros((tokens, tokens), dtype=bool)
    for i in range(tokens):
        dense[i, indices[indptr[i] : indptr[i + 1]]] = True
    return dense


class TestEquivalenceClasses:
    def test_tiny_enumeration(self):
        classes = equivalence_classes(6, 3)
        assert [c.tolist() for c in classes] == [[0, 3], [1, 4], [2, 5]]

    def test_canonical_sizes(self):
        sizes = [c.size for c in equivalence_classes(672, 26)]
        assert sizes[:22] == [26] * 22 and sizes[22:] == [25] * 4
        assert sum(sizes) == 672

    def test_stride_one_single_class(self):
        classes = equivalence_classes(17, 1)
        assert len(classes) == 1 and classes[0].size == 17

    def test_disjoint_cover(self):
        classes = equivalence_classes(40, 7)
        stacked = np.concatenate(classes)
        assert np.array_equal(np.sort(stacked), np.arange(40))


class TestVerifyPartition:
    def test_canonical_passes(self, canonical_masks):
        check = verify_partition(canonical_masks)
        assert check.passed and len({tuple(canonical_masks.row(0, i)) for i in range(672)}) == 26

    def test_single_head_single_component(self):
        masks = build_doppler_masks(GridSpec(3, 4, heads=1))
        check = verify_partition(masks)
        assert check.passed and np.array_equal(masks.row(0, 0), np.arange(12))

    def test_corrupted_mask_yields_witness(self, canonical_grid, canonical_masks):
        rows = [[canonical_masks.row(h, i).tolist() for i in range(672)] for h in range(2)]
        rows[0][0] = sorted(set(rows[0][0]) | {1})  # 1 is not in class 0 mod 26
        corrupted = SparseMaskSet.from_rows(canonical_grid, "doppler_aware", rows)
        check = verify_partition(corrupted)
        assert not check.passed
        assert check.witness == (0, 1)
        assert check.witness_kind == "inter_class_edge"

    def test_missing_intra_class_edge(self, canonical_grid, canonical_masks):
        rows = [[canonical_masks.row(h, i).tolist() for i in range(672)] for h in range(2)]
        rows[0][0] = rows[0][0][1:]  # drop the self edge
        check = verify_partition(SparseMaskSet.from_rows(canonical_grid, "doppler_aware", rows))
        assert not check.passed and check.witness_kind == "missing_intra_class_edge"

    @pytest.mark.parametrize("spec", BATTERY_GRIDS)
    def test_battery_always_passes(self, spec):
        assert verify_partition(build_doppler_masks(GridSpec(*spec))).passed

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        symbols=st.integers(1, 8),
        subcarriers=st.integers(1, 12),
        heads=st.integers(1, 4),
        bias=st.sampled_from([1.0, 1.5, 2.0, 4.0]),
    )
    def test_corrupted_rows_match_loop_oracle(self, data, symbols, subcarriers, heads, bias):
        grid = GridSpec(symbols, subcarriers, heads, bias)
        masks = build_doppler_masks(grid)
        rows = [[masks.row(h, i).tolist() for i in range(grid.tokens)] for h in range(heads)]
        query = st.integers(0, grid.tokens - 1)
        for kind in data.draw(st.lists(st.sampled_from(["add", "drop", "swap"]), max_size=3)):
            i = data.draw(query)
            if kind == "add":
                rows[0][i] = sorted(set(rows[0][i]) | {data.draw(query)})
            elif kind == "drop" and rows[0][i]:
                del rows[0][i][data.draw(st.integers(0, len(rows[0][i]) - 1))]
            elif kind == "swap":
                j = data.draw(query)
                rows[0][i], rows[0][j] = rows[0][j], rows[0][i]
        corrupted = SparseMaskSet.from_rows(grid, "doppler_aware", rows)
        assert verify_partition(corrupted) == partition_reference(corrupted)


class TestBridging:
    def test_frozen_examples(self):
        assert effective_step(2, 13, 48) == 1
        assert effective_step(1, 1, 7) == 1
        assert effective_step(2, 4, 6) == 4
        assert bridging_condition(1, 26)
        assert bridging_condition(4, 5)
        assert not bridging_condition(4, 6)

    def test_canonical_grid_bridges(self, canonical_grid):
        report = connectivity_report(canonical_grid)
        assert report.heads[0].effective_step == 1
        assert report.bridging_heads == [1]

    def test_square_grid_fails_bridging(self):
        report = connectivity_report(GridSpec(4, 4, 2, 2.0))
        assert report.heads[0].effective_step == 2
        assert not report.heads[0].bridging_ok
        # the condition is sufficient, not necessary: connectivity is
        # still measured and reported either way
        assert report.undirected.diameter is not None or report.unreachable_sample


class TestHopDiameter:
    def test_dense_mask_diameter_one(self):
        masks = build_doppler_masks(GridSpec(4, 5, heads=1))
        assert hop_diameter(masks, "directed").diameter == 1
        assert hop_diameter(masks, "undirected").diameter == 1

    def test_head0_only_is_unreachable_across_classes(self, canonical_masks):
        result = hop_diameter(head_subset(canonical_masks, [0]), "directed")
        assert result.diameter is None
        assert 0 < len(result.unreachable_pairs) <= 10
        src, dst = result.unreachable_pairs[0]
        assert src % 26 != dst % 26

    def test_head0_components_match_classes(self, canonical_masks):
        dense = dense_union(head_subset(canonical_masks, [0]), undirected=True)
        classes = equivalence_classes(672, 26)
        for cls in classes:
            block = dense[np.ix_(cls, cls)]
            assert block.all()
        seen = np.zeros(672, dtype=bool)
        for cls in classes:
            assert not dense[np.ix_(cls, ~np.isin(np.arange(672), cls))].any()
            seen[cls] = True
        assert seen.all()

    def test_bridged_small_grid_connects(self):
        grid = GridSpec(4, 6, 2, 1.0)  # stride 5, head strides (1, 5), step gcd(6,5)=1
        masks = build_doppler_masks(grid)
        result = hop_diameter(masks, "undirected")
        assert result.diameter is not None

    @pytest.mark.parametrize("spec", [s for s in BATTERY_GRIDS if s[0] * s[1] <= 64])
    @pytest.mark.parametrize("mode", ["directed", "undirected"])
    def test_matches_boolean_powering_oracle(self, spec, mode):
        masks = build_doppler_masks(GridSpec(*spec))
        dense = dense_union(masks, undirected=(mode == "undirected"))
        oracle_diameter, oracle_reachable = diameter_by_powering(dense)
        result = hop_diameter(masks, mode)
        assert (result.diameter is not None) == oracle_reachable
        if oracle_reachable:
            assert result.diameter == oracle_diameter

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        symbols=st.integers(1, 5),
        subcarriers=st.integers(1, 6),
        heads=st.integers(1, 3),
        mode=st.sampled_from(["directed", "undirected"]),
    )
    def test_random_masks_match_boolean_powering_oracle(self, data, symbols, subcarriers, heads, mode):
        grid = GridSpec(symbols, subcarriers, heads)
        row = st.sets(st.integers(0, grid.tokens - 1)).map(sorted)
        rows = data.draw(st.lists(st.lists(row, min_size=grid.tokens, max_size=grid.tokens), min_size=heads, max_size=heads))
        dense = np.zeros((grid.tokens, grid.tokens), dtype=bool)
        for head_rows in rows:
            for i, keys in enumerate(head_rows):
                dense[i, keys] = True
        if mode == "undirected":
            dense |= dense.T
        oracle_diameter, oracle_reachable = diameter_by_powering(dense)
        result = hop_diameter(SparseMaskSet.from_rows(grid, "doppler_aware", rows), mode)
        assert (result.diameter is not None) == oracle_reachable
        assert result.diameter == oracle_diameter

    @pytest.mark.parametrize("spec", BATTERY_GRIDS)
    @pytest.mark.parametrize("mode", ["directed", "undirected"])
    def test_battery_matches_per_source_oracle(self, spec, mode):
        masks = build_doppler_masks(GridSpec(*spec))
        assert hop_diameter(masks, mode).to_json_dict() == hop_diameter_reference(masks, mode).to_json_dict()

    @pytest.mark.parametrize("mode", ["directed", "undirected"])
    @pytest.mark.parametrize("kwargs", [{"heads": [0]}, {"bfs_cap": 100, "sample": True, "sample_sources": 32}])
    def test_canonical_matches_per_source_oracle(self, canonical_masks, mode, kwargs):
        # "heads" picks the heads of the measured mask set
        kwargs = dict(kwargs)
        masks = head_subset(canonical_masks, kwargs.pop("heads")) if "heads" in kwargs else canonical_masks
        expected = hop_diameter_reference(masks, mode, **kwargs).to_json_dict()
        assert hop_diameter(masks, mode, **kwargs).to_json_dict() == expected

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        symbols=st.integers(1, 4),
        subcarriers=st.integers(1, 6),
        heads=st.integers(1, 2),
        mode=st.sampled_from(["directed", "undirected"]),
    )
    def test_twin_rows_match_oracles(self, data, symbols, subcarriers, heads, mode):
        # Rows come from a small pool, so many queries share an out-row,
        # with or without a self-loop.
        grid = GridSpec(symbols, subcarriers, heads)
        pool = data.draw(st.lists(st.sets(st.integers(0, grid.tokens - 1)).map(sorted), min_size=1, max_size=3))
        pick = st.lists(st.sampled_from(pool), min_size=grid.tokens, max_size=grid.tokens)
        rows = [data.draw(pick) for _ in range(heads)]
        masks = SparseMaskSet.from_rows(grid, "doppler_aware", rows)
        oracle_diameter, _ = diameter_by_powering(dense_union(masks, undirected=(mode == "undirected")))
        runs = [{}]
        if grid.tokens > 1:
            sources = data.draw(st.integers(1, grid.tokens))
            runs.append({"bfs_cap": grid.tokens - 1, "sample": True, "sample_sources": sources, "seed": sources})
        for kwargs in runs:
            expected = hop_diameter_reference(masks, mode, **kwargs).to_json_dict()
            assert hop_diameter(masks, mode, **kwargs).to_json_dict() == expected
            # the smallest budget, 64 row classes per chunk, holds all of
            # these grids' classes (test_many_chunks_match_per_source_oracle
            # merges chunks)
            with mock.patch.object(graph, "_CHUNK_BYTES", 1):
                assert hop_diameter(masks, mode, **kwargs).to_json_dict() == expected
        assert hop_diameter(masks, mode).diameter == oracle_diameter

    @pytest.mark.parametrize("mode", ["directed", "undirected"])
    def test_many_chunks_match_per_source_oracle(self, mode):
        # A ring in random order over every token but 100, plus 2 random
        # keys per row, makes over 128 row classes, so the smallest
        # budget (64 classes per chunk) runs 4 chunks.  Token 100 has no
        # in-edges, so every other source has the one directed witness
        # (i, 100), and the first ten come from classes in every chunk.
        # Rows 40 and 41 are twins, row 50 is a lone source with a
        # self-loop, and most others are lone without one.
        rng = np.random.default_rng(2)
        ring = rng.permutation([t for t in range(200) if t != 100]).tolist()
        after = dict(zip(ring, ring[1:] + ring[:1]))
        rows = [sorted({after.get(i, ring[0]), *rng.choice(ring, 2, replace=False).tolist()}) for i in range(200)]
        rows[41], rows[50] = rows[40], sorted({50, *rows[50]})
        masks = SparseMaskSet.from_rows(GridSpec(1, 200, heads=1), "doppler_aware", [rows])
        indptr, indices = union_adjacency(masks, undirected=(mode == "undirected"))
        members, bounds = graph._twin_classes(indptr, indices, np.arange(200))
        assert bounds.size - 1 > 128
        chunk = np.empty(200, dtype=np.int64)
        chunk[members] = np.repeat(np.arange(bounds.size - 1) // 64, np.diff(bounds))
        if mode == "directed":
            assert set(chunk[:10]) == {0, 1, 2, 3}
        expected = hop_diameter_reference(masks, mode).to_json_dict()
        assert (expected["diameter"], expected["unreachable_pairs"]) == {
            "directed": (None, [[i, 100] for i in range(10)]),
            "undirected": (5, []),
        }[mode]
        assert hop_diameter(masks, mode).to_json_dict() == expected
        with mock.patch.object(graph, "_CHUNK_BYTES", 1):
            assert hop_diameter(masks, mode).to_json_dict() == expected

    def test_diameter_is_the_deepest_chunks_depth(self):
        # The path 0-2-4-...-198-199-197-...-3-1 has 200 undirected row
        # classes, 4 chunks at the smallest budget, and only its ends 0
        # and 1, whose classes sort into the first chunk, are 199 hops apart.
        order = [*range(0, 200, 2), *range(199, 0, -2)]
        rows = [[] for _ in range(200)]
        for a, b in zip(order, order[1:]):
            rows[a].append(b)
        masks = SparseMaskSet.from_rows(GridSpec(1, 200, heads=1), "doppler_aware", [rows])
        with mock.patch.object(graph, "_CHUNK_BYTES", 1):
            assert hop_diameter(masks, "undirected").diameter == 199

    def test_witnesses_of_interleaved_twin_classes(self):
        # Queries 0 and 5 share the row [3]; query 3 alone has [6, 7].
        # Listed class by class, (5, 0) would come before every (3, t).
        grid = GridSpec(1, 8, heads=1)
        full = list(range(8))
        rows = [[3], full, full, [6, 7], full, [3], [6], [7]]
        result = hop_diameter(SparseMaskSet.from_rows(grid, "doppler_aware", [rows]), "directed")
        expected = [(0, 1), (0, 2), (0, 4), (0, 5), (3, 0), (3, 1), (3, 2), (3, 4), (3, 5), (5, 0)]
        assert result.diameter is None and result.unreachable_pairs == expected

    def test_witnesses_when_one_twin_lacks_a_target(self):
        # Queries 0-10 share the row [11], and 11 reaches all of them but
        # 5, so 5 is the only unreachable target of the class: 5 itself
        # has no witness, and the tenth one comes from twin 10, not 11.
        grid = GridSpec(1, 12, heads=1)
        rows = [[11]] * 11 + [[j for j in range(11) if j != 5]]
        masks = SparseMaskSet.from_rows(grid, "doppler_aware", [rows])
        result = hop_diameter(masks, "directed")
        assert result.unreachable_pairs == [(j, 5) for j in range(11) if j != 5]
        assert result.to_json_dict() == hop_diameter_reference(masks, "directed").to_json_dict()

    def test_sample_skips_row_classes_without_a_source(self):
        # Every row is its own class and the seed-0 sample is {1, 2}, so
        # no search may run for class {0}; from 1 and 2 every other node
        # is one hop away, while 1's return path takes two.
        grid = GridSpec(1, 3, heads=1)
        masks = SparseMaskSet.from_rows(grid, "doppler_aware", [[[1, 2], [0, 2], [0, 1]]])
        kwargs = {"bfs_cap": 2, "sample": True, "sample_sources": 2, "seed": 0}
        result = hop_diameter(masks, "directed", **kwargs)
        assert result.diameter == 1 and result.sampled and result.source_count == 2
        assert result.to_json_dict() == hop_diameter_reference(masks, "directed", **kwargs).to_json_dict()

    @pytest.mark.parametrize(
        "spec, pairs",
        [
            ((5, 7, 2, 4.0), [(3, 0), (3, 1), (3, 2), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (3, 10), (3, 11)]),
            ((2, 3, 2, 2.0), [(0, 1), (0, 2), (0, 4), (0, 5), (3, 1), (3, 2), (3, 4), (3, 5)]),
            ((1, 9, 2, 2.0), [(0, 1), (0, 2), (0, 4), (0, 5), (0, 7), (0, 8), (2, 0), (2, 1), (2, 3), (2, 4)]),
        ],
    )
    def test_disconnected_battery_witnesses_locked(self, spec, pairs):
        assert hop_diameter(build_doppler_masks(GridSpec(*spec)), "directed").unreachable_pairs == pairs

    def test_witnesses_in_source_then_target_order(self, canonical_masks):
        result = hop_diameter(head_subset(canonical_masks, [0]), "directed")
        assert result.unreachable_pairs == [(0, j) for j in range(1, 11)]
        assert result.source_count == 672 and not result.sampled

    def test_bfs_cap_and_sampling(self, canonical_masks):
        with pytest.raises(ResourceLimitError):
            hop_diameter(canonical_masks, "undirected", bfs_cap=100)
        sampled = hop_diameter(canonical_masks, "undirected", bfs_cap=100, sample=True, sample_sources=32)
        assert sampled.sampled and sampled.source_count == 32

    def test_sampling_needs_a_source(self, canonical_masks):
        with pytest.raises(ValueError, match="sample_sources"):
            hop_diameter(canonical_masks, "undirected", bfs_cap=100, sample=True, sample_sources=0)

    @pytest.mark.parametrize(
        "field, value",
        [("bfs_cap", 2.5), ("bfs_cap", -1), ("sample_sources", True), ("sample_sources", 2.0), ("seed", 1.5),
         ("seed", -1)],
    )
    def test_rejects_bad_counts_by_name(self, canonical_masks, field, value):
        # True and 1.5 used to die inside numpy's sampler with a TypeError,
        # and bfs_cap=2.5 was taken as a cap
        kwargs = {"bfs_cap": 100, "sample": True, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            hop_diameter(canonical_masks, "undirected", **kwargs)

    def test_rejects_unknown_mode(self, canonical_masks):
        with pytest.raises(ValueError):
            hop_diameter(canonical_masks, "sideways")


class TestConnectivityReport:
    def test_canonical_fully_connected(self, canonical_grid):
        report = connectivity_report(canonical_grid)
        assert report.fully_connected
        assert report.theorem_consistent
        assert sum(report.class_sizes) == 672
        assert report.directed.diameter is not None

    def test_single_head_trivial(self):
        report = connectivity_report(GridSpec(3, 4, heads=1))
        assert report.fully_connected and report.undirected.diameter == 1
        assert report.hop_bound_satisfied

    @pytest.mark.parametrize("spec", BATTERY_GRIDS)
    def test_bridging_implies_connected(self, spec):
        report = connectivity_report(GridSpec(*spec))
        if report.bridging_heads:
            assert report.fully_connected, spec
            assert not report.undirected.unreachable_pairs

    @pytest.mark.parametrize("spec", BATTERY_GRIDS + [(14, 48, p, lam) for p in (3, 4) for lam in (1.0, 2.0, 4.0)])
    def test_class_sizes_are_the_residue_classes(self, spec):
        grid = GridSpec(*spec)
        s = global_stride(grid.tokens, grid.heads)
        sizes = [c.size for c in equivalence_classes(grid.tokens, s)]
        assert connectivity_report(grid).class_sizes == sizes

    def test_json_mirror(self, canonical_grid):
        report = connectivity_report(canonical_grid)
        payload = report.to_json_dict()
        assert payload["global_stride"] == 26
        assert payload["undirected_diameter"] == report.undirected.diameter
        assert payload["directed_diameter"] == report.directed.diameter
        assert payload["heads"][0]["bridging_ok"] is True
        assert payload["heads"] == [
            {"head": 1, "stride_time": 2, "stride_freq": 13, "effective_step": 1, "bridging_ok": True}
        ]
        assert payload["hop_bound_satisfied"] == report.hop_bound_satisfied
        assert payload["class_sizes"] == report.class_sizes

    def test_from_rows_copy_gives_same_report(self, canonical_grid, canonical_masks):
        rows = [[canonical_masks.row(h, i) for i in range(canonical_masks.tokens)]
                for h in range(canonical_masks.head_count)]
        copy = SparseMaskSet.from_rows(canonical_grid, "doppler_aware", rows)
        expected = connectivity_report(canonical_grid).to_json_dict()
        assert connectivity_report(canonical_grid, maskset=copy).to_json_dict() == expected

    def test_masks_of_another_grid_rejected(self, canonical_grid):
        # same shape, other time bias: the strides would silently mix
        other = build_doppler_masks(GridSpec(14, 48, heads=2, time_bias=4.0))
        with pytest.raises(ValueError, match="differs"):
            connectivity_report(canonical_grid, maskset=other)

    def test_fixed_strided_masks_rejected(self, canonical_grid):
        with pytest.raises(ValueError, match="doppler_aware"):
            connectivity_report(canonical_grid, maskset=build_fixed_strided_masks(canonical_grid))
