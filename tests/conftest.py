import dataclasses

import pytest

from sparsebeam import GridSpec, SparseMaskSet, build_doppler_masks


@pytest.fixture(scope="session")
def canonical_grid():
    """The 14-symbol x 48-subcarrier slot with 2 heads and time bias 2."""
    return GridSpec(symbols=14, subcarriers=48, heads=2, time_bias=2.0)


@pytest.fixture(scope="session")
def canonical_masks(canonical_grid):
    return build_doppler_masks(canonical_grid)


# Small grids exercising both bridging outcomes, empty rows, single-head
# degeneracy and non-integer geometry; shared by mask/graph batteries.
BATTERY_GRIDS = [
    (14, 48, 2, 2.0),
    (2, 3, 2, 2.0),
    (4, 6, 2, 1.0),
    (4, 4, 2, 2.0),
    (3, 5, 1, 1.0),
    (8, 8, 3, 2.0),
    (5, 7, 2, 4.0),
    (6, 5, 4, 2.0),
    (1, 9, 2, 2.0),
    (9, 1, 2, 2.0),
    (7, 11, 3, 1.5),
]


def head_subset(masks, heads):
    """The mask set of the chosen heads of `masks`: a subset of heads is
    itself a mask set, so graph measures need no head selector."""
    grid = dataclasses.replace(masks.grid, heads=len(heads))
    return SparseMaskSet(grid, masks.pattern_kind, [masks.head(h) for h in heads])
