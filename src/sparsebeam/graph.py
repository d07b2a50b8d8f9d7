"""Connectivity analysis of multi-head attention graphs.

Each mask head defines a directed graph (query -> key edges); the union
over heads is the multi-head attention graph.  This module checks the
residue-class partition induced by the global head, evaluates the
gcd bridging condition under which the union graph connects all
classes, and measures hop diameters by breadth-first search.  It
measures; it does not prove.

The search packs the union graph into a (tokens, ceil(tokens/64))
uint64 bit matrix and runs level-synchronous BFS for a chunk of
searches at once, each search's visited set held as one bit row.
Sources with the same out-row have the same distances to every other
node, so `hop_diameter` groups every row by exact equality, keeps the
classes that hold a source (all tokens, or the sampled ones), and runs
one search per class, seeded with the shared out-row at level 1; a
lone source's own entry is then reset to 0.  Chunks are sized so that
one level's gathered out-rows stay near 1 MB, the peak working set
beyond the bit matrix itself.  Each chunk is reduced to its maximum and
its candidate witness pairs before the next one runs, and the
candidates of all chunks are sorted once at the end.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ResourceLimitError
from .masks import DOPPLER_AWARE, GridSpec, SparseMaskSet, _group_rows, _pairs_to_csr, build_doppler_masks, global_stride, head_strides

DEFAULT_BFS_CAP = 4096
DEFAULT_SAMPLE_SOURCES = 1024
_WITNESS_LIMIT = 10
_CHUNK_BYTES = 1 << 20


def equivalence_classes(tokens: int, stride: int) -> list[np.ndarray]:
    """The `stride` residue classes {i : i == r mod stride} over [0, tokens)."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if tokens < 0:
        raise ValueError("token count must be >= 0")
    return [np.arange(r, tokens, stride, dtype=np.int64) for r in range(stride)]


@dataclass
class PartitionCheck:
    passed: bool
    witness: tuple[int, int] | None = None
    witness_kind: str | None = None  # "inter_class_edge" | "missing_intra_class_edge"


def verify_partition(maskset: SparseMaskSet) -> PartitionCheck:
    """Check that head 0 is a disjoint union of complete residue-class subgraphs.

    Passes iff every head-0 row equals the query's full residue class;
    an extra edge is an inter-class witness, a missing one an
    incomplete-subgraph witness.  The witness is the first failing
    query's smallest extra key, else its smallest missing one.
    """
    if maskset.pattern_kind != DOPPLER_AWARE:
        raise ValueError(f"partition check applies to {DOPPLER_AWARE} masks")
    tokens = maskset.tokens
    s = global_stride(tokens, maskset.grid.heads)
    classes, indptr, indices = maskset.head(0)
    # Row c is residue class r exactly iff it is non-empty, every key is
    # r mod s (r from its first key) and it holds all of r's keys.
    lengths = np.diff(indptr)
    residue = np.full(lengths.size, -1, dtype=np.int64)
    live = lengths > 0
    residue[live] = indices[indptr[:-1][live]] % s
    rows = np.repeat(np.arange(lengths.size), lengths)
    residue[rows[indices % s != residue[rows]]] = -1
    residue[lengths != (tokens - 1 - residue) // s + 1] = -1
    wrong = np.flatnonzero(residue[classes] != np.arange(tokens) % s)
    if not wrong.size:
        return PartitionCheck(True)
    i = int(wrong[0])
    row, expected = maskset.row(0, i), np.arange(i % s, tokens, s)
    extra = np.setdiff1d(row, expected)
    if extra.size:
        return PartitionCheck(False, witness=(i, int(extra[0])), witness_kind="inter_class_edge")
    missing = np.setdiff1d(expected, row)
    return PartitionCheck(False, witness=(i, int(missing[0])), witness_kind="missing_intra_class_edge")


def effective_step(stride_time: int, stride_freq: int, subcarriers: int) -> int:
    """gcd(stride_time * subcarriers, stride_freq): the generator of a
    head's flattened offset lattice."""
    if stride_time < 1 or stride_freq < 1 or subcarriers < 1:
        raise ValueError("arguments must be >= 1")
    return math.gcd(stride_time * subcarriers, stride_freq)


def bridging_condition(step: int, stride: int) -> bool:
    """True iff gcd(step, stride) == 1, i.e. the head can reach every
    residue class of the global head from any starting class."""
    if step < 1 or stride < 1:
        raise ValueError("arguments must be >= 1")
    return math.gcd(step, stride) == 1


def _bit(j):
    return np.left_shift(np.uint64(1), (j & 63).astype(np.uint64))


def _adjacency_bits(indptr, indices, tokens):
    """Pack a CSR graph into a (tokens, ceil(tokens/64)) uint64 bit
    matrix: bit j % 64 of word j // 64 in row i is set iff i -> j."""
    adj = np.zeros((tokens, -(-tokens // 64)), dtype=np.uint64)
    rows = np.repeat(np.arange(tokens, dtype=np.int64), np.diff(indptr))
    np.bitwise_or.at(adj, (rows, indices >> 6), _bit(indices))
    return adj


def _bfs_levels(adj, seeds):
    """Hop distances (int64, -1 if unreachable), one row per row of the
    bit matrix `seeds`: the nodes set in seeds[k] sit at level 1, and
    level-synchronous BFS runs on from them for all rows at once.

    `reach` holds each row's visited set as bits; a level ORs the
    out-rows of every frontier node per row in one `reduceat`.
    """
    tokens = adj.shape[0]
    dist = np.full((seeds.shape[0], tokens), -1, dtype=np.int64)
    reach = seeds.copy()
    fresh, active = seeds, np.arange(seeds.shape[0])
    level = 0
    while True:
        level += 1
        octets = fresh.astype("<u8", copy=False).view(np.uint8)
        bits = np.unpackbits(octets, axis=1, count=tokens, bitorder="little")
        row, nodes = np.nonzero(bits)
        if not nodes.size:
            return dist
        owner = active[row]
        dist[owner, nodes] = level
        starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
        active = owner[starts]
        fresh = np.bitwise_or.reduceat(adj[nodes], starts, axis=0)
        fresh &= ~reach[active]
        reach[active] |= fresh


def union_adjacency(maskset: SparseMaskSet, undirected: bool = False):
    """CSR adjacency of the union attention graph.

    Directed edges run query -> key exactly as the masks define them;
    `undirected=True` symmetrizes by adding each reverse edge.  To
    measure a subset of heads, build a mask set of those heads.
    """
    indptr, indices = maskset.union_rows()
    if not undirected:
        return indptr, indices
    tokens = maskset.tokens
    src = np.repeat(np.arange(tokens, dtype=np.int64), np.diff(indptr))
    return _pairs_to_csr(np.concatenate([src, indices]), np.concatenate([indices, src]), tokens)


def _twin_classes(indptr, indices, sources):
    """`sources` (ascending) grouped by exact out-row equality: class c
    holds members[bounds[c] : bounds[c + 1]], ascending.  Every row is
    grouped, sampled or not; classes with no source are dropped."""
    classes = _group_rows(indptr, indices)[sources]
    counts = np.unique(classes, return_counts=True)[1]
    return sources[np.argsort(classes, kind="stable")], np.r_[0, np.cumsum(counts)]


@dataclass
class HopDiameterResult:
    """Outcome of a BFS diameter measurement.

    diameter is None when some pair is unreachable; up to 10 witness
    pairs are kept.  `sampled` marks lower-bound estimates from a
    sampled-source run.
    """

    mode: str
    diameter: int | None
    unreachable_pairs: list[tuple[int, int]] = field(default_factory=list)
    source_count: int = 0
    sampled: bool = False

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "diameter": self.diameter,
            "unreachable_pairs": [list(p) for p in self.unreachable_pairs],
            "source_count": self.source_count,
            "sampled": self.sampled,
        }


def hop_diameter(
    maskset: SparseMaskSet,
    mode: str = "undirected",
    bfs_cap: int = DEFAULT_BFS_CAP,
    sample: bool = False,
    sample_sources: int = DEFAULT_SAMPLE_SOURCES,
    seed: int = 0,
) -> HopDiameterResult:
    """Exact hop diameter of the union attention graph by all-pairs BFS.

    Above `bfs_cap` tokens the exact sweep is refused unless
    `sample=True`, which measures from `sample_sources` uniformly drawn
    sources instead (a lower bound, flagged in the result).  At or below
    `bfs_cap` tokens `sample` is ignored and every token is a source.
    Unreachable-pair witnesses are listed by source, then target.
    """
    if mode not in ("directed", "undirected"):
        raise ValueError("mode must be 'directed' or 'undirected'")
    if sample_sources < 1:
        raise ValueError("sample_sources must be >= 1")
    tokens = maskset.tokens
    if tokens > bfs_cap and not sample:
        raise ResourceLimitError(
            f"{tokens} tokens exceeds the all-pairs BFS cap of {bfs_cap}; pass sample=True"
        )
    indptr, indices = union_adjacency(maskset, undirected=(mode == "undirected"))
    if tokens > bfs_cap:
        rng = np.random.default_rng(seed)
        sources = np.sort(rng.choice(tokens, size=min(sample_sources, tokens), replace=False))
        sampled = True
    else:
        sources = np.arange(tokens, dtype=np.int64)
        sampled = False

    # Sources with equal out-rows N are twins: d(i, t) = 1 + min over n
    # in N of d(n, t) for every t != i, so one search seeded with N at
    # level 1 gives row e with d(i, t) = e[t] for all of them.
    members, bounds = _twin_classes(indptr, indices, sources)
    firsts = members[bounds[:-1]]  # each class's smallest source

    adj = _adjacency_bits(indptr, indices, tokens)
    # Worst case, one level gathers every token's out-row for every
    # row of the chunk; size chunks so that stays near _CHUNK_BYTES.
    chunk = max(1, _CHUNK_BYTES // (tokens * adj.shape[1] * adj.itemsize))
    best = 0
    found: list[tuple[int, int]] = []
    for lo in range(0, firsts.size, chunk):
        hi = min(lo + chunk, firsts.size)
        dist = _bfs_levels(adj, adj[firsts[lo:hi]])
        # A lone source's own entry is a return path; d(i, i) = 0.  In a
        # class of twins e[i] is the distance from i's twins to i.
        lone = np.flatnonzero(np.diff(bounds[lo : hi + 1]) == 1)
        dist[lone, firsts[lo + lone]] = 0
        best = max(best, int(dist.max()))
        # The first _WITNESS_LIMIT witnesses by source, then target, are
        # among each class's first _WITNESS_LIMIT + 1 twins and targets:
        # no source needs more targets than the limit besides itself,
        # and at most one source of a class can lack a target.
        for r in np.flatnonzero((dist < 0).any(axis=1)):
            targets = np.flatnonzero(dist[r] < 0)[: _WITNESS_LIMIT + 1].tolist()
            twins = members[bounds[lo + r] : bounds[lo + r + 1]][: _WITNESS_LIMIT + 1].tolist()
            found += [(i, t) for i in twins for t in targets if t != i]
    witnesses = sorted(found)[:_WITNESS_LIMIT]
    if witnesses:
        return HopDiameterResult(mode, None, witnesses, source_count=len(sources), sampled=sampled)
    return HopDiameterResult(mode, best, [], source_count=len(sources), sampled=sampled)


@dataclass
class HeadBridging:
    head: int
    stride_time: int
    stride_freq: int
    effective_step: int
    bridging_ok: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class ConnectivityReport:
    """Everything Theorem-style connectivity analysis measures for a grid.

    The hop bound (undirected diameter <= head count) is reported, not
    asserted: the bridging condition guarantees class-to-class
    reachability, while per-query offsets can stretch concrete paths.
    """

    grid: GridSpec
    global_stride: int
    class_sizes: list[int]
    heads: list[HeadBridging]
    directed: HopDiameterResult
    undirected: HopDiameterResult
    hop_bound_satisfied: bool
    fully_connected: bool

    @property
    def bridging_heads(self) -> list[int]:
        return [h.head for h in self.heads if h.bridging_ok]

    @property
    def theorem_consistent(self) -> bool:
        """False only if bridging holds for some head yet the undirected
        union graph is disconnected (would contradict the guarantee)."""
        return not self.bridging_heads or self.fully_connected

    @property
    def unreachable_sample(self) -> list[tuple[int, int]]:
        if self.undirected.unreachable_pairs:
            return self.undirected.unreachable_pairs
        return self.directed.unreachable_pairs

    def to_json_dict(self) -> dict:
        return {
            "grid": self.grid.to_json_dict(),
            "global_stride": self.global_stride,
            "class_sizes": list(self.class_sizes),
            "heads": [h.to_json_dict() for h in self.heads],
            "directed_diameter": self.directed.diameter,
            "undirected_diameter": self.undirected.diameter,
            "directed": self.directed.to_json_dict(),
            "undirected": self.undirected.to_json_dict(),
            "unreachable_sample": [list(p) for p in self.unreachable_sample],
            "hop_bound_satisfied": self.hop_bound_satisfied,
            "fully_connected": self.fully_connected,
            "bridging_heads": self.bridging_heads,
            "theorem_consistent": self.theorem_consistent,
        }


def connectivity_report(
    grid: GridSpec,
    sample: bool = False,
    seed: int = 0,
    maskset: SparseMaskSet | None = None,
) -> ConnectivityReport:
    """Measure the connectivity of the Doppler-aware masks of `grid`,
    built here unless `maskset` (which must be of `grid`) is given.
    Above DEFAULT_BFS_CAP tokens `sample` is required (see `hop_diameter`)."""
    if maskset is None:
        maskset = build_doppler_masks(grid)
    if maskset.pattern_kind != DOPPLER_AWARE:
        raise ValueError(f"connectivity report applies to {DOPPLER_AWARE} masks")
    if maskset.grid != grid:
        raise ValueError(f"mask set grid {maskset.grid} differs from report grid {grid}")
    s = global_stride(grid.tokens, grid.heads)
    class_sizes = np.bincount(maskset.head(0)[0]).tolist()
    bridging = []
    for h in range(1, grid.heads):
        st, sf = head_strides(s, grid.time_bias, h)
        step = effective_step(st, sf, grid.subcarriers)
        bridging.append(HeadBridging(h, st, sf, step, bridging_condition(step, s)))
    directed = hop_diameter(maskset, "directed", sample=sample, seed=seed)
    undirected = hop_diameter(maskset, "undirected", sample=sample, seed=seed)
    hop_bound = undirected.diameter is not None and undirected.diameter <= grid.heads
    return ConnectivityReport(
        grid=grid,
        global_stride=s,
        class_sizes=class_sizes,
        heads=bridging,
        directed=directed,
        undirected=undirected,
        hop_bound_satisfied=hop_bound,
        fully_connected=undirected.diameter is not None,
    )
