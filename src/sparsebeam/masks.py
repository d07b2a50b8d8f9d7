"""Sparse multi-head attention masks over 2D time-frequency token grids.

Tokens live on an OFDM-style grid of `symbols` x `subcarriers` resource
elements, flattened row-major: token i sits at (i // subcarriers,
i % subcarriers).  A mask set is a list of heads, each made by one of
three constructors: a residue head (query i attends its residue class
modulo a stride s), a lattice head (query i attends a 2D lattice of
time and frequency strides, offset per query) and a window head (query
i attends the keys less than a width away).  Two patterns compose them:

* Doppler-aware masks: a residue head with s derived from the token
  count and head count, then p - 1 lattice heads whose strides are
  skewed toward the time axis by a time-bias factor.
* Fixed-strided masks: the classic two-head baseline over the
  flattened sequence, a window head and a residue head, optionally
  causal.

Masks are stored by row class: query i of a head attends row classes[i]
of a CSR of the head's distinct rows, each a strictly ascending int64
key-index array.  Construction is pure and deterministic; a rebuilt
mask set compares bit-identical.  Only the dense block packing for the
attention kernel (`row_blocks`) is derived on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import ResourceLimitError, _check_count, _check_real

DEFAULT_TOKEN_CAP = 65536

DOPPLER_AWARE = "doppler_aware"
FIXED_STRIDED = "fixed_strided"


def _json_field(payload, key):
    """payload[key] of a JSON object, or a ValueError naming the key."""
    if not isinstance(payload, dict) or key not in payload:
        raise ValueError(f"missing JSON key {key!r}")
    return payload[key]


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the token grid plus attention-head configuration.

    Attributes:
        symbols: number of time steps (OFDM symbols), >= 1.
        subcarriers: number of frequency bins, >= 1.
        heads: number of attention heads, >= 1.
        time_bias: factor >= 1 skewing per-head stride allocation toward
            the time axis; larger values shrink the frequency stride.
    """

    symbols: int
    subcarriers: int
    heads: int = 2
    time_bias: float = 2.0

    def __post_init__(self):
        for name in ("symbols", "subcarriers", "heads"):
            _check_count(name, getattr(self, name), 1)
        _check_real("time_bias", self.time_bias)
        if not (self.time_bias >= 1.0) or not math.isfinite(self.time_bias):
            raise ValueError(f"time_bias must be a finite real >= 1, got {self.time_bias!r}")

    @property
    def tokens(self) -> int:
        return self.symbols * self.subcarriers

    def flat_index(self, sym: int, sub: int) -> int:
        """Row-major flattening: (symbol, subcarrier) -> token index."""
        if not (0 <= sym < self.symbols and 0 <= sub < self.subcarriers):
            raise ValueError("grid position out of range")
        return sym * self.subcarriers + sub

    def to_json_dict(self) -> dict:
        """The grid as JSON: keys L, K, p and lambda, in that order."""
        return {"L": self.symbols, "K": self.subcarriers, "p": self.heads, "lambda": self.time_bias}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "GridSpec":
        """Inverse of `to_json_dict`.  L, K and p must be JSON integers and
        lambda a finite JSON number; nothing is coerced (`2.9` or `"2"` for
        L is a ValueError, not a 2-symbol grid), and a missing key is a
        ValueError too."""
        for key in ("L", "K", "p"):
            value = _json_field(payload, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"grid {key} must be an integer, got {value!r}")
        lam = _json_field(payload, "lambda")
        if isinstance(lam, bool) or not isinstance(lam, (int, float)) or not math.isfinite(lam):
            raise ValueError(f"grid lambda must be a finite number, got {lam!r}")
        return cls(symbols=payload["L"], subcarriers=payload["K"], heads=payload["p"], time_bias=float(lam))


def _rows_to_csr(rows):
    """CSR (indptr, indices) of key rows, packed in row order."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)), out=indptr[1:])
    # Empty rows are skipped: an empty list would promote the keys to float.
    indices = np.concatenate([r for r in rows if len(r)]) if indptr[-1] else np.empty(0, dtype=np.int64)
    return indptr, indices


def _pairs_to_csr(rows, keys, tokens):
    """CSR (indptr, indices) of the (row, key) pairs, keys sorted and
    deduplicated within each row."""
    # In place, no np.unique: its temporaries raised peak RSS by about 2 MB.
    flat = rows * tokens
    flat += keys
    flat.sort()
    if flat.size:
        flat = flat[np.r_[True, flat[1:] != flat[:-1]]]
    indptr = np.zeros(tokens + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat // tokens, minlength=tokens), out=indptr[1:])
    return indptr, flat % tokens


def _take_rows(indptr, indices, rows):
    """CSR (indptr, indices) of the given rows of a CSR, in that order."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    out = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out, indices[np.repeat(starts - out[:-1], lengths) + np.arange(out[-1])]


def _group_rows(indptr, indices):
    """Group id of each CSR row: rows share an id iff they are equal.

    Rows are padded with -1 (never a key) to a common width and sorted
    with a lexsort, so equal rows become adjacent.
    """
    lengths = np.diff(indptr)
    width = max(1, int(lengths.max()))
    padded = np.full((lengths.size, width), -1, dtype=np.int64)
    padded[np.arange(width) < lengths[:, None]] = indices
    order = np.lexsort(padded.T[::-1])  # column 0 is the primary key
    ordered = padded[order]
    groups = np.empty_like(order)
    groups[order] = np.cumsum(np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)]) - 1
    return groups


def _distinct_first_and_length(indptr, indices) -> bool:
    """Whether the CSR rows have pairwise-distinct (first key, length)
    pairs, which makes them pairwise distinct without comparing keys."""
    lengths = np.diff(indptr)
    first = np.full(lengths.size, -1, dtype=np.int64)  # -1 for an empty row
    first[lengths > 0] = indices[indptr[:-1][lengths > 0]]
    pairs = np.sort((first + 1) * (indices.size + 1) + lengths)
    return not (pairs[1:] == pairs[:-1]).any()


class RowBlocks(NamedTuple):
    """A head's queries with non-empty rows, packed so that each block
    holds queries of one row class against that class's one key row.

    Blocks have n slots, n being the mean size of the non-empty classes;
    a larger class spans several blocks, so there are at most
    3 x tokens slots on any mask.  A block's real slots come first;
    padded slots hold query -1 and padded keys hold key 0, and
    `key_valid` marks the real keys.
    """

    queries: np.ndarray  # (blocks, n) query of each slot, -1 if padded
    keys: np.ndarray  # (blocks, width) the block's key row, padded
    key_valid: np.ndarray  # (blocks, width) True on the row's keys


def _pack_row_blocks(classes, indptr, indices):
    """`RowBlocks` of one head from its class map and class rows."""
    lengths = np.diff(indptr)
    sizes = np.bincount(classes, minlength=lengths.size)
    live = lengths > 0
    n = max(1, -(-int(sizes[live].sum()) // max(1, int(live.sum()))))
    blocks = np.where(live, -(-sizes // n), 0)
    order = np.argsort(classes, kind="stable")
    rank = np.arange(classes.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    slot = np.repeat((np.cumsum(blocks) - blocks) * n, sizes) + rank
    keep = np.repeat(live, sizes)
    queries = np.full(int(blocks.sum()) * n, -1, dtype=np.int64)
    queries[slot[keep]] = order[keep]

    block_class = np.repeat(np.arange(lengths.size), blocks)
    width = max(1, int(lengths.max()))
    key_valid = np.arange(width) < lengths[block_class, None]
    keys = np.zeros(key_valid.shape, dtype=np.int64)
    keys[key_valid] = indices[(indptr[block_class, None] + np.arange(width))[key_valid]]
    return RowBlocks(queries.reshape(-1, n), keys, key_valid)


def global_stride(tokens: int, heads: int) -> int:
    """Stride of the global head: ceil(tokens ** (1 - 1/heads)).

    Computed in exact integer arithmetic (smallest s with
    s**heads >= tokens**(heads-1)), so float round-off can never flip
    the result.
    """
    if tokens < 1 or heads < 1:
        raise ValueError("tokens and heads must be >= 1")
    if heads == 1:
        return 1
    target = tokens ** (heads - 1)
    s = max(1, int(tokens ** ((heads - 1) / heads)) - 2)
    while s**heads < target:
        s += 1
    return s


def head_strides(stride: int, time_bias: float, head: int) -> tuple[int, int]:
    """(time stride, frequency stride) of a non-global head.

    The frequency stride is max(1, floor(s / bias**head)) and the time
    stride max(1, floor(s / stride_freq)); with time_bias = 1 the
    frequency stride stays at s and the head degenerates to a pure
    frequency comb.
    """
    if head == 0:
        raise ValueError("the global head has no 2D strides")
    if not (time_bias >= 1.0):
        raise ValueError("time bias must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    try:
        scale = time_bias**head
    except OverflowError:
        scale = math.inf
    stride_freq = max(1, math.floor(stride / scale))
    stride_time = max(1, math.floor(stride / stride_freq))
    return stride_time, stride_freq


def head_offsets(query, head: int, stride_time: int, stride_freq: int) -> tuple:
    """Per-query lattice offsets (time offset, frequency offset); ints for
    an int query, arrays for an int64 array of queries."""
    if stride_time < 1 or stride_freq < 1:
        raise ValueError("strides must be >= 1")
    off_time = (2 * head + query % stride_time) % stride_time
    off_freq = (3 * head + query % stride_freq) % stride_freq
    return off_time, off_freq


class SparseMaskSet:
    """Multi-head attention masks over a token grid, each head stored by
    row class: the distinct sorted key-index rows once, and per query
    the row it attends.

    Each head is given, and stored, as (classes, indptr, indices): query
    i attends row classes[i] of the CSR (indptr, indices).  The
    constructor merges equal rows, drops unused ones and numbers the
    classes by their smallest query; `from_rows` gives one row per
    query.  A class map that is not an integer array of shape (tokens,)
    indexing the rows, non-integer keys, keys outside [0, tokens) and
    keys not strictly ascending within a row raise ValueError.
    """

    def __init__(self, grid, pattern_kind, head_rows, causal=False):
        if pattern_kind not in (DOPPLER_AWARE, FIXED_STRIDED):
            raise ValueError(f"unknown pattern kind: {pattern_kind!r}")
        if not isinstance(causal, bool):
            raise ValueError(f"causal must be a bool, got {causal!r}")
        if causal and pattern_kind == DOPPLER_AWARE:
            raise ValueError(f"{DOPPLER_AWARE} masks cannot be causal")
        self.grid = grid
        self.pattern_kind = pattern_kind
        self.causal = causal
        self._heads = []
        for classes, indptr, indices in head_rows:
            if any(np.asarray(a).dtype.kind not in "iu" for a in (classes, indptr, indices)):
                raise ValueError("class maps, row pointers and key indices must be integers")
            classes = np.ascontiguousarray(classes, dtype=np.int64)
            indptr = np.ascontiguousarray(indptr, dtype=np.int64)
            indices = np.ascontiguousarray(indices, dtype=np.int64)
            if (
                indptr.ndim != 1 or indptr.size == 0
                or indptr[0] != 0
                or indptr[-1] != indices.size
                or (np.diff(indptr) < 0).any()
            ):
                raise ValueError("malformed row pointers")
            if classes.shape != (grid.tokens,) or classes.min() < 0 or classes.max() >= indptr.size - 1:
                raise ValueError(f"class map must have shape ({grid.tokens},) and index the {indptr.size - 1} rows")
            if indices.size and (indices.min() < 0 or indices.max() >= grid.tokens):
                raise ValueError(f"key index out of range [0, {grid.tokens})")
            # A key may only fail to rise where a new row starts.  Checked
            # with searchsorted: np.isin left ~0.5 MB resident and slowed
            # later attention passes by ~3%.
            drops = np.flatnonzero(indices[1:] <= indices[:-1]) + 1
            if (indptr[np.searchsorted(indptr, drops)] != drops).any():
                raise ValueError("keys must be strictly ascending within each row")
            # Stored class c is the distinct row with the c-th smallest query.
            distinct = _distinct_first_and_length(indptr, indices)
            groups = classes if distinct else _group_rows(indptr, indices)[classes]
            reps = np.sort(np.unique(groups, return_index=True)[1])
            number = np.zeros(indptr.size - 1, dtype=np.int64)
            number[groups[reps]] = np.arange(reps.size)
            stored = (number[groups], *_take_rows(indptr, indices, classes[reps]))
            for array in stored:
                array.setflags(write=False)
            self._heads.append(stored)
        if len(self._heads) != grid.heads:
            raise ValueError("one row block per head required")
        self._row_blocks = [None] * len(self._heads)

    @classmethod
    def from_rows(cls, grid, pattern_kind, rows_per_head, causal=False):
        """Build from plain per-query index lists (used by tests and JSON)."""
        if any(len(rows) != grid.tokens for rows in rows_per_head):
            raise ValueError("need one row per query")
        queries = np.arange(grid.tokens, dtype=np.int64)
        return cls(grid, pattern_kind, [(queries, *_rows_to_csr(rows)) for rows in rows_per_head], causal=causal)

    @property
    def head_count(self) -> int:
        return len(self._heads)

    @property
    def tokens(self) -> int:
        return self.grid.tokens

    def row(self, head: int, query: int) -> np.ndarray:
        """Sorted key indices attended by `query` in `head` (a view)."""
        classes, indptr, indices = self._heads[head]
        return indices[indptr[classes[query]] : indptr[classes[query] + 1]]

    def row_lengths(self, head: int) -> np.ndarray:
        classes, indptr, _ = self._heads[head]
        return np.diff(indptr)[classes]

    def head(self, head: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored (classes, indptr, indices) of `head`."""
        return self._heads[head]

    def row_blocks(self, head: int) -> RowBlocks:
        """The head's non-empty rows packed as dense query blocks per row
        class (see `RowBlocks`); computed on first use and memoized."""
        if self._row_blocks[head] is None:
            self._row_blocks[head] = _pack_row_blocks(*self._heads[head])
        return self._row_blocks[head]

    def union_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Merge rows across heads, deduplicated and sorted per query."""
        queries = np.arange(self.tokens, dtype=np.int64)
        expanded = [_take_rows(indptr, indices, classes) for classes, indptr, indices in self._heads]
        rows = np.concatenate([np.repeat(queries, np.diff(indptr)) for indptr, _ in expanded])
        keys = np.concatenate([indices for _, indices in expanded])
        return _pairs_to_csr(rows, keys, self.tokens)

    def validation_report(self) -> dict:
        """Observability hook: empty rows and distinct rows (row classes)
        per head, and union coverage.

        Empty head rows are legal for the Doppler-aware pattern (the
        lattice offset can fall outside the grid); the union over heads
        must still cover every query.
        """
        per_head_empty = [int((self.row_lengths(h) == 0).sum()) for h in range(self.head_count)]
        per_head_classes = [int(self._heads[h][1].size - 1) for h in range(self.head_count)]
        union_lengths = np.zeros(self.tokens, dtype=np.int64)
        for h in range(self.head_count):
            union_lengths += self.row_lengths(h)
        return {
            "empty_rows_per_head": per_head_empty,
            "row_classes_per_head": per_head_classes,
            "queries_without_keys": int((union_lengths == 0).sum()),
        }

    def to_json_dict(self) -> dict:
        return {
            "grid": {**self.grid.to_json_dict(), "pattern": self.pattern_kind},
            "causal": self.causal,
            "heads": [
                {"head": h, "rows": [self.row(h, i).tolist() for i in range(self.tokens)]}
                for h in range(self.head_count)
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "SparseMaskSet":
        """Inverse of `to_json_dict`.  A missing key, a head index or row
        key that is not a JSON integer (`true` is not 1) and head indices
        other than exactly 0..p-1 raise ValueError."""
        grid = GridSpec.from_json_dict(_json_field(payload, "grid"))
        entries = _json_field(payload, "heads")
        heads = [_json_field(e, "head") for e in entries]
        if any(isinstance(h, bool) or not isinstance(h, int) for h in heads):
            raise ValueError(f"mask JSON 'head' must be an integer, got {heads!r}")
        if sorted(heads) != list(range(grid.heads)):
            raise ValueError(f"head indices must be exactly 0..{grid.heads - 1}")
        by_head = dict(zip(heads, entries))
        rows_per_head = [_json_field(by_head[h], "rows") for h in range(grid.heads)]
        if bool in set(map(type, chain.from_iterable(chain.from_iterable(rows_per_head)))):
            raise ValueError("mask JSON 'rows' must hold integer keys, not booleans")
        pattern = _json_field(payload["grid"], "pattern")
        return cls.from_rows(grid, pattern, rows_per_head, causal=payload.get("causal", False))


def _progressions(starts, lengths, step):
    """CSR (indptr, indices) whose row i is the arithmetic progression
    starts[i], starts[i] + step, ... of lengths[i] keys."""
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = np.arange(0, step * indptr[-1], step, dtype=np.int64)
    indices += np.repeat(starts - step * indptr[:-1], lengths)
    return indptr, indices


def _residue_head(tokens, s, causal):
    """(classes, indptr, indices) of the head whose query i attends its
    residue class {j : j == i mod s}, only keys j <= i if `causal`."""
    queries = np.arange(tokens, dtype=np.int64)
    if causal:
        # Every causal row ends at its query, so each query has its own.
        return (queries, *_progressions(queries % s, queries // s + 1, s))
    members = [np.arange(r, tokens, s, dtype=np.int64) for r in range(s)]
    return (queries % s, *_rows_to_csr(members))


def _lattice_head(grid, st, sf, head):
    """(classes, indptr, indices) of lattice head `head` with strides
    (st, sf): query i attends lattice row off_t * sf + off_f, its
    offsets from `head_offsets`."""
    queries = np.arange(grid.tokens, dtype=np.int64)
    off_t, off_f = head_offsets(queries, head, st, sf)
    sym, sub = grid.symbols, grid.subcarriers
    times = [np.arange(dt, sym, st, dtype=np.int64)[:, None] * sub for dt in range(st)]
    lattice = [(t + np.arange(df, sub, sf, dtype=np.int64)).ravel() for t in times for df in range(sf)]
    return (off_t * sf + off_f, *_rows_to_csr(lattice))


def _window_head(tokens, width, causal):
    """(classes, indptr, indices) of the head whose query i attends the
    keys j with |i - j| < width, only j <= i if `causal`; one row per
    query."""
    queries = np.arange(tokens, dtype=np.int64)
    lo = np.maximum(0, queries - width + 1)
    hi = queries + 1 if causal else np.minimum(tokens, queries + width)
    return (queries, *_progressions(lo, hi - lo, 1))


def _check_token_cap(grid: GridSpec, max_tokens: int) -> None:
    if grid.tokens > max_tokens:
        raise ResourceLimitError(
            f"grid has {grid.tokens} tokens, above the cap of {max_tokens}"
        )


def build_doppler_masks(grid: GridSpec, max_tokens: int = DEFAULT_TOKEN_CAP) -> SparseMaskSet:
    """Construct the Doppler-aware mask set for `grid`.

    Head 0 row i is exactly the residue class {j : j == i mod s} with
    s = global_stride(tokens, heads), so every query attends itself
    through head 0.  Each head h >= 1 attends the lattice
    {(t, f) : t = off_t, off_t + stride_t, ... < symbols;
              f = off_f, off_f + stride_f, ... < subcarriers}
    flattened row-major, with per-query offsets from `head_offsets`.
    Lattice rows may be empty when an offset falls outside the grid;
    they are kept as-is and surfaced by `validation_report`.
    """
    _check_token_cap(grid, max_tokens)
    s = global_stride(grid.tokens, grid.heads)
    heads = [_residue_head(grid.tokens, s, False)]
    heads += [_lattice_head(grid, *head_strides(s, grid.time_bias, h), h) for h in range(1, grid.heads)]
    return SparseMaskSet(grid, DOPPLER_AWARE, heads)


def build_fixed_strided_masks(
    grid: GridSpec, causal: bool = False, max_tokens: int = DEFAULT_TOKEN_CAP
) -> SparseMaskSet:
    """Two-head fixed-strided baseline over the flattened sequence.

    Head 0 is the window head of width s, row i = {j : |i - j| < s};
    head 1 the residue head, row i = {j : (i - j) mod s == 0}, with
    s = global_stride(tokens, 2).  The bidirectional variant is the
    default since the token grid is not causal in time; `causal=True`
    restricts both heads to keys j <= i.
    """
    if grid.heads != 2:
        raise ValueError("the canonical fixed-strided pattern uses exactly 2 heads")
    _check_token_cap(grid, max_tokens)
    s = global_stride(grid.tokens, 2)
    heads = [_window_head(grid.tokens, s, causal), _residue_head(grid.tokens, s, causal)]
    return SparseMaskSet(grid, FIXED_STRIDED, heads, causal=causal)


def row_count_closedform(grid: GridSpec, head: int, query: int) -> int:
    """Expected Doppler-aware row length without enumerating the row.

    Head 0: floor((T - 1 - r) / s) + 1 with r = query mod s.  Head
    h >= 1: the product of surviving lattice points on each axis.
    """
    if not (0 <= head < grid.heads):
        raise ValueError("head index out of range")
    if not (0 <= query < grid.tokens):
        raise ValueError("query index out of range")
    s = global_stride(grid.tokens, grid.heads)
    if head == 0:
        r = query % s
        return (grid.tokens - 1 - r) // s + 1
    st, sf = head_strides(s, grid.time_bias, head)
    off_t, off_f = head_offsets(query, head, st, sf)
    n_time = 0 if off_t >= grid.symbols else (grid.symbols - 1 - off_t) // st + 1
    n_freq = 0 if off_f >= grid.subcarriers else (grid.subcarriers - 1 - off_f) // sf + 1
    return n_time * n_freq
