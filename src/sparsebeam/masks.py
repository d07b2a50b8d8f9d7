"""Sparse multi-head attention masks over 2D time-frequency token grids.

Tokens live on an OFDM-style grid of `symbols` x `subcarriers` resource
elements, flattened row-major: token i sits at (i // subcarriers,
i % subcarriers).  Two mask families are built here:

* Doppler-aware masks: head 0 is a global strided head that attends the
  query's whole residue class modulo a stride s derived from the token
  count and head count; heads 1..p-1 attend a 2D lattice whose time and
  frequency strides are skewed by a time-bias factor.
* Fixed-strided masks: the classic two-head baseline (local window head
  plus strided head) over the flattened sequence.

Masks are stored row-compressed: one strictly ascending int64 key-index
array per (head, query).  Construction is pure and deterministic; a
rebuilt mask set compares bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError

DEFAULT_TOKEN_CAP = 65536

DOPPLER_AWARE = "doppler_aware"
FIXED_STRIDED = "fixed_strided"


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
        if self.symbols < 1 or self.subcarriers < 1:
            raise ValueError("grid needs at least one symbol and one subcarrier")
        if self.heads < 1:
            raise ValueError("head count must be >= 1")
        if not (self.time_bias >= 1.0) or not math.isfinite(self.time_bias):
            raise ValueError("time bias must be a finite real >= 1")

    @property
    def tokens(self) -> int:
        return self.symbols * self.subcarriers

    def flat_index(self, sym: int, sub: int) -> int:
        """Row-major flattening: (symbol, subcarrier) -> token index."""
        if not (0 <= sym < self.symbols and 0 <= sub < self.subcarriers):
            raise ValueError("grid position out of range")
        return sym * self.subcarriers + sub

    def grid_position(self, token: int) -> tuple[int, int]:
        if not (0 <= token < self.tokens):
            raise ValueError("token index out of range")
        return divmod(token, self.subcarriers)

    def to_json_dict(self) -> dict:
        """The grid as JSON: keys L, K, p and lambda, in that order."""
        return {"L": self.symbols, "K": self.subcarriers, "p": self.heads, "lambda": self.time_bias}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "GridSpec":
        """Inverse of `to_json_dict`.  L, K and p must be JSON integers and
        lambda a finite JSON number; nothing is coerced (`2.9` or `"2"` for
        L is a ValueError, not a 2-symbol grid)."""
        for key in ("L", "K", "p"):
            if isinstance(payload[key], bool) or not isinstance(payload[key], int):
                raise ValueError(f"grid {key} must be an integer, got {payload[key]!r}")
        lam = payload["lambda"]
        if isinstance(lam, bool) or not isinstance(lam, (int, float)) or not math.isfinite(lam):
            raise ValueError(f"grid lambda must be a finite number, got {lam!r}")
        return cls(symbols=payload["L"], subcarriers=payload["K"], heads=payload["p"], time_bias=float(lam))


@dataclass(frozen=True)
class HeadGeometry:
    """Stride layout of one attention head.

    For the global head (index 0) the 2D strides are not used; the head
    attends residue classes of the flattened index modulo
    ``global_stride``.
    """

    head: int
    stride_time: int
    stride_freq: int
    is_global: bool
    global_stride: int

    def __post_init__(self):
        if self.is_global != (self.head == 0):
            raise ValueError("head 0 and only head 0 is global")
        if self.stride_time < 1 or self.stride_freq < 1 or self.global_stride < 1:
            raise ValueError("strides must be >= 1")


def _rows_to_csr(rows):
    """CSR (indptr, indices) of per-query key rows, packed in row order."""
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


def head_geometry(grid: GridSpec, head: int) -> HeadGeometry:
    """Resolved stride layout of one head of a Doppler-aware mask set."""
    if not (0 <= head < grid.heads):
        raise ValueError("head index out of range")
    s = global_stride(grid.tokens, grid.heads)
    if head == 0:
        return HeadGeometry(head=0, stride_time=1, stride_freq=1, is_global=True, global_stride=s)
    st, sf = head_strides(s, grid.time_bias, head)
    return HeadGeometry(head=head, stride_time=st, stride_freq=sf, is_global=False, global_stride=s)


class SparseMaskSet:
    """Per-head, per-query sorted key-index lists over a token grid.

    Rows are held in compressed form (one index pointer array plus one
    flat index array per head) so row access is O(1) and the whole
    structure is immutable after construction.  Non-integer keys, keys
    outside [0, tokens) and keys not strictly ascending within a row
    raise ValueError.
    """

    def __init__(self, grid, pattern_kind, head_rows, geometries=None, causal=False):
        if pattern_kind not in (DOPPLER_AWARE, FIXED_STRIDED):
            raise ValueError(f"unknown pattern kind: {pattern_kind!r}")
        self.grid = grid
        self.pattern_kind = pattern_kind
        self.causal = bool(causal)
        self.geometries = tuple(geometries) if geometries is not None else None
        self._heads = []
        for indptr, indices in head_rows:
            if np.asarray(indptr).dtype.kind not in "iu" or np.asarray(indices).dtype.kind not in "iu":
                raise ValueError("row pointers and key indices must be integers")
            indptr = np.ascontiguousarray(indptr, dtype=np.int64)
            indices = np.ascontiguousarray(indices, dtype=np.int64)
            if (
                indptr.shape != (grid.tokens + 1,)
                or indptr[0] != 0
                or indptr[-1] != indices.size
                or (np.diff(indptr) < 0).any()
            ):
                raise ValueError("malformed row pointers")
            if indices.size and (indices.min() < 0 or indices.max() >= grid.tokens):
                raise ValueError(f"key index out of range [0, {grid.tokens})")
            # A key may only fail to rise where a new row starts.  Checked
            # with searchsorted: np.isin left ~0.5 MB resident and slowed
            # later attention passes by ~3%.
            drops = np.flatnonzero(indices[1:] <= indices[:-1]) + 1
            if (indptr[np.searchsorted(indptr, drops)] != drops).any():
                raise ValueError("keys must be strictly ascending within each row")
            indptr.setflags(write=False)
            indices.setflags(write=False)
            self._heads.append((indptr, indices))
        if len(self._heads) != grid.heads:
            raise ValueError("one row block per head required")

    @classmethod
    def from_rows(cls, grid, pattern_kind, rows_per_head, geometries=None, causal=False):
        """Build from plain per-query index lists (used by tests and JSON)."""
        if any(len(rows) != grid.tokens for rows in rows_per_head):
            raise ValueError("need one row per query")
        head_rows = [_rows_to_csr(rows) for rows in rows_per_head]
        return cls(grid, pattern_kind, head_rows, geometries=geometries, causal=causal)

    @property
    def head_count(self) -> int:
        return len(self._heads)

    @property
    def tokens(self) -> int:
        return self.grid.tokens

    def row(self, head: int, query: int) -> np.ndarray:
        """Sorted key indices attended by `query` in `head` (a view)."""
        indptr, indices = self._heads[head]
        return indices[indptr[query] : indptr[query + 1]]

    def row_lengths(self, head: int) -> np.ndarray:
        indptr, _ = self._heads[head]
        return np.diff(indptr)

    def head_csr(self, head: int) -> tuple[np.ndarray, np.ndarray]:
        return self._heads[head]

    def union_rows(self, heads=None) -> tuple[np.ndarray, np.ndarray]:
        """Merge rows across heads, deduplicated and sorted per query."""
        picked = range(self.head_count) if heads is None else list(heads)
        queries = np.arange(self.tokens, dtype=np.int64)
        rows = np.concatenate([np.repeat(queries, self.row_lengths(h)) for h in picked])
        keys = np.concatenate([self.head_csr(h)[1] for h in picked])
        return _pairs_to_csr(rows, keys, self.tokens)

    def validation_report(self) -> dict:
        """Observability hook: empty rows per head and union coverage.

        Empty head rows are legal for the Doppler-aware pattern (the
        lattice offset can fall outside the grid); the union over heads
        must still cover every query.
        """
        per_head_empty = [int((self.row_lengths(h) == 0).sum()) for h in range(self.head_count)]
        union_lengths = np.zeros(self.tokens, dtype=np.int64)
        for h in range(self.head_count):
            union_lengths += self.row_lengths(h)
        return {
            "empty_rows_per_head": per_head_empty,
            "queries_without_keys": int((union_lengths == 0).sum()),
        }

    def equals(self, other) -> bool:
        if self.grid != other.grid or self.pattern_kind != other.pattern_kind:
            return False
        if self.causal != other.causal or self.head_count != other.head_count:
            return False
        return all(
            np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
            for a, b in zip(self._heads, other._heads)
        )

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
        grid = GridSpec.from_json_dict(payload["grid"])
        entries = sorted(payload["heads"], key=lambda e: e["head"])
        if [e["head"] for e in entries] != list(range(grid.heads)):
            raise ValueError(f"head indices must be exactly 0..{grid.heads - 1}")
        rows_per_head = [e["rows"] for e in entries]
        kind = payload["grid"]["pattern"]
        geoms = None
        if kind == DOPPLER_AWARE:
            geoms = [head_geometry(grid, h) for h in range(grid.heads)]
        return cls.from_rows(grid, kind, rows_per_head, geometries=geoms, causal=payload.get("causal", False))


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
    tokens = grid.tokens
    sym, sub = grid.symbols, grid.subcarriers
    s = global_stride(tokens, grid.heads)
    geometries = [head_geometry(grid, h) for h in range(grid.heads)]

    # Global head: rows for queries in the same residue class are identical.
    members = [np.arange(r, tokens, s, dtype=np.int64) for r in range(s)]
    head_rows = [_rows_to_csr([members[i % s] for i in range(tokens)])]

    for h in range(1, grid.heads):
        st, sf = geometries[h].stride_time, geometries[h].stride_freq
        off_t, off_f = head_offsets(np.arange(tokens, dtype=np.int64), h, st, sf)
        lattice = {}
        for dt in np.unique(off_t):
            t_vals = np.arange(dt, sym, st, dtype=np.int64) * sub
            for df in np.unique(off_f):
                f_vals = np.arange(df, sub, sf, dtype=np.int64)
                lattice[(int(dt), int(df))] = (t_vals[:, None] + f_vals[None, :]).ravel()
        head_rows.append(_rows_to_csr([lattice[(int(a), int(b))] for a, b in zip(off_t, off_f)]))

    return SparseMaskSet(grid, DOPPLER_AWARE, head_rows, geometries=geometries)


def build_fixed_strided_masks(
    grid: GridSpec, causal: bool = False, max_tokens: int = DEFAULT_TOKEN_CAP
) -> SparseMaskSet:
    """Two-head fixed-strided baseline over the flattened sequence.

    Head 0 (local): row i = {j : |i - j| < s}.  Head 1 (strided):
    row i = {j : (i - j) mod s == 0}.  The bidirectional variant is the
    default since the token grid is not causal in time; `causal=True`
    restricts both heads to keys j <= i.
    """
    if grid.heads != 2:
        raise ValueError("the canonical fixed-strided pattern uses exactly 2 heads")
    _check_token_cap(grid, max_tokens)
    tokens = grid.tokens
    s = global_stride(tokens, 2)

    local_rows, strided_rows = [], []
    for i in range(tokens):
        if causal:
            local = np.arange(max(0, i - s + 1), i + 1, dtype=np.int64)
            strided = np.arange(i % s, i + 1, s, dtype=np.int64)
        else:
            local = np.arange(max(0, i - s + 1), min(tokens, i + s), dtype=np.int64)
            strided = np.arange(i % s, tokens, s, dtype=np.int64)
        local_rows.append(local)
        strided_rows.append(strided)
    head_rows = [_rows_to_csr(local_rows), _rows_to_csr(strided_rows)]
    return SparseMaskSet(grid, FIXED_STRIDED, head_rows, causal=causal)


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
        return (grid.tokens - 1 - r) // s + 1 if r < grid.tokens else 0
    st, sf = head_strides(s, grid.time_bias, head)
    off_t, off_f = head_offsets(query, head, st, sf)
    n_time = 0 if off_t >= grid.symbols else (grid.symbols - 1 - off_t) // st + 1
    n_freq = 0 if off_f >= grid.subcarriers else (grid.subcarriers - 1 - off_f) // sf + 1
    return n_time * n_freq
