"""Masked multi-head scaled dot-product attention over sparse rows.

The sparse forward pass attends each distinct mask row (row class)
once: the queries that share a row form dense blocks against that
row's gathered keys and values.  Both passes walk each head's blocks
in tiles, slices of consecutive blocks whose temporaries stay near
cache size.  A padded slot (query -1) attends with the last token's
query; the forward writes it to a spare output row that it drops, and
the backward gives it no upstream gradient.  The dense oracle
materializes the full score matrix and masks with -inf before the
softmax.  Both paths must agree to float precision, and the
hand-written backward pass is checked against central finite
differences.  Embeddings are synthetic (seeded Gaussian): the
mechanism is under test here, not learned weights.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import _check_count
from .masks import RowBlocks, SparseMaskSet

_GRADIENT_CHECK_STEP = 1e-5
# Entries of a kernel tile's largest temporary (128 KiB of float64):
# each tile's arrays stay near cache size and are reused from the heap
# instead of being mapped and faulted in afresh.
_TILE_ENTRIES = 16384


@dataclass
class EmbeddingBlock:
    """Per-head query/key/value activations, shape (heads, tokens, head_dim)."""

    queries: np.ndarray
    keys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        arrays = [np.asarray(a) for a in (self.queries, self.keys, self.values)]
        if any(np.iscomplexobj(a) for a in arrays):
            raise ValueError("embeddings must be real, got a complex array")
        # Stored C-contiguous float64 once: `take` copies a non-contiguous
        # source whole on every call, and the kernel calls it per tile.
        q, k, v = (np.ascontiguousarray(a, dtype=np.float64) for a in arrays)
        if q.ndim != 3 or q.shape != k.shape or q.shape != v.shape:
            raise ValueError("queries, keys, values must share shape (heads, tokens, head_dim)")
        if q.shape[2] < 1:
            raise ValueError("head_dim must be >= 1")
        if not (np.isfinite(q).all() and np.isfinite(k).all() and np.isfinite(v).all()):
            raise ValueError("embeddings must be finite")
        self.queries, self.keys, self.values = q, k, v

    @property
    def heads(self) -> int:
        return self.queries.shape[0]

    @property
    def tokens(self) -> int:
        return self.queries.shape[1]

    @property
    def head_dim(self) -> int:
        return self.queries.shape[2]

    @property
    def model_dim(self) -> int:
        return self.heads * self.head_dim

    @classmethod
    def random(cls, tokens: int, model_dim: int, heads: int, seed: int = 0) -> "EmbeddingBlock":
        """Seeded standard-normal embeddings with model_dim split across heads."""
        _check_count("tokens", tokens, 0)
        _check_count("model_dim", model_dim, 0)
        _check_count("heads", heads, 1)
        if model_dim % heads:
            raise ValueError("model_dim must be divisible by the head count")
        rng = np.random.default_rng(seed)
        shape = (heads, tokens, model_dim // heads)
        return cls(rng.standard_normal(shape), rng.standard_normal(shape), rng.standard_normal(shape))


@dataclass
class AttentionResult:
    output: np.ndarray  # (tokens, model_dim), head outputs concatenated
    empty_rows: list[tuple[int, int]] = field(default_factory=list)  # (head, query)

    @property
    def empty_row_count(self) -> int:
        return len(self.empty_rows)


def _check_block(block: EmbeddingBlock, masks: SparseMaskSet) -> None:
    if block.tokens != masks.tokens:
        raise ValueError(
            f"block has {block.tokens} tokens but masks cover {masks.tokens}"
        )
    if block.heads != masks.head_count:
        raise ValueError(
            f"block has {block.heads} heads but masks define {masks.head_count}"
        )


def _tiles(packed: RowBlocks, d: int) -> list[slice]:
    """A head's row blocks in tiles of consecutive blocks whose largest
    temporary (scores, gathered K or V, or q) holds at most
    `_TILE_ENTRIES` entries, or of one block if a block alone is larger,
    in block order."""
    blocks, n = packed.queries.shape
    width = packed.keys.shape[1]
    step = max(1, _TILE_ENTRIES // max(n * width, width * d, n * d))
    return [slice(a, a + step) for a in range(0, blocks, step)]


def _class_attention(block: EmbeddingBlock, h: int, packed: RowBlocks, tile: slice):
    """Head h's softmax attention over a tile of its row blocks: q
    (blocks, n, d) against each block's gathered k, v (blocks, width,
    d).  Returns q scaled by 1/sqrt(d), k, v and the weights (blocks, n,
    width; 0 on padded keys).  A padded slot's q is the last token's,
    which only keeps its row finite: the caller drops it."""
    q = block.queries[h].take(packed.queries[tile], axis=0)
    q *= 1.0 / math.sqrt(q.shape[2])
    rows = packed.keys[tile]
    k = block.keys[h].take(rows, axis=0)
    v = block.values[h].take(rows, axis=0)
    weights = np.matmul(q, k.transpose(0, 2, 1))
    np.copyto(weights, -np.inf, where=~packed.key_valid[tile, None, :])
    # Every block row has a key, so the max is finite; exp(-inf) = 0 on padding.
    weights -= weights.max(axis=2, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=2, keepdims=True)
    return q, k, v, weights


def sparse_attention_forward(block: EmbeddingBlock, masks: SparseMaskSet) -> AttentionResult:
    """Masked attention restricted to each query's sparse key row.

    Softmax weights sum to 1 over every non-empty row; a query whose
    row is empty gets a zero head output and is recorded in
    `empty_rows` (legal for Doppler-aware masks, where the head union
    still covers the query).
    """
    _check_block(block, masks)
    d = block.head_dim
    # Padded slots (query -1) write the extra last row, which is dropped.
    output = np.zeros((block.tokens + 1, block.model_dim))
    empty: list[tuple[int, int]] = []
    for h in range(block.heads):
        packed = masks.row_blocks(h)
        for tile in _tiles(packed, d):
            _, _, v, weights = _class_attention(block, h, packed, tile)
            output[packed.queries[tile].ravel(), h * d : (h + 1) * d] = np.matmul(weights, v).reshape(-1, d)
        empty.extend((h, int(i)) for i in np.flatnonzero(masks.row_lengths(h) == 0))
    return AttentionResult(output[:-1], empty)


def dense_masked_oracle(block: EmbeddingBlock, masks: SparseMaskSet) -> AttentionResult:
    """Reference path: full TxT scores with -inf on disallowed entries.

    Kept deliberately independent of the row-class sparse path so the
    two can cross-check each other.
    """
    _check_block(block, masks)
    tokens = block.tokens
    scale = 1.0 / np.sqrt(block.head_dim)
    outputs = []
    empty: list[tuple[int, int]] = []
    for h in range(block.heads):
        allowed = np.zeros((tokens, tokens), dtype=bool)
        for i in range(tokens):
            allowed[i, masks.row(h, i)] = True
        scores = block.queries[h] @ block.keys[h].T * scale
        scores[~allowed] = -np.inf
        nonempty = allowed.any(axis=1)
        for i in np.flatnonzero(~nonempty):
            empty.append((h, int(i)))
        row_max = np.where(nonempty, scores.max(axis=1), 0.0)
        expd = np.exp(scores - row_max[:, None])
        expd[~allowed] = 0.0
        denom = expd.sum(axis=1)
        weights = np.where(nonempty[:, None], expd / np.where(nonempty, denom, 1.0)[:, None], 0.0)
        outputs.append(weights @ block.values[h])
    return AttentionResult(np.concatenate(outputs, axis=1), empty)


def sparse_attention_backward(block: EmbeddingBlock, masks: SparseMaskSet, d_out):
    """Gradients (d_q, d_k, d_v) of sum(output * d_out) w.r.t. every
    Q/K/V entry, where output is `sparse_attention_forward(block,
    masks).output` and d_out, shaped like it, is the upstream gradient.

    Recomputes the forward on the same row-class layout and tiles.
    """
    _check_block(block, masks)
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.shape != (block.tokens, block.model_dim):
        raise ValueError(f"d_out must have shape {(block.tokens, block.model_dim)}, got {d_out.shape}")
    d = block.head_dim
    scale = 1.0 / math.sqrt(d)
    d_q = np.zeros_like(block.queries)
    d_k = np.zeros_like(block.keys)
    d_v = np.zeros_like(block.values)
    for h in range(block.heads):
        packed = masks.row_blocks(h)
        # Tiles run in block order, so np.add.at sums in the same order
        # as one pass over the whole head.
        for tile in _tiles(packed, d):
            q, k, v, weights = _class_attention(block, h, packed, tile)
            queries = packed.queries[tile]
            real = queries >= 0
            g = d_out[queries, h * d : (h + 1) * d]
            g[~real] = 0.0  # padded slots carry no gradient
            valid = packed.key_valid[tile]
            keys = packed.keys[tile][valid]
            # values: each attended v_j collects weight * upstream gradient
            np.add.at(d_v[h], keys, np.matmul(weights.transpose(0, 2, 1), g)[valid])
            # softmax backward: ds = w * (a - sum_j w_j a_j), a = g . v_j
            a = np.matmul(g, v.transpose(0, 2, 1))
            ds = weights * (a - (weights * a).sum(axis=2, keepdims=True))
            d_q[h][queries[real]] = (np.matmul(ds, k) * scale)[real]
            np.add.at(d_k[h], keys, np.matmul(ds.transpose(0, 2, 1), q)[valid])
    return d_q, d_k, d_v


def _loss_and_gradients(block: EmbeddingBlock, masks: SparseMaskSet):
    """Sum-of-squares loss of the sparse forward plus its gradients
    w.r.t. every Q/K/V entry."""
    out = sparse_attention_forward(block, masks).output
    return (float((out**2).sum()), *sparse_attention_backward(block, masks, 2.0 * out))


def gradient_check(block: EmbeddingBlock, masks: SparseMaskSet) -> float:
    """Max relative error between backprop and central-difference
    gradients (step 1e-5) of the sum-of-squares output loss.

    Relative error uses max(|analytic|, |numeric|, 1e-8) as denominator.
    Intended for desk-scale blocks (tokens <= 64, model_dim <= 16).
    """
    _, d_q, d_k, d_v = _loss_and_gradients(block, masks)

    def loss_of(q, k, v):
        trial = EmbeddingBlock(q, k, v)
        out = sparse_attention_forward(trial, masks).output
        return float((out**2).sum())

    worst = 0.0
    # Perturb private copies (C-contiguous, like the block's arrays, so
    # reshape(-1) is a view): the caller's block is never written.
    arrays = tuple(a.copy() for a in (block.queries, block.keys, block.values))
    grads = (d_q, d_k, d_v)
    for arr, grad in zip(arrays, grads):
        flat = arr.reshape(-1)
        for pos in range(flat.size):
            orig = flat[pos]
            flat[pos] = orig + _GRADIENT_CHECK_STEP
            up = loss_of(*arrays)
            flat[pos] = orig - _GRADIENT_CHECK_STEP
            down = loss_of(*arrays)
            flat[pos] = orig
            numeric = (up - down) / (2.0 * _GRADIENT_CHECK_STEP)
            analytic = grad.ravel()[pos]
            denom = max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst


def attended_keys_histogram(masks: SparseMaskSet) -> list[dict[int, int]]:
    """Histogram of row lengths per head, `{row length: query count}`
    in increasing length: each query counts once."""
    per_head = []
    for h in range(masks.head_count):
        counts = Counter(int(n) for n in masks.row_lengths(h))
        per_head.append(dict(sorted(counts.items())))
    return per_head
