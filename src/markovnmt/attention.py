"""Attention masks and multi-head attention.

The decoder's self-attention comes in two orthogonal choices:

* mask: full causal history, or a band of the last ``k`` positions
  (including the current one), so position i sees j in
  [max(0, i-k+1), i];
* key/value source: the previous layer's hidden states (contextual), or
  the layer-0 static embeddings (so a key row carries information about
  exactly one token, never a mixture smuggled in by earlier layers).

Banded masking alone does not bound the conditioning context in a deep
decoder, because hidden states mix their own windows layer over layer;
banded masking over static keys/values does. Both pieces live here so the
model code can combine them per variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .tensor import (
    Tensor,
    matmul,
    merge_heads,
    softmax_masked,
    split_heads,
)

MASK_KINDS = ("none", "causal", "banded")


def build_mask(kind: str, n: int, k: int | None = None) -> np.ndarray:
    """Build an (n, n) boolean allow-matrix for self-attention.

    kind "none" allows everything (encoder), "causal" allows j <= i,
    "banded" allows max(0, i-k+1) <= j <= i. For k >= n a band is the
    same matrix as causal, row for row.
    """
    if kind not in MASK_KINDS:
        raise ValueError(f"unknown mask kind {kind!r}")
    if n < 1:
        raise ValueError("mask size must be >= 1")
    if kind == "banded":
        if k is None or k < 1:
            raise ValueError("banded mask needs k >= 1")
    elif k is not None:
        raise ValueError(f"mask kind {kind!r} does not take k")
    if kind == "none":
        return np.ones((n, n), dtype=bool)
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    if kind == "causal":
        return j <= i
    return (j <= i) & (j >= i - k + 1)


def masked_score_count(allow: np.ndarray) -> int:
    """Number of allowed (query, key) score positions in a mask."""
    return int(np.asarray(allow, dtype=bool).sum())


@dataclass
class AttentionParams:
    """Projection weights for one multi-head attention block."""

    w_q: Tensor  # (d_model, d_model)
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    heads: int

    def head_dim(self) -> int:
        return self.w_q.shape[1] // self.heads


def project_kv(kv_src: Tensor, params: AttentionParams) -> tuple[Tensor, Tensor]:
    """Keys and values of ``kv_src``, projected and split into heads.

    (m, d) or (B, m, d) gives keys already transposed, (B·h, dh, m), and
    values, (B·h, m, dh). A source that many queries read, such as the
    encoder memory during decoding, is projected once and passed to
    :func:`multi_head_attention` in place of its source.
    """
    k = matmul(kv_src, params.w_k)
    v = matmul(kv_src, params.w_v)
    return split_heads(k, params.heads, transpose=True), split_heads(v, params.heads)


def multi_head_attention(
    query_src: Tensor,
    kv_src: Tensor | tuple[Tensor, Tensor],
    params: AttentionParams,
    allow: np.ndarray | None,
    counts: dict | None = None,
) -> Tensor:
    """Scaled dot-product attention with ``heads`` parallel heads.

    ``query_src`` is (n, d) or (B, n, d); ``kv_src`` is (m, d) or (B, m, d)
    with the same rank, or the pair :func:`project_kv` made of such a
    source. ``allow`` is a boolean array broadcastable to the (.., n, m)
    score shape, or None for all-allowed. When ``counts`` is given,
    counts["self_attn_scores"] accumulates the number of allowed score
    positions actually computed (summed over heads).
    """
    d = params.w_q.shape[0]
    dh = params.head_dim()
    if dh * params.heads != d:
        raise ValueError("d_model not divisible by head count")
    if isinstance(kv_src, tuple):
        kh_t, vh = kv_src
    elif query_src.data.ndim != kv_src.data.ndim:
        raise ValueError("query and key/value sources must have equal rank")
    else:
        kh_t, vh = project_kv(kv_src, params)
    q = matmul(query_src, params.w_q)

    if counts is not None:
        n, m = q.shape[-2], vh.shape[-2]
        batch = q.shape[0] if q.data.ndim == 3 else 1
        if allow is None:
            allowed = batch * n * m
        else:
            shape = (batch, n, m) if q.data.ndim == 3 else (n, m)
            allowed = int(np.broadcast_to(np.asarray(allow, bool), shape).sum())
        counts["self_attn_scores"] = counts.get("self_attn_scores", 0) + allowed * params.heads

    # all heads in one stack of per-(item, head) matrices; the mask gets
    # the same item-major, head-minor leading axis
    heads = params.heads
    qh = split_heads(q, heads)
    head_allow = allow
    if allow is not None and np.ndim(allow) == 3 and np.shape(allow)[0] > 1:
        head_allow = np.repeat(np.asarray(allow, bool), heads, axis=0)
    weights = softmax_masked(matmul(qh, kh_t), head_allow, 1.0 / sqrt(dh))
    ctx = merge_heads(matmul(weights, vh), heads, q.data.ndim)
    return matmul(ctx, params.w_o)


def transparent_self_attention(
    hidden: Tensor,
    static_emb: Tensor,
    params: AttentionParams,
    allow: np.ndarray | None,
    counts: dict | None = None,
) -> Tensor:
    """Self-attention with queries from one block and keys and values from
    another: the layer-0 static embeddings in transparent variants, the
    whole prefix of the layer below for a contextual decode step's top
    layer, whose queries are its newest rows.

    Shares the exact code path with :func:`multi_head_attention`, so when
    ``hidden is static_emb`` the two are bit-identical.
    """
    return multi_head_attention(hidden, static_emb, params, allow, counts)
