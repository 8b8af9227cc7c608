"""Encoder-decoder transformer with a configurable decoder context.

Three decoder variants share one code path:

* AT: causal mask, keys/values from the previous layer's hidden states.
* TAT: causal mask, keys/values always from the static embeddings.
* MAT: banded mask of width k over static keys/values, which bounds the
  conditioning context of every output to the source plus the previous k
  target tokens, at any depth.

The encoder is a standard bidirectional transformer in all variants, and
cross-attention always reads the encoder's final hidden states.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from math import sqrt
from typing import Iterator

import numpy as np

from .attention import (
    AttentionParams,
    build_mask,
    multi_head_attention,
    project_kv,
    transparent_self_attention,
)
from .tensor import (
    Tensor,
    add,
    checked,
    dropout,
    embedding,
    layer_norm,
    matmul,
    relu,
    reshape,
    scale,
    transpose_last,
)

VARIANTS = ("AT", "TAT", "MAT")

# reserved vocabulary ids, fixed across the package
PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3


class ConfigError(ValueError):
    """Model configuration failed validation; message lists every problem."""


class CheckpointError(RuntimeError):
    """Checkpoint file is malformed, truncated, or inconsistent."""


@dataclass
class ModelConfig:
    variant: str = "MAT"
    k: int | None = 3  # decoder window width; MAT only
    enc_layers: int = 2
    dec_layers: int = 2
    heads: int = 4
    d_model: int = 64
    d_ff: int = 128
    src_vocab_size: int = 8
    tgt_vocab_size: int = 8
    max_len: int = 64
    dropout: float = 0.1
    post_layernorm: bool = True  # post-LN residual blocks; False gives pre-LN
    static_includes_position: bool = True
    # None = variant default (AT contextual, TAT/MAT static). Forcing False on
    # MAT gives the banded-but-contextual ablation, which leaks.
    transparent: bool | None = None
    seed: int = 0

    def is_transparent(self) -> bool:
        if self.transparent is not None:
            return bool(self.transparent)
        return self.variant in ("TAT", "MAT")

    def window(self) -> int | None:
        """Effective decoder window width; None means unbounded."""
        return self.k if self.variant == "MAT" else None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


def validate_config(cfg: ModelConfig) -> list[str]:
    """Collect every validation problem instead of stopping at the first."""
    errs: list[str] = []
    if cfg.variant not in VARIANTS:
        errs.append(f"variant must be one of {VARIANTS}, got {cfg.variant!r}")
    if cfg.variant == "MAT":
        if cfg.k is None or cfg.k < 1:
            errs.append("MAT requires window k >= 1")
    elif cfg.k is not None:
        errs.append(f"k is only meaningful for MAT, got k={cfg.k} with {cfg.variant}")
    for name in ("enc_layers", "dec_layers", "heads", "d_model", "d_ff", "max_len"):
        if getattr(cfg, name) < 1:
            errs.append(f"{name} must be >= 1")
    if cfg.heads >= 1 and cfg.d_model % cfg.heads != 0:
        errs.append(f"d_model={cfg.d_model} not divisible by heads={cfg.heads}")
    for name in ("src_vocab_size", "tgt_vocab_size"):
        if getattr(cfg, name) <= UNK_ID + 1:
            errs.append(f"{name} must exceed the {UNK_ID + 1} reserved ids")
    if not 0.0 <= cfg.dropout < 1.0:
        errs.append("dropout must be in [0, 1)")
    if cfg.max_len < 2:
        errs.append("max_len must be >= 2")
    return errs


def ensure_valid(cfg: ModelConfig) -> ModelConfig:
    errs = validate_config(cfg)
    if errs:
        raise ConfigError("; ".join(errs))
    return cfg


@dataclass
class LayerNormParams:
    gain: Tensor
    bias: Tensor


@dataclass
class FeedForwardParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class EncoderLayerParams:
    attn: AttentionParams
    ln_attn: LayerNormParams
    ffn: FeedForwardParams
    ln_ffn: LayerNormParams


@dataclass
class DecoderLayerParams:
    self_attn: AttentionParams
    cross_attn: AttentionParams
    ln_self: LayerNormParams
    ln_cross: LayerNormParams
    ffn: FeedForwardParams
    ln_ffn: LayerNormParams


@dataclass
class Parameters:
    src_embed: Tensor  # (V_src, d)
    tgt_embed: Tensor  # (V_tgt, d); transposed, this is also the output projection
    enc: list[EncoderLayerParams]
    dec: list[DecoderLayerParams]
    enc_final_ln: LayerNormParams | None = None  # pre-LN variants only
    dec_final_ln: LayerNormParams | None = None

    def named(self) -> Iterator[tuple[str, Tensor]]:
        """Every parameter with its dotted path, in field order: the checkpoint's order."""
        return _named_tensors(self, "")

    def zero_grad(self) -> None:
        for _, t in self.named():
            t.zero_grad()


def _named_tensors(node, path: str) -> Iterator[tuple[str, Tensor]]:
    # an attention block's head count and a post-LN model's absent final
    # norms are neither a tensor, a list nor a dataclass: they yield nothing
    if isinstance(node, Tensor):
        yield path, node
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _named_tensors(item, f"{path}.{i}")
    elif is_dataclass(node):
        for f in fields(node):
            yield from _named_tensors(getattr(node, f.name), f"{path}.{f.name}" if path else f.name)


def sinusoidal_positions(max_len: int, d_model: int) -> np.ndarray:
    """Fixed sin/cos positional table, shape (max_len, d_model), float32.

    Even columns carry sin, odd columns cos, sharing a frequency per pair:
    angle(pos, 2i) = pos / 10000^(2i / d_model).
    """
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    i = np.arange(0, d_model, 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, i / d_model)
    table = np.zeros((max_len, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : d_model // 2])
    return table.astype(np.float32)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float32)


def _attn_params(rng: np.random.Generator, d: int, heads: int) -> AttentionParams:
    return AttentionParams(
        w_q=Tensor(_glorot(rng, d, d), requires_grad=True),
        w_k=Tensor(_glorot(rng, d, d), requires_grad=True),
        w_v=Tensor(_glorot(rng, d, d), requires_grad=True),
        w_o=Tensor(_glorot(rng, d, d), requires_grad=True),
        heads=heads,
    )


def _ln_params(d: int) -> LayerNormParams:
    return LayerNormParams(
        gain=Tensor(np.ones(d, dtype=np.float32), requires_grad=True),
        bias=Tensor(np.zeros(d, dtype=np.float32), requires_grad=True),
    )


def _ffn_params(rng: np.random.Generator, d: int, d_ff: int) -> FeedForwardParams:
    return FeedForwardParams(
        w1=Tensor(_glorot(rng, d, d_ff), requires_grad=True),
        b1=Tensor(np.zeros(d_ff, dtype=np.float32), requires_grad=True),
        w2=Tensor(_glorot(rng, d_ff, d), requires_grad=True),
        b2=Tensor(np.zeros(d, dtype=np.float32), requires_grad=True),
    )


def init_parameters(cfg: ModelConfig, rng: np.random.Generator) -> Parameters:
    d, h = cfg.d_model, cfg.heads
    params = Parameters(
        src_embed=Tensor(_glorot(rng, cfg.src_vocab_size, d), requires_grad=True),
        tgt_embed=Tensor(_glorot(rng, cfg.tgt_vocab_size, d), requires_grad=True),
        enc=[
            EncoderLayerParams(
                attn=_attn_params(rng, d, h),
                ln_attn=_ln_params(d),
                ffn=_ffn_params(rng, d, cfg.d_ff),
                ln_ffn=_ln_params(d),
            )
            for _ in range(cfg.enc_layers)
        ],
        dec=[
            DecoderLayerParams(
                self_attn=_attn_params(rng, d, h),
                ln_self=_ln_params(d),
                cross_attn=_attn_params(rng, d, h),
                ln_cross=_ln_params(d),
                ffn=_ffn_params(rng, d, cfg.d_ff),
                ln_ffn=_ln_params(d),
            )
            for _ in range(cfg.dec_layers)
        ],
    )
    if not cfg.post_layernorm:
        params.enc_final_ln = _ln_params(d)
        params.dec_final_ln = _ln_params(d)
    return params


@dataclass
class Model:
    config: ModelConfig
    params: Parameters
    pos_table: np.ndarray = field(repr=False, default=None)  # (max_len, d) constant

    def __post_init__(self):
        if self.pos_table is None:
            self.pos_table = sinusoidal_positions(self.config.max_len, self.config.d_model)


def parameter_count(cfg: ModelConfig) -> int:
    """The number of floats in the parameters ``build_model(cfg)`` makes,
    computed without making them."""
    d, d_ff = cfg.d_model, cfg.d_ff
    attn, ln, ffn = 4 * d * d, 2 * d, 2 * d * d_ff + d_ff + d
    final_lns = 0 if cfg.post_layernorm else 2 * ln
    return (
        (cfg.src_vocab_size + cfg.tgt_vocab_size) * d
        + cfg.enc_layers * (attn + ffn + 2 * ln)
        + cfg.dec_layers * (2 * attn + ffn + 3 * ln)
        + final_lns
    )


def build_model(cfg: ModelConfig) -> Model:
    ensure_valid(cfg)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    return Model(config=cfg, params=init_parameters(cfg, rng))


# ---------------------------------------------------------------------------
# forward passes


def _maybe_dropout(x: Tensor, cfg: ModelConfig, train: bool, rng) -> Tensor:
    if train and cfg.dropout > 0.0:
        return dropout(x, cfg.dropout, rng)
    return x


def _residual_block(x: Tensor, sublayer, ln: LayerNormParams, cfg: ModelConfig, train: bool, rng) -> Tensor:
    """One residual sublayer. Post-LN: LN(x + drop(f(x))). Pre-LN: x + drop(f(LN(x))).
    Its output is a finite-check boundary (see :func:`checked`)."""

    def block() -> Tensor:
        if cfg.post_layernorm:
            return layer_norm(add(x, _maybe_dropout(sublayer(x), cfg, train, rng)), ln.gain, ln.bias)
        normed = layer_norm(x, ln.gain, ln.bias)
        return add(x, _maybe_dropout(sublayer(normed), cfg, train, rng))

    return checked(block, rng if train and cfg.dropout > 0.0 else None)


def embed_source(model: Model, ids: np.ndarray, train: bool = False, rng=None) -> Tensor:
    """Token embedding * sqrt(d) + positional, for (m,) or (B, m) ids."""
    cfg = model.config
    n = ids.shape[-1]
    if n > cfg.max_len:
        raise ValueError(f"source length {n} exceeds max_len {cfg.max_len}")

    def block() -> Tensor:
        emb = scale(embedding(model.params.src_embed, ids), sqrt(cfg.d_model))
        return add(emb, Tensor(model.pos_table[:n]))

    return _maybe_dropout(checked(block), cfg, train, rng)


def embed_target_static(model: Model, ids: np.ndarray, offset: int = 0) -> Tensor:
    """Static decoder-side embedding: token embedding * sqrt(d), plus the
    positional term unless the config excludes it from the static source.

    This is the layer-0 decoder input and, in transparent variants, the
    key/value source at every layer. ``offset`` shifts the positional rows
    for incremental decoding of a suffix.
    """
    cfg = model.config
    n = ids.shape[-1]
    if offset + n > cfg.max_len:
        raise ValueError(f"target positions {offset + n} exceed max_len {cfg.max_len}")

    def block() -> Tensor:
        emb = scale(embedding(model.params.tgt_embed, ids), sqrt(cfg.d_model))
        if cfg.static_includes_position:
            emb = add(emb, Tensor(model.pos_table[offset : offset + n]))
        return emb

    return checked(block)


def _ffn(x: Tensor, p: FeedForwardParams) -> Tensor:
    return add(matmul(relu(add(matmul(x, p.w1), p.b1)), p.w2), p.b2)


def encode_batch(
    model: Model,
    src_ids: np.ndarray,
    src_real: np.ndarray | None = None,
    train: bool = False,
    rng=None,
) -> Tensor:
    """Run the encoder over (B, m) ids; returns (B, m, d) hidden states.

    ``src_real`` marks non-pad positions (B, m); pad keys are masked out of
    every attention row. Pass None when nothing is padded.
    """
    cfg = model.config
    h = embed_source(model, src_ids, train, rng)
    allow = None if src_real is None else np.asarray(src_real, bool)[:, None, :]
    for layer in model.params.enc:
        h = _residual_block(
            h, lambda z: multi_head_attention(z, z, layer.attn, allow), layer.ln_attn, cfg, train, rng
        )
        h = _residual_block(h, lambda z: _ffn(z, layer.ffn), layer.ln_ffn, cfg, train, rng)
    final = model.params.enc_final_ln
    if final is not None:
        h = checked(lambda: layer_norm(h, final.gain, final.bias))
    return h


def encode(model: Model, src_ids, train: bool = False, rng=None) -> Tensor:
    """Encode one sentence; (m,) ids -> (m, d) memory."""
    ids = np.asarray(src_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError("encode takes a single id sequence; use encode_batch for batches")
    h = encode_batch(model, ids[None], None, train, rng)
    return reshape(h, h.shape[1:])


def decoder_self_mask(cfg: ModelConfig, n: int) -> np.ndarray:
    if cfg.variant == "MAT":
        return build_mask("banded", n, cfg.k)
    return build_mask("causal", n)


def project_memory(model: Model, memory: Tensor) -> list[tuple[Tensor, Tensor]]:
    """Every decoder layer's cross-attention keys and values of ``memory``
    (m, d) or (S, m, d), projected once for :func:`decode_hidden`'s
    ``cross_kv``."""
    return [project_kv(memory, layer.cross_attn) for layer in model.params.dec]


def decode_hidden(
    model: Model,
    static: Tensor,
    cross_kv: list[tuple[Tensor, Tensor]],
    self_allow: np.ndarray | None,
    mem_allow: np.ndarray | None = None,
    train: bool = False,
    rng=None,
    counts: dict | None = None,
    kv: Tensor | None = None,
) -> Tensor:
    """Decoder stack from a prepared static-embedding block to final hidden.

    ``static`` is (B, n, d), the layer-0 input. In transparent
    variants ``kv`` is the key/value source of every self-attention; it
    defaults to ``static``, and a decode step passes the newest row as
    ``static`` and its window as ``kv``.

    In contextual variants each self-attention reads keys and values from
    its own layer's input. A ``self_allow`` with q < n rows, the last q
    rows of the mask, asks for the last q rows of hidden state only, as a
    decode step does: the layers below the top still run over all n rows
    under :func:`decoder_self_mask`, because the top layer reads them as
    keys and values, and the top layer runs for the last q rows alone.
    Those rows are cut from the layer below without a gradient path, so
    this form is for inference only.

    ``cross_kv`` is the encoder memory of S sentences, projected by
    :func:`project_memory`. The B rows of ``static`` are S groups of B/S
    rows, one group per sentence, and ``mem_allow`` is (S, 1, m) or None.
    """
    cfg = model.config
    transparent = cfg.is_transparent()
    if kv is None:
        kv = static
    n = static.shape[-2]
    rows = n if transparent or self_allow is None else self_allow.shape[-2]
    prefix_allow = self_allow if rows == n else decoder_self_mask(cfg, n)
    top = len(model.params.dec) - 1
    h = static
    for i, layer in enumerate(model.params.dec):
        ln = layer.ln_self
        if transparent:
            context, allow = kv, self_allow
        elif i < top or rows == n:
            context, allow = None, prefix_allow  # keys and values from the queries' own rows
        else:
            # queries from the last rows, keys and values from every row
            # of the layer below, as its sublayer would see them
            context = h if cfg.post_layernorm else checked(lambda: layer_norm(h, ln.gain, ln.bias))
            allow = self_allow
            h = Tensor(h.data[..., n - rows :, :])
        h = _residual_block(
            h,
            lambda z: multi_head_attention(z, z, layer.self_attn, allow, counts)
            if context is None
            else transparent_self_attention(z, context, layer.self_attn, allow, counts),
            ln,
            cfg,
            train,
            rng,
        )
        h = _residual_block(
            h,
            lambda z: _cross_attention(z, cross_kv[i], layer.cross_attn, mem_allow),
            layer.ln_cross,
            cfg,
            train,
            rng,
        )
        h = _residual_block(h, lambda z: _ffn(z, layer.ffn), layer.ln_ffn, cfg, train, rng)
    final = model.params.dec_final_ln
    if final is not None:
        h = checked(lambda: layer_norm(h, final.gain, final.bias))
    return h


def _cross_attention(
    z: Tensor, kv: tuple[Tensor, Tensor], params: AttentionParams, mem_allow
) -> Tensor:
    """Cross-attention over S sentences' memory, projected by
    :func:`project_memory`. Each sentence's B/S rows of (B, n, d) queries
    form one block of queries, which attend independently, so no key/value
    block is repeated per row."""
    groups = kv[0].shape[0] // params.heads
    rows, n, d = z.shape
    if rows == groups:
        return multi_head_attention(z, kv, params, mem_allow)
    blocks = reshape(z, (groups, rows // groups * n, d))
    out = multi_head_attention(blocks, kv, params, mem_allow)
    return reshape(out, (rows, n, d))


def output_logits(model: Model, hidden: Tensor) -> Tensor:
    """Project hidden states onto the vocabulary with the tied target
    embedding (no separate output matrix, no bias). The logits are a
    finite-check boundary (see :func:`checked`)."""
    return checked(lambda: matmul(hidden, transpose_last(model.params.tgt_embed)))


def decode_forward(model: Model, memory: Tensor, tgt_in_ids, train: bool = False, rng=None) -> Tensor:
    """Full teacher-forced decoder pass over one sentence's memory (m, d).

    ``tgt_in_ids`` is the shifted target (BOS, y1, ..., y_{n-1}), shape (n,),
    or R such sequences, shape (R, n). Returns logits (n, V), or (R, n, V),
    where row t predicts y_{t+1}.
    """
    ids = np.asarray(tgt_in_ids, dtype=np.int64)
    if ids.ndim not in (1, 2):
        raise ValueError("decode_forward takes (n,) or (R, n) ids")
    logits = decode_forward_batch(model, memory, np.atleast_2d(ids), None, train, rng)
    return logits if ids.ndim == 2 else reshape(logits, logits.shape[1:])


def decode_forward_batch(
    model: Model,
    memory: Tensor,
    tgt_in_ids: np.ndarray,
    src_real: np.ndarray | None = None,
    train: bool = False,
    rng=None,
) -> Tensor:
    """Teacher-forced decoder pass over (B, n) target ids; logits (B, n, V).

    ``memory`` is a padded batch (B, m, d), whose source pads ``src_real``
    (B, m) marks, or one sentence's (m, d), which all B rows read.
    Target pads sit at sequence ends, so causal/banded masks already keep
    them out of real rows; only source pads need masking in cross-attention.
    """
    ids = np.asarray(tgt_in_ids, dtype=np.int64)
    static = embed_target_static(model, ids)
    allow = decoder_self_mask(model.config, ids.shape[-1])
    mem_allow = None if src_real is None else np.asarray(src_real, bool)[:, None, :]
    cross_kv = project_memory(model, memory)
    hidden = decode_hidden(model, static, cross_kv, allow, mem_allow, train, rng)
    return output_logits(model, hidden)


# ---------------------------------------------------------------------------
# checkpoints: one JSON header line, then raw little-endian float32 payload

CHECKPOINT_MAGIC = "markovnmt-checkpoint"
CHECKPOINT_VERSION = 2


def save_checkpoint(
    path: str,
    model: Model,
    extra_tensors: dict[str, np.ndarray] | None = None,
    meta: dict | None = None,
) -> None:
    """Write config + parameters (+ optional extra arrays) to ``path``.

    Layout: a single JSON header line holding the config, a tensor
    manifest (name, shape, byte offset) and the names of the extra
    tensors, then the concatenated raw little-endian float32 buffers in
    manifest order. Round-trips bit-exactly.
    """
    path = os.fspath(path)
    extras = sorted(extra_tensors or {})
    entries = [(n, t.data) for n, t in model.params.named()]
    entries += [(n, np.asarray(extra_tensors[n])) for n in extras]
    manifest = []
    offset = 0
    blobs = []
    for name, arr in entries:
        buf = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(buf)
        offset += len(buf)
    header = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "tensors": manifest,
        "extras": extras,
        "payload_bytes": offset,
        "meta": meta or {},
    }
    header_line = json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(header_line.encode("utf-8"))
        for buf in blobs:
            fh.write(buf)
    os.replace(tmp, path)


@dataclass
class LoadedCheckpoint:
    model: Model
    extras: dict[str, np.ndarray]  # the non-parameter tensors, such as optimizer moments
    meta: dict


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def load_checkpoint(path: str) -> LoadedCheckpoint:
    """Read a checkpoint into the model its stored config builds.

    Every manifest entry must name a parameter of that model or a declared
    extra, and the tensors must tile the payload in manifest order: each
    starts where the one before it ends, the first at 0 and the last at
    the payload's end. Every parameter and declared extra must be there,
    each parameter shaped as the config implies and finite. Anything else
    is a CheckpointError. The model is built only once the payload is
    large enough to hold its parameters.
    """
    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            payload = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {os.fspath(path)}: {exc.strerror}") from exc
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    if header.get("format") != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint file (bad format marker)")
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version!r}")
    expected = header.get("payload_bytes")
    if expected != len(payload):
        raise CheckpointError(f"payload is {len(payload)} bytes, header promises {expected}")
    try:
        cfg = ensure_valid(ModelConfig.from_dict(header["config"]))
        # the parameters must fit in the payload before any is made, so
        # that memory follows the file and not what its header claims
        needed = 4 * parameter_count(cfg)
        if needed > len(payload):
            raise CheckpointError(f"config needs {needed} bytes of parameters, payload holds {len(payload)}")
        model = build_model(cfg)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad config in checkpoint: {exc}") from exc
    params = dict(model.params.named())
    manifest = header.get("tensors")
    meta = header.get("meta", {})
    if not isinstance(manifest, list) or not isinstance(meta, dict):
        raise CheckpointError("checkpoint header has no tensor list or a malformed meta")
    declared = header.get("extras")
    if not (isinstance(declared, list) and all(isinstance(n, str) for n in declared)):
        raise CheckpointError("checkpoint header has no list of extra tensor names")
    arrays: dict[str, np.ndarray] = {}  # read-only views of the payload
    end = 0
    for entry in manifest:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise CheckpointError(f"malformed manifest entry {entry!r}")
        name, shape, start = entry["name"], entry.get("shape"), entry.get("offset")
        if name in arrays:
            raise CheckpointError(f"tensor {name!r} listed twice")
        if name not in params and name not in declared:
            raise CheckpointError(f"tensor {name!r} is neither a parameter nor a declared extra")
        if not (isinstance(shape, list) and all(_is_count(n) for n in shape)):
            raise CheckpointError(f"tensor {name!r} has malformed shape {shape!r}")
        if not _is_count(start) or start != end:
            raise CheckpointError(f"tensor {name!r} at offset {start!r}, expected {end}")
        end = start + math.prod(shape) * 4
        if end > len(payload):
            raise CheckpointError(f"tensor {name!r} truncated")
        arrays[name] = np.frombuffer(payload, "<f4", math.prod(shape), start).reshape(shape)
    if end != len(payload):
        raise CheckpointError(f"tensors cover {end} of {len(payload)} payload bytes")
    for name, param in params.items():
        if name not in arrays:
            raise CheckpointError(f"checkpoint missing parameter {name!r}")
        arr = arrays.pop(name)
        if arr.shape != param.data.shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {arr.shape}, config implies {param.data.shape}"
            )
        if not np.isfinite(arr).all():
            raise CheckpointError(f"parameter {name!r} holds NaN or Inf")
        param.data = arr.astype(np.float32)  # a copy, which replaces the initial draw
    missing = set(declared) - set(arrays)
    if missing:
        raise CheckpointError(f"declared extra tensors missing: {sorted(missing)}")
    extras = {name: arr.astype(np.float32) for name, arr in arrays.items()}  # what is left
    return LoadedCheckpoint(model=model, extras=extras, meta=meta)
