"""Batching, loss, optimizer, and the training loop.

Training is deterministic given the settings seed: batch composition,
batch order, dropout masks, and parameter init all flow from named PCG64
streams. The optimizer is Adam with weight decay applied as a separate
geometric shrink, deliberately not multiplied by the scheduled learning
rate, so a zero learning rate still decays weights and ignores gradients.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
from math import sqrt
from typing import Callable, Sequence

import numpy as np

from .model import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    CheckpointError,
    Model,
    decode_forward_batch,
    encode_batch,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from .tensor import NonFiniteError, Tensor, cross_entropy, no_grad, reshape, single_blas_thread


@dataclass
class Batch:
    """Padded parallel id arrays plus masks.

    ``tgt_in`` is BOS-shifted, ``tgt_out`` is EOS-terminated; row t of the
    decoder output predicts tgt_out[:, t]. ``indices`` maps rows back to
    corpus items so evaluators can align per-item metadata.
    """

    src: np.ndarray  # (B, m) int64
    src_real: np.ndarray  # (B, m) bool, True at non-pad
    tgt_in: np.ndarray  # (B, n) int64
    tgt_out: np.ndarray  # (B, n) int64
    indices: list[int]

    @property
    def n_target_tokens(self) -> int:
        return int((self.tgt_out != PAD_ID).sum())


def _pad_rows(rows: list[list[int]]) -> np.ndarray:
    width = max(len(r) for r in rows)
    out = np.full((len(rows), width), PAD_ID, dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out


def build_batch(items: Sequence[tuple[list[int], list[int]]], indices: list[int]) -> Batch:
    src_rows = [list(items[i][0]) for i in indices]
    tgt_in_rows = [[BOS_ID] + list(items[i][1]) for i in indices]
    tgt_out_rows = [list(items[i][1]) + [EOS_ID] for i in indices]
    src = _pad_rows(src_rows)
    return Batch(
        src=src,
        src_real=src != PAD_ID,
        tgt_in=_pad_rows(tgt_in_rows),
        tgt_out=_pad_rows(tgt_out_rows),
        indices=list(indices),
    )


def make_batches(
    items: Sequence[tuple[list[int], list[int]]],
    max_tokens: int,
    rng: np.random.Generator | None = None,
) -> list[Batch]:
    """Group length-sorted items under a target-token budget per batch.

    Sorting by length keeps padding waste low; the batch order (not the
    grouping) is shuffled when an rng is given.
    """
    if not items:
        raise ValueError("no items to batch")
    if max_tokens < 2:
        raise ValueError("max_tokens too small for any pair")
    order = sorted(range(len(items)), key=lambda i: (len(items[i][1]), len(items[i][0]), i))
    batches: list[Batch] = []
    group: list[int] = []
    widest = 0
    for idx in order:
        tgt_width = len(items[idx][1]) + 1
        new_widest = max(widest, tgt_width)
        if group and (len(group) + 1) * new_widest > max_tokens:
            batches.append(build_batch(items, group))
            group, widest = [], 0
            new_widest = tgt_width
        group.append(idx)
        widest = new_widest
    if group:
        batches.append(build_batch(items, group))
    if rng is not None:
        perm = rng.permutation(len(batches))
        batches = [batches[i] for i in perm]
    return batches


def make_eval_batches(
    items: Sequence[tuple[list[int], list[int]]], batch_size: int = 64
) -> list[Batch]:
    """Fixed-order batches for evaluation; no sorting, no shuffling."""
    return [
        build_batch(items, list(range(lo, min(lo + batch_size, len(items)))))
        for lo in range(0, len(items), batch_size)
    ]


def batch_logits(
    model: Model, batch: Batch, train: bool = False, rng: np.random.Generator | None = None
) -> Tensor:
    """Teacher-forced logits (B, n, V) of a batch; row t predicts tgt_out[:, t]."""
    memory = encode_batch(model, batch.src, batch.src_real, train=train, rng=rng)
    return decode_forward_batch(model, memory, batch.tgt_in, batch.src_real, train=train, rng=rng)


def batch_loss(
    model: Model,
    batch: Batch,
    label_smoothing: float = 0.0,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Smoothed cross-entropy over a batch, averaged per non-pad target token."""
    logits = batch_logits(model, batch, train, rng)
    b, n, v = logits.shape
    flat = reshape(logits, (b * n, v))
    return cross_entropy(flat, batch.tgt_out.reshape(-1), label_smoothing, ignore_index=PAD_ID)


def nll_loss(model: Model, batch: Batch) -> float:
    """Eval-mode mean negative log likelihood (no smoothing, no dropout)."""
    with no_grad():
        return float(batch_loss(model, batch, label_smoothing=0.0, train=False).data)


def corpus_nll(model: Model, items: Sequence[tuple[list[int], list[int]]]) -> float:
    """Token-weighted mean NLL over a whole corpus."""
    total, tokens = 0.0, 0
    for batch in make_eval_batches(items):
        n = batch.n_target_tokens
        total += nll_loss(model, batch) * n
        tokens += n
    if tokens == 0:
        raise ValueError("corpus has no target tokens")
    return total / tokens


@dataclass
class TrainSettings:
    steps: int = 1000
    max_tokens_per_batch: int = 2000
    base_lr: float = 0.05  # scales the inverse-sqrt schedule
    warmup: int = 400
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-9
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    label_smoothing: float = 0.1
    log_every: int = 50
    seed: int = 0

    @classmethod
    def from_dict(cls, d: dict) -> "TrainSettings":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown training keys: {sorted(unknown)}")
        return cls(**d)

    def validate(self) -> None:
        if self.steps < 1 or self.warmup < 1:
            raise ValueError("steps and warmup must be >= 1")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must be in [0, 1)")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")


def schedule_lr(base_lr: float, step: int, warmup: int) -> float:
    """Inverse-sqrt schedule with linear warmup; peaks at step == warmup."""
    if step < 1:
        raise ValueError("schedule is 1-indexed")
    return base_lr * min(step**-0.5, step * warmup**-1.5)


@dataclass
class AdamW:
    """Adam with decoupled weight decay.

    Decay multiplies 2D weight matrices by (1 - weight_decay) each step,
    independent of the learning-rate schedule; 1D tensors (biases, norm
    gains) are not decayed. Moments are kept per parameter name.
    """

    base_lr: float = 0.05
    warmup: int = 400
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-9
    weight_decay: float = 0.01
    clip_norm: float | None = 1.0
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def from_settings(cls, s: TrainSettings) -> "AdamW":
        return cls(
            base_lr=s.base_lr,
            warmup=s.warmup,
            beta1=s.beta1,
            beta2=s.beta2,
            eps=s.eps,
            weight_decay=s.weight_decay,
            clip_norm=s.clip_norm,
        )

    def clip_gradients(self, named: list[tuple[str, Tensor]]) -> float:
        """Scale all gradients so their global L2 norm is <= clip_norm."""
        sq = 0.0
        for _, p in named:
            if p.grad is not None:
                sq += float((p.grad.astype(np.float64) ** 2).sum())
        norm = sqrt(sq)
        if self.clip_norm is not None and norm > self.clip_norm > 0:
            factor = self.clip_norm / norm
            for _, p in named:
                if p.grad is not None:
                    p.grad *= factor
        return norm

    def apply(self, named: list[tuple[str, Tensor]]) -> float:
        """One optimizer step over (name, tensor) pairs; returns the lr used."""
        self.step_count += 1
        lr = schedule_lr(self.base_lr, self.step_count, self.warmup)
        self.clip_gradients(named)
        t = self.step_count
        for name, p in named:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            v = self.v[name]
            m = self.beta1 * m + (1 - self.beta1) * g
            v = self.beta2 * v + (1 - self.beta2) * g * g
            self.m[name], self.v[name] = m, v
            m_hat = m / (1 - self.beta1**t)
            v_hat = v / (1 - self.beta2**t)
            if self.weight_decay > 0 and p.data.ndim == 2:
                p.data *= 1.0 - self.weight_decay
            p.data -= (lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.data.dtype)
        return lr


def train_step(
    model: Model,
    opt: AdamW,
    batch: Batch,
    label_smoothing: float,
    rng: np.random.Generator,
) -> dict:
    """Forward, backward, clip, update. Returns step stats."""
    model.params.zero_grad()
    named = list(model.params.named())
    try:
        loss = batch_loss(model, batch, label_smoothing, train=True, rng=rng)
        loss.backward()
    except NonFiniteError as exc:
        raise NonFiniteError(
            f"{exc} at optimizer step {opt.step_count + 1}; "
            "lower base_lr or raise warmup"
        ) from exc
    lr = opt.apply(named)
    return {"loss": float(loss.data), "lr": lr, "n_tokens": batch.n_target_tokens}


@dataclass
class TrainHistory:
    entries: list[dict] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.entries[-1]["loss"] if self.entries else float("nan")


@single_blas_thread()
def train(
    model: Model,
    items: Sequence[tuple[list[int], list[int]]],
    settings: TrainSettings,
    log_path: str | None = None,
    opt: AdamW | None = None,
    hook: Callable[[int, dict], None] | None = None,
) -> TrainHistory:
    """Run ``settings.steps`` optimizer steps over shuffled token batches.

    Every log_every steps (and on the final step) a JSONL record
    {step, loss, lr, n_tokens, tokens_per_sec} is appended to log_path.
    Resuming with a loaded optimizer continues the schedule where it was.
    The steps run on one OpenBLAS thread (see ``single_blas_thread``).
    """
    settings.validate()
    if opt is None:
        opt = AdamW.from_settings(settings)
    order_rng = np.random.Generator(np.random.PCG64(settings.seed))
    dropout_rng = np.random.Generator(np.random.PCG64(settings.seed + 0x9E3779B9))
    history = TrainHistory()
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    started = time.perf_counter()
    tokens_since = 0
    try:
        done = 0
        while done < settings.steps:
            for batch in make_batches(items, settings.max_tokens_per_batch, order_rng):
                stats = train_step(model, opt, batch, settings.label_smoothing, dropout_rng)
                done += 1
                tokens_since += stats["n_tokens"]
                if done % settings.log_every == 0 or done == settings.steps:
                    elapsed = max(time.perf_counter() - started, 1e-9)
                    entry = {
                        "step": done,
                        "loss": stats["loss"],
                        "lr": stats["lr"],
                        "n_tokens": stats["n_tokens"],
                        "tokens_per_sec": tokens_since / elapsed,
                    }
                    history.entries.append(entry)
                    if log_fh:
                        log_fh.write(json.dumps(entry, sort_keys=True) + "\n")
                        log_fh.flush()
                    if hook:
                        hook(done, entry)
                    started = time.perf_counter()
                    tokens_since = 0
                if done >= settings.steps:
                    break
    finally:
        if log_fh:
            log_fh.close()
    return history


# ---------------------------------------------------------------------------
# checkpoints that carry optimizer state for exact resume


# the optimizer's settings and step, as the checkpoint meta stores them
_OPT_FIELDS = ("step_count", "base_lr", "warmup", "beta1", "beta2", "eps", "weight_decay", "clip_norm")


def save_training_checkpoint(path: str, model: Model, opt: AdamW, meta: dict | None = None) -> None:
    extra = {}
    for name, arr in opt.m.items():
        extra[f"opt.m.{name}"] = arr
    for name, arr in opt.v.items():
        extra[f"opt.v.{name}"] = arr
    opt_meta = {name: getattr(opt, name) for name in _OPT_FIELDS}
    save_checkpoint(path, model, extra_tensors=extra, meta={"optimizer": opt_meta, **(meta or {})})


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def load_training_checkpoint(path: str) -> tuple[Model, AdamW, dict]:
    """Model, optimizer and meta of a :func:`save_training_checkpoint` file.

    Optimizer settings must all be numbers (``clip_norm`` may be null),
    and every moment must be finite and shaped like the parameter it
    names, with first and second moments for the same parameters; anything
    else is a CheckpointError.
    """
    loaded = load_checkpoint(path)
    model = model_from_checkpoint(loaded)
    opt_meta = loaded.meta.get("optimizer")
    if opt_meta is None:
        raise ValueError(f"{path} has no optimizer state; use model_from_checkpoint")
    if not isinstance(opt_meta, dict):
        raise CheckpointError(f"{path}: optimizer state is not an object")
    for name in _OPT_FIELDS:
        if name not in opt_meta:
            raise CheckpointError(f"{path}: optimizer state has no {name!r}")
        value = opt_meta[name]
        if not (_is_number(value) or (name == "clip_norm" and value is None)):
            raise CheckpointError(f"{path}: optimizer {name!r} is {value!r}, not a number")
    opt = AdamW(**{name: opt_meta[name] for name in _OPT_FIELDS})
    params = model.params.tensors()
    for key, arr in loaded.tensors.items():
        for prefix, moments in (("opt.m.", opt.m), ("opt.v.", opt.v)):
            if not key.startswith(prefix):
                continue
            param = params.get(key[len(prefix) :])
            if param is None or arr.shape != param.data.shape:
                raise CheckpointError(f"{path}: moment {key!r} of shape {arr.shape} fits no parameter")
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: moment {key!r} holds NaN or Inf")
            moments[key[len(prefix) :]] = arr
    if set(opt.m) != set(opt.v):
        raise CheckpointError(f"{path}: first and second moments name different parameters")
    return model, opt, loaded.meta
