"""Perturbation audit of the decoder's conditioning context.

The claim under test: with a window of k over static keys/values, the
logits at target position t depend on the source and on target tokens
y_{t-k+1..t} only. The audit takes it literally: replace one target-side
input token, rerun the full forward pass, and require the logits at every
position outside that token's influence window to be *exactly* unchanged
(bitwise, not within a tolerance). Exactness is achievable because masked
attention weights are hard zeros and x + 0.0 leaves floats untouched.

A contextual-KV decoder with the same banded mask fails this audit at
depth >= 2: layer one mixes the window into its hidden states, layer two
reads those, and a token drifts outside its window.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .model import BOS_ID, EOS_ID, Model, UNK_ID, decode_forward, encode
from .tensor import no_grad, single_blas_thread


@dataclass
class Violation:
    sentence: int
    perturbed_position: int  # 1-based target input position that was edited
    logit_row: int  # decoder row whose logits moved
    delta: float


@dataclass
class AuditReport:
    """Outcome of an exhaustive single-token perturbation audit."""

    variant: str
    k: int | None
    dec_layers: int
    transparent: bool
    n_sentences: int
    n_forwards: int
    n_rows_checked: int
    max_out_of_window_delta: float
    passed: bool
    violations: list[Violation] = field(default_factory=list)

    def to_json(self) -> str:
        doc = asdict(self)
        doc["violations"] = doc["violations"][:50]  # keep reports readable
        return json.dumps(doc, indent=2, sort_keys=True)


def influence_window(cfg_k: int | None, j: int, n: int) -> np.ndarray:
    """Boolean mask over decoder rows that MAY legitimately change when
    target input position j is edited.

    Any causal decoder allows rows t >= j. A window of k further requires
    t - j < k: the edited token leaves row t's conditioning context k
    steps later.
    """
    t = np.arange(n)
    allowed = t >= j
    if cfg_k is not None:
        allowed &= (t - j) < cfg_k
    return allowed


# perturbed sequences per decode_forward call; each call adds the
# unperturbed sequence as its row 0
AUDIT_CHUNK = 16


def audit_sentence(
    model: Model,
    src_ids,
    tgt_ids,
    replacement_ids=None,
) -> tuple[float, list[tuple[int, int, float]], int, int]:
    """Exhaustively perturb each target token of one sentence.

    Returns (max out-of-window delta, violation triples, forwards, rows
    checked). ``replacement_ids`` defaults to every non-reserved id in the
    target vocabulary (UNK included). Forwards counts the unperturbed
    sequence once plus one per perturbed sequence; these run
    :data:`AUDIT_CHUNK` at a time, each chunk behind a copy of the
    unperturbed sequence that its rows are compared with, so no comparison
    depends on two batch shapes rounding alike.
    """
    cfg = model.config
    tgt_in = np.asarray([BOS_ID] + list(tgt_ids), dtype=np.int64)
    n = tgt_in.shape[0]
    if replacement_ids is None:
        replacement_ids = range(UNK_ID, cfg.tgt_vocab_size)
    replacements = np.asarray(list(replacement_ids), dtype=np.int64)
    # every (position, replacement) edit, position-major; position 0 is
    # BOS, never perturbed
    positions = np.repeat(np.arange(1, n), len(replacements))
    tokens = np.tile(replacements, n - 1)
    edited = tokens != tgt_in[positions]
    positions, tokens = positions[edited], tokens[edited]
    window = cfg.window()
    frozen = ~np.stack([influence_window(window, j, n) for j in range(n)])[positions]
    worst = 0.0
    violations: list[tuple[int, int, float]] = []
    with no_grad():
        memory = encode(model, src_ids)
        for lo in range(0, len(positions), AUDIT_CHUNK):
            pos = positions[lo : lo + AUDIT_CHUNK]
            ids = np.repeat(tgt_in[None], len(pos) + 1, axis=0)
            ids[np.arange(1, len(pos) + 1), pos] = tokens[lo : lo + AUDIT_CHUNK]
            out = decode_forward(model, memory, ids).data
            deltas = np.abs(out[1:] - out[0]).max(axis=-1)  # (edits, n)
            moved = np.where(frozen[lo : lo + AUDIT_CHUNK], deltas, 0.0)
            worst = max(worst, float(moved.max()))
            edit, rows = np.nonzero(moved > 0.0)
            violations.extend(zip(pos[edit].tolist(), rows.tolist(), moved[edit, rows].tolist()))
    return worst, violations, 1 + len(positions), int(frozen.sum())


@single_blas_thread()
def audit_model(
    model: Model,
    n_sentences: int = 3,
    src_len: int = 6,
    tgt_len: int = 8,
    seed: int = 0,
) -> AuditReport:
    """Run the perturbation audit on random token sequences.

    Random ids exercise arbitrary logit landscapes; the property is
    architectural, so it must hold for any parameters and any ids. The
    forwards run on one OpenBLAS thread (see ``single_blas_thread``).
    """
    cfg = model.config
    if tgt_len + 1 > cfg.max_len or src_len + 1 > cfg.max_len:
        raise ValueError("audit sentence lengths exceed max_len")
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    violations: list[Violation] = []
    forwards = 0
    rows_checked = 0
    for s in range(n_sentences):
        src = rng.integers(UNK_ID, cfg.src_vocab_size, size=src_len).tolist() + [EOS_ID]
        tgt = rng.integers(UNK_ID, cfg.tgt_vocab_size, size=tgt_len).tolist()
        w, v, f, r = audit_sentence(model, src, tgt)
        worst = max(worst, w)
        forwards += f
        rows_checked += r
        violations.extend(
            Violation(sentence=s, perturbed_position=j, logit_row=t, delta=d) for j, t, d in v
        )
    return AuditReport(
        variant=cfg.variant,
        k=cfg.window(),
        dec_layers=cfg.dec_layers,
        transparent=cfg.is_transparent(),
        n_sentences=n_sentences,
        n_forwards=forwards,
        n_rows_checked=rows_checked,
        max_out_of_window_delta=worst,
        passed=not violations,
        violations=violations,
    )
