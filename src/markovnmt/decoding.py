"""Incremental decoding without key/value caches.

Because transparent variants read self-attention keys and values from the
static embeddings, a decode step never needs previous layers' hidden
states: the windowed variant keeps the last k static rows (k * d_model
floats, constant in sequence length), the unwindowed transparent variant
keeps the full static history (d_model floats per token, no per-layer
growth), and both compute only the new row per step. The contextual
variant has no such shortcut; it keeps the same static history, and each
step reruns every layer but the top over the whole prefix, whose rows are
the next layer's keys and values. The top layer's output feeds only the
logits, so it runs for the newest row alone.

One state class, :class:`DecoderState`, holds every decode: the rows
(sentence x beam hypothesis) of up to :data:`BATCH_SENTENCES` sentences,
which all hold the same number of tokens, so their static rows stack into
one (rows, w, d) block. Each decoder layer's cross-attention keys and
values are projected once per sentence. :func:`incremental_step` returns
the next-token logits of every row, (rows, V); a single hypothesis
stepped by hand is a one-row state.

Per-step instrumentation counts attention scores actually computed so the
closed-form complexity report can be checked against reality.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    Model,
    ModelConfig,
    decode_hidden,
    decoder_self_mask,
    embed_target_static,
    encode_batch,
    output_logits,
    project_memory,
)
# imported so that per-module tracing (bench/spans.py) finds them here too
from .attention import multi_head_attention, transparent_self_attention  # noqa: F401
from .model import encode  # noqa: F401
from .tensor import Tensor, no_grad


def _window(cfg: ModelConfig) -> int | None:
    """Static rows a decode state keeps: k for transparent MAT, else all."""
    return cfg.k if cfg.variant == "MAT" and cfg.is_transparent() else None


class DecoderState:
    """Decode state of S sentences with R rows (hypotheses) each, stepping
    together. Row r belongs to sentence r // R. Every row holds the same
    number of tokens, so the static rows stack into one (S*R, w, d) block:
    the last k for windowed MAT, all of them otherwise. That block is the
    only per-token state; the encoder memory's cross-attention keys and
    values, projected once per sentence, are read-only and not part of the
    per-token accounting.
    """

    def __init__(self, model: Model, src_batch: Sequence):
        self.model = model
        srcs = [np.asarray(s, dtype=np.int64) for s in src_batch]
        ids = np.full((len(srcs), max(len(s) for s in srcs)), PAD_ID, dtype=np.int64)
        for i, s in enumerate(srcs):
            ids[i, : len(s)] = s
        real = ids != PAD_ID
        if real.all():
            real = None
        self.mem_allow = None if real is None else real[:, None, :]
        with no_grad():
            memory = encode_batch(model, ids, real)
            self.cross_kv = project_memory(model, memory)
            bos = np.full((len(srcs), 1), BOS_ID, dtype=np.int64)
            self.static = embed_target_static(model, bos).data
        self.sentences = len(srcs)
        self.step = 1  # tokens pushed so far (BOS); also the next position
        self.counts: dict = {}

    def resident_floats(self) -> int:
        """Float count of per-token decoder state one row holds."""
        return self.static.shape[1] * self.static.shape[2]

    def advance(self, keep: np.ndarray, parents: np.ndarray, tokens: np.ndarray) -> None:
        """Keep sentences ``keep`` (indices into the current ones, in order);
        new row i continues row ``parents[i]`` with ``tokens[i]``."""
        cfg = self.model.config
        if self.step >= cfg.max_len:
            raise ValueError(f"decoded past max_len={cfg.max_len}")
        if len(keep) < self.sentences:
            def select(t: Tensor) -> Tensor:
                by_sentence = t.data.reshape((self.sentences, cfg.heads) + t.shape[1:])
                return Tensor(by_sentence[keep].reshape((-1,) + t.shape[1:]))

            self.cross_kv = [(select(kh_t), select(vh)) for kh_t, vh in self.cross_kv]
            if self.mem_allow is not None:
                self.mem_allow = self.mem_allow[keep]
            self.sentences = len(keep)
        kept = self.static[parents]
        k = _window(cfg)
        if k is not None:
            kept = kept[:, max(0, kept.shape[1] + 1 - k):]
        ids = np.asarray(tokens, dtype=np.int64)[:, None]
        with no_grad():
            new = embed_target_static(self.model, ids, offset=self.step).data
        self.static = np.concatenate([kept, new], axis=1)
        self.step += 1

    def push(self, token_id: int) -> None:
        """Append one token to a one-row state."""
        self.advance([0], [0], [token_id])

    def clone(self) -> "DecoderState":
        # advance replaces the arrays it changes and never edits them in
        # place, so a shallow copy with its own counts is independent
        twin = copy.copy(self)
        twin.counts = dict(self.counts)
        return twin


def init_state(model: Model, src_ids) -> DecoderState:
    """Encode one source and seed its one-row state with BOS."""
    return DecoderState(model, [src_ids])


def incremental_step(state: DecoderState) -> np.ndarray:
    """Next-token logits (rows, V) of every row of ``state``."""
    cfg = state.model.config
    static, counts = state.static, state.counts
    with no_grad():
        if cfg.is_transparent():
            # only the newest row is computed; keys and values come straight
            # from the static rows (the k kept rows ARE the banded window)
            hidden = decode_hidden(
                state.model, Tensor(static[:, -1:]), state.cross_kv, None, state.mem_allow,
                counts=counts, kv=Tensor(static),
            )
        else:
            # contextual keys/values: the layers below the top rerun the
            # prefix, and the top layer runs for the newest row alone
            allow = decoder_self_mask(cfg, static.shape[1])[-1:]
            hidden = decode_hidden(
                state.model, Tensor(static), state.cross_kv, allow, state.mem_allow, counts=counts
            )
        return output_logits(state.model, hidden).data[:, 0]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def length_penalty(length: int, alpha: float) -> float:
    """GNMT-style penalty ((5 + length) / 6) ** alpha; 1.0 when alpha is 0."""
    return ((5.0 + length) / 6.0) ** alpha


@dataclass
class BeamHypothesis:
    tokens: list[int]
    logp: float
    score: float  # logp / length_penalty


@dataclass
class BeamResult:
    tokens: list[int]
    logp: float
    score: float
    n_best: list[BeamHypothesis]
    # decode steps taken, decoder self-attention scores computed over all
    # of the sentence's rows, and the peak static floats one row held
    stats: dict = field(default_factory=dict)


# sentences decoded together; bounds the memory of one batch's state
BATCH_SENTENCES = 64


def decode_batch(
    model: Model,
    src_batch: Sequence,
    beam: int = 1,
    alpha: float = 0.0,
    max_new: int | None = None,
) -> list[BeamResult]:
    """Decode every source in ``src_batch``, :data:`BATCH_SENTENCES` at a time.

    Beam search ranks every live hypothesis's extensions together; an EOS
    extension that ranks inside the cut finalizes its hypothesis into the
    pool, and the best non-EOS extensions refill the beam. Final ranking
    divides by the length penalty (length counts the EOS).

    With beam 1 and alpha 0 the search is greedy decoding, ties broken
    toward the lowest token id, and a sentence stops at its EOS: no
    extension of a runner-up can outscore an EOS that ranked first, so
    ``beam_decode(beam_size=1)`` and ``greedy_decode`` are the same code.
    """
    if beam < 1:
        raise ValueError("beam_size must be >= 1")
    if alpha < 0:
        raise ValueError("length penalty alpha must be >= 0")
    budget = model.config.max_len - 1
    if max_new is not None:
        budget = min(budget, max_new)
    results: list[BeamResult] = []
    for lo in range(0, len(src_batch), BATCH_SENTENCES):
        chunk = src_batch[lo : lo + BATCH_SENTENCES]
        results.extend(_search(DecoderState(model, chunk), beam, alpha, budget))
    return results


def _ranked_extensions(total: np.ndarray, beam: int, vocab: int) -> list[tuple[int, int]]:
    """One sentence's (hypothesis, token) extensions in rank order, up to
    the beam-th that is not EOS, from the (R*V,) accumulated log
    probabilities of its R hypotheses. Ties prefer the earlier hypothesis,
    then the lower id; padding rows (-inf) are never chosen.

    Ranking all R*V together picks the same extensions as ranking only
    each hypothesis's top beam + 1: an extension is reached only after
    every better one of its own hypothesis, at most one of them EOS.
    """
    chosen, grown = [], 0
    for flat in np.argsort(-total, kind="stable"):
        if total[flat] == -np.inf:
            break
        hi, token = divmod(int(flat), vocab)
        chosen.append((hi, token))
        grown += token != EOS_ID
        if grown == beam:
            break
    return chosen


def _search(state: DecoderState, beam: int, alpha: float, budget: int) -> list[BeamResult]:
    """Beam search over every sentence of a fresh ``state``."""
    greedy = beam == 1 and alpha == 0.0
    n_sent = state.sentences
    active = list(range(n_sent))  # sentence of each row group, in order
    hyp_tokens: list[list[int]] = [[] for _ in active]  # per row
    hyp_logp = np.zeros(n_sent)  # per row; -inf marks a padding row
    finished: list[list[BeamHypothesis]] = [[] for _ in active]
    stats = [{"steps": 0, "self_attn_scores": 0, "resident_floats": 0} for _ in active]

    for t in range(budget):
        groups = len(active)
        width = len(hyp_tokens) // groups
        before = state.counts.get("self_attn_scores", 0)
        resident = state.resident_floats()
        logits = incremental_step(state)
        scores = (state.counts.get("self_attn_scores", 0) - before) // groups
        for s in active:
            stats[s]["steps"] += 1
            stats[s]["self_attn_scores"] += scores
            stats[s]["resident_floats"] = max(stats[s]["resident_floats"], resident)

        logsm = _log_softmax(logits)
        if greedy:
            # argmax of the logits themselves, so that rounding in the
            # log-softmax cannot reorder a near-tie
            picks = [[(0, int(token))] for token in np.argmax(logits, axis=1)]
        else:
            total = (hyp_logp[:, None] + logsm).reshape(groups, -1)
            picks = [_ranked_extensions(total[g], beam, logits.shape[1]) for g in range(groups)]

        keep, parents, tokens, next_tokens, next_logp = [], [], [], [], []
        for g, s in enumerate(active):
            grown = []
            for hi, token in picks[g]:
                row = g * width + hi
                logp = float(hyp_logp[row] + logsm[row, token])
                prefix = hyp_tokens[row]
                if token == EOS_ID:
                    penalty = length_penalty(len(prefix) + 1, alpha)
                    finished[s].append(BeamHypothesis(list(prefix), logp, logp / penalty))
                else:
                    grown.append((row, token, prefix + [token], logp))
            if not grown:
                continue
            # fill the group with padding rows that can never be chosen
            grown += [grown[0][:3] + (-np.inf,)] * (beam - len(grown))
            keep.append(g)
            for row, token, toks, logp in grown:
                parents.append(row)
                tokens.append(token)
                next_tokens.append(toks)
                next_logp.append(logp)
        active = [active[g] for g in keep]
        hyp_tokens, hyp_logp = next_tokens, np.asarray(next_logp)
        if not active or t == budget - 1:
            break
        state.advance(np.asarray(keep), np.asarray(parents), np.asarray(tokens))

    width = len(hyp_tokens) // max(len(active), 1)
    for row, (toks, logp) in enumerate(zip(hyp_tokens, hyp_logp.tolist())):
        # ran out of budget without EOS; score it by its generated length
        if logp > -np.inf:
            penalty = length_penalty(max(len(toks), 1), alpha)
            finished[active[row // width]].append(BeamHypothesis(list(toks), logp, logp / penalty))
    results = []
    for s in range(n_sent):
        pool = sorted(finished[s], key=lambda h: (-h.score, len(h.tokens), h.tokens))
        best = pool[0]
        results.append(BeamResult(best.tokens, best.logp, best.score, pool[:beam], stats[s]))
    return results


def greedy_decode(model: Model, src_ids, max_new: int | None = None) -> list[int]:
    """Argmax decoding; ties break toward the lowest token id.

    Returns generated ids without BOS/EOS; an immediate EOS gives [].
    """
    return decode_batch(model, [src_ids], max_new=max_new)[0].tokens


def beam_decode(
    model: Model,
    src_ids,
    beam_size: int = 4,
    alpha: float = 0.0,
    max_new: int | None = None,
) -> BeamResult:
    """Beam search over accumulated log probability for one sentence; see
    :func:`decode_batch`. With beam_size 1 and alpha 0 this is greedy
    decoding, tie-breaking and all."""
    return decode_batch(model, [src_ids], beam_size, alpha, max_new)[0]


def count_decode_ops(model_or_config: Model | ModelConfig, n: int) -> dict:
    """Closed-form decode cost for generating ``n`` target positions.

    ``self_attn_scores`` counts decoder self-attention scores per layer per
    head, summed over steps t = 1..n: step t scores the current window
    (min(t, k) for the banded variant, t otherwise). ``kv_*_resident``
    measures the per-token decoder state a cache-free decoder must hold,
    assuming the variant's canonical key/value source. The totals multiply
    in layers and heads and are what the instrumented decoder counters
    report for transparent variants.
    """
    cfg = model_or_config.config if isinstance(model_or_config, Model) else model_or_config
    if n < 1:
        raise ValueError("n must be >= 1")
    if cfg.variant == "MAT":
        k = cfg.k
        if n <= k:
            per = n * (n + 1) // 2
        else:
            per = k * (k + 1) // 2 + (n - k) * k
        resident = min(n, k) * cfg.d_model
    else:
        per = n * (n + 1) // 2
        resident = n * cfg.d_model
    return {
        "variant": cfg.variant,
        "k": cfg.window(),
        "n": n,
        "self_attn_scores": per,
        "total_self_attn_scores": per * cfg.dec_layers * cfg.heads,
        "kv_floats_resident": resident,
        "kv_bytes_resident": resident * 4,
    }
