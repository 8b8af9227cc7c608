"""Corpus metrics and the window-width sweep harness.

BLEU here is corpus-level: clipped n-gram counts are summed over the
whole corpus before the precision ratio is taken, the geometric mean runs
over orders 1..4, and a brevity penalty punishes short output. Scores are
in [0, 1].
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .data import (
    SyntheticSpec,
    Vocab,
    generate_pairs,
    mode_target_positions,
    numericalize,
    split_pairs,
)
from .decoding import decode_batch
from .model import (
    PAD_ID,
    Model,
    ModelConfig,
    build_model,
    decode_forward_batch,
    encode_batch,
    ensure_valid,
)
from .tensor import no_grad, single_blas_thread
from .training import TrainSettings, make_eval_batches, train

DEFAULT_BUCKET_EDGES = (10, 20, 30, 40, 50, 60)


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(
    hypotheses: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
    max_n: int = 4,
) -> float:
    """Corpus BLEU in [0, 1]; zero whenever any n-gram precision is zero.

    Counts are clipped per sentence against the reference, then aggregated
    corpus-wide; the brevity penalty is exp(min(0, 1 - ref_len/hyp_len)).
    """
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis and reference counts differ")
    if not hypotheses:
        raise ValueError("empty corpus")
    numer = [0] * max_n
    denom = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp, ref = list(hyp), list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            counts = _ngrams(hyp, n)
            if not counts:
                continue
            ref_counts = _ngrams(ref, n)
            numer[n - 1] += sum(min(c, ref_counts[g]) for g, c in counts.items())
            denom[n - 1] += max(len(hyp) - n + 1, 0)
    if hyp_len == 0:
        return 0.0
    precisions = []
    for n in range(max_n):
        if denom[n] == 0 or numer[n] == 0:
            return 0.0
        precisions.append(numer[n] / denom[n])
    geo = math.exp(math.fsum(math.log(p) for p in precisions) / max_n)
    bp = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return bp * geo


@dataclass
class BucketBleu:
    lo: int
    hi: int | None  # None = unbounded top bucket
    count: int
    bleu: float  # 0.0 for an empty bucket


def bucketed_bleu(
    hypotheses: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
    edges: Sequence[int] = DEFAULT_BUCKET_EDGES,
) -> list[BucketBleu]:
    """BLEU per reference-length bucket. Edges (a, b, ...) give buckets
    [0, a), [a, b), ..., [last, inf)."""
    if list(edges) != sorted(set(edges)) or any(e < 1 for e in edges):
        raise ValueError("bucket edges must be strictly increasing positives")
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis and reference counts differ")
    bounds = [0, *edges, None]
    results = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        members = [
            i
            for i, ref in enumerate(references)
            if len(ref) >= lo and (hi is None or len(ref) < hi)
        ]
        if members:
            score = corpus_bleu([hypotheses[i] for i in members], [references[i] for i in members])
        else:
            score = 0.0
        results.append(BucketBleu(lo=lo, hi=hi, count=len(members), bleu=score))
    return results


@dataclass
class AccuracyResult:
    accuracy: float
    n_scored: int


def teacher_forced_accuracy(
    model: Model,
    items: Sequence[tuple[list[int], list[int]]],
    position_filter: Callable[[int], Sequence[int]] | None = None,
) -> AccuracyResult:
    """Fraction of gold-history argmax predictions that hit the gold token.

    ``position_filter(item_index)`` selects which 0-based target positions
    to score (the row predicting EOS is position len(tgt)); None scores
    every real position including the EOS row.
    """
    if not items:
        raise ValueError("no items to score")
    hits = 0
    total = 0
    with no_grad():
        for batch in make_eval_batches(items):
            memory = encode_batch(model, batch.src, batch.src_real)
            logits = decode_forward_batch(model, memory, batch.tgt_in, batch.src_real)
            pred = logits.data.argmax(axis=-1)  # (B, n)
            for row, item_idx in enumerate(batch.indices):
                real = batch.tgt_out[row] != PAD_ID
                if position_filter is None:
                    positions = np.flatnonzero(real)
                else:
                    positions = np.asarray(sorted(position_filter(item_idx)), dtype=np.int64)
                    if positions.size and (
                        positions.min() < 0 or positions.max() >= real.sum()
                    ):
                        raise ValueError(
                            f"position filter for item {item_idx} exceeds target length"
                        )
                hits += int((pred[row, positions] == batch.tgt_out[row, positions]).sum())
                total += len(positions)
    if total == 0:
        raise ValueError("position filter selected nothing to score")
    return AccuracyResult(accuracy=hits / total, n_scored=total)


def greedy_sequence_accuracy(
    model: Model,
    items: Sequence[tuple[list[int], list[int]]],
    limit: int | None = None,
) -> AccuracyResult:
    """Fraction of items whose greedy decode equals the gold ids exactly."""
    subset = items[:limit] if limit else items
    if not subset:
        raise ValueError("no items to score")
    decoded = decode_batch(model, [src_ids for src_ids, _ in subset])
    hits = sum(out.tokens == list(tgt_ids) for out, (_, tgt_ids) in zip(decoded, subset))
    return AccuracyResult(accuracy=hits / len(subset), n_scored=len(subset))


# ---------------------------------------------------------------------------
# window-width sweep


@dataclass
class SweepTemplate:
    """Everything a sweep cell needs except (variant, k, seed).

    The data spec's seed fixes the corpus across cells; the cell seed goes
    into model init, batch order, and dropout, so repeated seeds measure
    training variance, not data variance.
    """

    data: SyntheticSpec
    model: ModelConfig
    training: TrainSettings
    test_fraction: float = 0.2
    split_seed: int = 0
    eval_limit: int | None = None
    include_reference_variants: bool = True


SWEEP_COLUMNS = ("variant", "k", "seed", "metric", "value", "n_eval", "status")


def _prepare(template: SweepTemplate):
    pairs = generate_pairs(template.data)
    train_pairs, test_pairs = split_pairs(pairs, template.test_fraction, template.split_seed)
    vocab = Vocab.build([p for pair in train_pairs for p in pair])
    train_num = numericalize(train_pairs, vocab, vocab, template.model.max_len)
    test_num = numericalize(test_pairs, vocab, vocab, template.model.max_len)
    return train_pairs, test_pairs, vocab, train_num, test_num


def _cell_config(template: SweepTemplate, variant: str, k: int | None, seed: int, vocab: Vocab) -> ModelConfig:
    cfg = replace(
        template.model,
        variant=variant,
        k=k if variant == "MAT" else None,
        src_vocab_size=len(vocab),
        tgt_vocab_size=len(vocab),
        seed=seed,
    )
    return ensure_valid(cfg)


@single_blas_thread()
def run_sweep_cell(template: SweepTemplate, variant: str, k: int | None, seed: int) -> dict:
    """Train one model and score it; exceptions become a failed row, so one
    diverging cell cannot take down the sweep. Training and scoring run on
    one OpenBLAS thread, so ``jobs`` pool workers use ``jobs`` cores."""
    row = {
        "variant": variant,
        "k": k if k is not None else "",
        "seed": seed,
        "metric": "",
        "value": "",
        "n_eval": 0,
        "status": "ok",
    }
    try:
        train_pairs, test_pairs, vocab, train_num, test_num = _prepare(template)
        cfg = _cell_config(template, variant, k, seed, vocab)
        model = build_model(cfg)
        settings = replace(template.training, seed=seed)
        train(model, train_num.items, settings)
        if template.data.task == "periodic_mode":
            if test_num.dropped:
                # the position filter is indexed by test-pair order, which
                # only matches the numericalized items when nothing dropped
                raise ValueError(
                    f"{test_num.dropped} test pairs exceed max_len="
                    f"{template.model.max_len}; raise max_len or shorten the task"
                )
            d = template.data.d
            positions = [
                mode_target_positions(d, len(src)) for src, _ in test_pairs
            ]
            res = teacher_forced_accuracy(model, test_num.items, lambda i: positions[i])
            row["metric"] = "mode_position_accuracy"
        else:
            res = greedy_sequence_accuracy(model, test_num.items, template.eval_limit)
            row["metric"] = "sequence_accuracy"
        value = res.accuracy
        if not math.isfinite(value):
            raise FloatingPointError("metric is not finite")
        row["value"] = f"{value:.6f}"
        row["n_eval"] = res.n_scored
    except Exception as exc:  # a failed cell is a row, not a crash
        row["status"] = f"failed: {type(exc).__name__}: {exc}"
    return row


def _cell_star(args) -> dict:
    return run_sweep_cell(*args)


def run_order_sweep(
    template: SweepTemplate,
    k_list: Sequence[int],
    seeds: Sequence[int],
    jobs: int = 1,
) -> list[dict]:
    """Train MAT at each window width (plus unwindowed references) for each
    seed and collect metric rows."""
    if not k_list or not seeds:
        raise ValueError("k_list and seeds must be non-empty")
    cells: list[tuple] = []
    for seed in seeds:
        for k in k_list:
            cells.append((template, "MAT", int(k), int(seed)))
        if template.include_reference_variants:
            cells.append((template, "AT", None, int(seed)))
            cells.append((template, "TAT", None, int(seed)))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_cell_star, cells))
    else:
        rows = [run_sweep_cell(*cell) for cell in cells]
    return rows


def write_sweep_csv(rows: Sequence[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({col: row.get(col, "") for col in SWEEP_COLUMNS})
