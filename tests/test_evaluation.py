"""Metric oracles and sweep-harness contracts.

BLEU cases are frozen hand computations; accuracy functions are checked
differentially against the single-sentence forward route; sweep cells are
exercised on micro corpora so a full row costs a second or two.
"""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovnmt.data import (
    SyntheticSpec,
    Vocab,
    generate_pairs,
    mode_target_positions,
    numericalize,
    split_pairs,
)
from markovnmt.decoding import greedy_decode
from markovnmt.evaluation import (
    SWEEP_COLUMNS,
    SweepTemplate,
    bucketed_bleu,
    corpus_bleu,
    greedy_sequence_accuracy,
    run_order_sweep,
    run_sweep_cell,
    teacher_forced_accuracy,
    write_sweep_csv,
)
from markovnmt.model import (
    BOS_ID,
    EOS_ID,
    ModelConfig,
    build_model,
    decode_forward,
    encode,
    ensure_valid,
)
from markovnmt.training import TrainSettings

# ---------------------------------------------------------------------------
# corpus BLEU: frozen hand computations


def test_identity_corpus_is_exactly_one():
    corpus = [["a", "b", "c", "d", "e"], ["x", "y", "z", "w"]]
    assert corpus_bleu(corpus, corpus) == 1.0


def test_clipped_unigram_precision_hand_case():
    # hyp has three "a" but the reference holds only one, so the clipped
    # unigram count is 1 out of 3; hyp is longer than ref, so no penalty
    score = corpus_bleu([["a", "a", "a"]], [["a", "b"]], max_n=1)
    assert score == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_brevity_penalty_hand_case():
    # both precisions are exactly 1, so the score is the penalty alone:
    # exp(1 - ref_len/hyp_len) = exp(1 - 4/2) = exp(-1)
    score = corpus_bleu([["a", "b"]], [["a", "b", "c", "d"]], max_n=2)
    assert score == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_disjoint_corpus_is_zero():
    assert corpus_bleu([["a", "b", "c", "d"]], [["w", "x", "y", "z"]]) == 0.0


def test_corpus_aggregation_hand_case():
    # counts pool across sentences before the ratio is taken:
    #   p1 = (4+1)/(4+4) = 5/8,  p2 = (3+0)/(3+3) = 1/2,
    #   p3 = (2+0)/(2+2) = 1/2,  p4 = (1+0)/(1+1) = 1/2
    # hyp_len 8 >= ref_len 6 so BP = 1, giving (5/64)^(1/4)
    hyps = [["a", "b", "c", "d"], ["a", "a", "a", "a"]]
    refs = [["a", "b", "c", "d"], ["a", "b"]]
    score = corpus_bleu(hyps, refs)
    assert score == pytest.approx((5 / 64) ** 0.25, abs=1e-12)
    # a per-sentence mean would give (1.0 + 0.0) / 2 instead
    assert abs(score - 0.5) > 1e-3


def test_no_fourgram_corpus_is_zero():
    # every sentence is shorter than 4 tokens, so the 4-gram denominator
    # stays empty and the geometric mean collapses to zero
    corpus = [["a", "b", "c"], ["x", "y"]]
    assert corpus_bleu(corpus, corpus) == 0.0


def test_empty_hypothesis_is_zero():
    assert corpus_bleu([[]], [["a", "b"]]) == 0.0


def test_bleu_validation_errors():
    with pytest.raises(ValueError):
        corpus_bleu([["a"]], [["a"], ["b"]])
    with pytest.raises(ValueError):
        corpus_bleu([], [])


_token = st.sampled_from(["a", "b", "c", "d", "e"])
_sentence = st.lists(_token, max_size=6)
_pairs = st.lists(st.tuples(_sentence, _sentence), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(pairs=_pairs, seed=st.integers(0, 2**31 - 1))
def test_bleu_bounded_and_order_invariant(pairs, seed):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    score = corpus_bleu(hyps, refs)
    assert 0.0 <= score <= 1.0
    # corpus aggregation sums integer counts, so sentence order cannot matter
    order = np.random.default_rng(seed).permutation(len(pairs))
    assert corpus_bleu([hyps[i] for i in order], [refs[i] for i in order]) == score


# ---------------------------------------------------------------------------
# bucketed BLEU


def test_buckets_partition_the_corpus():
    refs = [["r"] * n for n in (5, 12, 25, 70)]
    hyps = [list(r) for r in refs]
    hyps[2] = ["q"] * 25  # miss in the [20, 30) bucket
    buckets = bucketed_bleu(hyps, refs)
    assert [(b.lo, b.hi) for b in buckets] == [
        (0, 10), (10, 20), (20, 30), (30, 40), (40, 50), (50, 60), (60, None),
    ]
    assert sum(b.count for b in buckets) == len(refs)
    assert [b.count for b in buckets] == [1, 1, 1, 0, 0, 0, 1]
    by_range = {(b.lo, b.hi): b for b in buckets}
    assert by_range[(0, 10)].bleu == 1.0
    assert by_range[(20, 30)].bleu == 0.0  # disjoint member
    assert by_range[(30, 40)].bleu == 0.0 and by_range[(30, 40)].count == 0
    # each bucket scores exactly the corpus BLEU of its members
    assert by_range[(60, None)].bleu == corpus_bleu([hyps[3]], [refs[3]])


def test_bucket_membership_uses_reference_length():
    # a short hypothesis for a long reference must land in the long bucket
    refs = [["r"] * 15]
    hyps = [["r"] * 2]
    buckets = bucketed_bleu(hyps, refs, edges=(10,))
    assert [b.count for b in buckets] == [0, 1]


def test_bucket_edge_validation():
    corpus = [["a", "b", "c", "d"]]
    for bad in [(10, 10), (20, 10), (0, 10), (-1, 5)]:
        with pytest.raises(ValueError):
            bucketed_bleu(corpus, corpus, edges=bad)
    with pytest.raises(ValueError):
        bucketed_bleu(corpus, corpus + corpus)


# ---------------------------------------------------------------------------
# accuracy metrics, checked against the single-sentence forward route


def _tiny_model(variant="MAT", k=2, vocab=9, seed=0, **over):
    cfg = dict(
        variant=variant,
        k=k if variant == "MAT" else None,
        enc_layers=1,
        dec_layers=1,
        heads=2,
        d_model=16,
        d_ff=32,
        src_vocab_size=vocab,
        tgt_vocab_size=vocab,
        max_len=12,
        dropout=0.0,
        seed=seed,
    )
    cfg.update(over)
    return build_model(ensure_valid(ModelConfig(**cfg)))


def _random_items(rng, n_items, vocab=9, max_len=6):
    items = []
    for _ in range(n_items):
        ls, lt = rng.integers(1, max_len + 1, size=2)
        items.append((
            [int(t) for t in rng.integers(4, vocab, size=ls)],
            [int(t) for t in rng.integers(4, vocab, size=lt)],
        ))
    return items


def _manual_teacher_forced(model, items, position_filter=None):
    hits = total = 0
    for idx, (src, tgt) in enumerate(items):
        memory = encode(model, src)
        logits = decode_forward(model, memory, [BOS_ID] + list(tgt))
        gold = list(tgt) + [EOS_ID]
        positions = range(len(gold)) if position_filter is None else position_filter(idx)
        for p in positions:
            hits += int(np.argmax(logits.data[p]) == gold[p])
            total += 1
    return hits, total


def test_teacher_forced_accuracy_matches_single_sentence_route():
    rng = np.random.default_rng(7)
    items = _random_items(rng, 12)
    model = _tiny_model()
    res = teacher_forced_accuracy(model, items)
    hits, total = _manual_teacher_forced(model, items)
    assert res.n_scored == total == sum(len(t) + 1 for _, t in items)
    assert res.accuracy == pytest.approx(hits / total, abs=1e-12)


def test_position_filter_selects_a_subset():
    rng = np.random.default_rng(11)
    items = _random_items(rng, 10)
    model = _tiny_model(variant="AT", k=None)
    flt = lambda i: [0]  # first target position only
    res = teacher_forced_accuracy(model, items, flt)
    hits, total = _manual_teacher_forced(model, items, flt)
    assert res.n_scored == total == len(items)
    assert res.accuracy == pytest.approx(hits / total, abs=1e-12)


def test_eos_row_is_scorable_but_beyond_it_raises():
    model = _tiny_model()
    items = [([4, 5, 6], [7, 8])]
    # position len(tgt) == 2 is the row predicting EOS: legal
    res = teacher_forced_accuracy(model, items, lambda i: [2])
    assert res.n_scored == 1
    with pytest.raises(ValueError, match="exceeds target length"):
        teacher_forced_accuracy(model, items, lambda i: [3])
    with pytest.raises(ValueError, match="exceeds target length"):
        teacher_forced_accuracy(model, items, lambda i: [-1])


def test_empty_selection_and_empty_items_raise():
    model = _tiny_model()
    items = [([4, 5], [6])]
    with pytest.raises(ValueError, match="selected nothing"):
        teacher_forced_accuracy(model, items, lambda i: [])
    with pytest.raises(ValueError, match="no items"):
        teacher_forced_accuracy(model, [])


def test_greedy_sequence_accuracy_matches_direct_decode():
    rng = np.random.default_rng(3)
    items = _random_items(rng, 8, max_len=4)
    model = _tiny_model(variant="TAT", k=None)
    res = greedy_sequence_accuracy(model, items)
    expected = sum(greedy_decode(model, s) == list(t) for s, t in items) / len(items)
    assert res.accuracy == pytest.approx(expected, abs=1e-12)
    assert res.n_scored == len(items)


def test_greedy_sequence_accuracy_limit():
    rng = np.random.default_rng(4)
    items = _random_items(rng, 6, max_len=4)
    model = _tiny_model()
    res = greedy_sequence_accuracy(model, items, limit=2)
    assert res.n_scored == 2
    sub = greedy_sequence_accuracy(model, items[:2])
    assert res.accuracy == sub.accuracy
    with pytest.raises(ValueError):
        greedy_sequence_accuracy(model, [])


# ---------------------------------------------------------------------------
# sweep harness on micro corpora


def _micro_template(**over):
    fields = dict(
        data=SyntheticSpec(task="copy", n_pairs=40, len_range=(3, 5), vocab_size=5, seed=0),
        model=ModelConfig(
            variant="MAT",
            k=2,
            enc_layers=1,
            dec_layers=1,
            heads=2,
            d_model=16,
            d_ff=32,
            src_vocab_size=8,
            tgt_vocab_size=8,
            max_len=12,
            dropout=0.0,
            seed=0,
        ),
        training=TrainSettings(
            steps=4,
            max_tokens_per_batch=64,
            base_lr=0.01,
            warmup=2,
            label_smoothing=0.0,
            log_every=100,
            seed=0,
            weight_decay=0.0,
        ),
    )
    fields.update(over)
    return SweepTemplate(**fields)


def test_sweep_cell_produces_a_complete_row():
    row = run_sweep_cell(_micro_template(), "MAT", 2, 0)
    assert set(row) == set(SWEEP_COLUMNS)
    assert row["status"] == "ok"
    assert (row["variant"], row["k"], row["seed"]) == ("MAT", 2, 0)
    assert row["metric"] == "sequence_accuracy"
    assert 0.0 <= float(row["value"]) <= 1.0
    assert row["n_eval"] > 0


def test_sweep_cell_periodic_mode_scores_mode_positions():
    spec = SyntheticSpec(
        task="periodic_mode", n_pairs=40, len_range=(6, 9), vocab_size=6, seed=0, d=2
    )
    template = _micro_template(data=spec)
    row = run_sweep_cell(template, "MAT", 3, 0)
    assert row["status"] == "ok"
    assert row["metric"] == "mode_position_accuracy"
    # n_eval must equal the number of rewrite positions over the test split
    pairs = generate_pairs(spec)
    _, test_pairs = split_pairs(pairs, template.test_fraction, template.split_seed)
    expected = sum(len(mode_target_positions(2, len(src))) for src, _ in test_pairs)
    assert row["n_eval"] == expected > 0


def test_sweep_cell_reference_variant_clears_k():
    row = run_sweep_cell(_micro_template(), "AT", None, 1)
    assert row["status"] == "ok"
    assert row["k"] == ""
    assert row["seed"] == 1


def test_sweep_cell_failure_becomes_a_row():
    template = _micro_template()
    bad = replace(template, model=replace(template.model, heads=3))  # 16 % 3 != 0
    row = run_sweep_cell(bad, "MAT", 2, 0)
    assert row["status"].startswith("failed: ConfigError")
    assert row["value"] == "" and row["n_eval"] == 0


def test_sweep_cell_rejects_dropped_test_pairs():
    # positions are indexed by test-pair order, so silently dropping overlong
    # pairs during numericalization would misalign the metric
    spec = SyntheticSpec(
        task="periodic_mode", n_pairs=40, len_range=(6, 9), vocab_size=6, seed=0, d=2
    )
    template = _micro_template(
        data=spec, model=replace(_micro_template().model, max_len=8)
    )
    # confirm the fixture really drops something from the test split
    pairs = generate_pairs(spec)
    _, test_pairs = split_pairs(pairs, template.test_fraction, template.split_seed)
    vocab = Vocab.build([p for pair in pairs for p in pair])
    assert numericalize(test_pairs, vocab, vocab, 8).dropped > 0
    row = run_sweep_cell(template, "MAT", 2, 0)
    assert row["status"].startswith("failed:")
    assert "exceed max_len" in row["status"]


def test_run_order_sweep_row_layout():
    template = _micro_template()
    rows = run_order_sweep(template, k_list=[1, 2], seeds=[0])
    assert [(r["variant"], r["k"]) for r in rows] == [
        ("MAT", 1), ("MAT", 2), ("AT", ""), ("TAT", "")
    ]
    assert all(r["status"] == "ok" for r in rows)
    bare = replace(template, include_reference_variants=False)
    assert [(r["variant"], r["k"]) for r in run_order_sweep(bare, [2], [0])] == [("MAT", 2)]
    with pytest.raises(ValueError):
        run_order_sweep(template, [], [0])
    with pytest.raises(ValueError):
        run_order_sweep(template, [1], [])


def test_write_sweep_csv_roundtrip(tmp_path):
    rows = [
        {"variant": "MAT", "k": 2, "seed": 0, "metric": "sequence_accuracy",
         "value": "0.750000", "n_eval": 8, "status": "ok"},
        {"variant": "AT", "k": "", "seed": 1, "metric": "", "value": "",
         "n_eval": 0, "status": "failed: ConfigError: boom"},
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, str(path))
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == list(SWEEP_COLUMNS)
        back = list(reader)
    assert back[0]["variant"] == "MAT" and back[0]["value"] == "0.750000"
    assert back[0]["n_eval"] == "8"
    assert back[1]["status"] == "failed: ConfigError: boom"
