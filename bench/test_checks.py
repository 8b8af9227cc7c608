"""Tests of the benchmark's correctness checks and of its tracing.

    python3 -m pytest -q bench/test_checks.py

Each check must pass the program's real output and reject a deliberately
wrong one. The tracer must report a traced name that a refactor removed
as absent instead of failing the run.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from markovnmt import audit, decoding, model, training  # noqa: E402
from markovnmt.model import BOS_ID, EOS_ID  # noqa: E402
from markovnmt.tensor import no_grad  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _model(**overrides):
    cfg = model.ModelConfig(
        variant="MAT", k=3, enc_layers=1, dec_layers=2, heads=2, d_model=16, d_ff=32,
        src_vocab_size=12, tgt_vocab_size=12, max_len=24, dropout=0.0, seed=3,
    )
    return model.build_model(replace(cfg, **overrides))


def _parallel_logits(m, src, tokens):
    with no_grad():
        return model.decode_forward(m, model.encode(m, src), [BOS_ID] + tokens).data


SRC = [5, 6, 7, 8, 9, 10, 11, 4, EOS_ID]


@pytest.mark.parametrize("variant,k", [("MAT", 3), ("AT", None)])
def test_greedy_check_passes_real_output_and_rejects_a_flipped_token(variant, k):
    m = _model(variant=variant, k=k)
    budget = m.config.max_len - 1
    tokens = decoding.greedy_decode(m, SRC)
    logits = _parallel_logits(m, SRC, tokens)
    assert checks.greedy_fixed_point(logits, tokens, budget, EOS_ID) == []

    # flip the first token whose row has a clear winner; row t sees only
    # the tokens before t, so it still prefers the token greedy emitted
    clear = [t for t in range(len(tokens)) if np.ptp(np.sort(logits[t])[-2:]) > checks.ARGMAX_MARGIN]
    assert clear, "no decision with a clear margin to flip"
    wrong = list(tokens)
    wrong[clear[0]] = 4 if tokens[clear[0]] != 4 else 5
    assert checks.greedy_fixed_point(_parallel_logits(m, SRC, wrong), wrong, budget, EOS_ID)


def test_greedy_check_rejects_a_wrong_stop():
    logits = np.zeros((3, 6), dtype=np.float32)
    logits[0, 4] = logits[1, 5] = logits[2, EOS_ID] = 1.0
    assert checks.greedy_fixed_point(logits, [4, 5], budget=10, eos_id=EOS_ID) == []
    # stopping one token early: row 1 wanted token 5, not the stop
    assert checks.greedy_fixed_point(logits, [4], budget=10, eos_id=EOS_ID)
    # a tie within the margin is not held to argmax
    logits[1, 4] = 1.0 - checks.ARGMAX_MARGIN / 2
    assert checks.greedy_fixed_point(logits[:2], [4, 4], budget=2, eos_id=EOS_ID) == []


def test_beam_check_passes_real_output_and_rejects_a_perturbed_logp_or_score():
    m = _model(variant="AT", k=None)
    alpha, budget = 0.6, 6
    result = decoding.beam_decode(m, SRC, beam_size=4, alpha=alpha, max_new=budget)
    logits = _parallel_logits(m, SRC, result.tokens)
    ok = checks.beam_consistent(logits, result.tokens, budget, result.logp, result.score, alpha, EOS_ID)
    assert ok == []
    bad_logp = checks.beam_consistent(
        logits, result.tokens, budget, result.logp + 0.05, result.score, alpha, EOS_ID
    )
    assert any("logp" in p for p in bad_logp)
    bad_score = checks.beam_consistent(
        logits, result.tokens, budget, result.logp, result.score * 1.001, alpha, EOS_ID
    )
    assert any("score" in p for p in bad_score)


def test_beam_check_counts_the_eos_of_a_finished_hypothesis():
    logits = np.log(np.array([[0.1, 0.1, 0.2, 0.6], [0.1, 0.1, 0.5, 0.3]], dtype=np.float64))
    logp = math.log(0.6) + math.log(0.5)
    score = logp / ((5 + 2) / 6) ** 0.6
    assert checks.beam_consistent(logits, [3], 5, logp, score, 0.6, EOS_ID) == []
    # scored as if it had run out of budget: no EOS, length 1
    assert checks.beam_consistent(logits, [3], 1, logp, score, 0.6, EOS_ID)


def test_audit_checks_reject_a_control_marked_passed_and_an_off_by_one_count():
    sentences, tgt_len, vocab = 1, 5, 8
    expected = checks.audit_forwards(sentences, tgt_len, vocab)
    window = audit.audit_model(
        _model(tgt_vocab_size=vocab, src_vocab_size=vocab, k=2),
        n_sentences=sentences, src_len=4, tgt_len=tgt_len, seed=1,
    )
    control = audit.audit_model(
        _model(tgt_vocab_size=vocab, src_vocab_size=vocab, k=2, transparent=False),
        n_sentences=sentences, src_len=4, tgt_len=tgt_len, seed=1,
    )
    assert expected == 1 + 5 * 4
    assert checks.audit_passes(window, expected) == []
    assert checks.audit_fails(control, expected) == []

    assert checks.audit_fails(replace(control, passed=True, violations=[]), expected)
    assert checks.audit_passes(control, expected)
    assert checks.audit_passes(replace(window, max_out_of_window_delta=1e-30), expected)
    assert checks.audit_passes(window, expected + 1)
    assert checks.audit_fails(control, expected - 1)


def test_training_checks_reject_nan_losses_a_rising_loss_and_a_wrong_nll():
    assert checks.losses_finite([3.2, 3.1]) == []
    assert checks.losses_finite([3.2, float("nan")])
    assert checks.losses_finite([])
    assert checks.loss_fell(3.0, 2.5) == []
    assert checks.loss_fell(3.0, 3.0)
    assert checks.nll_agrees(2.5, 2.5 * (1 + 1e-7)) == []
    assert checks.nll_agrees(2.5, 2.5 * (1 + 1e-4))


def test_own_nll_matches_corpus_nll_on_a_small_corpus():
    from workloads import heldout_nll

    m = _model()
    items = [([5, 6, 7, EOS_ID], [5, 6, 7]), ([8, 9, EOS_ID], [9, 8]), ([4, EOS_ID], [4, 4, 4, 4])]
    assert checks.nll_agrees(training.corpus_nll(m, items), heldout_nll(m, items)) == []


def test_resident_floats_check():
    assert checks.resident_floats(5, 64, 320, 128) == []
    assert checks.resident_floats(5, 64, 384, 128)
    assert checks.resident_floats(None, 64, 128 * 64, 128) == []
    assert checks.resident_floats(None, 64, 320, 128)


def test_a_traced_name_missing_after_a_refactor_is_reported_absent(monkeypatch):
    monkeypatch.delattr(training, "make_batches")
    tracer = spans.Tracer()
    m = _model(tgt_vocab_size=8, src_vocab_size=8)
    original = audit.decode_forward
    with tracer.patched():
        assert audit.decode_forward is not original
        audit.audit_model(m, n_sentences=1, src_len=3, tgt_len=3, seed=0)
    assert audit.decode_forward is original
    assert tracer.absent == ["markovnmt.training.make_batches"]
    metrics = spans.per_layer_metrics(tracer, "audit-exact")
    assert metrics["training.make_batches_ms.p50.mat5"] == 0.0
    assert metrics["trace.absent_names"] == 1.0
    assert metrics["model.decode_forward_ms.mat5"] > 0.0
    assert metrics["audit.self_ms.mat5"] > 0.0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert spans.tail(list(range(1, 40))) == 20  # under forty samples: the median
    assert spans.tail(list(range(1, 41))) == 30  # p75
    assert spans.tail(list(range(1, 101))) == 90  # p90


@pytest.mark.parametrize("trace", [False, True])
def test_a_short_run_prints_every_listed_metric(trace, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    result = run.run("audit-exact", seed=7, seconds=0.01, trace=trace)
    assert not any(op.failed for op in result["ops"])
    listed = SPEC["per_layer" if trace else "end_to_end"]
    named = dict((n, v) for n, v, _ in run._with_units(result["metrics"], trace))
    assert list(named) == [m["name"] for m in listed]
    assert set(result["metrics"]) == set(named)
    if not trace:
        assert all(v > 0 for v in named.values())
    else:
        assert list(tmp_path.glob("spans-audit-exact-seed7.json.gz"))
