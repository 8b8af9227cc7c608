"""Perturbation-audit contracts.

The audit must report bitwise-zero out-of-window deltas for the
static-KV variants, hold plain causal decoders to causality, and catch
the contextual banded control leaking past its window.
"""

import json
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovnmt import audit
from markovnmt.audit import (
    AUDIT_CHUNK,
    AuditReport,
    Violation,
    audit_model,
    audit_sentence,
    audit_workers,
    influence_window,
)
from markovnmt.model import (
    BOS_ID,
    EOS_ID,
    UNK_ID,
    ModelConfig,
    build_model,
    decode_forward,
    encode,
    ensure_valid,
)
from markovnmt.tensor import no_grad


def _model(variant="MAT", k=2, dec_layers=2, vocab=9, seed=0, **over):
    cfg = dict(
        variant=variant,
        k=k if variant == "MAT" else None,
        enc_layers=1,
        dec_layers=dec_layers,
        heads=2,
        d_model=16,
        d_ff=32,
        src_vocab_size=vocab,
        tgt_vocab_size=vocab,
        max_len=16,
        dropout=0.0,
        seed=seed,
    )
    cfg.update(over)
    return build_model(ensure_valid(ModelConfig(**cfg)))


# ---------------------------------------------------------------------------
# influence window geometry


def test_influence_window_hand_cases():
    assert list(np.flatnonzero(influence_window(2, 3, 8))) == [3, 4]
    assert list(np.flatnonzero(influence_window(None, 3, 8))) == [3, 4, 5, 6, 7]
    assert list(np.flatnonzero(influence_window(1, 0, 4))) == [0]
    assert list(np.flatnonzero(influence_window(10, 2, 5))) == [2, 3, 4]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 24),
    j=st.integers(0, 23),
    k=st.integers(1, 30),
)
def test_influence_window_properties(n, j, k):
    j = min(j, n - 1)
    windowed = influence_window(k, j, n)
    causal = influence_window(None, j, n)
    # a window only ever removes rows from the causal set
    assert not np.any(windowed & ~causal)
    assert int(windowed.sum()) == min(k, n - j)
    # widening the window never shrinks the set
    wider = influence_window(k + 1, j, n)
    assert not np.any(windowed & ~wider)


# ---------------------------------------------------------------------------
# audits of the shipped variants


@pytest.mark.parametrize("k", [1, 2, 3])
def test_windowed_static_kv_decoder_passes_exactly(k):
    report = audit_model(_model(variant="MAT", k=k, dec_layers=2))
    assert report.passed
    assert report.max_out_of_window_delta == 0.0
    assert report.violations == []
    assert report.variant == "MAT" and report.k == k and report.transparent


def test_unwindowed_static_kv_decoder_is_causal():
    report = audit_model(_model(variant="TAT", k=None, dec_layers=2))
    assert report.passed and report.max_out_of_window_delta == 0.0
    assert report.k is None


def test_contextual_causal_decoder_is_causal():
    # full self-attention with contextual KV still never looks forward
    report = audit_model(_model(variant="AT", k=None, dec_layers=2))
    assert report.passed and report.max_out_of_window_delta == 0.0
    assert not report.transparent


def test_contextual_banded_control_leaks_past_its_window():
    # same banded mask, but keys/values read the previous layer: depth 2
    # carries an edit beyond the window, and the audit must catch it
    leaky = _model(variant="MAT", k=2, dec_layers=2, transparent=False)
    report = audit_model(leaky)
    assert not report.passed
    assert report.max_out_of_window_delta > 0.0
    assert report.violations
    for v in report.violations:
        # causality still holds, so every violation is a forward leak
        # at distance >= k
        assert v.logit_row - v.perturbed_position >= 2


def test_forward_count_arithmetic():
    # 3 sentences, 8 target positions, vocab 9 with 4 reserved ids drawn
    # from [3, 9): each position tries the 5 candidate ids minus itself
    report = audit_model(_model(), n_sentences=3, src_len=6, tgt_len=8)
    assert report.n_sentences == 3
    assert report.n_forwards == 3 * (1 + 8 * (9 - 4))
    # frozen rows: n=9 rows per forward, window k=2 leaves n - min(k, n-j)
    assert report.n_rows_checked > 0


def test_audit_sentence_custom_replacements():
    model = _model()
    # replacement 5 is skipped at the position already holding a 5
    worst, violations, forwards, _ = audit_sentence(
        model, [4, 5, 6, 2], [5, 6, 7], replacement_ids=[5]
    )
    assert forwards == 1 + 2
    assert worst == 0.0 and violations == []


def _reference_audit_sentence(model, src_ids, tgt_ids):
    """The audit one sequence at a time: a B=1 forward per perturbed
    sequence, each compared with a B=1 forward of the unperturbed one."""
    cfg = model.config
    tgt_in = np.asarray([BOS_ID] + list(tgt_ids), dtype=np.int64)
    n = tgt_in.shape[0]
    with no_grad():
        memory = encode(model, src_ids)
        base = decode_forward(model, memory, tgt_in).data
    worst, violations, forwards, rows_checked = 0.0, [], 1, 0
    for j in range(1, n):
        frozen = ~influence_window(cfg.window(), j, n)
        for repl in range(UNK_ID, cfg.tgt_vocab_size):
            if repl == tgt_in[j]:
                continue
            ids = tgt_in.copy()
            ids[j] = repl
            with no_grad():
                deltas = np.abs(decode_forward(model, memory, ids).data - base).max(axis=-1)
            forwards += 1
            rows_checked += int(frozen.sum())
            for t in np.flatnonzero(frozen):
                worst = max(worst, float(deltas[t]))
                if deltas[t] > 0.0:
                    violations.append((j, int(t), float(deltas[t])))
    return worst, violations, forwards, rows_checked


@pytest.mark.parametrize(
    "variant, k, over",
    [
        ("MAT", 5, {}),
        ("MAT", 2, {"transparent": False}),  # the contextual banded control
        ("TAT", None, {}),
        ("AT", None, {}),
    ],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_chunked_audit_matches_one_sequence_at_a_time(variant, k, over, seed):
    model = _model(variant=variant, k=k, seed=seed, **over)
    rng = np.random.default_rng(seed)
    src = rng.integers(UNK_ID, 9, size=5).tolist() + [EOS_ID]
    tgt = rng.integers(UNK_ID, 9, size=9).tolist()
    got = audit_sentence(model, src, tgt)
    # several chunks, the last one short
    assert (got[2] - 1) // AUDIT_CHUNK >= 2 and (got[2] - 1) % AUDIT_CHUNK
    assert got == _reference_audit_sentence(model, src, tgt)
    if over:
        assert got[1]  # the control leaks, so the deltas compared are nonzero


@pytest.mark.parametrize(
    "variant, k, over",
    [
        ("MAT", 5, {}),
        ("MAT", 2, {"transparent": False}),  # the contextual banded control
        ("TAT", None, {}),
        ("AT", None, {}),
    ],
)
def test_audit_on_three_threads_matches_one_sequence_at_a_time(monkeypatch, variant, k, over):
    """Chunks run on a pool of three threads that trade the interpreter
    often; the merged result is the serial one, violation order and float
    deltas included."""
    model = _model(variant=variant, k=k, seed=2, **over)
    rng = np.random.default_rng(2)
    src = rng.integers(UNK_ID, 9, size=5).tolist() + [EOS_ID]
    tgt = rng.integers(UNK_ID, 9, size=9).tolist()
    threads = set()

    def decode_forward_noting_thread(*args, **kwargs):
        threads.add(threading.get_ident())
        time.sleep(0.01)  # hold this worker, so that the pool starts another
        return decode_forward(*args, **kwargs)

    monkeypatch.setattr(audit, "audit_workers", lambda chunks: 3)
    monkeypatch.setattr(audit, "decode_forward", decode_forward_noting_thread)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = audit_sentence(model, src, tgt)
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) >= 2
    assert got == _reference_audit_sentence(model, src, tgt)


@pytest.mark.parametrize("replacements", [[], [5]])
def test_audit_sentence_without_edits(replacements):
    # the only candidate id is already at the only position, or none is
    assert audit_sentence(_model(), [4, 5, 2], [5], replacement_ids=replacements) == (0.0, [], 1, 0)


def test_audit_workers_follow_the_cpus_and_the_chunks():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert audit_workers(0) == 1
    assert audit_workers(1) == 1
    assert audit_workers(10_000) == cpus


def test_audit_length_validation():
    with pytest.raises(ValueError, match="max_len"):
        audit_model(_model(max_len=6), src_len=6, tgt_len=8)


def test_report_json_roundtrip_and_truncation():
    vs = [Violation(0, 1, 3, 0.5)] * 60
    report = AuditReport(
        variant="MAT",
        k=2,
        dec_layers=2,
        transparent=False,
        n_sentences=1,
        n_forwards=10,
        n_rows_checked=100,
        max_out_of_window_delta=0.5,
        passed=False,
        violations=vs,
    )
    doc = json.loads(report.to_json())
    assert doc["passed"] is False
    assert doc["variant"] == "MAT" and doc["k"] == 2
    assert len(doc["violations"]) == 50
    assert doc["violations"][0] == {
        "sentence": 0, "perturbed_position": 1, "logit_row": 3, "delta": 0.5
    }
