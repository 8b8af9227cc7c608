"""Cache-free incremental decoding: state accounting, incremental/parallel
agreement, greedy and beam search, and the decode-cost report."""

import numpy as np
import pytest

from markovnmt.decoding import (
    BeamResult,
    DecoderState,
    beam_decode,
    count_decode_ops,
    decode_batch,
    greedy_decode,
    incremental_step,
    init_state,
    length_penalty,
)
from markovnmt.model import (
    BOS_ID,
    EOS_ID,
    ModelConfig,
    build_model,
    decode_forward,
    encode,
)
from markovnmt.tensor import no_grad


def make_model(variant="MAT", k=2, seed=0, **over):
    cfg = dict(
        variant=variant,
        k=k if variant == "MAT" else None,
        enc_layers=1,
        dec_layers=2,
        heads=2,
        d_model=8,
        d_ff=16,
        src_vocab_size=9,
        tgt_vocab_size=9,
        max_len=24,
        dropout=0.0,
        seed=seed,
    )
    cfg.update(over)
    return build_model(ModelConfig(**cfg))


def random_source(rng, n=3):
    ids = rng.integers(4, 9, size=n).tolist()
    return np.array(ids + [EOS_ID])


# --------------------------------------------------------- decoder state


def test_windowed_state_is_a_ring_buffer():
    model = make_model(variant="MAT", k=5, d_model=16, max_len=128)
    state = init_state(model, np.array([4, EOS_ID]))
    assert state.step == 1  # BOS pushed
    for _ in range(100):
        state.push(4)
    assert state.resident_floats() == 5 * 16
    assert state.step == 101


def test_unwindowed_transparent_state_grows_by_d_model_per_token():
    model = make_model(variant="TAT", d_model=16, max_len=128)
    state = init_state(model, np.array([4, EOS_ID]))
    sizes = [state.resident_floats()]
    for _ in range(20):
        state.push(4)
        sizes.append(state.resident_floats())
    deltas = np.diff(sizes)
    assert (deltas == 16).all()


def test_contextual_state_also_keeps_full_history():
    model = make_model(variant="AT", d_model=16, max_len=128)
    state = init_state(model, np.array([4, EOS_ID]))
    for _ in range(10):
        state.push(5)
    assert state.resident_floats() == 11 * 16


def test_push_rejects_overflow():
    model = make_model(max_len=4)
    state = init_state(model, np.array([4, EOS_ID]))
    for _ in range(3):
        state.push(4)
    with pytest.raises(ValueError):
        state.push(4)


def test_clone_isolates_history_and_counts():
    model = make_model(variant="MAT", k=3)
    state = init_state(model, np.array([4, EOS_ID]))
    incremental_step(state)
    copy = state.clone()
    copy.push(5)
    incremental_step(copy)
    assert copy.step == state.step + 1
    assert copy.resident_floats() == state.resident_floats() + model.config.d_model
    assert copy.counts["self_attn_scores"] > state.counts["self_attn_scores"]


# ------------------------------------- incremental == parallel forward


@pytest.mark.parametrize("variant,k", [("AT", None), ("TAT", None), ("MAT", 2), ("MAT", 5)])
def test_incremental_matches_parallel(variant, k):
    rng = np.random.default_rng(17)
    for seed in range(6):
        model = make_model(variant=variant, k=k, seed=seed)
        src = random_source(rng)
        tokens = [int(t) for t in rng.integers(4, 9, size=6)]
        state = init_state(model, src)
        with no_grad():
            memory = encode(model, src)
        prefix = [BOS_ID]
        for t in tokens:
            inc = incremental_step(state)[0]
            with no_grad():
                par = decode_forward(model, memory, np.array(prefix)).data[-1]
            np.testing.assert_allclose(inc, par, atol=1e-5)
            state.push(t)
            prefix.append(t)


# Contextual models, whose decode step runs the top layer for the newest
# row alone while the layers below rerun the prefix.
CONTEXTUAL = {
    "AT": dict(variant="AT"),
    "control": dict(variant="MAT", k=2, transparent=False),
    "pre-LN AT": dict(variant="AT", post_layernorm=False),
}


@pytest.mark.parametrize("dec_layers", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(CONTEXTUAL))
def test_contextual_step_rows_match_teacher_forcing(name, dec_layers):
    """Every row a contextual decode step scores, one sentence at a time
    or in a padded batch of 1 or 4 hypotheses per sentence, matches the
    last row of the teacher-forced forward over its prefix."""
    rng = np.random.default_rng(59 + dec_layers)
    model = make_model(seed=dec_layers, dec_layers=dec_layers, **CONTEXTUAL[name])

    def teacher_forced(memory, prefix):
        with no_grad():
            return decode_forward(model, memory, np.array(prefix)).data[-1]

    src = random_source(rng, n=4)
    with no_grad():
        memory = encode(model, src)
    state = init_state(model, src)
    prefix = [BOS_ID]
    for _ in range(8):
        np.testing.assert_allclose(incremental_step(state)[0], teacher_forced(memory, prefix), atol=1e-5, rtol=0)
        token = int(rng.integers(4, 9))
        state.push(token)
        prefix.append(token)

    sources = [random_source(rng, n=n) for n in (1, 3, 6)]
    with no_grad():
        memories = [encode(model, s) for s in sources]
    for width in (1, 4):
        batch = DecoderState(model, sources)
        prefixes = [[BOS_ID] for _ in sources]
        for _ in range(6):
            per = len(prefixes) // len(sources)
            for r, (row, prefix) in enumerate(zip(incremental_step(batch), prefixes)):
                np.testing.assert_allclose(row, teacher_forced(memories[r // per], prefix), atol=1e-5, rtol=0)
            parents = np.repeat(np.arange(len(sources)) * per, width)
            parents += rng.integers(0, per, size=parents.size)
            tokens = rng.integers(4, 9, size=parents.size)
            batch.advance(np.arange(len(sources)), parents, tokens)
            prefixes = [prefixes[p] + [int(t)] for p, t in zip(parents, tokens)]


# ---------------------------------------------------------------- greedy


def test_greedy_respects_budget_and_stops_at_eos():
    model = make_model(seed=1)
    src = np.array([4, 5, EOS_ID])
    out = greedy_decode(model, src, max_new=3)
    assert len(out) <= 3
    assert EOS_ID not in out
    full = greedy_decode(model, src)
    assert len(full) <= model.config.max_len - 1


def test_greedy_is_deterministic():
    model = make_model(seed=2)
    src = np.array([6, 7, EOS_ID])
    assert greedy_decode(model, src) == greedy_decode(model, src)


def test_greedy_tie_breaks_toward_lower_id():
    """ids 7 and 8 share an embedding row, so their logits tie exactly at
    every step; the higher id must never be emitted."""
    for seed in range(8):
        model = make_model(seed=seed)
        model.params.tgt_embed.data[8] = model.params.tgt_embed.data[7]
        out = greedy_decode(model, np.array([4, 5, EOS_ID]), max_new=8)
        assert 8 not in out


# ------------------------------------------------------------------ beam


def test_length_penalty_values():
    assert length_penalty(5, 0.0) == 1.0
    assert length_penalty(1, 1.0) == 1.0
    assert length_penalty(7, 1.0) == pytest.approx(2.0)
    assert length_penalty(7, 0.6) == pytest.approx(2.0**0.6)


def test_beam_validation():
    model = make_model()
    with pytest.raises(ValueError):
        beam_decode(model, np.array([4, EOS_ID]), beam_size=0)
    with pytest.raises(ValueError):
        beam_decode(model, np.array([4, EOS_ID]), alpha=-0.1)


def test_beam_one_equals_greedy():
    rng = np.random.default_rng(3)
    for seed in range(10):
        variant, k = [("AT", None), ("TAT", None), ("MAT", 3)][seed % 3]
        model = make_model(variant=variant, k=k, seed=seed)
        src = random_source(rng)
        greedy = greedy_decode(model, src)
        beamed = beam_decode(model, src, beam_size=1, alpha=0.0)
        assert isinstance(beamed, BeamResult)
        assert beamed.tokens == greedy


def test_beam_result_pool_is_sorted_by_score():
    model = make_model(seed=4)
    result = beam_decode(model, np.array([4, 5, EOS_ID]), beam_size=3, alpha=0.6)
    scores = [h.score for h in result.n_best]
    assert scores == sorted(scores, reverse=True)
    assert result.score == scores[0]


def _exhaustive_two_step_best(model, src, alpha):
    """Enumerate every decode the 2-step budget allows, scored exactly as
    the beam scores them, via the parallel forward route."""

    def logprobs(prefix):
        with no_grad():
            memory = encode(model, src)
            logits = decode_forward(model, memory, np.array(prefix)).data[-1]
        z = logits - logits.max()
        return z - np.log(np.exp(z).sum())

    v = model.config.tgt_vocab_size
    first = logprobs([BOS_ID])
    candidates = []  # (tokens, logp, score)
    candidates.append(([], float(first[EOS_ID]), float(first[EOS_ID]) / length_penalty(1, alpha)))
    for a in range(v):
        if a == EOS_ID:
            continue
        second = logprobs([BOS_ID, a])
        for b in range(v):
            logp = float(first[a] + second[b])
            if b == EOS_ID:
                candidates.append(([a], logp, logp / length_penalty(2, alpha)))
            else:
                candidates.append(([a, b], logp, logp / length_penalty(2, alpha)))
    candidates.sort(key=lambda c: (-c[2], len(c[0]), c[0]))
    return candidates[0]


@pytest.mark.parametrize("alpha", [0.0, 0.6])
def test_full_width_beam_matches_exhaustive_search(alpha):
    rng = np.random.default_rng(5)
    for seed in range(6):
        model = make_model(variant="MAT", k=2, seed=seed, tgt_vocab_size=7, src_vocab_size=7)
        src = np.array(rng.integers(4, 7, size=3).tolist() + [EOS_ID])
        want_tokens, want_logp, want_score = _exhaustive_two_step_best(model, src, alpha)
        got = beam_decode(model, src, beam_size=7, alpha=alpha, max_new=2)
        assert got.tokens == want_tokens
        assert got.score == pytest.approx(want_score, abs=1e-5)
        assert got.logp == pytest.approx(want_logp, abs=1e-5)


# ------------------------------------------------- batched decoding


DIFF_MODELS = [("AT", None), ("TAT", None), ("MAT", 1), ("MAT", 3)]


def _teacher_forced_logp(model, src, tokens, budget):
    """Log-probability of ``tokens``, and of EOS when they stopped before
    the budget, under the parallel forward."""
    want = list(tokens) + ([EOS_ID] if len(tokens) < budget else [])
    with no_grad():
        logits = decode_forward(model, encode(model, src), np.array([BOS_ID] + list(tokens))).data
    z = logits.astype(np.float64) - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return float(logp[np.arange(len(want)), want].sum())


@pytest.mark.parametrize("variant,k", DIFF_MODELS)
def test_batched_rows_match_teacher_forcing(variant, k):
    """Padded sentences with two hypotheses each, parents drawn at random
    and one sentence dropped on the way: every row's logits equal the last
    row of the teacher-forced forward over its sentence and prefix."""
    rng = np.random.default_rng(41)
    for seed in range(3):
        model = make_model(variant=variant, k=k, seed=seed)
        sources = [random_source(rng, n=int(n)) for n in rng.integers(1, 7, size=3)]
        with no_grad():
            memories = [encode(model, src) for src in sources]
        state = DecoderState(model, sources)
        rows = [(s, [BOS_ID]) for s in range(len(sources))]  # sentence, prefix
        for step in range(6):
            logits = incremental_step(state)
            assert logits.shape == (len(rows), model.config.tgt_vocab_size)
            for row, (s, prefix) in zip(logits, rows):
                with no_grad():
                    want = decode_forward(model, memories[s], np.array(prefix)).data[-1]
                np.testing.assert_allclose(row, want, atol=1e-5, rtol=0)
            keep = np.arange(state.sentences) if step != 3 else np.array([0, 2])
            width = len(rows) // state.sentences
            parents = np.repeat(keep * width, 2) + rng.integers(0, width, size=2 * len(keep))
            tokens = rng.integers(4, 9, size=parents.size)
            state.advance(keep, parents, tokens)
            rows = [(rows[p][0], rows[p][1] + [int(t)]) for p, t in zip(parents, tokens)]


@pytest.mark.parametrize("variant,k", DIFF_MODELS)
@pytest.mark.parametrize("beam,alpha", [(1, 0.0), (4, 0.6)])
def test_decode_batch_matches_sentence_by_sentence(variant, k, beam, alpha):
    """A padded multi-sentence batch decodes to the tokens each sentence
    gets alone, and every beam logp is the teacher-forced log-probability
    of its tokens."""
    rng = np.random.default_rng(43)
    budget = 8
    for seed in range(3):
        model = make_model(variant=variant, k=k, seed=seed)
        sources = [random_source(rng, n=int(n)) for n in rng.integers(1, 7, size=5)]
        batched = decode_batch(model, sources, beam, alpha, max_new=budget)
        for src, got in zip(sources, batched):
            alone = decode_batch(model, [src], beam, alpha, max_new=budget)[0]
            assert got.tokens == alone.tokens
            assert got.logp == pytest.approx(alone.logp, abs=1e-4)
            assert len(got.n_best) <= beam
            for hyp in got.n_best:
                assert hyp.logp == pytest.approx(
                    _teacher_forced_logp(model, src, hyp.tokens, budget), abs=1e-4
                )
            assert got.stats["steps"] == alone.stats["steps"]
            assert got.stats["self_attn_scores"] == alone.stats["self_attn_scores"]


def test_decode_batch_edge_cases():
    model = make_model(seed=3)
    assert decode_batch(model, []) == []
    sources = [np.array([4, EOS_ID]), np.array([5, EOS_ID])]
    for out in decode_batch(model, sources, beam=3, max_new=0):
        assert out.tokens == [] and out.logp == 0.0 and out.stats["steps"] == 0
        assert len(out.n_best) == 1
    with pytest.raises(ValueError):
        decode_batch(model, [np.array([4, EOS_ID])], beam=0)


@pytest.mark.parametrize("variant,k", [("MAT", 3), ("TAT", None), ("AT", None)])
def test_decode_stats_count_steps_scores_and_state(variant, k):
    """Per-sentence stats count every score computed. One row of a
    transparent decoder scores min(t, k) keys per layer and head, as the
    closed-form report says. A contextual row holding t tokens reruns the
    t x t causal mask in every layer but the top, and its top layer scores
    the newest row's t keys."""
    model = make_model(variant=variant, k=k, dec_layers=2, heads=2, max_len=32)
    # a zero final layer norm gives all-zero logits: the lowest id, PAD,
    # wins every step, so no hypothesis ever ends
    model.params.dec[-1].ln_ffn.gain.data[:] = 0.0
    sources = [np.array([4, 5, EOS_ID]), np.array([6, EOS_ID])]
    for beam in (1, 2):
        for out in decode_batch(model, sources, beam=beam, max_new=10):
            stats = out.stats
            assert stats["steps"] == 10
            window = 10 if k is None else k
            assert stats["resident_floats"] == window * model.config.d_model
            layers, heads = model.config.dec_layers, model.config.heads
            if variant == "AT":
                per_step = [heads * ((layers - 1) * t * (t + 1) // 2 + t) for t in range(1, 11)]
            else:
                per_step = [heads * layers * min(t, window) for t in range(1, 11)]
                assert sum(per_step) == count_decode_ops(model, 10)["total_self_attn_scores"]
            # the first step has one row per sentence, later ones beam rows
            assert stats["self_attn_scores"] == per_step[0] + beam * sum(per_step[1:])


# ------------------------------------------------------------ op counts


def test_decode_op_count_closed_form():
    mat5 = make_model(variant="MAT", k=5, dec_layers=2, heads=2, max_len=32)
    at = make_model(variant="AT", dec_layers=2, heads=2, max_len=32)
    r_mat = count_decode_ops(mat5, 25)
    r_at = count_decode_ops(at, 25)
    assert r_mat["self_attn_scores"] == 115  # 15 within the ramp + 20*5 steady
    assert r_at["self_attn_scores"] == 325  # 25*26/2
    assert r_mat["total_self_attn_scores"] == 115 * 2 * 2
    assert r_at["self_attn_scores"] / r_mat["self_attn_scores"] == pytest.approx(2.826, abs=1e-3)
    assert r_mat["kv_floats_resident"] == 5 * 8
    assert r_mat["kv_bytes_resident"] == 5 * 8 * 4
    assert r_at["kv_floats_resident"] == 25 * 8
    with pytest.raises(ValueError):
        count_decode_ops(at, 0)


def test_decode_op_count_band_no_wider_than_causal():
    wide = make_model(variant="MAT", k=30, max_len=32)
    at = make_model(variant="AT", max_len=32)
    assert count_decode_ops(wide, 25)["self_attn_scores"] == count_decode_ops(at, 25)["self_attn_scores"]
    small = count_decode_ops(make_model(variant="MAT", k=5, max_len=32), 3)
    assert small["self_attn_scores"] == 6  # n <= k is the pure ramp


@pytest.mark.parametrize("variant,k", [("MAT", 3), ("MAT", 7), ("TAT", None)])
def test_instrumented_counts_match_closed_form_for_transparent(variant, k):
    model = make_model(variant=variant, k=k, dec_layers=2, heads=2, max_len=32)
    state = init_state(model, np.array([4, 5, EOS_ID]))
    n = 10
    for t in range(n):
        incremental_step(state)
        if t < n - 1:
            state.push(4)
    expected = count_decode_ops(model, n)["total_self_attn_scores"]
    assert state.counts["self_attn_scores"] == expected


def test_contextual_recompute_costs_more_than_the_report():
    """The closed form counts new-row scores; a contextual decoder has to
    recompute the whole prefix each step, so its measured count is higher."""
    model = make_model(variant="AT", dec_layers=2, heads=2, max_len=32)
    state = init_state(model, np.array([4, 5, EOS_ID]))
    n = 8
    for t in range(n):
        incremental_step(state)
        if t < n - 1:
            state.push(4)
    assert state.counts["self_attn_scores"] > count_decode_ops(model, n)["total_self_attn_scores"]
