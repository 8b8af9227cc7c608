"""Batching, the lr schedule, the decoupled-decay optimizer, and the
training loop (including abort-on-divergence and exact resume)."""

import ctypes
import json
import pathlib

import numpy as np
import pytest

from markovnmt.data import SyntheticSpec, Vocab, generate_pairs, numericalize
from markovnmt.model import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    CheckpointError,
    ModelConfig,
    build_model,
    decode_forward,
    encode,
    load_checkpoint,
    save_checkpoint,
)
from markovnmt.tensor import NonFiniteError, Tensor, cross_entropy, single_blas_thread
from markovnmt.training import (
    AdamW,
    TrainSettings,
    batch_loss,
    build_batch,
    corpus_nll,
    load_training_checkpoint,
    make_batches,
    make_eval_batches,
    nll_loss,
    save_training_checkpoint,
    schedule_lr,
    train,
    train_step,
)


def micro_task(n_pairs=60, seed=0):
    spec = SyntheticSpec(task="copy", n_pairs=n_pairs, len_range=(2, 5), vocab_size=6, seed=seed)
    pairs = generate_pairs(spec)
    vocab = Vocab.build(src for src, _ in pairs)
    return numericalize(pairs, vocab, vocab, max_len=12).items, vocab


def micro_model(vocab, **over):
    cfg = dict(
        variant="MAT",
        k=2,
        enc_layers=1,
        dec_layers=1,
        heads=2,
        d_model=16,
        d_ff=32,
        src_vocab_size=len(vocab),
        tgt_vocab_size=len(vocab),
        max_len=12,
        dropout=0.0,
        seed=0,
    )
    cfg.update(over)
    return build_model(ModelConfig(**cfg))


# ------------------------------------------------------------- batching


def test_build_batch_shifts_targets():
    items = [([4, 5, EOS_ID], [6, 7])]
    batch = build_batch(items, [0])
    assert batch.tgt_in.tolist() == [[BOS_ID, 6, 7]]
    assert batch.tgt_out.tolist() == [[6, 7, EOS_ID]]
    assert batch.src.tolist() == [[4, 5, EOS_ID]]
    assert batch.src_real.tolist() == [[True, True, True]]


def test_build_batch_pads_to_width():
    items = [([4, EOS_ID], [5]), ([4, 5, EOS_ID], [6, 7, 8])]
    batch = build_batch(items, [0, 1])
    assert batch.src.tolist() == [[4, EOS_ID, PAD_ID], [4, 5, EOS_ID]]
    assert batch.src_real.tolist() == [[True, True, False], [True, True, True]]
    assert batch.tgt_in.tolist() == [[BOS_ID, 5, PAD_ID, PAD_ID], [BOS_ID, 6, 7, 8]]
    assert batch.tgt_out.tolist() == [[5, EOS_ID, PAD_ID, PAD_ID], [6, 7, 8, EOS_ID]]
    assert batch.n_target_tokens == 2 + 4  # non-pad rows of tgt_out


def test_make_batches_covers_items_and_respects_budget():
    items, _ = micro_task(n_pairs=50)
    batches = make_batches(items, max_tokens=24)
    seen = sorted(i for b in batches for i in b.indices)
    assert seen == list(range(len(items)))
    for b in batches:
        assert b.tgt_in.size <= 24 or len(b.indices) == 1
    # deterministic grouping; rng shuffles order only
    again = make_batches(items, max_tokens=24)
    assert [b.indices for b in batches] == [b.indices for b in again]
    shuffled = make_batches(items, max_tokens=24, rng=np.random.Generator(np.random.PCG64(0)))
    assert sorted(map(tuple, (b.indices for b in shuffled))) == sorted(
        map(tuple, (b.indices for b in batches))
    )


def test_make_batches_validation():
    with pytest.raises(ValueError):
        make_batches([], max_tokens=100)
    with pytest.raises(ValueError):
        make_batches([([4], [5])], max_tokens=1)


def test_make_eval_batches_keeps_corpus_order():
    items, _ = micro_task(n_pairs=10)
    batches = make_eval_batches(items, batch_size=4)
    assert [b.indices for b in batches] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]


# ------------------------------------------------------------ the loss


def test_batch_loss_matches_single_sentence_route():
    items, vocab = micro_task(n_pairs=4)
    model = micro_model(vocab)
    batch = build_batch(items, [0])
    via_batch = float(batch_loss(model, batch).data)
    src, tgt = items[0]
    logits = decode_forward(model, encode(model, np.array(src)), np.array([BOS_ID] + tgt))
    manual = float(cross_entropy(logits, np.array(tgt + [EOS_ID])).data)
    assert via_batch == pytest.approx(manual, abs=1e-6)
    assert nll_loss(model, batch) == pytest.approx(manual, abs=1e-6)


def test_corpus_nll_token_weighting():
    items, vocab = micro_task(n_pairs=12)
    model = micro_model(vocab)
    per_batch = [
        (nll_loss(model, b), b.n_target_tokens) for b in make_eval_batches(items, batch_size=5)
    ]
    expected = sum(l * n for l, n in per_batch) / sum(n for _, n in per_batch)
    assert corpus_nll(model, items) == pytest.approx(expected, abs=1e-9)
    with pytest.raises(ValueError, match="corpus has no target tokens"):
        corpus_nll(model, [])


# ------------------------------------------------------------ schedule


def test_schedule_shape_and_frozen_values():
    assert schedule_lr(2.0, 1, 4) == pytest.approx(0.25)  # 2 * 1 * 4^-1.5
    assert schedule_lr(2.0, 4, 4) == pytest.approx(1.0)  # peak = base * warmup^-0.5
    assert schedule_lr(2.0, 16, 4) == pytest.approx(0.5)  # 2 * 16^-0.5
    values = [schedule_lr(1.0, s, 10) for s in range(1, 40)]
    assert values[:10] == sorted(values[:10])  # warmup rises
    assert values[10:] == sorted(values[10:], reverse=True)  # then decays
    with pytest.raises(ValueError):
        schedule_lr(1.0, 0, 4)


# ----------------------------------------------------------- optimizer


def test_weight_decay_is_decoupled_from_lr():
    """With base_lr = 0 the Adam term vanishes; matrices still shrink by
    exactly (1 - wd) per step and vectors are untouched."""
    mat = Tensor(np.full((2, 2), 1.0, dtype=np.float32), requires_grad=True)
    vec = Tensor(np.full(2, 1.0, dtype=np.float32), requires_grad=True)
    opt = AdamW(base_lr=0.0, warmup=1, weight_decay=0.1, clip_norm=None)
    named = [("w", mat), ("b", vec)]
    for _ in range(3):
        mat.grad = np.ones_like(mat.data)
        vec.grad = np.ones_like(vec.data)
        opt.apply(named)
    np.testing.assert_allclose(mat.data, np.full((2, 2), 0.9**3), rtol=1e-6)
    np.testing.assert_array_equal(vec.data, np.ones(2, dtype=np.float32))


def test_clip_rescales_to_global_norm():
    a = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    b = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    a.grad = np.array([3.0], dtype=np.float32)
    b.grad = np.array([4.0], dtype=np.float32)
    opt = AdamW(clip_norm=1.0)
    norm = opt.clip_gradients([("a", a), ("b", b)])
    assert norm == pytest.approx(5.0)
    np.testing.assert_allclose(a.grad, [0.6], rtol=1e-6)
    np.testing.assert_allclose(b.grad, [0.8], rtol=1e-6)
    # under the threshold nothing is scaled
    a.grad = np.array([0.3], dtype=np.float32)
    b.grad = np.array([0.4], dtype=np.float32)
    opt.clip_gradients([("a", a), ("b", b)])
    np.testing.assert_allclose(a.grad, [0.3], rtol=1e-6)


def test_first_adam_step_matches_hand_computation():
    # bias-corrected first step moves by lr * g / (|g| + eps)
    p = Tensor(np.array([5.0], dtype=np.float32), requires_grad=True)
    p.grad = np.array([2.0], dtype=np.float32)
    opt = AdamW(base_lr=1.0, warmup=1, weight_decay=0.0, clip_norm=None)
    lr = opt.apply([("p", p)])
    assert lr == pytest.approx(1.0)
    np.testing.assert_allclose(p.data, [4.0], atol=1e-5)


# ------------------------------------------------------------- training


def test_training_reduces_loss(tmp_path):
    items, vocab = micro_task()
    model = micro_model(vocab)
    settings = TrainSettings(
        steps=120,
        max_tokens_per_batch=120,
        base_lr=0.05,
        warmup=40,
        weight_decay=0.0,
        label_smoothing=0.0,
        log_every=10,
        seed=0,
    )
    log_path = tmp_path / "log.jsonl"
    history = train(model, items, settings, log_path=str(log_path))
    assert history.final_loss < history.entries[0]["loss"] * 0.5
    lines = [json.loads(l) for l in log_path.read_text().splitlines()]
    assert [e["step"] for e in lines] == [e["step"] for e in history.entries]
    assert all(
        set(e) == {"step", "loss", "lr", "n_tokens", "tokens_per_sec"} for e in lines
    )
    assert lines[-1]["step"] == 120
    assert all(e["step"] % 10 == 0 for e in lines)


def test_train_uses_schedule(tmp_path):
    items, vocab = micro_task()
    model = micro_model(vocab)
    settings = TrainSettings(
        steps=6, max_tokens_per_batch=200, base_lr=0.3, warmup=50, log_every=1, seed=1
    )
    history = train(model, items, settings)
    for entry in history.entries:
        assert entry["lr"] == pytest.approx(schedule_lr(0.3, entry["step"], 50))


def _bundled_openblas():
    """numpy's bundled OpenBLAS, when it exports the thread get/set symbols."""
    pkg = pathlib.Path(np.__file__).parent
    candidates = [
        *pkg.parent.glob("numpy.libs/libscipy_openblas*"),
        *pkg.glob(".dylibs/libscipy_openblas*"),
    ]
    for path in sorted(candidates):
        try:
            lib = ctypes.CDLL(str(path))
            lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        return lib
    return None


_OPENBLAS = _bundled_openblas()


@pytest.mark.skipif(
    _OPENBLAS is None, reason="numpy's bundled OpenBLAS or its thread get/set symbols not found"
)
def test_train_runs_on_one_blas_thread_and_restores_the_callers_count():
    get = _OPENBLAS.scipy_openblas_get_num_threads64_
    set_ = _OPENBLAS.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    items, vocab = micro_task()
    settings = TrainSettings(steps=3, max_tokens_per_batch=200, log_every=1, seed=0)
    original = get()
    seen = []
    try:
        set_(3)
        assert get() == 3
        train(micro_model(vocab), items, settings, hook=lambda step, entry: seen.append(get()))
        after_train = get()
        with single_blas_thread():
            train(micro_model(vocab), items, settings)
            after_nested = get()
        after_outer = get()
    finally:
        set_(original)
    assert seen == [1, 1, 1]
    assert after_train == 3
    assert (after_nested, after_outer) == (1, 3)


def test_divergence_aborts_with_context():
    items, vocab = micro_task()
    model = micro_model(vocab)
    settings = TrainSettings(
        steps=12, max_tokens_per_batch=200, base_lr=1e8, warmup=1, label_smoothing=0.0, seed=0
    )
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteError, match="optimizer step"):
            train(model, items, settings)


def test_settings_validation():
    with pytest.raises(ValueError):
        TrainSettings.from_dict({"steps": 10, "momentum": 0.9})
    with pytest.raises(ValueError):
        TrainSettings(steps=0).validate()
    with pytest.raises(ValueError):
        TrainSettings(label_smoothing=1.0).validate()
    ok = TrainSettings.from_dict({"steps": 3, "base_lr": 0.01})
    assert (ok.steps, ok.base_lr) == (3, 0.01)


def test_resume_restores_optimizer_exactly(tmp_path):
    items, vocab = micro_task()
    model = micro_model(vocab)
    settings = TrainSettings(
        steps=8, max_tokens_per_batch=150, base_lr=0.05, warmup=20, log_every=4, seed=0
    )
    opt = AdamW.from_settings(settings)
    train(model, items, settings, opt=opt)
    path = tmp_path / "resume.mnmt"
    save_training_checkpoint(path, model, opt, meta={"tag": "t"})

    model2, opt2, meta = load_training_checkpoint(path)
    assert meta["tag"] == "t"
    assert opt2.step_count == 8
    assert set(opt2.m) == set(opt.m)
    for name in opt.m:
        np.testing.assert_array_equal(opt.m[name], opt2.m[name])
        np.testing.assert_array_equal(opt.v[name], opt2.v[name])
    for (_, a), (_, b) in zip(model.params.named(), model2.params.named()):
        np.testing.assert_array_equal(a.data, b.data)

    # the very next step continues the schedule at step 9
    batch = make_batches(items, 150)[0]
    stats = train_step(model2, opt2, batch, 0.1, np.random.Generator(np.random.PCG64(0)))
    assert stats["lr"] == pytest.approx(schedule_lr(0.05, 9, 20))


def _trained_checkpoint_parts(tmp_path):
    """A model after two training steps, and the optimizer meta and moment
    tensors of its training checkpoint."""
    items, vocab = micro_task()
    model = micro_model(vocab)
    settings = TrainSettings(steps=2, max_tokens_per_batch=150, warmup=20, log_every=1, seed=0)
    opt = AdamW.from_settings(settings)
    train(model, items, settings, opt=opt)
    path = tmp_path / "good.mnmt"
    save_training_checkpoint(path, model, opt)
    loaded = load_checkpoint(path)
    moments = {k: a for k, a in loaded.tensors.items() if k.startswith("opt.")}
    return model, loaded.meta["optimizer"], moments


def test_training_checkpoint_rejects_incomplete_optimizer_state(tmp_path):
    model, opt_meta, moments = _trained_checkpoint_parts(tmp_path)
    for field in ("base_lr", "step_count", "clip_norm"):
        path = tmp_path / f"no-{field}.mnmt"
        partial = {k: v for k, v in opt_meta.items() if k != field}
        save_checkpoint(path, model, extra_tensors=moments, meta={"optimizer": partial})
        with pytest.raises(CheckpointError, match=field):
            load_training_checkpoint(path)
    path = tmp_path / "text-lr.mnmt"
    save_checkpoint(path, model, extra_tensors=moments, meta={"optimizer": opt_meta | {"base_lr": "0.05"}})
    with pytest.raises(CheckpointError, match="base_lr"):
        load_training_checkpoint(path)


def test_training_checkpoint_rejects_moments_that_fit_no_parameter(tmp_path):
    model, opt_meta, moments = _trained_checkpoint_parts(tmp_path)
    name = "dec.0.ffn.w1"
    shape = moments[f"opt.m.{name}"].shape
    bad = {
        "unknown name": moments | {"opt.m.nope": np.zeros(3), "opt.v.nope": np.zeros(3)},
        "short moment": moments | {f"opt.m.{name}": np.zeros(1)},
        "transposed moment": moments | {f"opt.v.{name}": np.zeros(shape[::-1])},
        "first moment only": {k: v for k, v in moments.items() if k != f"opt.v.{name}"},
    }
    for label, extra in bad.items():
        path = tmp_path / f"{label}.mnmt".replace(" ", "-")
        save_checkpoint(path, model, extra_tensors=extra, meta={"optimizer": opt_meta})
        with pytest.raises(CheckpointError):
            load_training_checkpoint(path)
            pytest.fail(label)


def test_training_checkpoint_rejects_non_finite_moments(tmp_path):
    model, opt_meta, moments = _trained_checkpoint_parts(tmp_path)
    for value in (np.nan, np.inf):
        key = "opt.v.tgt_embed"
        poisoned = moments[key].copy()
        poisoned[0, 0] = value
        path = tmp_path / f"moment-{value}.mnmt"
        save_checkpoint(path, model, extra_tensors=moments | {key: poisoned}, meta={"optimizer": opt_meta})
        with pytest.raises(CheckpointError, match="NaN or Inf"):
            load_training_checkpoint(path)
