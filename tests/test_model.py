"""Model configuration, initialization, forward passes, and checkpoints."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from markovnmt.model import (
    CheckpointError,
    ConfigError,
    Model,
    ModelConfig,
    build_model,
    decode_forward,
    decode_forward_batch,
    decoder_self_mask,
    embed_source,
    embed_target_static,
    encode,
    encode_batch,
    ensure_valid,
    load_checkpoint,
    model_from_checkpoint,
    output_logits,
    save_checkpoint,
    sinusoidal_positions,
    validate_config,
)
from markovnmt.model import EOS_ID, PAD_ID
from markovnmt.tensor import Tensor


def tiny_cfg(**over):
    base = dict(
        variant="MAT",
        k=2,
        enc_layers=1,
        dec_layers=1,
        heads=2,
        d_model=8,
        d_ff=16,
        src_vocab_size=9,
        tgt_vocab_size=9,
        max_len=16,
        dropout=0.0,
        seed=0,
    )
    if over.get("variant", "MAT") != "MAT" and "k" not in over:
        base["k"] = None
    base.update(over)
    return ModelConfig(**base)


# ------------------------------------------------------------- config


def test_validate_collects_every_problem():
    cfg = ModelConfig(variant="XXL", k=0, heads=3, d_model=8, src_vocab_size=2, dropout=1.5)
    errs = validate_config(cfg)
    joined = " ".join(errs)
    assert len(errs) >= 4
    assert "variant" in joined and "divisible" in joined and "dropout" in joined
    with pytest.raises(ConfigError):
        ensure_valid(cfg)


def test_k_is_mat_only():
    assert validate_config(tiny_cfg(variant="MAT", k=None))
    assert validate_config(tiny_cfg(variant="AT", k=3))
    assert not validate_config(tiny_cfg(variant="AT", k=None))
    assert not validate_config(tiny_cfg(variant="TAT", k=None))


def test_window_and_transparency_defaults():
    assert tiny_cfg(variant="MAT", k=4).window() == 4
    assert tiny_cfg(variant="AT", k=None).window() is None
    assert tiny_cfg(variant="AT", k=None).is_transparent() is False
    assert tiny_cfg(variant="TAT", k=None).is_transparent() is True
    assert tiny_cfg(variant="MAT").is_transparent() is True
    assert tiny_cfg(variant="MAT", transparent=False).is_transparent() is False


def test_config_dict_roundtrip_rejects_unknown_keys():
    cfg = tiny_cfg()
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({**cfg.to_dict(), "hidden_size": 4})


def test_decoder_self_mask_follows_variant():
    assert np.array_equal(
        decoder_self_mask(tiny_cfg(variant="MAT", k=2), 4),
        np.array([[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], bool),
    )
    assert np.array_equal(
        decoder_self_mask(tiny_cfg(variant="AT", k=None), 3), np.tril(np.ones((3, 3), bool))
    )


# ----------------------------------------------------- initialization


def test_positional_table_values():
    table = sinusoidal_positions(3, 4)
    assert np.array_equal(table[0], np.array([0, 1, 0, 1], dtype=np.float32))
    expected_row1 = np.array(
        [np.sin(1.0), np.cos(1.0), np.sin(0.01), np.cos(0.01)], dtype=np.float32
    )
    np.testing.assert_allclose(table[1], expected_row1, atol=1e-7)
    assert table.dtype == np.float32


def test_init_deterministic_by_seed():
    a = build_model(tiny_cfg(seed=3))
    b = build_model(tiny_cfg(seed=3))
    c = build_model(tiny_cfg(seed=4))
    names = [n for n, _ in a.params.named()]
    assert names == [n for n, _ in b.params.named()]
    assert len(names) == len(set(names))
    assert all(np.array_equal(ta.data, tb.data) for (_, ta), (_, tb) in zip(a.params.named(), b.params.named()))
    assert any(
        not np.array_equal(ta.data, tc.data)
        for (_, ta), (_, tc) in zip(a.params.named(), c.params.named())
    )


def test_init_weights_within_glorot_bounds():
    model = build_model(tiny_cfg(d_model=8, d_ff=16))
    for name, t in model.params.named():
        if t.data.ndim == 2:
            fan_in, fan_out = t.data.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(t.data).max() <= limit, name
        assert t.requires_grad, name


def test_build_model_validates():
    with pytest.raises(ConfigError):
        build_model(tiny_cfg(variant="MAT", k=0))


# ------------------------------------------------------------ embeddings


def test_target_static_embedding_composition():
    model = build_model(tiny_cfg())
    ids = np.array([4, 7])
    d = model.config.d_model
    got = embed_target_static(model, ids).data
    expected = model.params.tgt_embed.data[ids] * np.sqrt(d) + model.pos_table[:2]
    np.testing.assert_allclose(got, expected, atol=1e-6)
    # offset shifts which positional rows are added
    got_off = embed_target_static(model, ids, offset=3).data
    expected_off = model.params.tgt_embed.data[ids] * np.sqrt(d) + model.pos_table[3:5]
    np.testing.assert_allclose(got_off, expected_off, atol=1e-6)


def test_static_position_term_is_optional():
    model = build_model(tiny_cfg(static_includes_position=False))
    ids = np.array([4, 7])
    got = embed_target_static(model, ids, offset=5).data
    expected = model.params.tgt_embed.data[ids] * np.sqrt(model.config.d_model)
    np.testing.assert_allclose(got, expected, atol=1e-6)


def test_length_budget_enforced():
    model = build_model(tiny_cfg(max_len=4))
    with pytest.raises(ValueError):
        embed_source(model, np.arange(5) % 4 + 4)
    with pytest.raises(ValueError):
        embed_target_static(model, np.array([4, 5]), offset=3)


def test_output_projection_is_tied_to_target_embedding():
    model = build_model(tiny_cfg())
    hidden = Tensor(np.random.default_rng(0).normal(size=(3, 8)).astype(np.float32))
    logits = output_logits(model, hidden).data
    manual = hidden.data @ model.params.tgt_embed.data.T
    np.testing.assert_array_equal(logits, manual)


# --------------------------------------------------------- forward pass


def test_forward_shapes():
    model = build_model(tiny_cfg())
    memory = encode(model, np.array([4, 5, EOS_ID]))
    assert memory.shape == (3, 8)
    logits = decode_forward(model, memory, np.array([1, 6, 7, 8]))
    assert logits.shape == (4, 9)


def test_batched_encode_matches_single_with_padding():
    model = build_model(tiny_cfg(seed=9))
    a = [4, 5, 6, EOS_ID]
    b = [7, EOS_ID]
    batch = np.array([a, b + [PAD_ID] * 2])
    real = np.array([[1, 1, 1, 1], [1, 1, 0, 0]])
    mem_batch = encode_batch(model, batch, real).data
    mem_a = encode(model, np.array(a)).data
    mem_b = encode(model, np.array(b)).data
    np.testing.assert_allclose(mem_batch[0], mem_a, atol=1e-5)
    np.testing.assert_allclose(mem_batch[1, :2], mem_b, atol=1e-5)


def test_batched_decode_matches_single_with_padding():
    model = build_model(tiny_cfg(seed=11, variant="MAT", k=2))
    srcs = [[4, 5, EOS_ID], [6, EOS_ID]]
    tgts = [[1, 5, 4], [1, 6]]
    src_pad = np.array([srcs[0], srcs[1] + [PAD_ID]])
    src_real = np.array([[1, 1, 1], [1, 1, 0]])
    tgt_pad = np.array([tgts[0], tgts[1] + [PAD_ID]])
    mem_batch = encode_batch(model, src_pad, src_real)
    batch_logits = decode_forward_batch(model, mem_batch, tgt_pad, src_real).data
    for i, (src, tgt) in enumerate(zip(srcs, tgts)):
        memory = encode(model, np.array(src))
        single = decode_forward(model, memory, np.array(tgt)).data
        np.testing.assert_allclose(batch_logits[i, : len(tgt)], single, atol=1e-5)


@pytest.mark.parametrize(
    "over",
    [
        dict(variant="MAT", k=2, dec_layers=2),
        dict(variant="MAT", k=2, dec_layers=2, transparent=False),
        dict(variant="TAT", k=None, dec_layers=2),
        dict(variant="AT", k=None, dec_layers=2, post_layernorm=False),
    ],
)
def test_one_sentence_paths_match_the_batched_code_bitwise(over):
    model = build_model(tiny_cfg(seed=17, **over))
    src = np.array([4, 7, 5, 6, EOS_ID])
    memory = encode(model, src)
    np.testing.assert_array_equal(memory.data, encode_batch(model, src[None]).data[0])
    rows = np.array([[1, 5, 6, 7, 8, 4], [1, 5, 6, 4, 8, 4], [1, 8, 8, 8, 8, 8]])
    stacked = decode_forward(model, memory, rows).data
    assert stacked.shape == (3, 6, 9)
    for r, ids in enumerate(rows):
        np.testing.assert_array_equal(stacked[r], decode_forward(model, memory, ids).data)


def test_changing_a_padded_source_slot_does_not_change_real_logits():
    model = build_model(tiny_cfg(seed=13))
    tgt = np.array([[1, 5, 6]])
    real = np.array([[1, 1, 0]])
    src_a = np.array([[4, 5, PAD_ID]])
    src_b = np.array([[4, 5, 7]])  # garbage in the padded slot
    la = decode_forward_batch(model, encode_batch(model, src_a, real), tgt, real).data
    lb = decode_forward_batch(model, encode_batch(model, src_b, real), tgt, real).data
    np.testing.assert_allclose(la, lb, atol=1e-6)


def test_single_decoder_layer_transparency_is_vacuous():
    """With one decoder layer the hidden state entering self-attention IS
    the static embedding, so AT and TAT coincide bit-for-bit."""
    at = build_model(tiny_cfg(variant="AT", k=None, dec_layers=1, seed=5))
    tat = build_model(tiny_cfg(variant="TAT", k=None, dec_layers=1, seed=5))
    src = np.array([4, 6, EOS_ID])
    tgt = np.array([1, 7, 8, 5])
    la = decode_forward(at, encode(at, src), tgt).data
    lt = decode_forward(tat, encode(tat, src), tgt).data
    np.testing.assert_array_equal(la, lt)


def test_full_width_window_equals_unwindowed_transparent():
    """MAT with k = max_len keeps every position in-window, so its banded
    mask equals the causal mask row-for-row and logits match TAT exactly."""
    mat = build_model(tiny_cfg(variant="MAT", k=16, dec_layers=2, seed=6))
    tat = build_model(tiny_cfg(variant="TAT", k=None, dec_layers=2, seed=6))
    src = np.array([4, 6, EOS_ID])
    tgt = np.array([1, 7, 8, 5, 4])
    lm = decode_forward(mat, encode(mat, src), tgt).data
    lt = decode_forward(tat, encode(tat, src), tgt).data
    np.testing.assert_array_equal(lm, lt)


def test_pre_layernorm_variant_runs_and_differs():
    post = build_model(tiny_cfg(seed=2, post_layernorm=True))
    pre = build_model(tiny_cfg(seed=2, post_layernorm=False))
    src = np.array([4, EOS_ID])
    tgt = np.array([1, 5])
    lp = decode_forward(post, encode(post, src), tgt).data
    lq = decode_forward(pre, encode(pre, src), tgt).data
    assert lp.shape == lq.shape
    assert not np.allclose(lp, lq)


def test_dropout_only_active_in_training_mode():
    model = build_model(tiny_cfg(dropout=0.5))
    src = np.array([4, 5, EOS_ID])
    a = encode(model, src).data
    b = encode(model, src).data
    np.testing.assert_array_equal(a, b)  # eval is deterministic
    rng = np.random.Generator(np.random.PCG64(0))
    c = encode(model, src, train=True, rng=rng).data
    d = encode(model, src, train=True, rng=rng).data
    assert not np.array_equal(c, d)  # per-call noise during training


# ----------------------------------------------------------- checkpoints


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = build_model(tiny_cfg(seed=21))
    path = tmp_path / "m.mnmt"
    extra = {"opt.m.x": np.arange(6, dtype=np.float32).reshape(2, 3)}
    save_checkpoint(path, model, extra_tensors=extra, meta={"step": 7})
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.meta == {"step": 7}
    assert np.array_equal(loaded.tensors["opt.m.x"], extra["opt.m.x"])
    rebuilt = model_from_checkpoint(loaded)
    for (name, t), (_, u) in zip(model.params.named(), rebuilt.params.named()):
        assert np.array_equal(t.data, u.data), name


def test_checkpoint_rewrite_is_byte_identical(tmp_path):
    model = build_model(tiny_cfg(seed=22))
    p1, p2 = tmp_path / "a.mnmt", tmp_path / "b.mnmt"
    save_checkpoint(p1, model)
    save_checkpoint(p2, model)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_corruption_detected(tmp_path):
    model = build_model(tiny_cfg(seed=23))
    path = tmp_path / "m.mnmt"
    save_checkpoint(path, model)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad1.mnmt"
    bad_magic.write_bytes(raw.replace(b"markovnmt-checkpoint", b"markovnmt-checkpoiXX", 1))
    with pytest.raises(CheckpointError):
        load_checkpoint(bad_magic)

    truncated = tmp_path / "bad2.mnmt"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)

    not_json = tmp_path / "bad3.mnmt"
    not_json.write_bytes(b"hello world\n" + raw)
    with pytest.raises(CheckpointError):
        load_checkpoint(not_json)


def test_model_from_checkpoint_rejects_shape_mismatch(tmp_path):
    model = build_model(tiny_cfg(seed=24))
    path = tmp_path / "m.mnmt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    name = next(iter(loaded.tensors))
    loaded.tensors[name] = loaded.tensors[name][..., :-1]
    with pytest.raises(CheckpointError):
        model_from_checkpoint(loaded)


def _checkpoint_parts(path):
    raw = path.read_bytes()
    line, payload = raw.split(b"\n", 1)
    return json.loads(line), payload


def _write_checkpoint_parts(path, header, payload):
    line = json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
    path.write_bytes(line.encode("utf-8") + payload)


def test_checkpoint_rejects_negative_offset(tmp_path):
    """A negative offset such as -(nbytes + 4) slices a chunk of the right
    length from the wrong place; the loader must refuse it."""
    path = tmp_path / "m.mnmt"
    save_checkpoint(path, build_model(tiny_cfg(seed=25)))
    header, payload = _checkpoint_parts(path)
    entry = next(e for e in header["tensors"] if e["name"] == "tgt_embed")
    entry["offset"] = -(int(np.prod(entry["shape"])) * 4 + 4)
    _write_checkpoint_parts(path, header, payload)
    with pytest.raises(CheckpointError, match="tgt_embed"):
        load_checkpoint(path)


def test_checkpoint_rejects_undeclared_tensor(tmp_path):
    path = tmp_path / "m.mnmt"
    save_checkpoint(path, build_model(tiny_cfg(seed=26)), extra_tensors={"opt.step": np.zeros(1)})
    header, payload = _checkpoint_parts(path)
    header["extras"] = []
    _write_checkpoint_parts(path, header, payload)
    with pytest.raises(CheckpointError, match="opt.step"):
        load_checkpoint(path)


def test_model_from_checkpoint_rejects_non_finite_weights(tmp_path):
    path = tmp_path / "m.mnmt"
    save_checkpoint(path, build_model(tiny_cfg(seed=27)))
    header, payload = _checkpoint_parts(path)
    first = header["tensors"][0]
    assert first["offset"] == 0
    _write_checkpoint_parts(path, header, np.float32(np.nan).tobytes() + payload[4:])
    with pytest.raises(CheckpointError, match=first["name"]):
        model_from_checkpoint(str(path))


_FUZZ_MODEL = build_model(tiny_cfg(seed=28))
_FUZZ_EXTRA = {"opt.m.x": np.arange(6, dtype=np.float32).reshape(2, 3)}


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    kind=st.sampled_from(["offset", "shape", "truncate_header", "truncate_file"]),
    pick=st.integers(0, 10**6),
    value=st.integers(-(2**40), 2**40) | st.integers(-8, 8),
    dims=st.lists(st.integers(-2, 20), max_size=3),
)
def test_mutated_checkpoint_loads_exactly_or_raises(tmp_path, kind, pick, value, dims):
    """Mutate or truncate the header's offsets and shapes: a load either
    gives back the saved tensors bit-exactly or raises CheckpointError.

    Shapes are mutated on parameters only: an extra tensor's shape is
    declared by its manifest entry alone, so a reshaped extra of the same
    size is indistinguishable from the original."""
    path = tmp_path / "fuzz.mnmt"
    save_checkpoint(path, _FUZZ_MODEL, extra_tensors=_FUZZ_EXTRA)
    header, payload = _checkpoint_parts(path)
    entries = header["tensors"]
    if kind == "offset":
        entry = entries[pick % len(entries)]
        entry["offset"] = entry["offset"] + value if pick % 2 else value
    elif kind == "shape":
        params = [e for e in entries if e["name"] not in header["extras"]]
        params[pick % len(params)]["shape"] = dims
    _write_checkpoint_parts(path, header, payload)
    if kind == "truncate_header":
        line, rest = path.read_bytes().split(b"\n", 1)
        path.write_bytes(line[: pick % len(line)] + b"\n" + rest)
    elif kind == "truncate_file":
        raw = path.read_bytes()
        path.write_bytes(raw[: pick % len(raw)])
    try:
        loaded = load_checkpoint(path)
        rebuilt = model_from_checkpoint(loaded)
    except CheckpointError:
        return
    for (name, t), (_, u) in zip(_FUZZ_MODEL.params.named(), rebuilt.params.named()):
        assert t.data.shape == u.data.shape and t.data.tobytes() == u.data.tobytes(), name
    assert set(loaded.tensors) == set(_FUZZ_EXTRA) | {n for n, _ in _FUZZ_MODEL.params.named()}
    for name, arr in _FUZZ_EXTRA.items():
        assert loaded.tensors[name].shape == arr.shape
        assert loaded.tensors[name].tobytes() == arr.tobytes()
