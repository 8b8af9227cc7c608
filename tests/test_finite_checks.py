"""Inference paths report a NaN or Inf at the op that made it.

Under ``no_grad`` most ops are not checked one by one; a non-finite value
is caught at a sublayer boundary, and that block is replayed with every op
checked. These tests make one op emit a non-finite value and require the
error to name the op that the per-op checks of training would name.
"""

import itertools
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from markovnmt import audit, tensor
from markovnmt.audit import audit_sentence
from markovnmt.decoding import decode_batch, greedy_decode
from markovnmt.model import EOS_ID, ModelConfig, build_model, encode
from markovnmt.tensor import NonFiniteError, no_grad

OPS = ("matmul", "add", "scale", "layer_norm", "relu", "softmax_masked", "embedding")
VALUES = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}

# The op each poisoned op is reported as, with every op checked. relu only
# moves values, so its output is never checked; the matmul that reads it is.
NAMED = {op: op for op in OPS} | {"relu": "matmul"}

SRC = np.array([4, 5, 6, 7, EOS_ID])
TGT = [5, 6, 4, 8]


VARIANTS = {
    "AT": dict(variant="AT", k=None),
    "MAT": dict(variant="MAT", k=2),
    "pre-LN AT": dict(variant="AT", k=None, post_layernorm=False),
}


def _model(name):
    return build_model(
        ModelConfig(
            **VARIANTS[name],
            enc_layers=1,
            dec_layers=2,
            heads=2,
            d_model=8,
            d_ff=16,
            src_vocab_size=9,
            tgt_vocab_size=9,
            max_len=16,
            dropout=0.0,
            seed=3,
        )
    )


def _threaded_audit(model):
    """The audit case cut into chunks of two edits, run on three threads."""
    with mock.patch.object(audit, "AUDIT_CHUNK", 2), mock.patch.object(
        audit, "audit_workers", lambda chunks: 3
    ):
        return audit_sentence(model, SRC, TGT, replacement_ids=[4, 5])


PATHS = {
    "greedy": lambda model: greedy_decode(model, SRC, max_new=4),
    "beam4": lambda model: decode_batch(model, [SRC, SRC[1:]], beam=4, max_new=4),
    "audit": lambda model: audit_sentence(model, SRC, TGT, replacement_ids=[4, 5]),
    "audit-threads": _threaded_audit,
}


def _poison(monkeypatch, op, value, skip=0, reads=None):
    """Make every call of ``op`` after its first ``skip`` calls, or every
    call that reads the tensor ``reads``, put ``value`` into element 0 of
    its output before the output is checked. Calls from a replay count
    too, so a replay meets the same fault."""
    original = tensor._result
    calls = itertools.count(1)  # next() on it is atomic, so threads may share it

    def poisoned(data, name, parents, backward):
        if name == op:
            if next(calls) > skip if reads is None else any(p is reads for p in parents):
                data = data.copy()
                data.reshape(-1)[0] = value
        return original(data, name, parents, backward)

    monkeypatch.setattr(tensor, "_result", poisoned)


def _calls(run, op, monkeypatch):
    """How many times ``run()`` calls ``op`` when nothing is poisoned."""
    seen = []
    original = tensor._result

    def counting(data, name, parents, backward):
        seen.append(name)
        return original(data, name, parents, backward)

    with monkeypatch.context() as m:
        m.setattr(tensor, "_result", counting)
        with no_grad():
            run()
    return seen.count(op)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("where", ["first", "decoder", "last"])
@pytest.mark.parametrize("op", OPS)
def test_nonfinite_value_names_the_op_that_made_it(monkeypatch, variant, path, where, op):
    model = _model(variant)
    # the first fault: the op's first call, its first call after the
    # encoder, or its last call of the whole run
    skip = 0
    if where == "decoder":
        skip = _calls(lambda: encode(model, SRC), op, monkeypatch)
    elif where == "last":
        skip = _calls(lambda: PATHS[path](model), op, monkeypatch) - 1
    for label, value in VALUES.items():
        with monkeypatch.context() as m:
            _poison(m, op, value, skip)
            with pytest.raises(NonFiniteError) as info:
                PATHS[path](model)
        assert f"op '{NAMED[op]}'" in str(info.value), (label, str(info.value))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("path", sorted(PATHS))
def test_minus_inf_that_relu_would_hide_is_reported(monkeypatch, variant, path):
    """The FFN's first bias add feeds relu, which maps -inf to 0."""
    model = _model(variant)
    for layer in model.params.dec:
        with monkeypatch.context() as m:
            _poison(m, "add", -np.inf, reads=layer.ffn.b1)
            with pytest.raises(NonFiniteError, match="op 'add'"):
                PATHS[path](model)


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("final", ["enc_final_ln", "dec_final_ln"])
def test_pre_ln_final_norms_are_named(monkeypatch, path, final):
    model = _model("pre-LN AT")
    with monkeypatch.context() as m:
        _poison(m, "layer_norm", np.nan, reads=getattr(model.params, final).gain)
        with pytest.raises(NonFiniteError, match="op 'layer_norm'"):
            PATHS[path](model)


def test_replay_draws_the_dropout_masks_of_the_failed_run(monkeypatch):
    """A block that fails its check under no_grad runs again with its
    dropout stream rewound, so the replay computes what failed."""
    model = build_model(replace(_model("AT").config, dropout=0.3))
    masks = []
    original = tensor._result

    def recording(data, name, parents, backward):
        if name == "dropout":
            masks.append(data == 0)
        return original(data, name, parents, backward)

    monkeypatch.setattr(tensor, "_result", recording)
    _poison(monkeypatch, "layer_norm", np.nan)
    rng = np.random.Generator(np.random.PCG64(0))
    with no_grad(), pytest.raises(NonFiniteError, match="op 'layer_norm'"):
        encode(model, SRC, train=True, rng=rng)
    # the embedding's dropout, then the first block's, run and replayed
    assert len(masks) == 3
    np.testing.assert_array_equal(masks[1], masks[2])
