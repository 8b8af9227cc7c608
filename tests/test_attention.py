"""Attention masks and the multi-head layer: window geometry, hard-zero
exclusion of out-of-window keys, and the static-key/value path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovnmt.attention import (
    AttentionParams,
    build_mask,
    multi_head_attention,
    transparent_self_attention,
)
from markovnmt.tensor import Tensor


def make_params(d_model, heads, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    limit = np.sqrt(6.0 / (2 * d_model))

    def w():
        return Tensor(rng.uniform(-limit, limit, (d_model, d_model)).astype(np.float32))

    return AttentionParams(w_q=w(), w_k=w(), w_v=w(), w_o=w(), heads=heads)


# ---------------------------------------------------------------- masks


def test_banded_mask_small_case():
    mask = build_mask("banded", 4, k=2)
    expected = np.array(
        [
            [1, 0, 0, 0],
            [1, 1, 0, 0],
            [0, 1, 1, 0],
            [0, 0, 1, 1],
        ],
        dtype=bool,
    )
    assert np.array_equal(mask, expected)


def test_causal_and_none_masks():
    causal = build_mask("causal", 3)
    assert np.array_equal(causal, np.tril(np.ones((3, 3), dtype=bool)))
    assert build_mask("none", 3).all()


def test_mask_kind_validation():
    with pytest.raises(ValueError):
        build_mask("banded", 4)  # needs k
    with pytest.raises(ValueError):
        build_mask("banded", 4, k=0)
    with pytest.raises(ValueError):
        build_mask("causal", 4, k=2)  # k is banded-only
    with pytest.raises(ValueError):
        build_mask("diagonal", 4)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 15))
def test_banded_mask_row_geometry(n, k):
    mask = build_mask("banded", n, k=k)
    causal = build_mask("causal", n)
    assert not (mask & ~causal).any()  # band never looks ahead
    for i in range(n):
        row = np.flatnonzero(mask[i])
        assert row.size == min(i + 1, k)  # exactly the last k positions
        assert row[-1] == i and row[0] == max(0, i - k + 1)
    if k >= n:
        assert np.array_equal(mask, causal)


def test_masked_score_count_values():
    # causal n=25: 1+2+...+25 = 325; banded k=5 n=25: 15 + 20*5 = 115
    assert build_mask("causal", 25).sum() == 325
    assert build_mask("banded", 25, k=5).sum() == 115
    assert build_mask("none", 4).sum() == 16


# ------------------------------------------------- multi-head attention


def test_multi_head_shapes_and_counters():
    params = make_params(8, heads=2)
    x = Tensor(np.random.default_rng(0).normal(size=(5, 8)).astype(np.float32))
    allow = build_mask("causal", 5)
    counts = {"self_attn_scores": 0}
    out = multi_head_attention(x, x, params, allow, counts=counts)
    assert out.shape == (5, 8)
    assert counts["self_attn_scores"] == allow.sum() * 2  # per head


def test_head_split_requires_divisibility():
    params = make_params(8, heads=3)
    x = Tensor(np.zeros((2, 8)))
    with pytest.raises(ValueError):
        multi_head_attention(x, x, params, build_mask("none", 2))


def test_masked_keys_have_exactly_zero_influence():
    """Editing a key/value row outside every query's window leaves the rows
    whose windows exclude it bit-identical."""
    params = make_params(16, heads=4, seed=3)
    rng = np.random.default_rng(7)
    base = rng.normal(size=(6, 16)).astype(np.float32)
    allow = build_mask("banded", 6, k=2)
    out_a = multi_head_attention(Tensor(base), Tensor(base.copy()), params, allow).data
    edited = base.copy()
    edited[1] += 10.0  # row 1 is visible only to query rows 1 and 2
    out_b = multi_head_attention(Tensor(base), Tensor(edited), params, allow).data
    changed = np.flatnonzero(np.abs(out_a - out_b).max(axis=-1) > 0)
    assert set(changed.tolist()) <= {1, 2}
    assert np.array_equal(out_a[3:], out_b[3:])  # bit-identical, not approximately


def test_future_keys_invisible_under_causal_mask():
    params = make_params(8, heads=2, seed=1)
    rng = np.random.default_rng(2)
    base = rng.normal(size=(4, 8)).astype(np.float32)
    allow = build_mask("causal", 4)
    out_a = multi_head_attention(Tensor(base), Tensor(base.copy()), params, allow).data
    edited = base.copy()
    edited[3] = -edited[3]
    out_b = multi_head_attention(Tensor(base), Tensor(edited), params, allow).data
    assert np.array_equal(out_a[:3], out_b[:3])


def test_transparent_wrapper_matches_standard_on_same_inputs():
    """The static-K/V layer is the same computation, fed static rows."""
    params = make_params(8, heads=2, seed=5)
    rng = np.random.default_rng(9)
    hidden = Tensor(rng.normal(size=(4, 8)).astype(np.float32))
    static = Tensor(rng.normal(size=(4, 8)).astype(np.float32))
    allow = build_mask("banded", 4, k=2)
    via_wrapper = transparent_self_attention(hidden, static, params, allow).data
    via_standard = multi_head_attention(hidden, static, params, allow).data
    assert np.array_equal(via_wrapper, via_standard)


def test_two_stacked_contextual_layers_leak_beyond_the_window():
    """Whole-point demonstration at the attention level: with contextual
    keys/values, information hops through intermediate rows across two
    layers, so a row outside the one-layer window still shifts the output.
    With static keys/values the second layer reads unmixed rows and the
    same edit cannot propagate."""
    d, k = 16, 2
    p1, p2 = make_params(d, heads=2, seed=11), make_params(d, heads=2, seed=12)
    rng = np.random.default_rng(13)
    base = rng.normal(size=(6, d)).astype(np.float32)
    allow = build_mask("banded", 6, k=k)

    def contextual(x):
        h = multi_head_attention(Tensor(x), Tensor(x), p1, allow)
        return multi_head_attention(h, h, p2, allow).data

    def transparent(x):
        static = Tensor(x)
        h = multi_head_attention(static, static, p1, allow)
        return multi_head_attention(h, static, p2, allow).data

    edited = base.copy()
    edited[1] += 5.0
    # row 3's one-layer window is {2, 3}; a second contextual hop reaches
    # row 1 through row 2's mixed representation
    assert np.abs(contextual(base)[3] - contextual(edited)[3]).max() > 1e-6
    assert np.array_equal(transparent(base)[3], transparent(edited)[3])


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_window_edit_invariance_randomized(seed, k):
    params = make_params(8, heads=2, seed=seed % 100)
    rng = np.random.default_rng(seed)
    n = 7
    base = rng.normal(size=(n, 8)).astype(np.float32)
    allow = build_mask("banded", n, k=k)
    j = int(rng.integers(0, n))
    edited = base.copy()
    edited[j] += rng.normal(size=8).astype(np.float32)
    out_a = multi_head_attention(Tensor(base), Tensor(base.copy()), params, allow).data
    out_b = multi_head_attention(Tensor(base), Tensor(edited), params, allow).data
    for i in range(n):
        if not allow[i, j]:
            assert np.array_equal(out_a[i], out_b[i])
