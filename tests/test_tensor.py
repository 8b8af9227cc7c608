"""Autodiff core: op values against hand-derived constants, graph record
invariants, and finite-difference agreement."""

import math
import threading
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovnmt.tensor import (
    ComputationRecord,
    NonFiniteError,
    Tensor,
    add,
    checked,
    cross_entropy,
    dropout,
    embedding,
    grad_check,
    layer_norm,
    matmul,
    merge_heads,
    mul,
    no_grad,
    relu,
    reshape,
    scale,
    softmax_masked,
    split_heads,
    total,
    transpose_last,
)

# hand-derived expected values
LN_3 = 1.0986122886681098
NLL_THREE_QUARTERS = 0.28768207245178085  # -ln(0.75)
LN_11 = 2.3978952727983707


def test_tensor_dtype_policy():
    # non-float input is coerced to float32; float dtypes pass through
    # untouched so the float64 finite-difference path stays float64
    assert Tensor(np.array([1, 2, 3])).data.dtype == np.float32
    assert Tensor(np.zeros(4, dtype=np.float32)).data.dtype == np.float32
    assert Tensor(np.zeros(4, dtype=np.float64)).data.dtype == np.float64
    assert Tensor([1.0], dtype=np.float32).data.dtype == np.float32


def test_rank_limit_enforced():
    with pytest.raises(ValueError):
        Tensor(np.zeros((2, 2, 2, 2)))


def test_matmul_2d_value():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    assert np.array_equal(matmul(a, b).data, np.array([[3.0], [7.0]], dtype=np.float32))


def test_matmul_rank_rules():
    a3 = Tensor(np.ones((2, 3, 4)))
    b2 = Tensor(np.ones((4, 5)))
    assert matmul(a3, b2).shape == (2, 3, 5)
    b3 = Tensor(np.ones((2, 4, 6)))
    assert matmul(a3, b3).shape == (2, 3, 6)
    with pytest.raises(ValueError):
        matmul(b2, a3)  # (2,3) rank pattern unsupported
    with pytest.raises(ValueError):
        matmul(a3, Tensor(np.ones((3, 4, 6))))  # batch mismatch


def test_add_bias_and_table_broadcast():
    x = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
    bias = Tensor(np.arange(4.0), requires_grad=True)
    table = Tensor(np.ones((3, 4)), requires_grad=True)
    out = total(add(add(x, bias), table))
    out.backward()
    assert np.array_equal(bias.grad, np.full(4, 6.0, dtype=np.float32))  # 2*3 rows
    assert np.array_equal(table.grad, np.full((3, 4), 2.0, dtype=np.float32))  # batch of 2
    with pytest.raises(ValueError):
        add(x, Tensor(np.ones((2, 4))))


def test_softmax_masked_value():
    scores = Tensor([[0.0, LN_3]])
    out = softmax_masked(scores, None)
    np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-7)


def test_softmax_masked_exact_zero_and_renormalize():
    scores = Tensor(np.array([[5.0, -2.0, 1.0]]), requires_grad=True)
    allow = np.array([[True, False, True]])
    out = softmax_masked(scores, allow)
    assert out.data[0, 1] == 0.0  # hard zero, not merely tiny
    assert out.data.sum() == pytest.approx(1.0, abs=1e-7)
    # masked column must also be dead in the backward direction
    total(mul(out, Tensor([[1.0, 100.0, 1.0]]))).backward()
    assert scores.grad[0, 1] == 0.0


def test_softmax_masked_rejects_empty_row():
    with pytest.raises(ValueError):
        softmax_masked(Tensor(np.zeros((2, 2))), np.array([[True, True], [False, False]]))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_softmax_masked_rows_stochastic(rows, cols, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    scores = Tensor(rng.normal(size=(rows, cols)).astype(np.float32))
    allow = rng.random((rows, cols)) > 0.3
    allow[:, 0] = True  # keep every row feasible
    out = softmax_masked(scores, allow).data
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(rows), atol=1e-6)
    assert np.all(out[~allow] == 0.0)
    assert np.all(out >= 0.0)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_masked_factor_equals_a_scale_before_it(masked, dtype):
    """The fused factor computes, forward and backward, bit for bit what
    a separate scale op feeding the softmax computes."""
    rng = np.random.Generator(np.random.PCG64(4))
    data = rng.normal(size=(3, 4, 5)).astype(dtype)
    allow = np.tril(np.ones((4, 5), bool)) if masked else None
    upstream = Tensor(rng.normal(size=(3, 4, 5)).astype(dtype))
    fused, split = Tensor(data, requires_grad=True), Tensor(data, requires_grad=True)
    a = softmax_masked(fused, allow, 1.0 / math.sqrt(8))
    b = softmax_masked(scale(split, 1.0 / math.sqrt(8)), allow)
    np.testing.assert_array_equal(a.data, b.data)
    total(mul(a, upstream)).backward()
    total(mul(b, upstream)).backward()
    np.testing.assert_array_equal(fused.grad, split.grad)


def test_layer_norm_value():
    x = Tensor([[1.0, 3.0]])
    out = layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
    # mean 2, var 1 -> (x - 2)/sqrt(1 + eps)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-4)
    assert out.data[0, 0] == -out.data[0, 1]


def test_cross_entropy_values():
    # two classes, logits (0, ln 3): p(target=1) = 0.75
    logits = Tensor([[0.0, LN_3]])
    loss = cross_entropy(logits, np.array([1]))
    assert loss.item() == pytest.approx(NLL_THREE_QUARTERS, abs=1e-6)
    # uniform logits cost ln V for any smoothing strength
    uniform = Tensor(np.zeros((3, 11)))
    targets = np.array([0, 5, 10])
    for smoothing in (0.0, 0.1, 0.5):
        loss = cross_entropy(uniform, targets, label_smoothing=smoothing)
        assert loss.item() == pytest.approx(LN_11, abs=1e-6)


def test_cross_entropy_ignore_index_mean():
    logits = Tensor(np.array([[0.0, LN_3], [50.0, 0.0], [0.0, LN_3]]))
    # middle row is padding; mean over the two kept rows
    loss = cross_entropy(logits, np.array([1, 9, 1]), ignore_index=9)
    assert loss.item() == pytest.approx(NLL_THREE_QUARTERS, abs=1e-6)
    with pytest.raises(ValueError):
        cross_entropy(logits, np.array([9, 9, 9]), ignore_index=9)
    with pytest.raises(ValueError):
        cross_entropy(logits, np.array([1, 2, 1]))  # id 2 out of range


def test_cross_entropy_gradient_is_p_minus_q():
    logits = Tensor(np.array([[0.0, LN_3]]), requires_grad=True)
    cross_entropy(logits, np.array([1])).backward()
    np.testing.assert_allclose(logits.grad, [[0.25, -0.25]], atol=1e-6)


def test_relu_and_scale_grads():
    x = Tensor([[-1.0, 2.0]], requires_grad=True)
    total(scale(relu(x), 3.0)).backward()
    assert np.array_equal(x.grad, np.array([[0.0, 3.0]], dtype=np.float32))


def test_embedding_gather_and_scatter_grad():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    out = embedding(table, np.array([1, 1, 3]))
    assert np.array_equal(out.data[0], table.data[1])
    total(out).backward()
    expected = np.zeros((4, 3), dtype=np.float32)
    expected[1] = 2.0  # gathered twice
    expected[3] = 1.0
    assert np.array_equal(table.grad, expected)
    with pytest.raises(ValueError):
        embedding(table, np.array([4]))


def test_split_heads_layout_roundtrip_and_grads():
    x = np.arange(2 * 3 * 4, dtype=np.float32).reshape(2, 3, 4)
    heads = split_heads(Tensor(x), 2)
    assert heads.shape == (4, 3, 2)
    assert np.array_equal(heads.data[1], x[0, :, 2:])  # item 0, head 1
    assert np.array_equal(heads.data[2], x[1, :, :2])  # item 1, head 0
    keys = split_heads(Tensor(x), 2, transpose=True)
    assert np.array_equal(keys.data, heads.data.swapaxes(-1, -2))
    assert np.array_equal(merge_heads(heads, 2).data, x)
    assert np.array_equal(merge_heads(split_heads(Tensor(x[0]), 2), 2, rank=2).data, x[0])
    with pytest.raises(ValueError):
        split_heads(Tensor(x), 3)

    rng = np.random.Generator(np.random.PCG64(3))
    w = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    weights = Tensor(rng.normal(size=(2, 3, 6)))

    def f(params):
        (w_,) = params
        q = split_heads(w_, 2)
        k_t = split_heads(w_, 2, transpose=True)
        return total(mul(merge_heads(matmul(q, k_t), 2), weights))

    assert grad_check(f, [w], h=1e-3).max_rel_err <= 1e-3


def test_transpose_and_reshape():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    assert transpose_last(x).shape == (3, 2)
    assert reshape(x, (3, 2)).shape == (3, 2)
    total(transpose_last(x)).backward()
    assert np.array_equal(x.grad, np.ones((2, 3), dtype=np.float32))


def test_dropout_inverted_scaling_and_eval_identity():
    rng = np.random.Generator(np.random.PCG64(0))
    x = Tensor(np.ones((100, 10)))
    out = dropout(x, 0.5, rng)
    kept = out.data[out.data != 0]
    assert np.all(kept == 2.0)  # survivors scaled by 1/(1-p)
    assert 0.3 < (out.data != 0).mean() < 0.7
    assert dropout(x, 0.0, rng) is x


def test_nonfinite_guard_names_the_op():
    big = Tensor(np.array([[1e30]], dtype=np.float32))
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError, match="matmul"):
            matmul(big, Tensor(np.array([[1e30]], dtype=np.float32)))
    with pytest.raises(NonFiniteError):
        Tensor(np.array([np.nan]))


def test_record_topological_order():
    a = Tensor([1.0], requires_grad=True)
    b = Tensor([2.0], requires_grad=True)
    c = add(a, b)
    d = mul(c, c)
    e = total(d)
    record = ComputationRecord.trace(e)
    pos = {id(n): i for i, n in enumerate(record.nodes)}
    for vertex in record.nodes:
        for parent in getattr(vertex, "parents", ()):
            assert pos[id(parent)] < pos[id(vertex)]
    assert record.nodes[-1] is e.node
    # leaves are their own vertices; op outputs are represented by nodes
    assert {id(a), id(b), id(c.node), id(d.node), id(e.node)} == set(pos)


def test_graph_keeps_only_what_backward_reads():
    """A recorded op output is freed once the caller drops it, unless a
    backward closure saved its array: matmul's output, read only by
    softmax_masked, goes, and so does an add's output read only by
    layer_norm; softmax_masked saves its own output. Gradients do not
    depend on whether the caller kept the intermediates."""
    rng = np.random.Generator(np.random.PCG64(4))
    x = Tensor(rng.normal(size=(2, 3, 4)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
    gain = Tensor(rng.normal(size=4).astype(np.float32), requires_grad=True)
    bias = Tensor(rng.normal(size=4).astype(np.float32), requires_grad=True)
    params = (x, w, gain, bias)
    allow = np.array([True, True, False, True])

    def grads(keep: list):
        scores = matmul(x, w)
        weights = softmax_masked(scores, allow, 0.5)
        summed = add(weights, x)
        normed = layer_norm(summed, gain, bias)
        keep.extend((scores, weights, summed))
        loss = total(mul(normed, normed))
        for p in params:
            p.zero_grad()
        return loss, [p.grad for p in params]

    held = []
    loss, _ = grads(held)
    loss.backward()
    expected = [p.grad.copy() for p in params]

    dropped = []
    loss, _ = grads(dropped)
    refs = {t.op: weakref.ref(t.data) for t in dropped}
    dropped.clear()
    assert refs["matmul"]() is None
    assert refs["add"]() is None
    assert refs["softmax_masked"]() is not None
    loss.backward()
    for p, want in zip(params, expected):
        assert p.grad.tobytes() == want.tobytes()


def test_backward_requires_scalar_root():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        add(x, x).backward()


def test_diamond_graph_accumulates_both_paths():
    x = Tensor([3.0], requires_grad=True)
    y = total(mul(x, x))  # dy/dx = 2x = 6
    y.backward()
    np.testing.assert_allclose(x.grad, [6.0])


def test_repeated_backward_accumulates_linearly():
    x = Tensor([3.0], requires_grad=True)
    y = total(mul(x, x))
    y.backward()
    y.backward()
    np.testing.assert_allclose(x.grad, [12.0])  # exactly twice one pass
    x.zero_grad()
    y.backward()
    np.testing.assert_allclose(x.grad, [6.0])


def test_no_grad_blocks_recording():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        y = mul(x, x)
    assert y.node is None and not y.requires_grad
    z = mul(x, x)
    assert z.requires_grad


def test_no_grad_belongs_to_the_calling_thread():
    x = Tensor([1.0], requires_grad=True)
    inside, release = threading.Event(), threading.Event()
    seen = {}

    def hold_no_grad():
        with no_grad():
            inside.set()
            assert release.wait(timeout=30)
            seen["held"] = mul(x, x).requires_grad

    def fresh():
        seen["fresh"] = mul(x, x).requires_grad

    thread = threading.Thread(target=hold_no_grad)
    thread.start()
    try:
        assert inside.wait(timeout=30)
        # another thread's no_grad leaves this one recording
        assert mul(x, x).requires_grad
    finally:
        release.set()
        thread.join(timeout=30)
    with no_grad():
        # a new thread starts recording, whatever the mode of its starter
        thread = threading.Thread(target=fresh)
        thread.start()
        thread.join(timeout=30)
        assert not mul(x, x).requires_grad
    assert seen == {"held": False, "fresh": True}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # float32 overflow, on purpose
def test_replay_checks_only_the_replaying_thread():
    """While one thread replays a failed block with every op checked,
    another thread under no_grad still skips the per-op checks."""
    big = Tensor(np.array([3e38], dtype=np.float32))
    replaying, release = threading.Event(), threading.Event()
    runs, errors = [], []

    def block():
        runs.append(None)
        if len(runs) == 2:  # the replay
            replaying.set()
            assert release.wait(timeout=30)
        return add(big, big)  # inf

    def replay():
        with no_grad():
            try:
                checked(block)
            except NonFiniteError as exc:
                errors.append(exc)

    thread = threading.Thread(target=replay)
    thread.start()
    try:
        assert replaying.wait(timeout=30)
        with no_grad():
            assert np.isinf(add(big, big).data).all()
    finally:
        release.set()
        thread.join(timeout=30)
    assert len(runs) == 2
    assert len(errors) == 1 and "op 'add'" in str(errors[0])


def test_grad_check_on_composite_function():
    rng = np.random.Generator(np.random.PCG64(1))
    w = Tensor(rng.normal(size=(3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.normal(size=3).astype(np.float32), requires_grad=True)
    x = np.array([[0.3, -0.2, 0.8], [1.0, 0.5, -0.4]], dtype=np.float32)

    def f(params):
        w_, b_ = params
        h = relu(add(matmul(Tensor(x), w_), b_))
        sm = softmax_masked(h, np.array([[True, True, False], [True, True, True]]))
        return total(layer_norm(sm, Tensor(np.ones(3)), Tensor(np.zeros(3))))

    result = grad_check(f, [w, b], h=1e-3)
    assert result.max_rel_err <= 1e-3, result


def test_grad_check_catches_a_wrong_gradient():
    w = Tensor([2.0], requires_grad=True)

    def wrong(params):
        (w_,) = params
        out = mul(w_, w_)
        if out.node is not None:
            # pretends d(w^2)/dw = 1
            out.node.backward = lambda g: (g, None)
        return total(out)

    result = grad_check(wrong, [w], h=1e-3)
    assert result.max_rel_err > 0.5


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(982)
@example(1373)
@example(1841)
def test_grad_check_cross_entropy_path(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    logits = Tensor(rng.normal(size=(4, 5)).astype(np.float32), requires_grad=True)
    targets = rng.integers(0, 5, size=4)

    def f(params):
        (l,) = params
        return cross_entropy(l, targets, label_smoothing=0.1)

    assert grad_check(f, [logits], h=1e-3).max_rel_err <= 1e-3
